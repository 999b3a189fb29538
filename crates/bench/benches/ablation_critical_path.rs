//! Ablation (Section III-B): "One can highlight on the importance to study
//! not only the critical path but all the data path delays."
//!
//! Detection power when observing only the slowest (critical) ciphertext
//! bit vs all 128 bits.

use htd_bench::{banner, lab};
use htd_core::delay_detect::{characterize_golden, DelayCampaign, DelayDetector};
use htd_core::report::{ps, Table};
use htd_core::{Design, Engine, ProgrammedDevice};
use htd_trojan::TrojanSpec;

fn main() {
    banner(
        "Ablation — critical-path-only vs all-bits delay detection",
        "each wire is a HT sensor; restricting to the critical path loses evidence",
    );
    let lab = lab();
    let golden = Design::golden(&lab).expect("golden design builds");
    let die = lab.fabricate_die(0);
    let gdev = ProgrammedDevice::new(&lab, &golden, &die);
    let campaign = DelayCampaign::random(20, 10, 0xAB1A);
    let detector = DelayDetector::new(
        characterize_golden(&Engine::default(), &gdev, campaign)
            .expect("golden characterisation succeeds"),
    );

    // The "critical bit" per pair = the bit with the earliest golden fault
    // onset (slowest path).
    let critical_bits: Vec<usize> = detector
        .golden()
        .matrix
        .mean_onset_steps
        .iter()
        .map(|row| {
            row.iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                .map(|(i, _)| i)
                .unwrap_or(0)
        })
        .collect();

    let mut table = Table::new(&[
        "trojan",
        "all bits: max |ΔD|",
        "all bits: flagged",
        "critical bit only: max |ΔD|",
        "critical only: flagged pairs",
    ]);
    for spec in [TrojanSpec::ht_comb(), TrojanSpec::ht_seq()] {
        let infected = Design::infected(&lab, &spec).expect("insertion succeeds");
        let dut = ProgrammedDevice::new(&lab, &infected, &die);
        let evidence = detector
            .examine(&Engine::default(), &dut, 42)
            .expect("examination succeeds");
        // Restrict to the per-pair critical bit.
        let crit_diffs: Vec<f64> = evidence
            .diff_ps
            .iter()
            .zip(&critical_bits)
            .map(|(row, &b)| row[b])
            .collect();
        let crit_max = crit_diffs.iter().cloned().fold(0.0, f64::max);
        let crit_flagged = crit_diffs.iter().filter(|&&d| d > 70.0).count();
        table.push_row(&[
            spec.name.clone(),
            ps(evidence.max_diff_ps),
            format!("{} bits", evidence.flagged_bits),
            ps(crit_max),
            format!("{crit_flagged}/{} pairs", crit_diffs.len()),
        ]);
    }
    println!("\n{table}");
    println!("observing all 128 bits flags far more evidence than the critical");
    println!("path alone — the paper's argument for sampling every data path.");
}
