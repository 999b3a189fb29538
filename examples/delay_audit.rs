//! Delay-fingerprint audit (the paper's Section III workflow): a lab
//! receives a device back from an untrusted foundry and compares its
//! per-bit path delays against the golden model, pair by pair.
//!
//! ```sh
//! cargo run --release --example delay_audit
//! ```

use htd_core::delay_detect::{characterize_golden, DelayCampaign, DelayDetector};
use htd_core::prelude::*;
use htd_core::report::{ps, Table};
use htd_core::ProgrammedDevice;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let lab = Lab::paper();
    let golden = Design::golden(&lab)?;
    let die = lab.fabricate_die(0);
    let golden_dev = ProgrammedDevice::new(&lab, &golden, &die);

    println!("characterising golden model: 25 (P,K) pairs x 10 glitch sweeps...");
    let campaign = DelayCampaign::random(25, 10, 0xA0D1_7017);
    let detector = DelayDetector::new(characterize_golden(
        &Engine::default(),
        &golden_dev,
        campaign,
    )?);
    println!(
        "sweep: start {} / step {} ps / {} steps\n",
        ps(detector.golden().params.start_period_ps),
        detector.golden().params.step_ps,
        detector.golden().params.steps,
    );

    // Audit a shipment of devices: clean re-fabrications and infected ones.
    let shipment: Vec<(&str, Design)> = vec![
        ("unit-A (clean)", golden.clone()),
        ("unit-B (clean)", golden.clone()),
        (
            "unit-C (HT-comb)",
            Design::infected(&lab, &TrojanSpec::ht_comb())?,
        ),
        (
            "unit-D (HT-seq)",
            Design::infected(&lab, &TrojanSpec::ht_seq())?,
        ),
        ("unit-E (HT 3)", Design::infected(&lab, &TrojanSpec::ht3())?),
    ];

    let mut table = Table::new(&["unit", "max |ΔD|", "flagged bits", "verdict"]);
    for (i, (name, design)) in shipment.iter().enumerate() {
        let dut = ProgrammedDevice::new(&lab, design, &die);
        let evidence = detector.examine(&Engine::default(), &dut, 1000 + i as u64)?;
        table.push_row(&[
            name.to_string(),
            ps(evidence.max_diff_ps),
            evidence.flagged_bits.to_string(),
            if evidence.infected {
                "REJECT — trojan suspected"
            } else {
                "accept"
            }
            .to_string(),
        ]);
    }
    println!("{table}");
    println!("clean units show only measurement-noise residue; every infected");
    println!(
        "unit shifts many bits well past the {} ps threshold.",
        DelayDetector::DEFAULT_THRESHOLD_PS
    );
    Ok(())
}
