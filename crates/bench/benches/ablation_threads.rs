//! Engine ablation — worker count vs wall-clock on the Fig. 3 campaign
//! (50 pairs × 10 repetitions), plus a live check of the engine's core
//! guarantee: the measured `DelayMatrix` is **bit-identical at every
//! worker count, including 1**. Parallelism only changes when each sweep
//! runs, never what it measures.

use std::time::Instant;

use htd_bench::{banner, lab};
use htd_core::delay_detect::{characterize_golden, measure_matrix, DelayCampaign};
use htd_core::report::Table;
use htd_core::{Design, Engine, ProgrammedDevice};

fn main() {
    banner(
        "Ablation — engine worker count on the Fig. 3 campaign",
        "50 pairs × 10 sweeps; bit-identical results at every worker count",
    );
    let lab = lab();
    let golden = Design::golden(&lab).expect("golden design builds");
    let die = lab.fabricate_die(0);
    let campaign = DelayCampaign::paper(0xF1633);

    // Characterise once (serial) to pin the sweep parameters every run
    // below shares.
    println!("\ncharacterising the golden model (serial)...");
    let gdev = ProgrammedDevice::new(&lab, &golden, &die);
    let model = characterize_golden(&Engine::serial(), &gdev, campaign.clone())
        .expect("golden characterisation succeeds");

    let auto = Engine::auto().workers();
    let mut counts = vec![1usize, 2, 4];
    if !counts.contains(&auto) {
        counts.push(auto);
    }
    println!("machine reports {auto} available workers (HTD_WORKERS overrides)");

    let mut table = Table::new(&["workers", "wall (s)", "speedup vs 1", "matrix"]);
    let mut reference: Option<(htd_core::delay_detect::DelayMatrix, f64)> = None;
    for &w in &counts {
        // A fresh device per run: cold caches, so every run performs the
        // same simulation work.
        let dev = ProgrammedDevice::new(&lab, &golden, &die);
        let t0 = Instant::now();
        let matrix = measure_matrix(&Engine::with_workers(w), &dev, &campaign, &model.params, 1)
            .expect("matrix measurement succeeds");
        let dt = t0.elapsed().as_secs_f64();
        let (identical, speedup) = match &reference {
            None => {
                reference = Some((matrix.clone(), dt));
                (true, 1.0)
            }
            Some((ref_matrix, ref_dt)) => (matrix == *ref_matrix, ref_dt / dt),
        };
        assert!(identical, "matrix diverged at {w} workers");
        table.push_row(&[
            w.to_string(),
            format!("{dt:.2}"),
            format!("{speedup:.2}×"),
            "bit-identical".to_string(),
        ]);
    }
    println!("\n{table}");
    println!("the campaign fans per pair (settle simulation, cached) and per");
    println!("pair × repetition (noise sweeps, index-seeded), so wall-clock");
    println!("scales with cores while every matrix stays bit-identical.");
}
