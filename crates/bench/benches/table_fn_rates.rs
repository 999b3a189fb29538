//! Section V-B headline table: false-negative rate vs trojan size, with
//! the sum-of-local-maxima metric under inter-die process variations.
//!
//! Paper: HT 1 (0.5 %) → 26 %, HT 2 (1.0 %) → 17 %, HT 3 (1.7 %) → 5 %;
//! i.e. detection probability > 95 % for trojans ≥ 1.7 % of the AES.

use htd_bench::{banner, lab, trace_experiment};
use htd_core::em_detect::{SideChannel, TraceMetric};
use htd_core::report::{pct, Table};
use htd_trojan::TrojanSpec;

fn main() {
    banner(
        "Section V-B — false-negative rates vs trojan size",
        "FN = 26% / 17% / 5% for HT sizes 0.5% / 1.0% / 1.7% of the AES",
    );
    let lab = lab();
    let paper = ["26%", "17%", "5%"];

    // First with the paper's population: 8 physical dies.
    println!("\n--- 8 dies (the paper's batch) ---");
    let sweep = |n_dies, seed| {
        trace_experiment(
            &lab,
            &TrojanSpec::size_sweep(),
            SideChannel::Em,
            TraceMetric::SumOfLocalMaxima,
            n_dies,
            seed,
        )
    };
    let report8 = sweep(8, 8);
    let mut t8 = Table::new(&["trojan", "size (AES)", "µ/σ", "FN (Eq.5)", "FN paper"]);
    for (row, paper_fn) in report8.iter().zip(paper) {
        let em = &row.channels[0];
        t8.push_row(&[
            row.name.clone(),
            pct(row.size_fraction),
            format!("{:.2}", em.mu / em.sigma),
            pct(em.analytic_fn_rate),
            paper_fn.to_string(),
        ]);
    }
    println!("{t8}");

    // Then a Monte-Carlo population (the paper's proposed n >> 8) for
    // stable estimates.
    let n = 192;
    println!("--- {n} dies (Monte-Carlo, the paper's n >> 8 perspective) ---");
    let report = sweep(n, 555);
    let mut table = Table::new(&[
        "trojan",
        "size (AES)",
        "µ/σ",
        "FN analytic (Eq.5)",
        "FN empirical",
        "FP empirical",
        "detection",
        "FN paper",
    ]);
    for (row, paper_fn) in report.iter().zip(paper) {
        let em = &row.channels[0];
        table.push_row(&[
            row.name.clone(),
            pct(row.size_fraction),
            format!("{:.2}", em.mu / em.sigma),
            pct(em.analytic_fn_rate),
            pct(em.empirical_fn_rate),
            pct(em.empirical_fp_rate),
            pct(1.0 - em.analytic_fn_rate),
            paper_fn.to_string(),
        ]);
    }
    println!("{table}");
    println!("shape check: FN decreases monotonically with size; the 0.5% HT is");
    println!("hard under PV; the 1.7% HT clears the paper's >95% detection bar.");
    println!("(our µ grows faster with size than the authors' — see EXPERIMENTS.md)");
}
