//! Extension (Section VI perspectives): "conducting the same experiments
//! on n FPGAs, where n ≫ 8" — how the FN-rate estimate converges as the
//! die population grows.

use htd_bench::{banner, lab, trace_experiment};
use htd_core::em_detect::{SideChannel, TraceMetric};
use htd_core::report::{pct, Table};
use htd_trojan::TrojanSpec;

fn main() {
    banner(
        "Extension — FN-rate estimation with n >> 8 dies",
        "the paper proposes repeating the study on many more FPGAs",
    );
    let lab = lab();
    let mut table = Table::new(&[
        "dies",
        "HT 2: µ/σ",
        "HT 2: FN analytic",
        "HT 2: FN empirical",
    ]);
    for n in [8usize, 16, 32, 64, 128, 256] {
        let rows = trace_experiment(
            &lab,
            &[TrojanSpec::ht2()],
            SideChannel::Em,
            TraceMetric::SumOfLocalMaxima,
            n,
            1234,
        );
        let r = &rows[0].channels[0];
        table.push_row(&[
            n.to_string(),
            format!("{:.2}", r.mu / r.sigma),
            pct(r.analytic_fn_rate),
            pct(r.empirical_fn_rate),
        ]);
    }
    println!("\n{table}");
    println!("8 dies give a noisy estimate of µ/σ (the paper's own caveat);");
    println!("the analytic Eq. (5) rate stabilises once n reaches a few dozen.");
}
