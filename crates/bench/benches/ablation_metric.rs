//! Ablation (Section V-B): the paper picks the **sum of local maxima** of
//! the deviation trace as its decision metric, arguing the HT evidence
//! concentrates at trace peaks and that summing them "can increase the HT
//! detection probability". This bench compares that metric against
//! single-point and norm alternatives.

use htd_bench::{banner, lab, trace_experiment};
use htd_core::em_detect::{SideChannel, TraceMetric};
use htd_core::report::{pct, Table};
use htd_trojan::TrojanSpec;

fn main() {
    banner(
        "Ablation — decision metric on the deviation trace",
        "summing the local maxima increases detection probability (Section V-B)",
    );
    let lab = lab();
    let n = 64;
    let metrics = [
        (TraceMetric::SumOfLocalMaxima, "Σ local maxima (paper)"),
        (TraceMetric::MaxPoint, "single max point"),
        (TraceMetric::SumAll, "Σ all samples (L1)"),
        (TraceMetric::L2Norm, "L2 norm"),
    ];
    println!("\nevaluating each metric over {n} dies (HT 1 and HT 2)...");
    let mut table = Table::new(&["metric", "HT 1: µ/σ", "HT 1: FN", "HT 2: µ/σ", "HT 2: FN"]);
    for (metric, label) in metrics {
        let rows = trace_experiment(
            &lab,
            &[TrojanSpec::ht1(), TrojanSpec::ht2()],
            SideChannel::Em,
            metric,
            n,
            808,
        );
        let (ht1, ht2) = (&rows[0].channels[0], &rows[1].channels[0]);
        table.push_row(&[
            label.to_string(),
            format!("{:.2}", ht1.mu / ht1.sigma),
            pct(ht1.analytic_fn_rate),
            format!("{:.2}", ht2.mu / ht2.sigma),
            pct(ht2.analytic_fn_rate),
        ]);
    }
    println!("{table}");
    println!("finding: in this substrate the deviation energy is spread over many");
    println!("correlated peaks (PV timing warp moves whole bursts), so all four");
    println!("scalarisations separate the populations almost equally — the");
    println!("paper's Σ-local-maxima choice is as good as any and needs no");
    println!("per-sample calibration, which supports using it, though we cannot");
    println!("reproduce a strict advantage over the single best sample here.");
}
