//! Extension (Section VI perspectives): evaluating detection under
//! inter-die process variations "using both delay and EM measurements" —
//! each channel alone, then fused.

use htd_bench::{banner, experiment, lab, KEY, PT};
use htd_core::channel::{DelayChannel, EmChannel, PowerChannel};
use htd_core::em_detect::TraceMetric;
use htd_core::report::{multi_channel_table, pct, Table};
use htd_core::CampaignPlan;
use htd_trojan::TrojanSpec;

fn main() {
    banner(
        "Extension — fused delay + EM detection across dies",
        "the paper proposes using both channels for a more precise PV-aware evaluation",
    );
    let lab = lab();
    let n_dies = 48;
    println!("\nmeasuring EM traces and delay matrices over {n_dies} dies...");
    // 3 (P,K) pairs in the delay campaign.
    let plan = CampaignPlan::with_random_pairs(n_dies, 3, 3, PT, KEY, 4242);
    let report = experiment(
        &lab,
        &plan,
        &TrojanSpec::size_sweep(),
        &[&EmChannel::paper(), &DelayChannel],
    );

    let mut table = Table::new(&[
        "trojan",
        "EM µ/σ",
        "EM FN",
        "delay µ/σ",
        "delay FN",
        "fused µ/σ",
        "fused FN",
    ]);
    for row in &report.rows {
        let mut cells = vec![row.name.clone()];
        for result in row.channels.iter().chain(&row.fused) {
            cells.push(format!("{:.2}", result.mu / result.sigma));
            cells.push(pct(result.analytic_fn_rate));
        }
        table.push_row(&cells);
    }
    println!("{table}");

    // The same campaign through the generic channel runner, with the power
    // chain added as a third detector: per-channel and fused FN rates for
    // every trojan land in one report.
    let n3 = 24;
    println!("adding the power chain: EM + delay + power over {n3} dies...");
    let plan = CampaignPlan::with_random_pairs(n3, 3, 3, PT, KEY, 4242);
    let report3 = experiment(
        &lab,
        &plan,
        &TrojanSpec::size_sweep(),
        &[
            &EmChannel::paper(),
            &DelayChannel,
            &PowerChannel::new(TraceMetric::SumOfLocalMaxima),
        ],
    );
    println!("{}", multi_channel_table(&report3));

    println!("finding: both channels sense the same die personality (a fast die");
    println!("is fast in delay AND shifts its EM trace), so their golden noise is");
    println!("correlated and the naive z-sum lands between the two channels");
    println!("instead of gaining the independent-evidence √2. A PV-aware combined");
    println!("detector must whiten against the common die-speed factor first —");
    println!("a concrete answer to the paper's future-work question.");
}
