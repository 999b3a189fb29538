//! The paper's headline result, as a regression test: detection
//! probability greater than 95 % (false-negative rate ≤ 5 %) for a trojan
//! of ≥ 1.7 % of the AES area, under inter-die process variations, with
//! the false-negative rate decreasing monotonically in trojan size.
//!
//! Run with a moderate Monte-Carlo population (32 dies) to keep test time
//! reasonable; the `table_fn_rates` bench reproduces the full table.

use htd_core::prelude::*;

/// The Section V experiment on the EM channel: characterize a golden lot
/// of `plan.n_dies` dies, then score `specs`; one row per trojan.
fn em_experiment(plan: &CampaignPlan, specs: &[TrojanSpec]) -> Vec<MultiChannelRow> {
    let (lab, run) = (Lab::paper(), Run::default());
    let channels: [&dyn Channel; 1] = [&EmChannel::paper()];
    let charac = run
        .characterize(&lab, plan, &channels, Mode::Golden)
        .unwrap();
    run.score(&lab, &charac, specs, &channels)
        .unwrap()
        .report
        .rows
}

#[test]
fn fn_rate_decreases_with_size_and_ht3_clears_95_percent() {
    // The year of the paper, why not.
    let plan = CampaignPlan::traces(32, [0x42u8; 16], [0x13u8; 16], 2015);
    let rows = em_experiment(&plan, &TrojanSpec::size_sweep());
    assert_eq!(rows.len(), 3);

    let fn_rates: Vec<f64> = rows
        .iter()
        .map(|r| r.channels[0].analytic_fn_rate)
        .collect();
    // Monotone decrease with size.
    assert!(
        fn_rates[0] > fn_rates[1] && fn_rates[1] > fn_rates[2],
        "FN rates not monotone: {fn_rates:?}"
    );
    // HT 1 (0.5 %) is genuinely hard under PV (paper: 26 %).
    assert!(
        fn_rates[0] > 0.10,
        "HT 1 unrealistically easy: {}",
        fn_rates[0]
    );
    // HT 3 (1.7 %) clears the paper's 95 % detection bar.
    assert!(
        1.0 - fn_rates[2] > 0.95,
        "HT 3 detection {}",
        1.0 - fn_rates[2]
    );
    // Sizes match Section V-A.
    let sizes: Vec<f64> = rows.iter().map(|r| r.size_fraction).collect();
    assert!((sizes[0] - 0.005).abs() < 0.002, "{sizes:?}");
    assert!((sizes[1] - 0.010).abs() < 0.003, "{sizes:?}");
    assert!((sizes[2] - 0.017).abs() < 0.005, "{sizes:?}");
}

#[test]
fn metric_separation_mu_is_positive_for_every_size() {
    let plan = CampaignPlan::traces(12, [0x42u8; 16], [0x13u8; 16], 7);
    for row in em_experiment(&plan, &TrojanSpec::size_sweep()) {
        let name = &row.name;
        let row = &row.channels[0];
        assert!(row.mu > 0.0, "{name} has non-positive offset");
        assert!(row.sigma > 0.0);
        assert!(row.empirical_fp_rate <= 0.5);
    }
}
