//! Pins the exact outputs of the fused delay+EM campaign, the
//! single-trace-channel campaign and the delay detector to the values
//! they produced before the channel/CampaignPlan refactor, at
//! several worker counts. Any change to seed derivation, stage order or
//! floating-point reduction order shows up here as a bit-level diff.

use htd_core::channel::trace_channel;
use htd_core::delay_detect::{characterize_golden, DelayCampaign, DelayDetector};
use htd_core::em_detect::{SideChannel, TraceMetric};
use htd_core::prelude::*;

/// Engines the pinned campaigns replay under; every one must reproduce
/// the single historical result.
fn engines() -> Vec<Engine> {
    vec![Engine::serial(), Engine::with_workers(4)]
}

/// Characterizes `plan`'s golden lot, then scores `specs`, on `engine`.
fn experiment(
    engine: &Engine,
    plan: &CampaignPlan,
    specs: &[TrojanSpec],
    channels: &[&dyn Channel],
) -> MultiChannelReport {
    let (lab, run) = (Lab::paper(), Run::new(engine.clone()));
    let charac = run
        .characterize(&lab, plan, channels, Mode::Golden)
        .unwrap();
    run.score(&lab, &charac, specs, channels).unwrap().report
}

#[test]
fn fusion_experiment_reproduces_prerefactor_values() {
    let plan = CampaignPlan::with_random_pairs(6, 2, 3, [0x11u8; 16], [0x22u8; 16], 42);
    let channels: [&dyn Channel; 2] = [&EmChannel::paper(), &DelayChannel];
    for engine in engines() {
        let report = experiment(&engine, &plan, &[TrojanSpec::ht2()], &channels);
        assert_eq!(report.n_dies, 6);
        let row = &report.rows[0];
        let (em, delay) = (&row.channels[0], &row.channels[1]);
        let fused = row.fused.as_ref().unwrap();

        assert_eq!(em.mu, 300261.7222222223);
        assert_eq!(em.sigma, 148497.90924351552);
        assert_eq!(em.analytic_fn_rate, 0.15600906116797436);
        assert_eq!(em.empirical_fn_rate, 0.16666666666666666);

        assert_eq!(delay.mu, 135.20218460648155);
        assert_eq!(delay.sigma, 156.28431086104035);
        assert_eq!(delay.analytic_fn_rate, 0.3326701310996167);
        assert_eq!(delay.empirical_fn_rate, 0.3333333333333333);

        assert_eq!(fused.mu, 3.4569044806980473);
        assert_eq!(fused.sigma, 2.516457429120397);
        assert_eq!(fused.analytic_fn_rate, 0.2460856918380222);
        assert_eq!(fused.empirical_fn_rate, 0.3333333333333333);
    }
}

#[test]
fn fn_rate_experiment_reproduces_prerefactor_values() {
    let plan = CampaignPlan::traces(4, [1u8; 16], [2u8; 16], 77);
    for engine in engines() {
        for (chain, mu, sigma, analytic) in [
            (
                SideChannel::Em,
                282981.625,
                131912.10057707463,
                0.14172209095675442,
            ),
            (
                SideChannel::Power,
                720301.625,
                269918.1397089353,
                0.09105336217738802,
            ),
        ] {
            let channel = trace_channel(chain, TraceMetric::SumOfLocalMaxima);
            let report = experiment(&engine, &plan, &[TrojanSpec::ht2()], &[&*channel]);
            let row = &report.rows[0];
            let result = &row.channels[0];
            assert_eq!(row.size_fraction, 0.00975609756097561, "{chain:?}");
            assert_eq!(result.mu, mu, "{chain:?}");
            assert_eq!(result.sigma, sigma, "{chain:?}");
            assert_eq!(result.analytic_fn_rate, analytic, "{chain:?}");
            assert_eq!(result.empirical_fn_rate, 0.0, "{chain:?}");
            assert_eq!(result.empirical_fp_rate, 0.0, "{chain:?}");
        }
    }
}

#[test]
fn examine_pairs_reproduces_prerefactor_values() {
    let lab = Lab::paper();
    let golden = Design::golden(&lab).unwrap();
    let infected = Design::infected(&lab, &TrojanSpec::ht_comb()).unwrap();
    let die = lab.fabricate_die(0);
    let gdev = ProgrammedDevice::new(&lab, &golden, &die);
    let dut = ProgrammedDevice::new(&lab, &infected, &die);
    let campaign = DelayCampaign::random(4, 3, 0xC0DE);
    let detector =
        DelayDetector::new(characterize_golden(&Engine::default(), &gdev, campaign).unwrap());
    for engine in engines() {
        let evidence = detector.examine_pairs(&engine, &dut, 9, 3).unwrap();
        assert_eq!(evidence.max_diff_ps, 513.3333333333335);
        assert_eq!(evidence.flagged_bits, 125);
        let sum: f64 = evidence.diff_ps.iter().flatten().sum();
        assert_eq!(sum, 54448.333333333285);
    }
}
