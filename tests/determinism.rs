//! Reproducibility: every stochastic element is seed-driven, so complete
//! experiments replay bit-for-bit.

use htd_core::delay_detect::{characterize_golden, DelayCampaign, DelayDetector};
use htd_core::prelude::*;
use htd_core::ProgrammedDevice;

/// The Section V experiment on the EM channel: characterize a golden lot
/// of `plan.n_dies` dies, then score `specs`; one result per trojan.
fn em_experiment(engine: Engine, plan: &CampaignPlan, specs: &[TrojanSpec]) -> Vec<ChannelResult> {
    let (lab, run) = (Lab::paper(), Run::new(engine));
    let channels: [&dyn Channel; 1] = [&EmChannel::paper()];
    let charac = run
        .characterize(&lab, plan, &channels, Mode::Golden)
        .unwrap();
    let report = run.score(&lab, &charac, specs, &channels).unwrap().report;
    report
        .rows
        .into_iter()
        .map(|r| r.channels[0].clone())
        .collect()
}

#[test]
fn delay_evidence_replays_exactly() {
    let lab = Lab::paper();
    let golden = Design::golden(&lab).unwrap();
    let infected = Design::infected(&lab, &TrojanSpec::ht_comb()).unwrap();
    let die = lab.fabricate_die(0);
    let gdev = ProgrammedDevice::new(&lab, &golden, &die);
    let dut = ProgrammedDevice::new(&lab, &infected, &die);
    let run = || {
        let campaign = DelayCampaign::random(4, 5, 0xDEAD);
        let det =
            DelayDetector::new(characterize_golden(&Engine::default(), &gdev, campaign).unwrap());
        det.examine(&Engine::default(), &dut, 11).unwrap().diff_ps
    };
    assert_eq!(run(), run());
}

#[test]
fn fn_rate_experiment_replays_exactly() {
    let plan = CampaignPlan::traces(4, [1u8; 16], [2u8; 16], 77);
    let run = || em_experiment(Engine::default(), &plan, &[TrojanSpec::ht2()])[0].mu;
    assert_eq!(run(), run());
}

#[test]
fn different_seeds_give_different_noise() {
    let lab = Lab::paper();
    let golden = Design::golden(&lab).unwrap();
    let die = lab.fabricate_die(0);
    let dev = ProgrammedDevice::new(&lab, &golden, &die);
    let a = dev.acquire_em_trace(&[3u8; 16], &[4u8; 16], 1).unwrap();
    let b = dev.acquire_em_trace(&[3u8; 16], &[4u8; 16], 2).unwrap();
    assert_ne!(a, b);
}

#[test]
fn dies_are_deterministic_functions_of_their_seed() {
    let lab = Lab::paper();
    let a = lab.fabricate_die(123);
    let b = lab.fabricate_die(123);
    let c = lab.fabricate_die(124);
    assert_eq!(a.global_delay_factor(), b.global_delay_factor());
    assert_ne!(a.global_delay_factor(), c.global_delay_factor());
}
