//! The store's headline guarantee (the PR's acceptance criterion):
//! scoring a suspect population against a golden-reference artifact that
//! went through disk — characterize → save → load → score — produces
//! bit-identical per-die scores and FN rates to the all-in-memory
//! characterize → score run on the same `CampaignPlan`, at worker
//! counts 1 and N.

use htd_core::channel::{Channel, ChannelSpec};
use htd_core::em_detect::TraceMetric;
use htd_core::{CampaignPlan, Engine, Lab, Mode, Run};
use htd_store::ScorableArtifact;
use htd_trojan::TrojanSpec;

fn specs() -> Vec<ChannelSpec> {
    vec![
        ChannelSpec::Em(TraceMetric::SumOfLocalMaxima),
        ChannelSpec::Delay,
    ]
}

#[test]
fn scoring_a_loaded_artifact_is_bit_identical_to_the_in_memory_experiment() {
    let lab = Lab::paper();
    let plan = CampaignPlan::with_random_pairs(6, 3, 2, [0x42; 16], [0x0f; 16], 0xA5A5);
    let trojans = [TrojanSpec::ht1(), TrojanSpec::ht3()];
    let channel_specs = specs();
    let channels: Vec<Box<dyn Channel>> = channel_specs.iter().map(ChannelSpec::build).collect();
    let refs: Vec<&dyn Channel> = channels.iter().map(Box::as_ref).collect();

    // The all-in-memory reference run.
    let serial = Run::new(Engine::serial());
    let charac = serial
        .characterize(&lab, &plan, &refs, Mode::Golden)
        .unwrap();
    let in_memory = serial.score(&lab, &charac, &trojans, &refs).unwrap();

    // Round-trip the characterization through disk.
    let path = std::env::temp_dir().join(format!("htd-equivalence-{}.htd", std::process::id()));
    htd_store::save(
        &path,
        &ScorableArtifact::new(channel_specs, charac).unwrap(),
    )
    .unwrap();
    let loaded: ScorableArtifact = htd_store::load(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // The loaded artifact rebuilds its own channels.
    let rebuilt = loaded.build_channels();
    let rebuilt_refs: Vec<&dyn Channel> = rebuilt.iter().map(Box::as_ref).collect();
    let charac = loaded.characterization();

    // Stored golden state is bit-identical (per-die golden scores included).
    for (state, name) in charac.states.iter().zip(["EM", "delay"]) {
        assert_eq!(state.channel, name);
        assert_eq!(state.baseline.scores().len(), plan.n_dies);
    }

    for workers in [1usize, 4] {
        let run = Run::new(Engine::with_workers(workers));
        let scored = run.score(&lab, charac, &trojans, &rebuilt_refs).unwrap();
        // Full-report equality covers every µ, σ, analytic FN rate and
        // empirical FN/FP rate of every channel and the fused rows; the
        // designs carry the per-die suspect scores, not just fitted
        // summaries.
        assert_eq!(scored, in_memory, "workers = {workers}");
    }
}
