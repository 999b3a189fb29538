//! End-to-end fault-injection tests: the same [`FaultPlan`] against the
//! same [`CampaignPlan`] must yield a bit-identical degraded report at
//! any worker count, a checked-in fixture pins the exact bytes the
//! `htd` CLI smoke flow produces, and the strict/degraded policy split
//! behaves as documented (exhaustion errors vs quarantine-and-continue).

use std::path::PathBuf;

use htd_core::campaign::CampaignPlan;
use htd_core::channel::{Channel, ChannelSpec};
use htd_core::em_detect::TraceMetric;
use htd_core::fusion::{Characterization, MultiChannelReport};
use htd_core::resilience::RetryPolicy;
use htd_core::{Engine, Error, Lab, Mode, Run};
use htd_faults::{FaultPlan, FaultSite};
use htd_trojan::TrojanSpec;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures")
}

/// The campaign of the CI smoke flow: `htd characterize --dies 6
/// --pairs 2 --reps 2 --seed 42 --channels em,delay`.
fn plan() -> CampaignPlan {
    CampaignPlan::with_random_pairs(6, 2, 2, [0x42; 16], [0x0f; 16], 42)
}

fn specs() -> Vec<ChannelSpec> {
    vec![
        ChannelSpec::Em(TraceMetric::SumOfLocalMaxima),
        ChannelSpec::Delay,
    ]
}

/// The checked-in `tests/fixtures/faultplan.htd` value.
fn faultplan() -> FaultPlan {
    FaultPlan {
        seed: 7,
        acquire_rate: 0.2,
        rep_rate: 0.1,
        calibrate_rate: 0.0,
        store_rate: 0.0,
    }
}

/// Characterizes and scores `ht2` under `faults` + `policy`, both
/// phases faulted, on `workers` workers.
fn faulted_campaign(
    workers: usize,
    faults: &FaultPlan,
    policy: &RetryPolicy,
) -> Result<(Characterization, MultiChannelReport), Error> {
    let run = Run::new(Engine::with_workers(workers)).with_faults(faults.clone(), *policy);
    let lab = Lab::paper();
    let channels: Vec<Box<dyn Channel>> = specs().iter().map(ChannelSpec::build).collect();
    let refs: Vec<&dyn Channel> = channels.iter().map(Box::as_ref).collect();
    let charac = run.characterize(&lab, &plan(), &refs, Mode::Golden)?;
    // A lost channel would leave `refs` out of lockstep with the states;
    // none of these tests expect that here.
    assert_eq!(charac.states.len(), refs.len(), "no channel lost");
    let campaign = run.score(&lab, &charac, &[TrojanSpec::ht2()], &refs)?;
    Ok((charac, campaign.report))
}

#[test]
fn the_faultplan_fixture_is_the_pinned_plan() {
    let path = fixture_dir().join("faultplan.htd");
    let stored = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {} ({e})", path.display()));
    let parsed: FaultPlan = htd_store::from_text(&stored).expect("fixture parses");
    assert_eq!(parsed, faultplan());
}

#[test]
fn degraded_reports_are_bit_identical_across_worker_counts() {
    let faults = faultplan();
    let policy = RetryPolicy::degraded(2);
    let texts: Vec<String> = [1, 2, 8]
        .iter()
        .map(|&w| {
            let (_, report) = faulted_campaign(w, &faults, &policy).expect("campaign completes");
            htd_store::to_text(&report)
        })
        .collect();
    assert_eq!(texts[0], texts[1], "1 vs 2 workers");
    assert_eq!(texts[0], texts[2], "1 vs 8 workers");

    // The run must be *actually* degraded, not vacuously identical: the
    // health section exists and records fault activity.
    let (_, report) = faulted_campaign(1, &faults, &policy).unwrap();
    assert!(!report.health.is_empty(), "health section present");
    let activity: usize = report
        .health
        .iter()
        .map(|h| h.retried + h.dropped + h.reps_dropped)
        .sum();
    assert!(activity > 0, "the fault plan fired somewhere: {report:?}");
}

/// The CLI smoke flow, as a library call: a **pristine** golden artifact
/// (characterize runs fault-free) scored under the committed fault plan.
fn smoke_flow_report() -> MultiChannelReport {
    let engine = Engine::with_workers(2);
    let lab = Lab::paper();
    let channels: Vec<Box<dyn Channel>> = specs().iter().map(ChannelSpec::build).collect();
    let refs: Vec<&dyn Channel> = channels.iter().map(Box::as_ref).collect();
    let charac = Run::new(engine.clone())
        .characterize(&lab, &plan(), &refs, Mode::Golden)
        .expect("characterize");
    Run::new(engine)
        .with_faults(faultplan(), RetryPolicy::degraded(2))
        .score(&lab, &charac, &[TrojanSpec::ht2()], &refs)
        .expect("degraded scoring completes")
        .report
}

#[test]
fn a_faulted_campaign_matches_the_pinned_degraded_report() {
    let path = fixture_dir().join("degraded_report.htd");
    let stored = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run the regenerate test below",
            path.display()
        )
    });
    assert_eq!(
        htd_store::to_text(&smoke_flow_report()),
        stored,
        "degraded report drifted from {}",
        path.display()
    );
}

/// Rewrites `tests/fixtures/degraded_report.htd` from the current
/// pipeline. Run only after a deliberate change to the measurement or
/// fault semantics:
///
/// ```sh
/// cargo test -p htd-store --test fault_injection -- --ignored regenerate
/// ```
#[test]
#[ignore = "regenerates the checked-in degraded report fixture"]
fn regenerate_degraded_report() {
    let path = fixture_dir().join("degraded_report.htd");
    std::fs::write(&path, htd_store::to_text(&smoke_flow_report())).unwrap();
    println!("wrote {}", path.display());
}

#[test]
fn strict_policies_surface_exhaustion_instead_of_degrading() {
    // At a 90% acquire fault rate, some die exhausts a zero-retry budget
    // with near certainty; strict policy must turn that into an error.
    let faults = FaultPlan {
        seed: 1,
        acquire_rate: 0.9,
        rep_rate: 0.0,
        calibrate_rate: 0.0,
        store_rate: 0.0,
    };
    let err = faulted_campaign(2, &faults, &RetryPolicy::strict()).unwrap_err();
    assert!(
        matches!(err, Error::AcquisitionExhausted { .. }),
        "unexpected error: {err}"
    );
}

#[test]
fn moderate_drop_rates_complete_with_per_channel_health() {
    // A campaign with ~20% injected acquisition drops and *no* retry
    // budget must still complete under allow_degraded, quarantining the
    // faulted dies. Deterministic seed search: find a plan that drops at
    // least one die yet leaves every channel two dies to stand on.
    let policy = RetryPolicy {
        max_retries: 0,
        allow_degraded: true,
    };
    let mut outcome = None;
    for seed in 0..1000 {
        let faults = FaultPlan {
            seed,
            acquire_rate: 0.2,
            rep_rate: 0.0,
            calibrate_rate: 0.0,
            store_rate: 0.0,
        };
        let Ok((charac, report)) = faulted_campaign(2, &faults, &policy) else {
            continue;
        };
        let dropped: usize = charac.states.iter().map(|s| s.health.dropped).sum();
        if dropped == 0 {
            continue;
        }
        outcome = Some((charac, report));
        break;
    }
    let (charac, report) = outcome.expect("some seed drops a die but completes");
    for state in &charac.states {
        assert!(state.kept.len() >= 2);
        assert_eq!(state.kept.len(), charac.plan.n_dies - state.health.dropped);
    }
    assert_eq!(report.health.len(), 2, "one health record per channel");
    assert!(report.health.iter().all(|h| !h.lost));
}

#[test]
fn an_exhausted_calibration_loses_the_channel_but_not_the_campaign() {
    // Deterministic seed search on the fault plan alone (no simulation):
    // EM (channel 0) must diverge on all three calibration attempts while
    // delay (channel 1) calibrates within budget.
    let max_retries = 2;
    let seed = (0..1000)
        .find(|&seed| {
            let fp = FaultPlan {
                seed,
                acquire_rate: 0.0,
                rep_rate: 0.0,
                calibrate_rate: 0.5,
                store_rate: 0.0,
            };
            let all_fire =
                |c: u64| (0..=max_retries as u64).all(|a| fp.fires(FaultSite::Calibrate, &[c, a]));
            all_fire(0) && !all_fire(1)
        })
        .expect("some seed loses exactly the EM calibration");
    let faults = FaultPlan {
        seed,
        acquire_rate: 0.0,
        rep_rate: 0.0,
        calibrate_rate: 0.5,
        store_rate: 0.0,
    };
    let engine = Engine::with_workers(2);
    let lab = Lab::paper();
    let channels: Vec<Box<dyn Channel>> = specs().iter().map(ChannelSpec::build).collect();
    let refs: Vec<&dyn Channel> = channels.iter().map(Box::as_ref).collect();
    let charac = Run::new(engine.clone())
        .with_faults(faults.clone(), RetryPolicy::degraded(max_retries))
        .characterize(&lab, &plan(), &refs, Mode::Golden)
        .expect("the delay channel carries the campaign");
    let names: Vec<&str> = charac.states.iter().map(|s| s.channel.as_str()).collect();
    assert_eq!(names, ["delay"]);
    assert_eq!(charac.lost.len(), 1);
    assert_eq!(charac.lost[0].channel, "EM");
    assert!(charac.lost[0].lost);
    assert_eq!(charac.lost[0].attempted, max_retries + 1);

    // The degraded characterization still stores and round-trips.
    let artifact =
        htd_store::ScorableArtifact::new(vec![ChannelSpec::Delay], charac).expect("storable");
    let text = htd_store::to_text(&artifact);
    let back: htd_store::ScorableArtifact = htd_store::from_text(&text).expect("round-trips");
    assert_eq!(back, artifact);

    // Under the strict policy the same plan is a hard error.
    let strict = RetryPolicy {
        max_retries,
        allow_degraded: false,
    };
    let err = Run::new(engine)
        .with_faults(faults, strict)
        .characterize(&lab, &plan(), &refs, Mode::Golden)
        .unwrap_err();
    assert!(
        matches!(err, Error::CalibrationDiverged { .. }),
        "unexpected error: {err}"
    );
}
