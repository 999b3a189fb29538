//! Format-stability tests: every artifact kind has a golden fixture file
//! checked in under `tests/fixtures/` at the repository root. Rendering
//! the fixture's in-memory value must reproduce the stored bytes exactly,
//! and parsing the stored bytes must reproduce the value — so any change
//! to the grammar, the float formatting, the checksum, or the header is
//! caught here and forces a deliberate `FORMAT_VERSION` decision.
//!
//! To regenerate after an intentional format change:
//!
//! ```sh
//! cargo test -p htd-store --test fixtures -- --ignored regenerate
//! ```

use std::path::PathBuf;

use htd_core::campaign::CampaignPlan;
use htd_core::channel::{Acquisition, Calibration, ChannelSpec, GoldenReference};
use htd_core::delay_detect::DelayMatrix;
use htd_core::em_detect::TraceMetric;
use htd_core::fusion::Baseline;
use htd_core::fusion::{
    ChannelResult, ChannelState, Characterization, MultiChannelReport, MultiChannelRow,
    ScoredChannel,
};
use htd_core::reffree::ReferenceFreeFit;
use htd_core::resilience::ChannelHealth;
use htd_em::Trace;
use htd_faults::FaultPlan;
use htd_stats::Gaussian;
use htd_store::{Artifact, ChannelFit, ClassifierModel, ScorableArtifact};
use htd_timing::GlitchParams;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures")
}

fn glitch() -> GlitchParams {
    GlitchParams {
        start_period_ps: 5200.0,
        step_ps: 25.0,
        steps: 96,
        setup_ps: 180.0,
        noise_ps: 12.5,
    }
}

fn plan() -> CampaignPlan {
    CampaignPlan::with_random_pairs(4, 2, 2, [0x42; 16], [0x0f; 16], 7)
}

fn trace() -> Trace {
    Trace::new(vec![0.5, -1.25, 1.0 / 3.0, 300261.7222222223], 125.0)
}

fn matrix() -> DelayMatrix {
    DelayMatrix {
        mean_onset_steps: vec![vec![4.5, 6.0], vec![5.25, 7.125]],
    }
}

fn result(channel: &str, mu: f64) -> ChannelResult {
    ChannelResult {
        channel: channel.to_string(),
        mu,
        sigma: 1.0 / 3.0,
        analytic_fn_rate: 1e-9,
        empirical_fn_rate: 0.0,
        empirical_fp_rate: 0.125,
    }
}

fn report() -> MultiChannelReport {
    MultiChannelReport {
        rows: vec![MultiChannelRow {
            name: "HT \"fixture\"".to_string(),
            size_fraction: 0.0123,
            channels: vec![result("EM", 12.5), result("delay", 135.078)],
            fused: Some(result("fused", 3.245)),
        }],
        n_dies: 4,
        channel_names: vec!["EM".to_string(), "delay".to_string()],
        health: vec![],
    }
}

fn golden() -> ScorableArtifact {
    ScorableArtifact::new(
        vec![
            ChannelSpec::Em(TraceMetric::SumOfLocalMaxima),
            ChannelSpec::Delay,
        ],
        Characterization {
            plan: plan(),
            states: vec![
                ChannelState::pristine(
                    "EM",
                    Calibration::None,
                    GoldenReference::MeanTrace(trace()),
                    vec![1.0, 2.5, -3.0, 0.125],
                ),
                ChannelState::pristine(
                    "delay",
                    Calibration::Glitch(glitch()),
                    GoldenReference::MeanMatrix(matrix()),
                    vec![40.0, 41.5, 39.0, 40.25],
                ),
            ],
            lost: vec![],
        },
    )
    .unwrap()
}

fn classifier() -> ClassifierModel {
    ClassifierModel {
        features: vec!["EM".to_string(), "delay".to_string()],
        bias: -0.125,
        weights: vec![1.5, -2.25],
        means: vec![300261.7222222223, 40.5],
        stds: vec![1234.5, 1.0 / 3.0],
        seed: 2015,
        iterations: 200,
        rate: 0.5,
    }
}

fn reffree() -> ScorableArtifact {
    let states = vec![
        ChannelState {
            channel: "EM".to_string(),
            calibration: Calibration::None,
            baseline: Baseline::ReferenceFree {
                self_scores: vec![1.0, 2.5, -3.0, 0.125],
                fit: ReferenceFreeFit {
                    mean: 0.15625,
                    std: 2.0078,
                    n_dies: 4,
                },
            },
            kept: vec![0, 1, 2, 3],
            health: ChannelHealth::pristine("EM", 4),
        },
        ChannelState {
            channel: "delay".to_string(),
            calibration: Calibration::Glitch(glitch()),
            baseline: Baseline::ReferenceFree {
                self_scores: vec![40.0, 39.0, 40.25],
                fit: ReferenceFreeFit {
                    mean: 39.75,
                    std: 0.5401,
                    n_dies: 3,
                },
            },
            kept: vec![0, 2, 3],
            health: {
                let mut h = ChannelHealth::pristine("delay", 4);
                h.dropped = 1;
                h
            },
        },
    ];
    ScorableArtifact::new(
        vec![
            ChannelSpec::Em(TraceMetric::SumOfLocalMaxima),
            ChannelSpec::Delay,
        ],
        Characterization {
            plan: plan(),
            states,
            lost: vec![],
        },
    )
    .unwrap()
}

fn faultplan() -> FaultPlan {
    FaultPlan {
        seed: 7,
        acquire_rate: 0.2,
        rep_rate: 0.1,
        calibrate_rate: 0.0,
        store_rate: 0.0,
    }
}

fn check<A: Artifact + PartialEq + std::fmt::Debug>(value: &A) {
    let path = fixture_dir().join(format!("{}.htd", value.kind()));
    let stored = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run the regenerate test",
            path.display()
        )
    });
    assert_eq!(
        htd_store::to_text(value),
        stored,
        "`{}` format drifted from {} — if intentional, bump FORMAT_VERSION and regenerate",
        value.kind(),
        path.display(),
    );
    let parsed: A = htd_store::from_text(&stored).expect("fixture must parse");
    assert_eq!(
        &parsed,
        value,
        "fixture {} parses to a different value",
        path.display()
    );
}

#[test]
fn stored_fixtures_are_stable() {
    check(&plan());
    check(&Calibration::Glitch(glitch()));
    check(&Acquisition::Trace(trace()));
    check(&GoldenReference::MeanMatrix(matrix()));
    check(&ChannelFit {
        channel: "EM".to_string(),
        fit: Gaussian::new(300261.7222222223, 1234.5).unwrap(),
    });
    check(&ScoredChannel {
        channel: "delay".to_string(),
        golden: vec![40.0, 41.5, 39.0, 40.25],
        infected: vec![1142.076, 1138.5, 1151.0, 1147.25],
    });
    check(&report());
    check(&golden());
    check(&faultplan());
    check(&classifier());
    check(&reffree());
}

/// Rewrites every fixture from the current format. Run only after a
/// deliberate format change, together with a `FORMAT_VERSION` review.
#[test]
#[ignore = "regenerates the checked-in fixtures"]
fn regenerate() {
    let dir = fixture_dir();
    std::fs::create_dir_all(&dir).unwrap();
    fn write<A: Artifact>(dir: &std::path::Path, value: &A) {
        let path = dir.join(format!("{}.htd", value.kind()));
        std::fs::write(&path, htd_store::to_text(value)).unwrap();
        println!("wrote {}", path.display());
    }
    write(&dir, &plan());
    write(&dir, &Calibration::Glitch(glitch()));
    write(&dir, &Acquisition::Trace(trace()));
    write(&dir, &GoldenReference::MeanMatrix(matrix()));
    write(
        &dir,
        &ChannelFit {
            channel: "EM".to_string(),
            fit: Gaussian::new(300261.7222222223, 1234.5).unwrap(),
        },
    );
    write(
        &dir,
        &ScoredChannel {
            channel: "delay".to_string(),
            golden: vec![40.0, 41.5, 39.0, 40.25],
            infected: vec![1142.076, 1138.5, 1151.0, 1147.25],
        },
    );
    write(&dir, &report());
    write(&dir, &golden());
    write(&dir, &faultplan());
    write(&dir, &classifier());
    write(&dir, &reffree());
}
