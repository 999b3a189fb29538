//! Corruption, truncation and salvage tests for the artifact kinds of
//! the two extra scoring modes: `classifier` (trained logistic-regression
//! weights) and `reffree` (reference-free baseline characterization).
//! Both must uphold the store's contract — strict reads reject every
//! bit flip and truncation, never panic, and the salvage reader
//! recovers what survives without ever passing damage off as pristine.

use htd_core::campaign::CampaignPlan;
use htd_core::channel::{Calibration, ChannelSpec};
use htd_core::em_detect::TraceMetric;
use htd_core::fusion::{Baseline, ChannelState, Characterization};
use htd_core::reffree::ReferenceFreeFit;
use htd_core::resilience::ChannelHealth;
use htd_core::Mode;
use htd_store::{
    from_text, from_text_at, from_text_salvage, sniff_kind, to_text, ClassifierModel,
    ScorableArtifact,
};
use htd_timing::GlitchParams;
use proptest::prelude::*;

fn sample_classifier() -> ClassifierModel {
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

fn sample_reffree() -> ScorableArtifact {
    let plan = CampaignPlan::with_random_pairs(4, 2, 2, [0x42; 16], [0x0f; 16], 7);
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
            calibration: Calibration::Glitch(GlitchParams {
                start_period_ps: 5200.0,
                step_ps: 25.0,
                steps: 96,
                setup_ps: 180.0,
                noise_ps: 12.5,
            }),
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
            plan,
            states,
            lost: vec![],
        },
    )
    .unwrap()
}

// ---------------------------------------------------------------------------
// Strict reads: exhaustive truncation and bit-flip rejection.

#[test]
fn every_classifier_truncation_is_rejected() {
    let text = to_text(&sample_classifier());
    for cut in 0..text.len() {
        if !text.is_char_boundary(cut) {
            continue;
        }
        assert!(
            from_text::<ClassifierModel>(&text[..cut]).is_err(),
            "prefix of {cut} bytes parsed"
        );
    }
}

#[test]
fn every_classifier_bit_flip_is_rejected() {
    let text = to_text(&sample_classifier());
    for pos in 0..text.len() {
        for bit in 0..8 {
            let mut bytes = text.clone().into_bytes();
            bytes[pos] ^= 1 << bit;
            let Ok(corrupt) = String::from_utf8(bytes) else {
                continue;
            };
            assert!(
                from_text::<ClassifierModel>(&corrupt).is_err(),
                "flip of bit {bit} at byte {pos} parsed"
            );
        }
    }
}

#[test]
fn every_reffree_truncation_is_rejected() {
    let text = to_text(&sample_reffree());
    for cut in 0..text.len() {
        if !text.is_char_boundary(cut) {
            continue;
        }
        assert!(
            from_text::<ScorableArtifact>(&text[..cut]).is_err(),
            "prefix of {cut} bytes parsed"
        );
    }
}

#[test]
fn every_reffree_bit_flip_is_rejected() {
    let text = to_text(&sample_reffree());
    for pos in 0..text.len() {
        for bit in 0..8 {
            let mut bytes = text.clone().into_bytes();
            bytes[pos] ^= 1 << bit;
            let Ok(corrupt) = String::from_utf8(bytes) else {
                continue;
            };
            assert!(
                from_text::<ScorableArtifact>(&corrupt).is_err(),
                "flip of bit {bit} at byte {pos} parsed"
            );
        }
    }
}

/// Replaces the first hex digit of the checksum trailer with a
/// different valid digit, yielding a well-formed but stale trailer.
fn stale_trailer(text: &str) -> String {
    let at = text.rfind("checksum fnv1a64 ").expect("trailer") + "checksum fnv1a64 ".len();
    let old = text.as_bytes()[at];
    let new = if old == b'0' { '1' } else { '0' };
    let mut s = text.to_string();
    s.replace_range(at..at + 1, &new.to_string());
    s
}

/// A corrupted checksum trailer is rejected even though the body is
/// pristine: the trailer is part of the trust boundary.
#[test]
fn a_stale_trailer_is_rejected_for_both_kinds() {
    let corrupt = stale_trailer(&to_text(&sample_classifier()));
    assert!(from_text::<ClassifierModel>(&corrupt).is_err());
    // Salvage re-verifies over kept lines, so it demotes, never launders.
    let s = from_text_salvage::<ClassifierModel>(&corrupt).unwrap();
    assert!(s.recovered, "stale trailer must demote the read");

    let corrupt = stale_trailer(&to_text(&sample_reffree()));
    assert!(from_text::<ScorableArtifact>(&corrupt).is_err());
    let s = from_text_salvage::<ScorableArtifact>(&corrupt).unwrap();
    assert!(s.recovered);
}

// ---------------------------------------------------------------------------
// Salvage: recover what survives, mark the read `recovered`.

#[test]
fn salvage_reads_past_a_corrupt_classifier_feature_line() {
    let model = sample_classifier();
    let text = to_text(&model);
    // Garble the EM feature line; the delay feature and the trailer
    // survive, and the dropped line costs only itself.
    assert!(text.contains("channel \"EM\""), "{text}");
    let corrupt = text.replace("channel \"EM\"", "channel #!EM");
    assert!(from_text::<ClassifierModel>(&corrupt).is_err());
    let s = from_text_salvage::<ClassifierModel>(&corrupt).unwrap();
    assert!(s.recovered);
    assert_eq!(s.dropped_lines, 1);
    assert_eq!(s.artifact.features, vec!["delay".to_string()]);
    assert_eq!(s.artifact.weights, vec![-2.25]);
    assert_eq!(s.artifact.bias, model.bias);
    assert_eq!(s.artifact.seed, model.seed);
}

#[test]
fn a_classifier_with_no_surviving_feature_errors() {
    let text = to_text(&sample_classifier());
    let corrupt = text
        .replace("channel \"EM\"", "chan#el EM")
        .replace("channel \"delay\"", "chan#el delay");
    assert!(from_text_salvage::<ClassifierModel>(&corrupt).is_err());
}

#[test]
fn a_corrupt_classifier_trailer_is_never_salvaged() {
    // The bias/trained trailer is strict: a model with made-up
    // hyper-parameters is worse than no model.
    let text = to_text(&sample_classifier());
    let corrupt = text.replace("bias ", "bi#s ");
    assert!(from_text_salvage::<ClassifierModel>(&corrupt).is_err());
}

#[test]
fn salvage_drops_a_corrupt_reffree_block_and_keeps_the_other() {
    let text = to_text(&sample_reffree());
    // Garble the EM block's fit line; the delay block survives with its
    // degraded kept-set intact.
    let corrupt = text.replacen("reffree-fit ", "reffree-f#t ", 1);
    assert!(from_text::<ScorableArtifact>(&corrupt).is_err());
    let s = from_text_salvage::<ScorableArtifact>(&corrupt).unwrap();
    assert!(s.recovered);
    assert!(s.dropped_lines > 0);
    let charac = s.artifact.characterization();
    assert_eq!(charac.states.len(), 1, "only the delay channel survives");
    assert_eq!(charac.states[0].channel, "delay");
    assert_eq!(charac.states[0].kept, vec![0, 2, 3]);
    assert_eq!(s.artifact.specs(), &[ChannelSpec::Delay]);
}

#[test]
fn reffree_truncation_keeps_the_complete_leading_blocks() {
    let text = to_text(&sample_reffree());
    // Cut mid-way through the delay block: EM is complete, delay and
    // the trailer are gone.
    let cut = text.find("glitch").expect("delay calibration line");
    let s = from_text_salvage::<ScorableArtifact>(&text[..cut]).unwrap();
    assert!(s.recovered, "no trailer means no pristine claim");
    let charac = s.artifact.characterization();
    assert_eq!(charac.states.len(), 1);
    assert_eq!(charac.states[0].channel, "EM");
}

#[test]
fn pristine_files_of_both_kinds_salvage_as_not_recovered() {
    let s = from_text_salvage::<ClassifierModel>(&to_text(&sample_classifier())).unwrap();
    assert!(!s.recovered);
    assert_eq!(s.dropped_lines, 0);
    assert_eq!(s.artifact, sample_classifier());

    let s = from_text_salvage::<ScorableArtifact>(&to_text(&sample_reffree())).unwrap();
    assert!(!s.recovered);
    assert_eq!(s.dropped_lines, 0);
    assert_eq!(s.artifact, sample_reffree());
}

// ---------------------------------------------------------------------------
// Kind dispatch: sniffing and the scorable-artifact wrapper.

#[test]
fn sniff_kind_distinguishes_the_scoring_artifacts() {
    assert_eq!(sniff_kind(&to_text(&sample_reffree())), Some("reffree"));
    assert_eq!(
        sniff_kind(&to_text(&sample_classifier())),
        Some("classifier")
    );
    assert_eq!(sniff_kind("not a store file"), None);
}

#[test]
fn scorable_artifact_parses_reffree_by_kind() {
    let text = to_text(&sample_reffree());
    let scorable: ScorableArtifact = from_text_at(&text, "test").unwrap();
    assert_eq!(scorable.characterization().plan.n_dies, 4);
    assert_eq!(scorable.characterization().mode(), Mode::ReferenceFree);
    // A classifier is not scorable: it must be rejected, not misread.
    assert!(from_text_at::<ScorableArtifact>(&to_text(&sample_classifier()), "test").is_err());
}

// ---------------------------------------------------------------------------
// Round-trip exactness: classifier weights survive the store format bit
// for bit over arbitrary values (satellite of the trainer determinism
// contract — a model that drifts through persistence breaks replay).

fn finite() -> std::ops::Range<f64> {
    -1.0e9..1.0e9
}

fn classifier_strategy() -> impl Strategy<Value = ClassifierModel> {
    (1usize..5)
        .prop_flat_map(|d| {
            (
                proptest::collection::vec("[a-zEM\"\\\\\n µσ]{0,12}", d..=d),
                proptest::collection::vec(finite(), d..=d),
                proptest::collection::vec(finite(), d..=d),
                proptest::collection::vec(0.001f64..1.0e6, d..=d),
                (finite(), any::<u64>(), 0usize..10_000, 0.001f64..10.0),
            )
        })
        .prop_map(
            |(features, weights, means, stds, (bias, seed, iterations, rate))| ClassifierModel {
                features,
                bias,
                weights,
                means,
                stds,
                seed,
                iterations,
                rate,
            },
        )
}

proptest! {
    #[test]
    fn classifier_roundtrips_exactly(model in classifier_strategy()) {
        let text = to_text(&model);
        let back = from_text::<ClassifierModel>(&text).expect(&text);
        prop_assert_eq!(back.bias.to_bits(), model.bias.to_bits());
        for (a, b) in back.weights.iter().zip(&model.weights) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in back.means.iter().zip(&model.means) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in back.stds.iter().zip(&model.stds) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(back.rate.to_bits(), model.rate.to_bits());
        prop_assert_eq!(&back, &model, "artifact text:\n{}", text);
    }

    /// Random truncations of arbitrary classifier artifacts always
    /// error, never panic.
    #[test]
    fn truncated_classifiers_error(model in classifier_strategy(), cut in any::<u64>()) {
        let text = to_text(&model);
        let cut = (cut % text.len() as u64) as usize;
        let cut = (0..=cut).rev().find(|&i| text.is_char_boundary(i)).unwrap();
        prop_assert!(from_text::<ClassifierModel>(&text[..cut]).is_err());
    }

    /// Random single-bit flips of arbitrary classifiers always error (or
    /// stop being UTF-8 at all).
    #[test]
    fn bit_flipped_classifiers_error(model in classifier_strategy(), pos in any::<u64>(), bit in 0usize..8) {
        let mut bytes = to_text(&model).into_bytes();
        let pos = (pos % bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << bit;
        if let Ok(text) = String::from_utf8(bytes) {
            prop_assert!(from_text::<ClassifierModel>(&text).is_err());
        }
    }
}

/// The reference-free artifact round-trips its exact value, including
/// the degraded kept-set and the baseline fit.
#[test]
fn reffree_roundtrips_exactly() {
    let artifact = sample_reffree();
    let text = to_text(&artifact);
    let back = from_text::<ScorableArtifact>(&text).expect(&text);
    assert_eq!(back, artifact);
    let s0 = &back.characterization().states[0];
    let Baseline::ReferenceFree { fit, .. } = &s0.baseline else {
        panic!("reference-free baseline");
    };
    assert_eq!(fit.mean.to_bits(), 0.15625f64.to_bits());
    assert_eq!(fit.n_dies, 4);
}
