//! Salvage-reader tests: recovering what survives of a damaged golden
//! artifact, while making it impossible for a salvaged file to pass as
//! pristine — the checksum trailer is re-verified over exactly the kept
//! lines, so dropped blocks, truncation, *and* parseable bit-flips all
//! mark the result `recovered`.

use htd_core::campaign::CampaignPlan;
use htd_core::channel::{Calibration, ChannelSpec, GoldenReference};
use htd_core::delay_detect::DelayMatrix;
use htd_core::em_detect::TraceMetric;
use htd_core::fusion::{ChannelState, Characterization};
use htd_em::Trace;
use htd_faults::{FaultPlan, FaultSite};
use htd_store::{from_text, from_text_salvage, to_text, ScorableArtifact};
use htd_timing::GlitchParams;

fn sample_golden() -> ScorableArtifact {
    let plan = CampaignPlan::with_random_pairs(4, 2, 2, [0x42; 16], [0x0f; 16], 7);
    let states = vec![
        ChannelState::pristine(
            "EM",
            Calibration::None,
            GoldenReference::MeanTrace(Trace::new(vec![0.5, -1.25, 1.0 / 3.0], 125.0)),
            vec![1.0, 2.5, -3.0, 0.125],
        ),
        ChannelState::pristine(
            "delay",
            Calibration::Glitch(GlitchParams {
                start_period_ps: 5200.0,
                step_ps: 25.0,
                steps: 96,
                setup_ps: 180.0,
                noise_ps: 12.5,
            }),
            GoldenReference::MeanMatrix(DelayMatrix {
                mean_onset_steps: vec![vec![4.5, 6.0], vec![5.25, 7.125]],
            }),
            vec![40.0, 41.5, 39.0, 40.25],
        ),
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

#[test]
fn pristine_files_salvage_as_not_recovered() {
    let artifact = sample_golden();
    let text = to_text(&artifact);
    let s = from_text_salvage::<ScorableArtifact>(&text).unwrap();
    assert!(!s.recovered, "untouched file must read as pristine");
    assert_eq!(s.dropped_lines, 0);
    assert_eq!(s.artifact, artifact);
}

#[test]
fn a_parseable_bit_flip_cannot_masquerade_as_pristine() {
    let text = to_text(&sample_golden());
    // Flip one score digit: the line still parses, but the checksum
    // (re-verified over the kept lines) is stale.
    assert!(text.contains("s 1 2.5 -3 0.125"), "{text}");
    let flipped = text.replace("s 1 2.5 -3 0.125", "s 1 2.5 -3 0.135");
    assert!(from_text::<ScorableArtifact>(&flipped).is_err());
    let s = from_text_salvage::<ScorableArtifact>(&flipped).unwrap();
    assert!(s.recovered, "stale checksum must demote the read");
    assert_eq!(s.dropped_lines, 0);
    assert_eq!(
        s.artifact.characterization().states[0].baseline.scores()[3],
        0.135
    );
}

#[test]
fn a_corrupt_block_is_dropped_and_the_other_channel_survives() {
    let text = to_text(&sample_golden());
    // Garble the EM channel's reference payload line.
    let corrupt = text.replace("trace 125", "trace #!garbage");
    assert!(from_text::<ScorableArtifact>(&corrupt).is_err());
    let s = from_text_salvage::<ScorableArtifact>(&corrupt).unwrap();
    assert!(s.recovered);
    assert!(s.dropped_lines > 0);
    let charac = s.artifact.characterization();
    assert_eq!(charac.states.len(), 1, "only the delay channel survives");
    assert_eq!(charac.states[0].channel, "delay");
    assert_eq!(s.artifact.specs(), &[ChannelSpec::Delay]);
}

#[test]
fn truncation_keeps_the_complete_leading_blocks() {
    let text = to_text(&sample_golden());
    // Cut mid-way through the delay block: the EM block is complete, the
    // delay block (and the trailer) are gone.
    let cut = text.find("matrix 2 2").expect("delay reference line");
    let s = from_text_salvage::<ScorableArtifact>(&text[..cut]).unwrap();
    assert!(s.recovered, "no trailer means no pristine claim");
    let charac = s.artifact.characterization();
    assert_eq!(charac.states.len(), 1);
    assert_eq!(charac.states[0].channel, "EM");
}

#[test]
fn damaged_headers_and_hopeless_bodies_still_error() {
    let text = to_text(&sample_golden());
    // Header damage is unrecoverable (kind/version unknown).
    let bad_header = text.replacen("htdstore", "htdst0re", 1);
    assert!(from_text_salvage::<ScorableArtifact>(&bad_header).is_err());
    // A body where no channel block survives is an error, not an empty
    // artifact.
    let no_blocks = text
        .replace("channel em", "chan#el em")
        .replace("channel delay", "chan#el delay");
    assert!(from_text_salvage::<ScorableArtifact>(&no_blocks).is_err());
    // Kinds without a salvage override stay fully strict.
    let plan = CampaignPlan::with_random_pairs(4, 2, 2, [0x42; 16], [0x0f; 16], 7);
    let plan_text = to_text(&plan);
    let s = from_text_salvage::<CampaignPlan>(&plan_text).unwrap();
    assert!(!s.recovered);
    let tampered = plan_text.replacen("dies 4", "dies x", 1);
    assert!(from_text_salvage::<CampaignPlan>(&tampered).is_err());
}

#[test]
fn faultplan_store_site_picks_the_lines_to_corrupt() {
    // The StoreRead site drives *which* stored lines a corruption
    // harness damages — deterministically, so the seed search below is
    // stable run to run. Only channel-block lines are candidates (the
    // plan prefix is required reading even for the salvage parser).
    let text = to_text(&sample_golden());
    let lines: Vec<&str> = text.lines().collect();
    let first_block = lines
        .iter()
        .position(|l| l.starts_with("channel "))
        .expect("a channel block");
    let mut salvaged = None;
    for seed in 0..1000 {
        let fp = FaultPlan {
            seed,
            acquire_rate: 0.0,
            rep_rate: 0.0,
            calibrate_rate: 0.0,
            store_rate: 0.25,
        };
        let corrupt: Vec<String> = lines
            .iter()
            .enumerate()
            .map(|(i, line)| {
                if i >= first_block
                    && i + 1 < lines.len()
                    && fp.fires(FaultSite::StoreRead, &[i as u64])
                {
                    format!("#corrupt#{line}")
                } else {
                    (*line).to_string()
                }
            })
            .collect();
        let n_corrupt = corrupt
            .iter()
            .filter(|l| l.starts_with("#corrupt#"))
            .count();
        if n_corrupt == 0 {
            continue;
        }
        let damaged = corrupt.join("\n") + "\n";
        if let Ok(s) = from_text_salvage::<ScorableArtifact>(&damaged) {
            salvaged = Some((n_corrupt, s));
            break;
        }
    }
    let (n_corrupt, s) = salvaged.expect("some seed leaves a salvageable artifact");
    assert!(s.recovered);
    assert!(s.dropped_lines >= n_corrupt);
    assert!(!s.artifact.characterization().states.is_empty());
}
