//! Golden-reference-free detection — characterizing a suspect die against
//! its **own** symmetric path pairs, so no trusted golden population is
//! ever fabricated (the variability-aware self-referencing approach of
//! arXiv:2201.09668, applied to this repository's delay/EM channels).
//!
//! Two ideas compose:
//!
//! * **Symmetric-path common-mode removal** — every acquisition is first
//!   normalised against itself: a trace loses its own sample mean, an
//!   onset matrix loses each pair-row's mean. Whatever shifts *all* of a
//!   die's symmetric paths together (global process corners, supply
//!   droop) cancels, while a trojan's *localised* insertion survives as a
//!   differential residue. The die's self-score is the magnitude of that
//!   residue — the channel metric of the normalised acquisition against
//!   a zero reference.
//! * **A reference-lot baseline** — the *distribution* a suspect die's
//!   self-score is judged against comes from the reference lot
//!   ([`ReferenceFreeFit`]). The reference lot calibrates only the
//!   expected residual *level*; no die ever serves as another's
//!   reference. An inter-die reference would silently cancel any trojan
//!   present in *every* die of the lot (the realistic fab-infection
//!   model), whereas the within-die residual grows on every infected die.
//!
//! The mode is a [`Baseline`](crate::fusion::Baseline) variant of the one
//! campaign pipeline: [`crate::Run::characterize`] with
//! [`Mode::ReferenceFree`](crate::Mode::ReferenceFree) pins the reference
//! lot's self-score distribution, and [`crate::Run::score`] compares a
//! suspect lot's *folded* self-scores against it through the same
//! [`ChannelResult`](crate::fusion::ChannelResult) machinery (Eq. 5
//! rates, fused z-scores, or the learned classifier) as the golden mode.
//! This module holds only what differs: common-mode removal, folding and
//! the baseline fit.

use htd_stats::Gaussian;

use crate::channel::{Acquisition, Calibration, Channel, GoldenReference};
use crate::delay_detect::DelayMatrix;
use crate::error::Error;
use htd_em::Trace;

/// The baseline self-score distribution of one channel on the reference
/// lot: the Gaussian the suspect lot's within-die residual scores are
/// compared against. This is the reference-free analogue of the golden
/// fit — and the whole payload `htd-store`'s `reffree` artifact needs
/// per channel beyond the calibration.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceFreeFit {
    /// Mean of the baseline self-scores.
    pub mean: f64,
    /// Standard deviation of the baseline self-scores.
    pub std: f64,
    /// Number of dies behind the fit (= `self_scores.len()`).
    pub n_dies: usize,
}

impl ReferenceFreeFit {
    /// Fits the baseline Gaussian of a self-score population.
    pub(crate) fn of(channel: &str, self_scores: &[f64]) -> Result<Self, Error> {
        let g = Gaussian::fit(self_scores).map_err(|source| Error::DegeneratePopulation {
            channel: channel.to_string(),
            samples: self_scores.len(),
            source,
        })?;
        Ok(ReferenceFreeFit {
            mean: g.mean(),
            std: g.std(),
            n_dies: self_scores.len(),
        })
    }
}

/// Removes the acquisition's common mode — the symmetric-path
/// self-reference. A trace loses its own sample mean; an onset matrix
/// loses each pair-row's mean (the paired launch/capture paths of one
/// pair are each other's symmetric references).
fn common_mode_removed(acquisition: &Acquisition) -> Acquisition {
    match acquisition {
        Acquisition::Trace(t) => {
            let samples = t.samples();
            let mean = if samples.is_empty() {
                0.0
            } else {
                samples.iter().sum::<f64>() / samples.len() as f64
            };
            Acquisition::Trace(Trace::new(
                samples.iter().map(|x| x - mean).collect(),
                t.dt_ps(),
            ))
        }
        Acquisition::Matrix(m) => {
            let rows = m
                .mean_onset_steps
                .iter()
                .map(|row| {
                    let mean = if row.is_empty() {
                        0.0
                    } else {
                        row.iter().sum::<f64>() / row.len() as f64
                    };
                    row.iter().map(|x| x - mean).collect()
                })
                .collect();
            Acquisition::Matrix(DelayMatrix {
                mean_onset_steps: rows,
            })
        }
    }
}

/// The zero reference matching an acquisition's shape — scoring a
/// common-mode-removed acquisition against it measures the magnitude of
/// the die's own within-die residual through the channel's metric.
fn zero_reference(acquisition: &Acquisition) -> GoldenReference {
    match acquisition {
        Acquisition::Trace(t) => {
            GoldenReference::MeanTrace(Trace::new(vec![0.0; t.samples().len()], t.dt_ps()))
        }
        Acquisition::Matrix(m) => GoldenReference::MeanMatrix(DelayMatrix {
            mean_onset_steps: m
                .mean_onset_steps
                .iter()
                .map(|row| vec![0.0; row.len()])
                .collect(),
        }),
    }
}

/// Within-die residual self-scores of a population: each acquisition
/// loses its common mode and is scored against the zero reference, so
/// the score is the channel metric of whatever survives the die's own
/// common-mode removal. The residual's nominal component is common to
/// every die and cancels in the baseline-vs-suspect comparison; a
/// trojan's symmetric-path asymmetry inflates it on *every* infected
/// die, so a homogeneously infected lot still separates from the
/// baseline. Order is die order, so the result is worker-invariant by
/// construction — the scoring is pure arithmetic on acquired data.
pub(crate) fn self_scores(
    channel: &dyn Channel,
    acquisitions: &[Acquisition],
    calibration: &Calibration,
) -> Result<Vec<f64>, Error> {
    acquisitions
        .iter()
        .map(|a| {
            let normalized = common_mode_removed(a);
            channel.score(&normalized, &zero_reference(&normalized), calibration)
        })
        .collect()
}

/// Folds a self-score population around the baseline mean: the
/// detection statistic is the absolute displacement of a die's residual
/// level from the reference lot's typical level. Folding makes the
/// detector two-sided — a trojan can displace a channel's residual in
/// either direction (an EM insertion can move switching activity away
/// from the probe as easily as under it), and either displacement is
/// evidence.
pub(crate) fn folded(scores: &[f64], baseline_mean: f64) -> Vec<f64> {
    scores.iter().map(|s| (s - baseline_mean).abs()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignPlan;
    use crate::channel::{ChannelSpec, DelayChannel, EmChannel};
    use crate::em_detect::TraceMetric;
    use crate::{Engine, Lab, Mode, Run};
    use htd_trojan::TrojanSpec;

    fn plan() -> CampaignPlan {
        CampaignPlan::with_random_pairs(4, 2, 2, [0x13; 16], [0x7f; 16], 42)
    }

    #[test]
    fn common_mode_removal_centres_traces_and_rows() {
        let t = Acquisition::Trace(Trace::new(vec![1.0, 2.0, 3.0], 200.0));
        let Acquisition::Trace(out) = common_mode_removed(&t) else {
            panic!("trace in, trace out");
        };
        assert_eq!(out.samples(), &[-1.0, 0.0, 1.0]);

        let m = Acquisition::Matrix(DelayMatrix {
            mean_onset_steps: vec![vec![2.0, 4.0], vec![10.0, 10.0]],
        });
        let Acquisition::Matrix(out) = common_mode_removed(&m) else {
            panic!("matrix in, matrix out");
        };
        assert_eq!(out.mean_onset_steps, vec![vec![-1.0, 1.0], vec![0.0, 0.0]]);
    }

    #[test]
    fn characterize_then_score_is_deterministic() {
        let lab = Lab::paper();
        let plan = plan();
        let em = EmChannel::paper();
        let delay = DelayChannel;
        let channels: [&dyn Channel; 2] = [&em, &delay];
        let serial = Run::new(Engine::serial());
        let pooled = Run::new(Engine::with_workers(2));
        let charac = serial
            .characterize(&lab, &plan, &channels, Mode::ReferenceFree)
            .unwrap();
        assert_eq!(charac.states.len(), 2);
        for state in &charac.states {
            let crate::fusion::Baseline::ReferenceFree { self_scores, fit } = &state.baseline
            else {
                panic!("reference-free baseline");
            };
            assert_eq!(self_scores.len(), plan.n_dies);
            assert_eq!(fit.n_dies, plan.n_dies);
            assert!(fit.std > 0.0);
        }
        let charac2 = pooled
            .characterize(&lab, &plan, &channels, Mode::ReferenceFree)
            .unwrap();
        assert_eq!(charac, charac2);

        let specs = [TrojanSpec::ht1()];
        let scored = serial.score(&lab, &charac, &specs, &channels).unwrap();
        let scored2 = pooled.score(&lab, &charac, &specs, &channels).unwrap();
        assert_eq!(scored, scored2);
        let row = &scored.report.rows[0];
        assert_eq!(row.channels.len(), 2);
        assert!(row.fused.is_some());
        assert!(scored.report.health.is_empty());
    }

    #[test]
    fn single_report_matches_campaign_row() {
        let lab = Lab::paper();
        let plan = plan();
        let em = EmChannel::paper();
        let channels: [&dyn Channel; 1] = [&em];
        let run = Run::new(Engine::serial());
        let charac = run
            .characterize(&lab, &plan, &channels, Mode::ReferenceFree)
            .unwrap();
        let session = run.session(&lab, &charac, &channels).unwrap();
        let spec = TrojanSpec::ht2();
        let score = session.score_spec_at(0, &spec).unwrap();
        let report = session.single_report(&score);
        let campaign = run
            .score(&lab, &charac, std::slice::from_ref(&spec), &channels)
            .unwrap();
        assert_eq!(report, campaign.report);
    }

    #[test]
    fn a_homogeneously_infected_lot_separates_from_the_baseline() {
        // The defining property of the mode: a lot where EVERY die
        // carries the trojan still displaces from the reference lot's
        // baseline, because the within-die residual changes on each
        // infected die. An inter-die reference would cancel the common
        // trojan and pin µ at zero.
        let lab = Lab::paper();
        let plan = CampaignPlan::with_random_pairs(6, 2, 2, [0x13; 16], [0x7f; 16], 42);
        let delay = DelayChannel;
        let channels: [&dyn Channel; 1] = [&delay];
        let run = Run::new(Engine::serial());
        let charac = run
            .characterize(&lab, &plan, &channels, Mode::ReferenceFree)
            .unwrap();
        let scored = run
            .score(&lab, &charac, &[TrojanSpec::ht3()], &channels)
            .unwrap();
        let result = &scored.report.rows[0].channels[0];
        assert!(
            result.mu > 0.0,
            "infected lot must displace the folded residual level, got µ = {}",
            result.mu
        );
        assert!(
            result.analytic_fn_rate < 0.5,
            "detection must beat a coin flip, got FN = {}",
            result.analytic_fn_rate
        );
    }

    #[test]
    fn too_few_dies_is_rejected() {
        let lab = Lab::paper();
        let plan = CampaignPlan::with_random_pairs(2, 2, 2, [0x13; 16], [0x7f; 16], 42);
        let em = EmChannel::paper();
        let channels: [&dyn Channel; 1] = [&em];
        let err = Run::default()
            .characterize(&lab, &plan, &channels, Mode::ReferenceFree)
            .unwrap_err();
        assert!(matches!(err, Error::NotEnoughDies { got: 2, need: 3 }));
    }

    #[test]
    fn channel_specs_round_trip_into_sessions() {
        // The CLI builds channels from specs; make sure the reffree path
        // accepts the same construction.
        let lab = Lab::paper();
        let plan = plan();
        let specs = [ChannelSpec::Em(TraceMetric::SumOfLocalMaxima)];
        let built: Vec<Box<dyn Channel>> = specs.iter().map(|s| s.build()).collect();
        let refs: Vec<&dyn Channel> = built.iter().map(|b| b.as_ref()).collect();
        let charac = Run::default()
            .characterize(&lab, &plan, &refs, Mode::ReferenceFree)
            .unwrap();
        assert_eq!(charac.states[0].channel, "EM");
    }
}
