//! The data of a multi-channel campaign and the fusion math over it —
//! the paper's stated perspective (Section VI): *"a more precise
//! evaluation of impact of process variations on detection probability
//! using **both** delay and EM measurements."*
//!
//! A [`Characterization`] is the durable half of a campaign: per channel,
//! the calibration and a [`Baseline`] — a golden reference with per-die
//! scores against it, or a reference-free self-score baseline. The
//! `htd-store` crate persists it between processes; [`crate::Run`]
//! produces it and scores suspects against it into a
//! [`MultiChannelReport`].
//!
//! Channels:
//!
//! * **EM channel** — the Section V sum-of-local-maxima metric.
//! * **Delay channel** — an inter-die generalisation of Section III: the
//!   golden *population mean* onset matrix replaces the same-die golden
//!   model, and the per-die statistic is the mean absolute onset deviation
//!   (in ps) over all pairs and bits.
//! * **Power channel** — the paper's A4 global-supply baseline, run
//!   through the identical pipeline for a like-for-like comparison.
//! * **Fused channel** — the sum of the channels' baseline-normalised
//!   z-scores; independent evidence adds, so the fused separation µ/σ is
//!   at best the quadrature sum of the channels'.

use htd_stats::detection::{empirical_rates, equal_error_rate};
use htd_stats::logistic::LogisticModel;
use htd_stats::Gaussian;

use crate::campaign::CampaignPlan;
use crate::channel::{Acquisition, Calibration, Channel, GoldenReference};
use crate::error::Error;
use crate::reffree::{self, ReferenceFreeFit};
use crate::resilience::ChannelHealth;
use crate::run::Mode;
use crate::Engine;

/// Per-channel population statistics for one trojan.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelResult {
    /// Channel label (`"EM"`, `"delay"`, `"power"`, `"fused"`).
    pub channel: String,
    /// Metric offset µ between infected and golden populations.
    pub mu: f64,
    /// Pooled metric standard deviation.
    pub sigma: f64,
    /// Eq. (5) analytic equal error rate.
    pub analytic_fn_rate: f64,
    /// Empirical false-negative rate at the midpoint threshold.
    pub empirical_fn_rate: f64,
    /// Empirical false-positive rate at the midpoint threshold.
    pub empirical_fp_rate: f64,
}

impl ChannelResult {
    /// Fits Eq. (5) Gaussians to the two metric populations and evaluates
    /// the analytic and empirical (midpoint-threshold) error rates.
    ///
    /// # Errors
    ///
    /// [`Error::DegeneratePopulation`] if either population has no spread
    /// (or too few samples) — e.g. constant metrics from a campaign with
    /// zero measurement noise.
    pub fn fit(
        channel: impl Into<String>,
        golden: &[f64],
        infected: &[f64],
    ) -> Result<Self, Error> {
        let channel = channel.into();
        let degenerate = |channel: &str, samples: usize| {
            let channel = channel.to_string();
            move |source| Error::DegeneratePopulation {
                channel,
                samples,
                source,
            }
        };
        let g = Gaussian::fit(golden).map_err(degenerate(&channel, golden.len()))?;
        let t = Gaussian::fit(infected).map_err(degenerate(&channel, infected.len()))?;
        let mu = t.mean() - g.mean();
        let sigma = ((g.std() * g.std() + t.std() * t.std()) / 2.0).sqrt();
        let analytic = if mu > 0.0 {
            equal_error_rate(mu, sigma)
        } else {
            0.5
        };
        let midpoint = g.mean() + mu / 2.0;
        let (fp, fnr) = empirical_rates(golden, infected, midpoint);
        Ok(ChannelResult {
            channel,
            mu,
            sigma,
            analytic_fn_rate: analytic,
            empirical_fn_rate: fnr,
            empirical_fp_rate: fp,
        })
    }
}

/// One trojan's results across every channel of a multi-channel campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiChannelRow {
    /// Trojan name.
    pub name: String,
    /// Trojan area as a fraction of the AES design.
    pub size_fraction: f64,
    /// One result per channel, in the order the channels were supplied.
    pub channels: Vec<ChannelResult>,
    /// The fused (z-score sum) channel; present when at least two
    /// channels ran.
    pub fused: Option<ChannelResult>,
}

/// The result of a scored multi-channel campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiChannelReport {
    /// One row per trojan, in the order supplied.
    pub rows: Vec<MultiChannelRow>,
    /// Population size.
    pub n_dies: usize,
    /// The channel labels, in execution order.
    pub channel_names: Vec<String>,
    /// Per-channel health of the campaign: present (one entry per
    /// surviving channel, then one per lost channel) when the campaign
    /// ran under an active [`FaultPlan`](htd_faults::FaultPlan) or
    /// against a degraded characterization; empty for a pristine
    /// campaign.
    pub health: Vec<ChannelHealth>,
}

/// One channel's baseline: what suspect scores are compared against.
#[derive(Debug, Clone, PartialEq)]
pub enum Baseline {
    /// The golden-population reference (`E_n(G)` / mean onset matrix)
    /// and the per-die golden scores against it.
    Golden {
        /// The golden-population reference.
        reference: GoldenReference,
        /// Per-die golden scores against the reference (kept-die order).
        scores: Vec<f64>,
    },
    /// The reference lot's within-die residual self-scores and their
    /// Gaussian fit; no reference payload — every suspect die is its own
    /// reference at scoring time.
    ReferenceFree {
        /// Baseline within-die residual self-scores, in kept-die order.
        self_scores: Vec<f64>,
        /// Gaussian fit of `self_scores`.
        fit: ReferenceFreeFit,
    },
}

impl Baseline {
    /// Folds a characterized population into `mode`'s baseline.
    pub(crate) fn characterize(
        mode: Mode,
        channel: &dyn Channel,
        acquisitions: &[Acquisition],
        calibration: &Calibration,
        engine: &Engine,
    ) -> Result<Self, Error> {
        match mode {
            Mode::Golden => {
                let reference = channel.characterize_golden(acquisitions, calibration)?;
                let scores = acquisitions
                    .iter()
                    .map(|a| channel.score(a, &reference, calibration))
                    .collect::<Result<Vec<f64>, _>>()?;
                Ok(Baseline::Golden { reference, scores })
            }
            Mode::ReferenceFree => {
                let self_scores = reffree::self_scores(channel, acquisitions, calibration)?;
                engine
                    .obs()
                    .add("score.reffree.selfscores", self_scores.len() as u64);
                let fit = ReferenceFreeFit::of(channel.name(), &self_scores)?;
                Ok(Baseline::ReferenceFree { self_scores, fit })
            }
        }
    }

    /// The mode this baseline belongs to.
    pub fn mode(&self) -> Mode {
        match self {
            Baseline::Golden { .. } => Mode::Golden,
            Baseline::ReferenceFree { .. } => Mode::ReferenceFree,
        }
    }

    /// The stored per-kept-die scores: golden scores against the
    /// reference, or the reference lot's self-scores.
    pub fn scores(&self) -> &[f64] {
        match self {
            Baseline::Golden { scores, .. } => scores,
            Baseline::ReferenceFree { self_scores, .. } => self_scores,
        }
    }

    /// The population suspect scores are compared against: the golden
    /// scores, or the self-scores folded around the baseline mean.
    pub fn population(&self) -> Vec<f64> {
        match self {
            Baseline::Golden { scores, .. } => scores.clone(),
            Baseline::ReferenceFree { self_scores, fit } => reffree::folded(self_scores, fit.mean),
        }
    }

    /// Scores a suspect population on the scale of [`Baseline::population`].
    pub(crate) fn score(
        &self,
        channel: &dyn Channel,
        acquisitions: &[Acquisition],
        calibration: &Calibration,
        engine: &Engine,
    ) -> Result<Vec<f64>, Error> {
        match self {
            Baseline::Golden { reference, .. } => acquisitions
                .iter()
                .map(|a| channel.score(a, reference, calibration))
                .collect(),
            Baseline::ReferenceFree { fit, .. } => {
                let scores = reffree::self_scores(channel, acquisitions, calibration)?;
                engine
                    .obs()
                    .add("score.reffree.selfscores", scores.len() as u64);
                Ok(reffree::folded(&scores, fit.mean))
            }
        }
    }
}

/// One channel's durable characterized state: everything scoring needs
/// once the reference devices have left the bench. Produced by
/// [`crate::Run::characterize`]; persisted by `htd-store`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelState {
    /// The channel's label ([`Channel::name`]).
    pub channel: String,
    /// Measurement parameters established on the reference lot.
    pub calibration: Calibration,
    /// What suspect scores are compared against.
    pub baseline: Baseline,
    /// Die indices the baseline scores cover, ascending. `0..n_dies` for
    /// a fault-free characterization; a strict subset when dies were
    /// quarantined under a degraded policy.
    pub kept: Vec<usize>,
    /// Acquisition health of the characterization run for this channel.
    pub health: ChannelHealth,
}

impl ChannelState {
    /// A fault-free golden channel state: `kept` covers every score index
    /// and the health record is pristine.
    pub fn pristine(
        channel: impl Into<String>,
        calibration: Calibration,
        reference: GoldenReference,
        scores: Vec<f64>,
    ) -> Self {
        let channel = channel.into();
        let health = ChannelHealth::pristine(channel.clone(), scores.len());
        ChannelState {
            channel,
            calibration,
            kept: (0..scores.len()).collect(),
            baseline: Baseline::Golden { reference, scores },
            health,
        }
    }
}

/// A trusted characterization of one reference lot: the campaign it was
/// measured under plus every channel's [`ChannelState`]. In the golden
/// mode this is the paper's "golden model", in amortisable form —
/// characterize once, then score any number of suspect populations.
#[derive(Debug, Clone, PartialEq)]
pub struct Characterization {
    /// The campaign the reference lot was measured under. Scoring
    /// re-derives every suspect seed from this plan's seed tree.
    pub plan: CampaignPlan,
    /// Per-channel state, in channel execution order.
    pub states: Vec<ChannelState>,
    /// Channels lost entirely during characterization (calibration
    /// diverged, or too few dies survived), recorded so a degraded
    /// characterization cannot pass for a complete one. Empty for a
    /// fault-free run.
    pub lost: Vec<ChannelHealth>,
}

impl Characterization {
    /// The mode of the stored baselines (golden when there are none).
    pub fn mode(&self) -> Mode {
        self.states
            .first()
            .map_or(Mode::Golden, |s| s.baseline.mode())
    }
}

/// One channel's scored populations for a single suspect design: the
/// golden per-die scores (from the characterization) next to the
/// suspect's. This is the unit `htd fuse` consumes from disk.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredChannel {
    /// The channel's label.
    pub channel: String,
    /// Per-die golden scores.
    pub golden: Vec<f64>,
    /// Per-die suspect scores.
    pub infected: Vec<f64>,
}

/// One suspect design's scored channel populations, as produced inside
/// [`crate::Run::score`] (the per-design artifacts `htd score
/// --scores-dir` persists).
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredDesign {
    /// The design's name.
    pub name: String,
    /// Trojan area as a fraction of the AES design.
    pub size_fraction: f64,
    /// One scored population per surviving channel, in channel order.
    pub scored: Vec<ScoredChannel>,
}

/// The full outcome of a fault-aware scoring campaign: the rendered
/// report plus the per-design scored populations it was reduced from.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredCampaign {
    /// The multi-channel report, including its health section.
    pub report: MultiChannelReport,
    /// Per-design scored channel populations.
    pub designs: Vec<ScoredDesign>,
}

/// One suspect design scored through a [`crate::run::Session`]: the
/// report row, the stored per-channel populations, and the per-channel
/// scoring health (one record per surviving channel, in characterization
/// order) for the caller's campaign ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecScore {
    /// The suspect's report row (per-channel results plus fused).
    pub row: MultiChannelRow,
    /// The raw scored populations behind the row.
    pub design: ScoredDesign,
    /// Scoring health per channel, aligned with the stored states.
    pub health: Vec<ChannelHealth>,
}

/// The fused statistic: per die, the sum over channels of the
/// baseline-normalised z-score, in channel order. Each channel supplies
/// `(kept die indices, scores)`, and a die contributes a fused value
/// only when **every** channel kept it (a z-score sum with a missing
/// addend would not be comparable).
pub(crate) fn fuse_masked(
    golden_fits: &[Gaussian],
    per_channel: &[(&[usize], &[f64])],
    n_dies: usize,
) -> Vec<f64> {
    let dense: Vec<Vec<Option<f64>>> = per_channel
        .iter()
        .map(|(kept, scores)| {
            let mut d = vec![None; n_dies];
            for (k, &die) in kept.iter().enumerate() {
                d[die] = Some(scores[k]);
            }
            d
        })
        .collect();
    (0..n_dies)
        .filter_map(|j| {
            let mut sum = 0.0f64;
            for (g, d) in golden_fits.iter().zip(&dense) {
                match d[j] {
                    Some(x) => sum += (x - g.mean()) / g.std(),
                    None => return None,
                }
            }
            Some(sum)
        })
        .collect()
}

/// Gathers the per-die feature rows of a population over partially-kept
/// channels: row `x` holds one value per channel, and a die contributes
/// a row only when **every** channel kept it (the learned classifier's
/// analogue of `fuse_masked`'s masking rule). Rows come out in die
/// order, so downstream reductions are presentation-order stable.
pub fn masked_feature_rows(per_channel: &[(&[usize], &[f64])], n_dies: usize) -> Vec<Vec<f64>> {
    let dense: Vec<Vec<Option<f64>>> = per_channel
        .iter()
        .map(|(kept, scores)| {
            let mut d = vec![None; n_dies];
            for (k, &die) in kept.iter().enumerate() {
                d[die] = Some(scores[k]);
            }
            d
        })
        .collect();
    (0..n_dies)
        .filter_map(|j| dense.iter().map(|d| d[j]).collect::<Option<Vec<f64>>>())
        .collect()
}

/// The learned analogue of the fused channel: per-die classifier logits
/// over the dies kept by every channel, reduced exactly like any other
/// metric population. The empirical rates are taken at logit `0` — the
/// classifier's trained 0.5-probability boundary — instead of the
/// two-Gaussian midpoint, which is precisely how the learned mode
/// replaces the erf threshold.
pub(crate) fn learned_result(
    model: &LogisticModel,
    golden: &[(&[usize], &[f64])],
    suspect: &[(&[usize], &[f64])],
    n_dies: usize,
) -> Result<ChannelResult, Error> {
    let logits = |per_channel: &[(&[usize], &[f64])]| -> Result<Vec<f64>, Error> {
        masked_feature_rows(per_channel, n_dies)
            .iter()
            .map(|row| model.logit(row).map_err(Error::from))
            .collect()
    };
    let golden_logits = logits(golden)?;
    let suspect_logits = logits(suspect)?;
    let degenerate = |samples: usize| {
        move |source| Error::DegeneratePopulation {
            channel: "learned".to_string(),
            samples,
            source,
        }
    };
    let g = Gaussian::fit(&golden_logits).map_err(degenerate(golden_logits.len()))?;
    let t = Gaussian::fit(&suspect_logits).map_err(degenerate(suspect_logits.len()))?;
    let mu = t.mean() - g.mean();
    let sigma = ((g.std() * g.std() + t.std() * t.std()) / 2.0).sqrt();
    let analytic = if mu > 0.0 {
        equal_error_rate(mu, sigma)
    } else {
        0.5
    };
    let (fp, fnr) = empirical_rates(&golden_logits, &suspect_logits, 0.0);
    Ok(ChannelResult {
        channel: "learned".to_string(),
        mu,
        sigma,
        analytic_fn_rate: analytic,
        empirical_fn_rate: fnr,
        empirical_fp_rate: fp,
    })
}

/// Fuses stored per-channel scored populations into per-channel
/// [`ChannelResult`]s plus the fused (z-score sum) result — the math of
/// `htd fuse`, usable on any mix of channels scored under the same
/// campaign.
///
/// # Errors
///
/// [`Error::ChannelShapeMismatch`] below two channels or on mismatched
/// population sizes; [`Error::DegeneratePopulation`] when a golden
/// population has no spread.
pub fn fuse_scored_channels(
    sets: &[ScoredChannel],
) -> Result<(Vec<ChannelResult>, ChannelResult), Error> {
    let Some(first) = sets.first() else {
        return Err(Error::EmptyPopulation {
            what: "scored channel list",
        });
    };
    if sets.len() < 2 {
        return Err(Error::ChannelShapeMismatch {
            channel: first.channel.clone(),
            expected: "at least two channels to fuse",
        });
    }
    let n_dies = first.golden.len();
    for set in sets {
        if set.golden.len() != n_dies || set.infected.len() != n_dies {
            return Err(Error::ChannelShapeMismatch {
                channel: set.channel.clone(),
                expected: "equal population sizes across every fused channel",
            });
        }
    }
    let per_channel = sets
        .iter()
        .map(|set| ChannelResult::fit(set.channel.clone(), &set.golden, &set.infected))
        .collect::<Result<Vec<_>, _>>()?;
    let fits = sets
        .iter()
        .map(|set| {
            Gaussian::fit(&set.golden).map_err(|source| Error::DegeneratePopulation {
                channel: set.channel.clone(),
                samples: set.golden.len(),
                source,
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let all: Vec<usize> = (0..n_dies).collect();
    let fused_of = |scores: fn(&ScoredChannel) -> &[f64]| {
        let per_channel: Vec<(&[usize], &[f64])> = sets
            .iter()
            .map(|set| (all.as_slice(), scores(set)))
            .collect();
        fuse_masked(&fits, &per_channel, n_dies)
    };
    let golden_fused = fused_of(|set| &set.golden);
    let infected_fused = fused_of(|set| &set.infected);
    let fused = ChannelResult::fit("fused", &golden_fused, &infected_fused)?;
    Ok((per_channel, fused))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{DelayChannel, EmChannel, PowerChannel};
    use crate::em_detect::TraceMetric;
    use crate::{Lab, Run};
    use htd_trojan::TrojanSpec;

    #[test]
    fn channel_result_computes_separation() {
        let golden = vec![1.0, 2.0, 3.0, 2.0, 1.5, 2.5];
        let infected: Vec<f64> = golden.iter().map(|x| x + 5.0).collect();
        let r = ChannelResult::fit("EM", &golden, &infected).unwrap();
        assert!((r.mu - 5.0).abs() < 1e-12);
        assert!(r.analytic_fn_rate < 0.01);
        assert_eq!(r.empirical_fn_rate, 0.0);
        assert_eq!(r.empirical_fp_rate, 0.0);
    }

    #[test]
    fn constant_population_is_a_degenerate_error() {
        let constant = vec![3.25; 6];
        let spread = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let err = ChannelResult::fit("EM", &constant, &spread).unwrap_err();
        match err {
            Error::DegeneratePopulation {
                channel, samples, ..
            } => {
                assert_eq!(channel, "EM");
                assert_eq!(samples, 6);
            }
            other => panic!("expected DegeneratePopulation, got {other:?}"),
        }
        // The infected side degenerating reports the same channel.
        assert!(matches!(
            ChannelResult::fit("delay", &spread, &constant),
            Err(Error::DegeneratePopulation { .. })
        ));
    }

    /// Characterize then score one golden campaign on the default run.
    fn experiment(
        plan: &CampaignPlan,
        specs: &[TrojanSpec],
        channels: &[&dyn Channel],
    ) -> Result<MultiChannelReport, Error> {
        let (lab, run) = (Lab::paper(), Run::default());
        let charac = run.characterize(&lab, plan, channels, Mode::Golden)?;
        Ok(run.score(&lab, &charac, specs, channels)?.report)
    }

    #[test]
    fn small_fusion_experiment_runs() {
        let plan = CampaignPlan::with_random_pairs(6, 2, 3, [0x11u8; 16], [0x22u8; 16], 42);
        let report = experiment(
            &plan,
            &[TrojanSpec::ht2()],
            &[&EmChannel::paper(), &DelayChannel],
        )
        .unwrap();
        assert_eq!(report.rows.len(), 1);
        let row = &report.rows[0];
        let (em, delay) = (&row.channels[0], &row.channels[1]);
        assert!(em.mu > 0.0, "EM channel must separate");
        // The fused channel should never be *worse* than the best single
        // channel by much (z-score fusion of a useless channel costs at
        // most √2 in σ).
        let best = em.analytic_fn_rate.min(delay.analytic_fn_rate);
        let fused = row.fused.as_ref().expect("two channels fuse");
        assert!(
            fused.analytic_fn_rate < best + 0.2,
            "fused {} vs best {}",
            fused.analytic_fn_rate,
            best
        );
    }

    #[test]
    fn three_channel_experiment_reports_every_channel_and_fusion() {
        let plan = CampaignPlan::with_random_pairs(6, 2, 3, [0x11u8; 16], [0x22u8; 16], 42);
        let em = EmChannel::paper();
        let delay = DelayChannel;
        let power = PowerChannel::new(TraceMetric::SumOfLocalMaxima);
        let report = experiment(&plan, &[TrojanSpec::ht2()], &[&em, &delay, &power]).unwrap();
        assert_eq!(report.channel_names, vec!["EM", "delay", "power"]);
        let row = &report.rows[0];
        assert_eq!(row.channels.len(), 3);
        assert!(row.size_fraction > 0.0);
        let fused = row.fused.as_ref().expect("three channels fuse");
        assert_eq!(fused.channel, "fused");
        for c in &row.channels {
            assert!(c.sigma > 0.0, "{} sigma", c.channel);
        }
        // The two-channel EM/delay numbers are unchanged by the extra
        // power channel riding along in the same campaign.
        let two = experiment(&plan, &[TrojanSpec::ht2()], &[&em, &delay]).unwrap();
        assert_eq!(row.channels[0].mu, two.rows[0].channels[0].mu);
        assert_eq!(row.channels[1].mu, two.rows[0].channels[1].mu);
    }

    #[test]
    fn runner_rejects_empty_and_undersized_campaigns() {
        let plan = CampaignPlan::traces(4, [0u8; 16], [0u8; 16], 1);
        assert!(matches!(
            experiment(&plan, &[], &[]),
            Err(Error::EmptyPopulation { .. })
        ));
        let em = EmChannel::paper();
        let tiny = CampaignPlan::traces(1, [0u8; 16], [0u8; 16], 1);
        assert!(matches!(
            experiment(&tiny, &[], &[&em]),
            Err(Error::NotEnoughDies { got: 1, need: 2 })
        ));
    }

    #[test]
    fn scoring_rejects_mismatched_channel_sets() {
        let charac = Characterization {
            plan: CampaignPlan::traces(2, [0u8; 16], [0u8; 16], 1),
            states: vec![ChannelState::pristine(
                "EM",
                Calibration::None,
                GoldenReference::MeanTrace(htd_em::Trace::new(vec![0.0], 200.0)),
                vec![1.0, 2.0],
            )],
            lost: vec![],
        };
        let (lab, run) = (Lab::paper(), Run::default());
        let em = EmChannel::paper();
        let delay = DelayChannel;
        // Wrong count.
        assert!(matches!(
            run.score(&lab, &charac, &[], &[&em, &delay]),
            Err(Error::ChannelShapeMismatch { .. })
        ));
        // Wrong name.
        assert!(matches!(
            run.score(&lab, &charac, &[], &[&delay]),
            Err(Error::ChannelShapeMismatch { .. })
        ));
        // Matching channels, no suspects: an empty report.
        let report = run.score(&lab, &charac, &[], &[&em]).unwrap().report;
        assert!(report.rows.is_empty());
        assert_eq!(report.channel_names, vec!["EM"]);
    }

    #[test]
    fn fuse_scored_channels_matches_manual_z_scores() {
        let a = ScoredChannel {
            channel: "EM".into(),
            golden: vec![1.0, 2.0, 3.0, 4.0],
            infected: vec![5.0, 6.0, 7.0, 8.0],
        };
        let b = ScoredChannel {
            channel: "delay".into(),
            golden: vec![10.0, 20.0, 30.0, 40.0],
            infected: vec![11.0, 21.0, 31.0, 41.0],
        };
        let (per_channel, fused) = fuse_scored_channels(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(per_channel.len(), 2);
        assert_eq!(per_channel[0].channel, "EM");
        assert_eq!(per_channel[1].channel, "delay");
        assert_eq!(fused.channel, "fused");
        // Manual fusion: z-scores against the golden fits.
        let ga = Gaussian::fit(&a.golden).unwrap();
        let gb = Gaussian::fit(&b.golden).unwrap();
        let z = |x: f64, g: &Gaussian| (x - g.mean()) / g.std();
        let golden_fused: Vec<f64> = (0..4)
            .map(|j| z(a.golden[j], &ga) + z(b.golden[j], &gb))
            .collect();
        let infected_fused: Vec<f64> = (0..4)
            .map(|j| z(a.infected[j], &ga) + z(b.infected[j], &gb))
            .collect();
        let manual = ChannelResult::fit("fused", &golden_fused, &infected_fused).unwrap();
        assert_eq!(fused, manual);
    }

    #[test]
    fn fuse_scored_channels_rejects_bad_shapes() {
        let a = ScoredChannel {
            channel: "EM".into(),
            golden: vec![1.0, 2.0, 3.0],
            infected: vec![4.0, 5.0, 6.0],
        };
        assert!(matches!(
            fuse_scored_channels(&[]),
            Err(Error::EmptyPopulation { .. })
        ));
        assert!(matches!(
            fuse_scored_channels(std::slice::from_ref(&a)),
            Err(Error::ChannelShapeMismatch { .. })
        ));
        let short = ScoredChannel {
            channel: "delay".into(),
            golden: vec![1.0, 2.0],
            infected: vec![3.0, 4.0],
        };
        assert!(matches!(
            fuse_scored_channels(&[a, short]),
            Err(Error::ChannelShapeMismatch { .. })
        ));
    }
}
