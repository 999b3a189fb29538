//! The campaign pipeline: one [`Run`] context and its two verbs.
//!
//! * [`Run::characterize`] — run a reference lot through every channel's
//!   calibrate → acquire stages and fold each channel into a durable
//!   [`ChannelState`] whose [`Baseline`] is either a golden reference
//!   ([`Mode::Golden`], the paper's method) or a within-die residual
//!   baseline ([`Mode::ReferenceFree`], see [`crate::reffree`]).
//! * [`Run::score`] — score any set of suspect designs against a
//!   (possibly reloaded) [`Characterization`], producing a
//!   [`MultiChannelReport`] plus the scored populations behind it.
//!
//! A [`Run`] carries everything a campaign is run *under*: the
//! [`Engine`] (and its observability handle), the [`FaultPlan`], the
//! [`RetryPolicy`] and an optional trained classifier. Every seed derives
//! from the [`CampaignPlan`] seed tree and every fault decision from
//! event indices, so characterizations, scores and reports are
//! bit-identical for every worker count and across the save/load
//! boundary.

use htd_faults::{retry_seed, FaultPlan, FaultSite};
use htd_stats::logistic::LogisticModel;
use htd_stats::Gaussian;
use htd_trojan::TrojanSpec;

use crate::campaign::CampaignPlan;
use crate::channel::{Acquisition, Calibration, Channel};
use crate::engine::Attempt;
use crate::error::Error;
use crate::fusion::{
    fuse_masked, learned_result, Baseline, ChannelResult, ChannelState, Characterization,
    MultiChannelReport, MultiChannelRow, ScoredCampaign, ScoredChannel, ScoredDesign, SpecScore,
};
use crate::resilience::{ChannelHealth, RetryPolicy};
use crate::{Design, Engine, Lab, ProgrammedDevice};
use htd_fabric::DieVariation;

/// Population tag of the characterized lot in fault-decision contexts;
/// suspect design `s` uses `s + 1`.
const POP_REFERENCE: u64 = 0;

/// How a characterization references suspect scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The paper's method: a golden population reference per channel,
    /// and per-die scores against it.
    Golden,
    /// No golden reference: each die is scored on its own within-die
    /// residual, against a baseline fitted on the reference lot.
    ReferenceFree,
}

impl Mode {
    /// The fewest dies a population may keep per channel: two for a
    /// golden spread, three for the reference-free mode's baseline.
    pub fn min_dies(self) -> usize {
        match self {
            Mode::Golden => 2,
            Mode::ReferenceFree => 3,
        }
    }
}

/// The context a campaign runs under: the measurement [`Engine`] (with
/// its observability handle), the [`FaultPlan`] and [`RetryPolicy`], and
/// an optional trained classifier that replaces the fused channel with
/// the `learned` one. The default is an auto-sized engine, no faults, the
/// strict policy and no classifier.
#[derive(Debug, Clone)]
pub struct Run {
    engine: Engine,
    faults: FaultPlan,
    policy: RetryPolicy,
    model: Option<LogisticModel>,
}

/// One channel's population acquisition: the kept die indices
/// (ascending), their acquisitions, and the health ledger.
struct Population {
    kept: Vec<usize>,
    acquisitions: Vec<Acquisition>,
    health: ChannelHealth,
}

impl Default for Run {
    fn default() -> Self {
        Run::new(Engine::default())
    }
}

impl Run {
    /// A fault-free, strict run on `engine` with no classifier.
    pub fn new(engine: Engine) -> Self {
        Run {
            engine,
            faults: FaultPlan::none(),
            policy: RetryPolicy::strict(),
            model: None,
        }
    }

    /// Runs under `faults`: calibrations that diverge and acquisitions
    /// that fail are retried up to the policy's budget with fresh
    /// index-derived seeds; with `allow_degraded`, exhausted dies are
    /// quarantined and exhausted calibrations lose their channel.
    pub fn with_faults(mut self, faults: FaultPlan, policy: RetryPolicy) -> Self {
        self.faults = faults;
        self.policy = policy;
        self
    }

    /// Attaches a trained classifier (or none): every scored row's fused
    /// slot then carries the `learned` channel — per-die classifier
    /// logits, empirical rates at the trained logit-0 boundary — instead
    /// of the z-score sum. Works for any channel count, including one.
    pub fn with_model(mut self, model: Option<LogisticModel>) -> Self {
        self.model = model;
        self
    }

    /// The measurement engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Characterizes the reference lot of `plan` under every supplied
    /// channel. Each die is programmed **once** and reused — with its
    /// simulation caches warm — across calibration and acquisition.
    /// Lost channels (calibration diverged, or too few dies survived
    /// under a degraded policy) drop out of the states and are recorded
    /// in [`Characterization::lost`].
    ///
    /// # Errors
    ///
    /// [`Error::EmptyPopulation`] with no channels or when every channel
    /// is lost; [`Error::NotEnoughDies`] below [`Mode::min_dies`];
    /// [`Error::AcquisitionExhausted`] / [`Error::CalibrationDiverged`]
    /// when a budget runs out under the strict policy;
    /// [`Error::DegeneratePopulation`] when a reference-free baseline has
    /// no spread; design and simulation failures otherwise.
    pub fn characterize(
        &self,
        lab: &Lab,
        plan: &CampaignPlan,
        channels: &[&dyn Channel],
        mode: Mode,
    ) -> Result<Characterization, Error> {
        if channels.is_empty() {
            return Err(Error::EmptyPopulation {
                what: "channel list",
            });
        }
        if plan.n_dies < mode.min_dies() {
            return Err(Error::NotEnoughDies {
                got: plan.n_dies,
                need: mode.min_dies(),
            });
        }
        let engine = &self.engine;
        let _span = engine.obs().span("characterize");
        let golden = Design::golden(lab)?;
        let dies = lab.fabricate_batch(plan.n_dies);
        let devs = program(engine, lab, &golden, &dies);

        let mut states: Vec<ChannelState> = Vec::with_capacity(channels.len());
        let mut lost: Vec<ChannelHealth> = Vec::new();
        for (c, channel) in channels.iter().enumerate() {
            let (calibration, cal_attempts) = self.calibrate(*channel, c, plan, &devs)?;
            let Some(calibration) = calibration else {
                // For a lost channel the attempt counters record the
                // calibration attempts that exhausted the budget.
                let mut health = ChannelHealth::pristine(channel.name(), cal_attempts);
                health.retried = cal_attempts - 1;
                health.lost = true;
                lost.push(health);
                continue;
            };
            let population = self.acquire(*channel, c, &devs, plan, &calibration, POP_REFERENCE)?;
            let mut health = population.health;
            // Calibration retries count as retries without changing the
            // distinct-die population.
            health.attempted += cal_attempts - 1;
            health.retried += cal_attempts - 1;
            if population.kept.len() < mode.min_dies() {
                // Only reachable under allow_degraded (otherwise the first
                // exhausted die already aborted above).
                health.lost = true;
                lost.push(health);
                continue;
            }
            let baseline = Baseline::characterize(
                mode,
                *channel,
                &population.acquisitions,
                &calibration,
                engine,
            )?;
            states.push(ChannelState {
                channel: channel.name().to_string(),
                calibration,
                baseline,
                kept: population.kept,
                health,
            });
        }
        if states.is_empty() {
            return Err(Error::EmptyPopulation {
                what: "surviving channels",
            });
        }
        Ok(Characterization {
            plan: plan.clone(),
            states,
            lost,
        })
    }

    /// Scores suspect designs against a characterization. Suspect
    /// acquisitions retry and quarantine exactly like the
    /// characterization's (suspect design `s` uses population tag `s + 1`
    /// in the fault-decision context), fusion runs over the dies kept by
    /// *every* channel, and the report carries a per-channel
    /// [`ChannelHealth`] section whenever the fault plan is active or the
    /// characterization is degraded.
    ///
    /// # Errors
    ///
    /// [`Error::ChannelShapeMismatch`] when `channels` (or the
    /// classifier's features) do not match the stored states; plus all of
    /// [`Session::score_spec_at`]'s errors.
    pub fn score(
        &self,
        lab: &Lab,
        charac: &Characterization,
        specs: &[TrojanSpec],
        channels: &[&dyn Channel],
    ) -> Result<ScoredCampaign, Error> {
        let _span = self.engine.obs().span("score");
        let session = self.session(lab, charac, channels)?;

        // Scoring health accumulates per channel across every design.
        let mut scoring_health: Vec<Option<ChannelHealth>> = vec![None; channels.len()];
        let mut rows = Vec::with_capacity(specs.len());
        let mut designs = Vec::with_capacity(specs.len());
        for (s, spec) in specs.iter().enumerate() {
            let scored = session.score_spec_at(s, spec)?;
            for (c, h) in scored.health.iter().enumerate() {
                match &mut scoring_health[c] {
                    Some(acc) => acc.merge(h),
                    slot => *slot = Some(h.clone()),
                }
            }
            rows.push(scored.row);
            designs.push(scored.design);
        }
        let report = session.report(rows, &scoring_health);
        Ok(ScoredCampaign { report, designs })
    }

    /// Prepares the amortized half of suspect scoring for `charac`: the
    /// golden design's slice count, the fabricated die population, the
    /// baseline populations and (for multi-channel campaigns) the fusion
    /// fits. [`Run::score`] builds one session per campaign; `htd serve`
    /// builds one per content-digest batch.
    ///
    /// # Errors
    ///
    /// [`Error::ChannelShapeMismatch`] when `channels` or the classifier's
    /// features do not match the stored states;
    /// [`Error::DegeneratePopulation`] when a baseline population has no
    /// spread (multi-channel only); design failures otherwise.
    pub fn session<'a>(
        &'a self,
        lab: &'a Lab,
        charac: &'a Characterization,
        channels: &'a [&'a dyn Channel],
    ) -> Result<Session<'a>, Error> {
        check_channels_match(charac, channels)?;
        let plan = &charac.plan;
        let golden = Design::golden(lab)?;
        let golden_slices = golden.used_slices();
        let dies = lab.fabricate_batch(plan.n_dies);
        // Everything downstream compares the baseline populations; they
        // derive from the stored scores alone, so a reloaded
        // characterization scores identically to a fresh one.
        let baselines: Vec<Vec<f64>> = charac
            .states
            .iter()
            .map(|s| s.baseline.population())
            .collect();
        // Fusion normalisation: the baseline fit of each channel. Only
        // needed (and only required to be non-degenerate) when there is
        // something to fuse.
        let (fits, baseline_fused) = if channels.len() >= 2 {
            let _span = self.engine.obs().span("fuse");
            let fits = charac
                .states
                .iter()
                .zip(&baselines)
                .map(|(s, baseline)| {
                    Gaussian::fit(baseline).map_err(|source| Error::DegeneratePopulation {
                        channel: s.channel.clone(),
                        samples: baseline.len(),
                        source,
                    })
                })
                .collect::<Result<Vec<_>, _>>()?;
            let fused = fuse_masked(&fits, &masked(&charac.states, &baselines), plan.n_dies);
            (fits, Some(fused))
        } else {
            (Vec::new(), None)
        };
        if let Some(model) = &self.model {
            check_model_features(model, charac.states.iter().map(|s| s.channel.as_str()))?;
        }
        Ok(Session {
            run: self,
            lab,
            charac,
            channels,
            golden_slices,
            dies,
            baselines,
            fits,
            baseline_fused,
        })
    }

    /// Calibrates one channel on the reference devices, re-running on
    /// injected divergence. Returns the calibration (or `None` when a
    /// degraded policy lost the channel) and the attempts it took.
    fn calibrate(
        &self,
        channel: &dyn Channel,
        c: usize,
        plan: &CampaignPlan,
        devs: &[ProgrammedDevice<'_>],
    ) -> Result<(Option<Calibration>, usize), Error> {
        let engine = &self.engine;
        let _span = engine.obs().span(&format!("calibrate.{}", channel.name()));
        let mut calibration = None;
        let mut attempts = 0usize;
        for attempt in 0..=self.policy.max_retries {
            attempts = attempt + 1;
            if self
                .faults
                .fires(FaultSite::Calibrate, &[c as u64, attempt as u64])
            {
                engine.obs().incr("faults.calibrate.fired");
                continue;
            }
            calibration = Some(channel.calibrate(engine, plan, devs)?);
            break;
        }
        engine.obs().add("retry.calibrate", (attempts - 1) as u64);
        if calibration.is_none() && !self.policy.allow_degraded {
            return Err(Error::CalibrationDiverged {
                channel: channel.name().to_string(),
                attempts,
            });
        }
        Ok((calibration, attempts))
    }

    /// Acquires one channel over a device population with retry and
    /// quarantine. Fault decisions and retry seeds derive from
    /// `(channel index, population tag, die index, attempt)` — indices,
    /// never scheduling — so the same plan quarantines the same dies at
    /// any worker count. The fan is per die; each die's acquisition runs
    /// on a serial engine so pools never nest. Seeds come from the plan's
    /// seed tree: [`CampaignPlan::die_seed`] for the characterized lot,
    /// [`CampaignPlan::spec_die_seed`] for suspect design `pop - 1`.
    fn acquire(
        &self,
        channel: &dyn Channel,
        channel_index: usize,
        devs: &[ProgrammedDevice<'_>],
        plan: &CampaignPlan,
        calibration: &Calibration,
        pop: u64,
    ) -> Result<Population, Error> {
        let seed_of = |j: usize| match pop {
            POP_REFERENCE => plan.die_seed(j),
            suspect => plan.spec_die_seed((suspect - 1) as usize, j),
        };
        let (engine, faults, policy) = (&self.engine, &self.faults, &self.policy);
        let _span = engine.obs().span(&format!("acquire.{}", channel.name()));
        let outcomes = engine.map_retry(devs.len(), policy.max_retries, |j, attempt| {
            let ctx = [channel_index as u64, pop, j as u64, attempt as u64];
            if faults.fires(FaultSite::Acquire, &ctx) {
                engine.obs().incr("faults.acquire.fired");
                return Attempt::Faulted;
            }
            let seed = retry_seed(seed_of(j), attempt);
            match channel.acquire_faulted(
                &engine.serial_like(),
                &devs[j],
                plan,
                calibration,
                seed,
                faults,
                &ctx,
            ) {
                Ok(Some(value)) => Attempt::Ok(value),
                Ok(None) => Attempt::Faulted,
                Err(e) => Attempt::Fatal(e),
            }
        })?;
        // Repetition counters stay zero under the none-plan so a fault-free
        // run reports exactly the pristine health record.
        let track_reps = !faults.is_none();
        let mut health = ChannelHealth::pristine(channel.name(), 0);
        let mut kept = Vec::with_capacity(devs.len());
        let mut acquisitions = Vec::with_capacity(devs.len());
        for (j, outcome) in outcomes.into_iter().enumerate() {
            health.attempted += outcome.attempts;
            health.retried += outcome.attempts - 1;
            match outcome.value {
                Some((acquisition, reps)) => {
                    if track_reps {
                        health.reps_attempted += reps.attempted;
                        health.reps_dropped += reps.dropped;
                    }
                    kept.push(j);
                    acquisitions.push(acquisition);
                }
                None => {
                    if !policy.allow_degraded {
                        return Err(Error::AcquisitionExhausted {
                            channel: channel.name().to_string(),
                            die: j,
                            attempts: outcome.attempts,
                        });
                    }
                    health.dropped += 1;
                }
            }
        }
        // Retry totals are index-pure (see above), so this counter is as
        // worker-invariant as the health ledger it mirrors.
        engine.obs().add("retry.acquire", health.retried as u64);
        Ok(Population {
            kept,
            acquisitions,
            health,
        })
    }
}

/// Programs `design` onto every die, fanned on `engine`.
fn program<'a>(
    engine: &Engine,
    lab: &'a Lab,
    design: &'a Design,
    dies: &'a [DieVariation],
) -> Vec<ProgrammedDevice<'a>> {
    let _span = engine.obs().span("program");
    engine.map(dies, |_, die| {
        ProgrammedDevice::with_obs(lab, design, die, engine.obs().clone())
    })
}

/// `(kept, scores)` views of per-channel populations, as the masked
/// fusion and feature-row helpers take them.
fn masked<'a>(states: &'a [ChannelState], scores: &'a [Vec<f64>]) -> Vec<(&'a [usize], &'a [f64])> {
    states
        .iter()
        .zip(scores)
        .map(|(s, scores)| (s.kept.as_slice(), scores.as_slice()))
        .collect()
}

/// Checks that the supplied channels match the stored characterization
/// one-to-one (same count, same names, same order).
fn check_channels_match(charac: &Characterization, channels: &[&dyn Channel]) -> Result<(), Error> {
    if channels.len() != charac.states.len() {
        return Err(Error::ChannelShapeMismatch {
            channel: format!("{} stored channel state(s)", charac.states.len()),
            expected: "one live channel per stored state",
        });
    }
    for (channel, state) in channels.iter().zip(&charac.states) {
        if channel.name() != state.channel {
            return Err(Error::ChannelShapeMismatch {
                channel: state.channel.clone(),
                expected: "a live channel with the stored state's name",
            });
        }
    }
    Ok(())
}

/// Checks a classifier's feature labels against the campaign's channel
/// names (count, names, order).
fn check_model_features<'n>(
    model: &LogisticModel,
    names: impl ExactSizeIterator<Item = &'n str>,
) -> Result<(), Error> {
    let mismatch = || Error::ChannelShapeMismatch {
        channel: model.features.join("+"),
        expected: "classifier features matching the channel set",
    };
    if model.features.len() != names.len() {
        return Err(mismatch());
    }
    for (feature, name) in model.features.iter().zip(names) {
        if feature != name {
            return Err(mismatch());
        }
    }
    Ok(())
}

/// The amortized scoring state of one characterization, built by
/// [`Run::session`]. Scoring through a session *is* the batched campaign
/// path, so a suspect scored alone at `index` is bit-identical to the
/// same suspect inside any batch at position `index`, at any worker
/// count — the promise `htd serve` relies on.
pub struct Session<'a> {
    run: &'a Run,
    lab: &'a Lab,
    charac: &'a Characterization,
    channels: &'a [&'a dyn Channel],
    golden_slices: usize,
    dies: Vec<DieVariation>,
    baselines: Vec<Vec<f64>>,
    fits: Vec<Gaussian>,
    baseline_fused: Option<Vec<f64>>,
}

impl Session<'_> {
    /// Scores one suspect at campaign position `index`: the index picks
    /// the design's seed stream ([`CampaignPlan::spec_die_seed`]) and
    /// fault-population tag, so a standalone score at `index` equals the
    /// same spec inside a batched campaign at that position.
    ///
    /// # Errors
    ///
    /// [`Error::AcquisitionExhausted`] when a suspect die exhausts its
    /// budget under the strict policy; [`Error::ChannelDegraded`] when
    /// quarantine leaves a population below the mode's
    /// [`Mode::min_dies`]; design and simulation failures otherwise.
    pub fn score_spec_at(&self, index: usize, spec: &TrojanSpec) -> Result<SpecScore, Error> {
        let engine = &self.run.engine;
        let plan = &self.charac.plan;
        let infected = Design::infected_with_obs(self.lab, spec, engine.obs())?;
        let infected_devs = program(engine, self.lab, &infected, &self.dies);
        let mut per_channel: Vec<Vec<f64>> = Vec::with_capacity(self.channels.len());
        let mut kept: Vec<Vec<usize>> = Vec::with_capacity(self.channels.len());
        let mut scored_sets = Vec::with_capacity(self.channels.len());
        let mut health = Vec::with_capacity(self.channels.len());
        for (c, (channel, state)) in self.channels.iter().zip(&self.charac.states).enumerate() {
            let population = self.run.acquire(
                *channel,
                c,
                &infected_devs,
                plan,
                &state.calibration,
                (index as u64) + 1,
            )?;
            let need = state.baseline.mode().min_dies();
            if population.kept.len() < need {
                return Err(Error::ChannelDegraded {
                    channel: state.channel.clone(),
                    kept: population.kept.len(),
                    need,
                });
            }
            let scores = state.baseline.score(
                *channel,
                &population.acquisitions,
                &state.calibration,
                engine,
            )?;
            health.push(population.health);
            scored_sets.push(ScoredChannel {
                channel: state.channel.clone(),
                golden: self.baselines[c].clone(),
                infected: scores.clone(),
            });
            per_channel.push(scores);
            kept.push(population.kept);
        }
        let channel_results = self
            .charac
            .states
            .iter()
            .zip(&self.baselines)
            .zip(&per_channel)
            .map(|((state, baseline), scores)| {
                ChannelResult::fit(state.channel.clone(), baseline, scores)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let suspect_masked: Vec<(&[usize], &[f64])> = kept
            .iter()
            .zip(&per_channel)
            .map(|(kept, scores)| (kept.as_slice(), scores.as_slice()))
            .collect();
        let fused = if let Some(model) = &self.run.model {
            let _span = engine.obs().span("fuse");
            Some(learned_result(
                model,
                &masked(&self.charac.states, &self.baselines),
                &suspect_masked,
                plan.n_dies,
            )?)
        } else {
            match &self.baseline_fused {
                Some(baseline_fused) => {
                    let _span = engine.obs().span("fuse");
                    let suspect_fused = fuse_masked(&self.fits, &suspect_masked, plan.n_dies);
                    Some(ChannelResult::fit("fused", baseline_fused, &suspect_fused)?)
                }
                None => None,
            }
        };
        let size_fraction = infected
            .trojan()
            .map(|t| t.fraction_of_design(self.golden_slices))
            .unwrap_or(0.0);
        engine.obs().incr("score.designs");
        if self.charac.mode() == Mode::ReferenceFree {
            engine.obs().incr("score.reffree.designs");
        }
        Ok(SpecScore {
            row: MultiChannelRow {
                name: spec.name.clone(),
                size_fraction,
                channels: channel_results,
                fused,
            },
            design: ScoredDesign {
                name: spec.name.clone(),
                size_fraction,
                scored: scored_sets,
            },
            health,
        })
    }

    /// Assembles the one-row [`MultiChannelReport`] of a single suspect
    /// scored through this session — exactly the report `htd score`
    /// writes for the same (artifact, suspect) pair, which is what lets
    /// the serve path promise byte-identical responses.
    pub fn single_report(&self, score: &SpecScore) -> MultiChannelReport {
        let scoring: Vec<Option<ChannelHealth>> = score.health.iter().cloned().map(Some).collect();
        self.report(vec![score.row.clone()], &scoring)
    }

    /// A report over `rows` with its health section: the section appears
    /// whenever faults could have fired or the characterization already
    /// lost something, so a pristine campaign keeps the historical
    /// (empty) shape.
    fn report(
        &self,
        rows: Vec<MultiChannelRow>,
        scoring_health: &[Option<ChannelHealth>],
    ) -> MultiChannelReport {
        let charac = self.charac;
        let n_dies = charac.plan.n_dies;
        let charac_degraded = !charac.lost.is_empty()
            || charac
                .states
                .iter()
                .any(|s| s.kept.len() != n_dies || !s.health.is_pristine(n_dies));
        let mut health = Vec::new();
        if !self.run.faults.is_none() || charac_degraded {
            for (c, state) in charac.states.iter().enumerate() {
                let mut h = state.health.clone();
                if let Some(scoring) = scoring_health.get(c).and_then(Option::as_ref) {
                    h.merge(scoring);
                }
                health.push(h);
            }
            health.extend(charac.lost.iter().cloned());
        }
        MultiChannelReport {
            rows,
            n_dies,
            channel_names: charac.states.iter().map(|s| s.channel.clone()).collect(),
            health,
        }
    }
}
