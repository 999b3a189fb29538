//! The `campaign` workload: the researcher's offline path. Each lot is
//! `htd characterize` of a fresh golden lot followed by `htd score` of
//! HT 1, HT 2, HT 3 and HT-seq against it, on its own seed, so no cache
//! that outlives a process can make a repeated input look fast.

use std::path::Path;

use crate::layers::{Artifacts, Layers};
use crate::proc::{self, Ran};
use crate::{metric, quantile, ratio, read_artifact, Ctx, EndToEnd, Fail, Outcome};

/// Golden lot: larger than the paper's 8 dies so each command runs for
/// about half a second or more.
const DIES: usize = 32;
const LOT: [&str; 6] = ["--pairs", "4", "--reps", "4", "--channels", "em,delay"];
const TROJANS: &str = "sweep,ht-seq";
const SUSPECTS: [&str; 4] = ["ht1", "ht2", "ht3", "ht-seq"];

/// Lots scored per `--seconds` of run length: a lot takes about a second
/// on a 2-core host.
const LOTS_PER_SECOND: f64 = 1.0;

fn lots(ctx: &Ctx) -> u64 {
    ((ctx.seconds as f64 * LOTS_PER_SECOND).round() as u64).max(1)
}

/// One finished lot.
struct Lot {
    characterize: Ran,
    score: Ran,
    /// The report `htd score` wrote, when both commands succeeded and
    /// their artifacts check out.
    report: Option<String>,
}

impl Lot {
    fn failed(&self) -> u64 {
        u64::from(!self.characterize.ok) + u64::from(self.report.is_none())
    }
}

fn run_lot(
    ctx: &Ctx,
    dir: &Path,
    seed: u64,
    obs: Option<(&Path, &str)>,
    with_trace: bool,
) -> Result<Lot, Fail> {
    let golden = dir.join("golden.htd");
    let report = dir.join("report.htd");
    let mut args: Vec<String> = [
        "characterize",
        "--out",
        "golden.htd",
        "--seed",
        &seed.to_string(),
        "--dies",
        &DIES.to_string(),
    ]
    .iter()
    .chain(&LOT)
    .map(|s| s.to_string())
    .collect();
    if let Some((obs, tag)) = obs {
        args.extend(crate::obs_args(
            obs,
            &format!("{tag}.characterize"),
            with_trace,
        ));
    }
    let characterize = proc::run(&ctx.htd, dir, &args)?;
    let characterize_ok = characterize.ok && read_artifact(&golden, "golden").is_some();
    let mut args: Vec<String> = [
        "score",
        "--golden",
        "golden.htd",
        "--trojans",
        TROJANS,
        "--report",
        "report.htd",
    ]
    .map(String::from)
    .to_vec();
    if let Some((obs, tag)) = obs {
        args.extend(crate::obs_args(obs, &format!("{tag}.score"), with_trace));
    }
    let score = proc::run(&ctx.htd, dir, &args)?;
    let text = if characterize_ok && score.ok {
        read_artifact(&report, "report").filter(|r| crate::fn_err_pp(r).is_some() && has_rows(r))
    } else {
        None
    };
    std::fs::remove_file(&golden).ok();
    std::fs::remove_file(&report).ok();
    Ok(Lot {
        characterize: Ran {
            ok: characterize_ok,
            ..characterize
        },
        score,
        report: text,
    })
}

fn has_rows(report: &str) -> bool {
    ["HT 1", "HT 2", "HT 3", "HT-seq"]
        .iter()
        .all(|ht| report.contains(&format!("row \"{ht}\"")))
}

/// Set-up: one discarded lot on a seed the timed lots never use, so the
/// first timed command does not pay for a cold page cache.
fn setup(ctx: &Ctx) -> Result<(std::path::PathBuf, f64), Fail> {
    crate::repeated_setup(|_| {
        let dir = ctx.dir("campaign")?;
        let lot = run_lot(ctx, &dir, ctx.derive(0), None, false)?;
        if lot.failed() > 0 {
            return Err("the warm-up lot failed".into());
        }
        Ok(dir)
    })
}

fn window(ctx: &Ctx, dir: &Path, obs: Option<&Path>, with_trace: bool) -> Result<Vec<Lot>, Fail> {
    if let Some(obs) = obs {
        std::fs::create_dir_all(obs)?;
    }
    (0..lots(ctx))
        .map(|i| {
            let tag = format!("lot{i}");
            run_lot(
                ctx,
                dir,
                ctx.derive(i + 1),
                obs.map(|d| (d, tag.as_str())),
                with_trace,
            )
        })
        .collect()
}

fn sums(lots: &[Lot]) -> (f64, f64) {
    lots.iter().fold((0.0, 0.0), |(c, s), lot| {
        (c + lot.characterize.wall_s, s + lot.score.wall_s)
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, Fail> {
    let (dir, setup_s) = setup(ctx)?;
    let lots = window(ctx, &dir, None, false)?;
    let n = lots.len() as f64;
    let (characterize_s, score_s) = sums(&lots);
    let turnaround_ms: Vec<f64> = lots
        .iter()
        .map(|l| (l.characterize.wall_s + l.score.wall_s) * 1e3)
        .collect();
    let fn_errs: Vec<f64> = lots
        .iter()
        .filter_map(|l| l.report.as_deref().and_then(crate::fn_err_pp))
        .collect();
    let attempted = 2 * lots.len() as u64;
    let failed: u64 = lots.iter().map(Lot::failed).sum();
    // The heavier command's typical peak: a maximum over every process
    // would follow the one whose allocator arenas happened to grow most.
    let median_rss = |ran: fn(&Lot) -> &Ran| {
        quantile(&lots.iter().map(|l| ran(l).rss_mb).collect::<Vec<_>>(), 0.5)
    };
    let rss = median_rss(|l| &l.characterize).max(median_rss(|l| &l.score));
    let suspects = SUSPECTS.len() as f64;
    // Per lot, so that a stall of the shared host spoils one lot's rate
    // rather than the run's.
    let per_lot_scores: Vec<f64> = lots.iter().map(|l| suspects / l.score.wall_s).collect();
    Ok(Outcome {
        attempted,
        failed,
        metrics: EndToEnd {
            setup_s,
            peak_rss_mb: rss,
            ok_frac: 1.0 - ratio(failed as f64, attempted as f64),
            fn_err_pp: fn_errs.iter().sum::<f64>() / fn_errs.len().max(1) as f64,
            scores_per_s: quantile(&per_lot_scores, 0.5),
            lat_p50_ms: quantile(&turnaround_ms, 0.5),
            lat_p90_ms: quantile(&turnaround_ms, 0.9),
        }
        .metrics(),
        extra: vec![
            metric(
                "characterize_dies_per_s",
                DIES as f64 * n / characterize_s,
                "1/s",
            ),
            metric(
                "score_dies_per_s",
                suspects * DIES as f64 * n / score_s,
                "1/s",
            ),
            metric("fail_frac", ratio(failed as f64, attempted as f64), "ratio"),
            metric("lots", n, "count"),
        ],
    })
}

/// The traced run: the timed lots three times — plain (the end-to-end
/// configuration), with `--metrics`, and with `--metrics --trace` — then
/// the stage replays on the first lot's designs.
pub fn traced(ctx: &Ctx) -> Result<Outcome, Fail> {
    let (dir, _) = setup(ctx)?;
    let keep = crate::layers::keep_dir("campaign")?;
    let plain = window(ctx, &dir, None, false)?;
    let counted = window(ctx, &dir, Some(&keep.join("untraced")), false)?;
    let traced = window(ctx, &dir, Some(&keep), true)?;
    let all = plain.iter().chain(&counted).chain(&traced);
    let attempted = 2 * (plain.len() + counted.len() + traced.len()) as u64;
    let mut failed: u64 = all.map(Lot::failed).sum();

    let mut layers = Layers::default();
    for (i, lot) in traced.iter().enumerate() {
        for command in ["characterize", "score"] {
            let tag = format!("lot{i}.{command}");
            let untraced = Artifacts::load(&keep.join("untraced"), &tag, false)?;
            let art = Artifacts::load(&keep, &tag, true)?;
            failed += crate::layers::counter_mismatches(&untraced.counters(), &art.counters(), &[]);
            layers.add_cli(&art);
        }
        for (name, ran) in [
            ("cli.characterize", &lot.characterize),
            ("cli.score", &lot.score),
        ] {
            layers.bench_span(name, ran.start_ms, ran.wall_s * 1e3, None);
        }
    }
    let (plain_c, plain_s) = sums(&plain);
    let (traced_c, traced_s) = sums(&traced);
    layers.trace_overhead_frac = (traced_c + traced_s) / (plain_c + plain_s) - 1.0;
    let n = plain.len() as f64;
    layers.characterize_dies_per_s = DIES as f64 * n / plain_c;
    layers.score_dies_per_s = SUSPECTS.len() as f64 * DIES as f64 * n / plain_s;
    layers.replay(&keep, DIES, ctx.derive(1), &SUSPECTS)?;
    Ok(Outcome {
        attempted,
        failed,
        metrics: layers.metrics(),
        extra: Vec::new(),
    })
}
