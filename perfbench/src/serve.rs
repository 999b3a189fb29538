//! The `serve-cold` workload: `htd serve` with the result memo off,
//! under a closed loop on one connection, each request sent only after
//! the previous reply, as `htd bench` and CI callers do. The server
//! scores one batch at a time, so a second connection would only queue
//! behind the first: it adds the other request's service time to each
//! latency without raising the rate.
//!
//! Set-up characterizes four goldens from one plan — `em,delay`,
//! `em,delay,power`, `delay`, and a `--mode reference-free` twin — and
//! computes the offline `htd score --report` of each (golden, suspect)
//! key for HT 1, HT 2, HT 3 and HT-seq. Every served report must equal
//! its offline report byte for byte. Served suspects always score at
//! campaign position 0, so the same suspect dice recur across goldens.
//! With the memo off, every request is a full score.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;
use crate::layers::{self, Layers};
use crate::proc::{self, Server};
use crate::wire::{self, Conn};
use crate::{metric, quantile, ratio, read_artifact, Ctx, EndToEnd, Fail, Outcome};

const PLAN: [&str; 4] = ["--pairs", "2", "--reps", "2"];
const DIES: usize = 8;
const GOLDENS: [(&str, &str, &[&str]); 4] = [
    ("em-delay.htd", "golden", &["--channels", "em,delay"]),
    (
        "em-delay-power.htd",
        "golden",
        &["--channels", "em,delay,power"],
    ),
    ("delay.htd", "golden", &["--channels", "delay"]),
    (
        "reffree.htd",
        "reffree",
        &["--mode", "reference-free", "--channels", "em,delay"],
    ),
];
const SUSPECTS: [&str; 4] = ["ht1", "ht2", "ht3", "ht-seq"];

/// Requests per `--seconds` of run length, about what a 2-core host
/// serves in that time.
const PER_SECOND: f64 = 20.0;
/// Requests per slice of a window: six whole rounds of every key.
const SLICE: usize = 6 * GOLDENS.len() * SUSPECTS.len();

/// One (golden, suspect) pair and what serving it must return.
struct Key {
    golden: &'static str,
    suspect: &'static str,
    /// The request frame without a request id.
    request: Vec<u8>,
    /// `htd score --report` for this pair, computed offline.
    report: String,
    /// The response frame first served for this pair in set-up, checked
    /// against `report`; later id-less responses must repeat it exactly.
    frame: Vec<u8>,
}

/// The window's request count: whole slices, as near `PER_SECOND` per
/// second of run length as they come.
fn requests(ctx: &Ctx) -> usize {
    let slices = (ctx.seconds as f64 * PER_SECOND / SLICE as f64).round() as usize;
    slices.max(1) * SLICE
}

/// Characterizes the goldens and scores every key offline, in `dir`.
fn artifacts(ctx: &Ctx, dir: &Path, obs: Option<&Path>) -> Result<Vec<Key>, Fail> {
    let (seed, dies) = (ctx.derive(0).to_string(), DIES.to_string());
    for (file, kind, extra) in GOLDENS {
        let mut args: Vec<String> = [
            "characterize",
            "--out",
            file,
            "--seed",
            &seed,
            "--dies",
            &dies,
        ]
        .iter()
        .chain(&PLAN)
        .chain(extra)
        .map(|s| s.to_string())
        .collect();
        if let Some(obs) = obs {
            args.extend(crate::obs_args(obs, &format!("characterize.{file}"), true));
        }
        if !proc::run(&ctx.htd, dir, &args)?.ok || read_artifact(&dir.join(file), kind).is_none() {
            return Err(format!("set-up: characterizing {file} failed").into());
        }
    }
    let mut keys = Vec::new();
    for (golden, _, _) in GOLDENS {
        for suspect in SUSPECTS {
            let mut args: Vec<String> = [
                "score",
                "--golden",
                golden,
                "--trojans",
                suspect,
                "--report",
                "offline.htd",
            ]
            .map(String::from)
            .to_vec();
            if let Some(obs) = obs {
                args.extend(crate::obs_args(
                    obs,
                    &format!("score.{golden}.{suspect}"),
                    true,
                ));
            }
            let report = if proc::run(&ctx.htd, dir, &args)?.ok {
                read_artifact(&dir.join("offline.htd"), "report")
            } else {
                None
            };
            keys.push(Key {
                golden,
                suspect,
                request: wire::score_request(golden, suspect, None),
                report: report.ok_or_else(|| {
                    format!("set-up: offline score of {golden} × {suspect} failed")
                })?,
                frame: Vec::new(),
            });
        }
    }
    Ok(keys)
}

fn start(ctx: &Ctx, dir: &Path, obs: &[String]) -> Result<Server, Fail> {
    let mut args: Vec<String> = ["--addr", "127.0.0.1:0", "--result-cache", "0"]
        .map(String::from)
        .to_vec();
    args.extend_from_slice(obs);
    Server::start(&ctx.htd, dir, &args)
}

/// Serves every key once, checks each report against its offline twin
/// and records the response frame.
fn prime(server: &Server, keys: &mut [Key]) -> Result<(), Fail> {
    let mut conn = Conn::open(&server.addr)?;
    for key in keys.iter_mut() {
        let frame = conn.call(&key.request)?;
        let served = std::str::from_utf8(frame)
            .ok()
            .and_then(|f| wire::served_report(f, key.suspect));
        if served.as_deref() != Some(key.report.as_str()) {
            return Err(format!(
                "set-up: served {} × {} differs from htd score --report",
                key.golden, key.suspect
            )
            .into());
        }
        key.frame = frame.to_vec();
    }
    Ok(())
}

/// `n` key indices: rounds of every key in a seeded order.
fn order(seed: u64, n: usize) -> Vec<usize> {
    let mut state = seed;
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut round: Vec<usize> = (0..GOLDENS.len() * SUSPECTS.len()).collect();
        for i in (1..round.len()).rev() {
            state = crate::mix(state);
            round.swap(i, (state % (i as u64 + 1)) as usize);
        }
        out.extend(round);
    }
    out.truncate(n);
    out
}

/// A timed window: how long it took, its requests in send order, and the
/// first report served for each key that was answered correctly.
struct Window {
    wall_s: f64,
    samples: Vec<Sample>,
    reports: BTreeMap<usize, String>,
}

impl Window {
    /// `(ok responses per second, p50, p90 latency)`, each the median over
    /// the window's slices of `SLICE` requests in send order. Each slice
    /// holds every key equally often, so its figures do not depend on the
    /// mix of keys it happened to get, and a stall of the shared host
    /// spoils a slice rather than the whole figure.
    fn sliced(&self) -> (f64, f64, f64) {
        let (mut rates, mut p50s, mut p90s) = (Vec::new(), Vec::new(), Vec::new());
        for slice in self.samples.chunks(SLICE) {
            let (first, last) = (&slice[0], &slice[slice.len() - 1]);
            let wall_ms = last.start_ms + last.lat_ms - first.start_ms;
            let ok: Vec<f64> = slice.iter().filter(|s| s.ok).map(|s| s.lat_ms).collect();
            rates.push(ok.len() as f64 / wall_ms * 1e3);
            if !ok.is_empty() {
                p50s.push(quantile(&ok, 0.5));
                p90s.push(quantile(&ok, 0.9));
            }
        }
        (
            quantile(&rates, 0.5),
            quantile(&p50s, 0.5),
            quantile(&p90s, 0.5),
        )
    }
}

/// One request of a timed window.
struct Sample {
    index: usize,
    start_ms: f64,
    lat_ms: f64,
    ok: bool,
}

fn request_id(index: usize) -> String {
    format!("t-{index}")
}

/// Sends `order` over one connection, each request when the previous one
/// is answered. With `ids`, each request carries its wire id and is
/// checked against its offline report; without, each response must
/// repeat the key's primed frame byte for byte. The first correct
/// response per key is kept as served report text.
fn window(addr: &str, keys: &[Key], order: &[usize], ids: bool) -> Result<Window, Fail> {
    let mut conn = Conn::open(addr)?;
    let mut samples = Vec::with_capacity(order.len());
    let mut reports = BTreeMap::new();
    let start = Instant::now();
    for (index, &k) in order.iter().enumerate() {
        let key = &keys[k];
        let tagged =
            ids.then(|| wire::score_request(key.golden, key.suspect, Some(&request_id(index))));
        let start_ms = proc::now_ms();
        let sent = Instant::now();
        let frame = conn.call(tagged.as_deref().unwrap_or(&key.request))?;
        let lat_ms = sent.elapsed().as_secs_f64() * 1e3;
        let served = || {
            std::str::from_utf8(frame)
                .ok()
                .and_then(|f| wire::served_report(f, key.suspect))
        };
        let ok = if ids {
            served().is_some_and(|r| r == key.report)
        } else {
            frame == key.frame.as_slice()
        };
        if ok && !reports.contains_key(&k) {
            reports.extend(served().map(|r| (k, r)));
        }
        samples.push(Sample {
            index,
            start_ms,
            lat_ms,
            ok,
        });
    }
    Ok(Window {
        wall_s: start.elapsed().as_secs_f64(),
        samples,
        reports,
    })
}

/// Mean |fused FN − paper FN| over the HT 1, HT 2 and HT 3 reports the
/// window served for the `em,delay` golden.
fn served_fn_err(keys: &[Key], timed: &Window) -> Result<f64, Fail> {
    let text: String = keys
        .iter()
        .enumerate()
        .filter(|(_, k)| k.golden == GOLDENS[0].0 && ["ht1", "ht2", "ht3"].contains(&k.suspect))
        .filter_map(|(i, _)| timed.reports.get(&i).map(String::as_str))
        .collect();
    Ok(crate::fn_err_pp(&text)
        .ok_or("the window served no fused FN rows for the em,delay golden's HT 1-3")?)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, Fail> {
    let ((server, keys), setup_s) = crate::repeated_setup(|i| {
        let dir = ctx.dir(&format!("serve-{i}"))?;
        let mut keys = artifacts(ctx, &dir, None)?;
        let server = start(ctx, &dir, &[])?;
        prime(&server, &mut keys)?;
        Ok((server, keys))
    })?;
    let order = order(ctx.derive(1), requests(ctx));
    let timed = window(&server.addr, &keys, &order, false)?;
    let rss_mb = server.stop()?;
    let ok = timed.samples.iter().filter(|s| s.ok).count() as f64;
    let attempted = timed.samples.len() as u64;
    let failed = attempted - ok as u64;
    let (scores_per_s, lat_p50_ms, lat_p90_ms) = timed.sliced();
    Ok(Outcome {
        attempted,
        failed,
        metrics: EndToEnd {
            setup_s,
            peak_rss_mb: rss_mb,
            ok_frac: ok / attempted as f64,
            fn_err_pp: served_fn_err(&keys, &timed)?,
            scores_per_s,
            lat_p50_ms,
            lat_p90_ms,
        }
        .metrics(),
        extra: vec![
            metric("score_dies_per_s", scores_per_s * DIES as f64, "1/s"),
            metric("mean_scores_per_s", ok / timed.wall_s, "1/s"),
            metric("fail_frac", ratio(failed as f64, attempted as f64), "ratio"),
            metric("requests", attempted as f64, "count"),
        ],
    })
}

/// The live manifest a server reports through the `stats` verb.
fn stats(addr: &str) -> Result<Json, Fail> {
    let frame = Conn::open(addr)?.call(&wire::frame("stats", ""))?.to_vec();
    let text = String::from_utf8(frame)?;
    let covered = wire::verified(&text).ok_or("malformed stats response")?;
    let manifest: String = covered
        .lines()
        .filter_map(|l| l.strip_prefix('|'))
        .flat_map(|l| [l, "\n"])
        .collect();
    Ok(Json::parse(&manifest)?)
}

/// Counters and pool-slot items a server gained during one window.
struct Delta {
    counters: BTreeMap<String, f64>,
    slots: Vec<f64>,
}

fn delta(before: &Json, after: &Json) -> Delta {
    let b = layers::counters(before);
    let mut counters = layers::counters(after);
    for (k, v) in counters.iter_mut() {
        *v -= b.get(k).copied().unwrap_or(0.0);
    }
    let bs = layers::slots(before);
    let slots = layers::slots(after)
        .iter()
        .enumerate()
        .map(|(i, v)| v - bs.get(i).copied().unwrap_or(0.0))
        .collect();
    Delta { counters, slots }
}

/// One traced-run window on a fresh server started with `obs`.
fn observed_window(
    ctx: &Ctx,
    dir: &Path,
    keys: &mut [Key],
    order: &[usize],
    obs: &[String],
) -> Result<(f64, Vec<Sample>, Option<Delta>), Fail> {
    let server = start(ctx, dir, obs)?;
    prime(&server, keys)?;
    let before = (!obs.is_empty()).then(|| stats(&server.addr)).transpose()?;
    let timed = window(&server.addr, keys, order, true)?;
    let delta = match before {
        Some(before) => Some(delta(&before, &stats(&server.addr)?)),
        None => None,
    };
    server.stop()?;
    Ok((timed.wall_s, timed.samples, delta))
}

/// The traced run: the timed window three times on fresh servers —
/// plain (the end-to-end configuration), with `--metrics`, and with
/// `--metrics --trace` — each request tagged with its wire id; then the
/// stage replays on the workload's designs.
pub fn traced(ctx: &Ctx) -> Result<Outcome, Fail> {
    let dir = ctx.dir("serve")?;
    let keep = layers::keep_dir("serve-cold")?;
    let mut keys = artifacts(ctx, &dir, Some(&keep))?;
    let order = order(ctx.derive(1), requests(ctx));
    let (plain_s, plain, _) = observed_window(ctx, &dir, &mut keys, &order, &[])?;
    let untraced = crate::obs_args(&keep, "untraced.serve", false);
    let (_, counted, counted_delta) = observed_window(ctx, &dir, &mut keys, &order, &untraced)?;
    let traced = crate::obs_args(&keep, "serve", true);
    let (traced_s, samples, traced_delta) = observed_window(ctx, &dir, &mut keys, &order, &traced)?;
    let (counted_delta, traced_delta) = (
        counted_delta.ok_or("no counters from the untraced server")?,
        traced_delta.ok_or("no counters from the traced server")?,
    );
    let attempted = (plain.len() + counted.len() + samples.len()) as u64;
    let mut failed = plain
        .iter()
        .chain(&counted)
        .chain(&samples)
        .filter(|s| !s.ok)
        .count() as u64;
    failed += layers::counter_mismatches(
        &counted_delta.counters,
        &traced_delta.counters,
        &layers::ARRIVAL_DEPENDENT,
    );

    let trace = Json::parse(&std::fs::read_to_string(keep.join("serve.trace.json"))?)?;
    let all = layers::spans(&trace);
    let window_start = all
        .iter()
        .filter(|s| s.name == "serve.accept" && s.request.is_some_and(|r| r.starts_with("t-")))
        .map(|s| s.ts)
        .fold(f64::INFINITY, f64::min);
    let timed: Vec<_> = all.into_iter().filter(|s| s.ts >= window_start).collect();
    // The server's hold on each request: from `serve.accept` (the frame
    // is read and parsed) to the end of `serve.respond` (the reply sent).
    let mut held: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    for s in &timed {
        let Some(id) = s.request else { continue };
        let span = held.entry(id).or_insert((f64::INFINITY, f64::NEG_INFINITY));
        match s.name {
            "serve.accept" => span.0 = span.0.min(s.ts),
            "serve.respond" => span.1 = span.1.max(s.ts + s.dur),
            _ => {}
        }
    }
    let waits = layers::queue_waits(&trace);

    let mut layers = Layers::default();
    layers.add_counters(&traced_delta.counters);
    layers.add_slots(&traced_delta.slots);
    layers.add_spans(&timed);
    for s in &samples {
        let id = request_id(s.index);
        layers.bench_span("client.request", s.start_ms, s.lat_ms, Some(&id));
        if let Some(wait) = waits.get(&id) {
            layers.add_queue_wait(*wait);
        }
        if let Some((from, to)) = held.get(id.as_str()).filter(|(a, b)| b > a) {
            layers.add_wire_overhead(s.lat_ms - (to - from));
        }
    }
    layers.trace_overhead_frac = traced_s / plain_s - 1.0;
    layers.replay(&keep, DIES, ctx.derive(0), &SUSPECTS)?;
    Ok(Outcome {
        attempted,
        failed,
        metrics: layers.metrics(),
        extra: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stall_in_one_slice_leaves_the_sliced_figures_alone() {
        // Ten slices of requests of 1 ms back to back; the last request
        // of the last slice stalls for 100 ms and spoils that slice.
        let n = 10 * SLICE;
        let mut samples: Vec<Sample> = (0..n)
            .map(|i| Sample {
                index: i,
                start_ms: i as f64,
                lat_ms: 1.0,
                ok: true,
            })
            .collect();
        samples[n - 1].lat_ms = 100.0;
        let window = Window {
            wall_s: (n + 99) as f64 / 1e3,
            samples,
            reports: BTreeMap::new(),
        };
        let (rate, p50, p90) = window.sliced();
        // The mean rate would read n / (n + 99 ms), 870 per second.
        assert!((rate - 1_000.0).abs() < 1e-6, "{rate}");
        assert_eq!((p50, p90), (1.0, 1.0));
    }

    #[test]
    fn a_window_holds_whole_slices() {
        let ctx = |seconds| Ctx {
            htd: Default::default(),
            seed: 0,
            seconds,
            work: Default::default(),
        };
        assert_eq!(requests(&ctx(1)), SLICE);
        assert_eq!(requests(&ctx(20)) % SLICE, 0);
    }
}
