//! The repository's benchmark. See `perfbench/README.md` for the
//! workloads, the metrics and how to run it.
//!
//! ```text
//! perfbench/run.sh --workload campaign|serve-cold --seed N --seconds S --trace 0|1
//! perfbench/run.sh --steady [--runs K]
//! ```
//!
//! With `--trace 0` a run prints a table of the end-to-end metrics and,
//! as its last line, one JSON object with `correct`, `attempted`,
//! `failed` and the metrics `BENCHMARK.json` lists under `end_to_end`.
//! With `--trace 1` it prints the `per_layer` metrics instead.

mod campaign;
mod json;
mod layers;
mod proc;
mod serve;
mod steady;
mod wire;

use std::path::{Path, PathBuf};
use std::time::Instant;

pub type Fail = Box<dyn std::error::Error>;

pub const WORKLOADS: [&str; 2] = ["campaign", "serve-cold"];

/// Set-up runs this many times per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// The traced run times each of its three windows at no more than this
/// many seconds of operations, so that it ends well within the time a run
/// may take at any `--seconds`.
const TRACED_SECONDS: u64 = 20;

/// The paper's FN rates for HT 1, HT 2 and HT 3 (Section V).
pub const PAPER_FN_PCT: [(&str, f64); 3] = [("HT 1", 26.0), ("HT 2", 17.0), ("HT 3", 5.0)];

/// One measured value.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The end-to-end metrics of one run.
pub struct EndToEnd {
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub ok_frac: f64,
    pub fn_err_pp: f64,
    pub scores_per_s: f64,
    pub lat_p50_ms: f64,
    pub lat_p90_ms: f64,
}

impl EndToEnd {
    /// In `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("setup_s", self.setup_s, "s"),
            metric("peak_rss_mb", self.peak_rss_mb, "MiB"),
            metric("ok_frac", self.ok_frac, "ratio"),
            metric("fn_err_pp", self.fn_err_pp, "pp"),
            metric("scores_per_s", self.scores_per_s, "1/s"),
            metric("lat_p50_ms", self.lat_p50_ms, "ms"),
            metric("lat_p90_ms", self.lat_p90_ms, "ms"),
        ]
    }
}

/// What one run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics, or per-layer ones in a traced run.
    pub metrics: Vec<Metric>,
    /// Printed in the table only: figures that are not gated.
    pub extra: Vec<Metric>,
}

/// Everything a workload needs to run.
pub struct Ctx {
    pub htd: PathBuf,
    pub seed: u64,
    pub seconds: u64,
    pub work: PathBuf,
}

impl Ctx {
    /// A fresh directory under the run's work directory.
    pub fn dir(&self, name: &str) -> Result<PathBuf, Fail> {
        let dir = self.work.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }

    /// The `i`-th seed this run derives from `--seed` (SplitMix64), kept
    /// below 2^40 so the program's seed arithmetic stays far from wrapping.
    pub fn derive(&self, i: u64) -> u64 {
        mix(self.seed.wrapping_mul(0x1_0000).wrapping_add(i)) % (1 << 40)
    }
}

pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The value at quantile `q` of `v`, interpolated between order
/// statistics; computed from raw samples, never from histogram buckets.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Times `f` `SETUPS` times and returns the last result with the median
/// duration in seconds. Each repetition builds everything from scratch.
pub fn repeated_setup<T>(mut f: impl FnMut(usize) -> Result<T, Fail>) -> Result<(T, f64), Fail> {
    let mut times = Vec::new();
    let mut last = None;
    for i in 0..SETUPS {
        let start = Instant::now();
        let out = f(i)?;
        times.push(start.elapsed().as_secs_f64());
        last = Some(out);
    }
    Ok((last.ok_or("no set-up ran")?, quantile(&times, 0.5)))
}

/// Mean |fused analytic FN − paper FN| over HT 1/2/3 in percentage
/// points, read from a stored report; `None` when the report lacks a
/// fused row for one of them.
pub fn fn_err_pp(report: &str) -> Option<f64> {
    let mut row = "";
    let mut total = 0.0;
    let mut found = 0;
    for line in report.lines() {
        if let Some(rest) = line.strip_prefix("row \"") {
            row = rest.split('"').next().unwrap_or("");
        } else if line.starts_with("fused ") {
            if let Some(&(_, paper)) = PAPER_FN_PCT.iter().find(|(ht, _)| *ht == row) {
                let fn_rate: f64 = line.split_whitespace().nth(4)?.parse().ok()?;
                total += (fn_rate * 100.0 - paper).abs();
                found += 1;
            }
        }
    }
    (found == PAPER_FN_PCT.len()).then(|| total / found as f64)
}

/// `htd` flags that write the run manifest `<dir>/<tag>.metrics.json`
/// and, with `trace`, the span tree `<dir>/<tag>.trace.json`.
pub fn obs_args(dir: &Path, tag: &str, trace: bool) -> Vec<String> {
    let file = |kind: &str| dir.join(format!("{tag}.{kind}.json")).display().to_string();
    let mut args = vec!["--metrics".into(), file("metrics")];
    if trace {
        args.extend(["--trace".into(), file("trace")]);
    }
    args
}

/// Reads a store artifact `htd` wrote and checks its kind and checksum.
pub fn read_artifact(path: &Path, kind: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let first = text.lines().next()?;
    (first == format!("htdstore 1 {kind}") && wire::verified(&text).is_some()).then_some(text)
}

/// The work directory: per process, inside the checkout, removed on exit.
struct Work(PathBuf);

impl Drop for Work {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_args(args: &[String]) -> Result<Args, Fail> {
    let workload = flag(args, "--workload")
        .ok_or("missing --workload")?
        .to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` ({})", WORKLOADS.join(", ")).into());
    }
    let trace = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`").into()),
    };
    let seconds: u64 = flag(args, "--seconds").unwrap_or("30").parse()?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: flag(args, "--seed").ok_or("missing --seed")?.parse()?,
        seconds,
        trace,
    })
}

fn print_table(workload: &str, out: &Outcome) {
    println!(
        "workload {workload}: {} attempted, {} failed",
        out.attempted, out.failed
    );
    for m in out.metrics.iter().chain(&out.extra) {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn run(argv: &[String]) -> Result<(), Fail> {
    if argv.iter().any(|a| a == "--steady") {
        return steady::run(flag(argv, "--runs").unwrap_or("5").parse()?);
    }
    let args = parse_args(argv)?;
    let htd = proc::binary("PERFBENCH_HTD")?;
    let work = Work(
        std::env::current_dir()?
            .join(".perfbench")
            .join(format!("run-{}", std::process::id())),
    );
    std::fs::create_dir_all(&work.0)?;
    let ctx = Ctx {
        htd,
        seed: args.seed,
        seconds: if args.trace {
            args.seconds.min(TRACED_SECONDS)
        } else {
            args.seconds
        },
        work: work.0.clone(),
    };
    let out = match (args.workload.as_str(), args.trace) {
        ("campaign", false) => campaign::run(&ctx)?,
        ("campaign", true) => campaign::traced(&ctx)?,
        (_, false) => serve::run(&ctx)?,
        (_, true) => serve::traced(&ctx)?,
    };
    if let Some(m) = out.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} did not come out as a number", m.name).into());
    }
    print_table(&args.workload, &out);
    println!("{}", result_line(&out));
    Ok(())
}

fn main() -> std::process::ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_metrics_are_the_ones_benchmark_json_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let bench = json::Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed: Vec<(&str, &str)> = bench
            .get("end_to_end")
            .unwrap()
            .arr()
            .iter()
            .map(|m| {
                (
                    m.get("name").unwrap().str().unwrap(),
                    m.get("unit").unwrap().str().unwrap(),
                )
            })
            .collect();
        let e2e = EndToEnd {
            setup_s: 0.0,
            peak_rss_mb: 0.0,
            ok_frac: 0.0,
            fn_err_pp: 0.0,
            scores_per_s: 0.0,
            lat_p50_ms: 0.0,
            lat_p90_ms: 0.0,
        };
        let reported = e2e.metrics();
        let reported: Vec<(&str, &str)> = reported.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(listed, reported);
    }

    #[test]
    fn quantiles_interpolate_raw_samples() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.9), 4.6);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn fn_error_reads_the_fused_rows() {
        let report = "row \"HT 1\" 0 2 1\nfused \"fused\" 0 0 0.30 0 0\nrow \"HT 2\" 0 2 1\n\
                      fused \"fused\" 0 0 0.17 0 0\nrow \"HT 3\" 0 2 1\nfused \"fused\" 0 0 0.02 0 0\n";
        let err = fn_err_pp(report).unwrap();
        assert!((err - 7.0 / 3.0).abs() < 1e-9, "{err}");
        assert_eq!(fn_err_pp("row \"HT 1\" 0 2 1\n"), None);
    }
}
