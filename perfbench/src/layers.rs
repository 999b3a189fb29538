//! Per-layer metrics of a traced run, measured from outside the program:
//! the counters and span trees `htd` writes with `--metrics`/`--trace`,
//! the benchmark's own spans around each CLI call and client request, and
//! the stage replays of `perfbench-replay`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::Json;
use crate::{metric, quantile, ratio, Fail, Metric};

/// Where a traced run leaves its artifacts for inspection:
/// `.perfbench/trace-<workload>/`, replaced by the next traced run.
pub fn keep_dir(workload: &str) -> Result<PathBuf, Fail> {
    let dir = std::env::current_dir()?
        .join(".perfbench")
        .join(format!("trace-{workload}"));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// A run manifest and, when traced, its span tree.
pub struct Artifacts {
    pub manifest: Json,
    pub trace: Option<Json>,
}

fn load_json(path: &Path) -> Result<Json, Fail> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?)
}

impl Artifacts {
    pub fn load(dir: &Path, tag: &str, with_trace: bool) -> Result<Artifacts, Fail> {
        Ok(Artifacts {
            manifest: load_json(&dir.join(format!("{tag}.metrics.json")))?,
            trace: if with_trace {
                Some(load_json(&dir.join(format!("{tag}.trace.json")))?)
            } else {
                None
            },
        })
    }

    pub fn counters(&self) -> BTreeMap<String, f64> {
        counters(&self.manifest)
    }
}

pub fn counters(manifest: &Json) -> BTreeMap<String, f64> {
    manifest
        .get("counters")
        .and_then(Json::obj)
        .map(|m| {
            m.iter()
                .filter_map(|(k, v)| Some((k.clone(), v.num()?)))
                .collect()
        })
        .unwrap_or_default()
}

/// Items per pool slot of a manifest's multi-worker occupancy entries.
pub fn slots(manifest: &Json) -> Vec<f64> {
    let mut out = Vec::new();
    for entry in manifest.get("occupancy").map(Json::arr).unwrap_or(&[]) {
        let items = entry.get("items").map(Json::arr).unwrap_or(&[]);
        if items.len() > 1 {
            out.resize(out.len().max(items.len()), 0.0);
            for (slot, v) in out.iter_mut().zip(items) {
                *slot += v.num().unwrap_or(0.0);
            }
        }
    }
    out
}

/// Counters that record how the server grouped concurrent arrivals into
/// batches — a matter of timing, not of the requests sent: the batch
/// count, the session set-up (`fuse`) each batch group runs once, and the
/// manifest rewrites, due once a batch takes the request count past
/// `--metrics-every`.
pub const ARRIVAL_DEPENDENT: [&str; 4] = [
    "serve.batches",
    "span.serve.batch",
    "span.fuse",
    "serve.manifest.writes",
];

/// The number of counters outside `ignore` that differ between two
/// counter sections (a name present on one side only counts as a
/// difference).
pub fn counter_mismatches(
    a: &BTreeMap<String, f64>,
    b: &BTreeMap<String, f64>,
    ignore: &[&str],
) -> u64 {
    let mut names: Vec<&String> = a
        .keys()
        .chain(b.keys())
        .filter(|n| !ignore.contains(&n.as_str()))
        .collect();
    names.sort();
    names.dedup();
    let mut diff = 0;
    for name in names {
        if a.get(name) != b.get(name) {
            eprintln!("perfbench: counter {name} differs between the untraced and traced runs: {:?} vs {:?}", a.get(name), b.get(name));
            diff += 1;
        }
    }
    diff
}

/// One complete (`ph: X`) span of a trace export, times in ms.
pub struct Span<'a> {
    pub name: &'a str,
    pub ts: f64,
    pub dur: f64,
    id: Option<&'a str>,
    parent: Option<&'a str>,
    pub request: Option<&'a str>,
}

pub fn spans(trace: &Json) -> Vec<Span<'_>> {
    let events = trace.get("traceEvents").map(Json::arr).unwrap_or(&[]);
    events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::str) == Some("X"))
        .filter_map(|e| {
            let args = e.get("args");
            let arg = |k: &str| args.and_then(|a| a.get(k)).and_then(Json::str);
            Some(Span {
                name: e.get("name")?.str()?,
                ts: e.get("ts")?.num()? / 1e3,
                dur: e.get("dur")?.num()? / 1e3,
                id: arg("span"),
                parent: arg("parent"),
                request: arg("request"),
            })
        })
        .collect()
}

/// Start of every `serve.queue` async interval and its wait in ms, keyed
/// by request id.
pub fn queue_waits(trace: &Json) -> BTreeMap<String, f64> {
    let mut begin = BTreeMap::new();
    let mut waits = BTreeMap::new();
    for e in trace.get("traceEvents").map(Json::arr).unwrap_or(&[]) {
        if e.get("name").and_then(Json::str) != Some("serve.queue") {
            continue;
        }
        let (Some(id), Some(ts)) = (
            e.get("id").and_then(Json::str),
            e.get("ts").and_then(Json::num),
        ) else {
            continue;
        };
        match e.get("ph").and_then(Json::str) {
            Some("b") => {
                begin.insert(id.to_string(), ts);
            }
            Some("e") => {
                if let Some(b) = begin.remove(id) {
                    waits.insert(id.to_string(), (ts - b) / 1e3);
                }
            }
            _ => {}
        }
    }
    waits
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// A span the benchmark itself records, in ms since it started.
struct BenchSpan {
    name: String,
    ts: f64,
    dur: f64,
    request: Option<String>,
}

/// The per-layer tally of one traced run.
#[derive(Default)]
pub struct Layers {
    counters: BTreeMap<String, f64>,
    self_ms: BTreeMap<String, f64>,
    total_ms: BTreeMap<String, f64>,
    top_ms: f64,
    top_unspanned_ms: f64,
    slots: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    wire_overhead_ms: Vec<f64>,
    replay_ms: BTreeMap<String, f64>,
    replay_calls: BTreeMap<String, f64>,
    bench: Vec<BenchSpan>,
    pub trace_overhead_frac: f64,
    pub characterize_dies_per_s: f64,
    pub score_dies_per_s: f64,
}

impl Layers {
    pub fn add_counters(&mut self, counters: &BTreeMap<String, f64>) {
        for (k, v) in counters {
            *self.counters.entry(k.clone()).or_default() += v;
        }
    }

    pub fn add_slots(&mut self, slots: &[f64]) {
        self.slots.resize(self.slots.len().max(slots.len()), 0.0);
        for (a, b) in self.slots.iter_mut().zip(slots) {
            *a += b;
        }
    }

    /// Self and total time per span name; for the spans that hold a whole
    /// command or request (`characterize`, `score`, `serve.request`), also
    /// the share no child span covers.
    pub fn add_spans(&mut self, spans: &[Span<'_>]) {
        let mut children: BTreeMap<&str, Vec<(f64, f64)>> = BTreeMap::new();
        for s in spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.ts, s.ts + s.dur));
            }
        }
        for s in spans {
            let kids =
                s.id.and_then(|id| children.get(id))
                    .cloned()
                    .unwrap_or_default();
            let child_ms = covered(kids, s.ts, s.ts + s.dur);
            *self.self_ms.entry(s.name.to_string()).or_default() += s.dur - child_ms;
            *self.total_ms.entry(s.name.to_string()).or_default() += s.dur;
            if matches!(s.name, "characterize" | "score" | "serve.request") {
                self.top_ms += s.dur;
                self.top_unspanned_ms += s.dur - child_ms;
            }
        }
    }

    /// One CLI command's manifest and trace.
    pub fn add_cli(&mut self, art: &Artifacts) {
        self.add_counters(&art.counters());
        self.add_slots(&slots(&art.manifest));
        if let Some(trace) = &art.trace {
            self.add_spans(&spans(trace));
        }
    }

    pub fn add_queue_wait(&mut self, ms: f64) {
        self.queue_wait_ms.push(ms);
    }

    pub fn add_wire_overhead(&mut self, ms: f64) {
        self.wire_overhead_ms.push(ms);
    }

    pub fn bench_span(&mut self, name: &str, ts: f64, dur: f64, request: Option<&str>) {
        self.bench.push(BenchSpan {
            name: name.to_string(),
            ts,
            dur,
            request: request.map(str::to_string),
        });
    }

    /// Runs the stage replays over a workload's designs and writes the
    /// benchmark's own spans next to the program's artifacts.
    pub fn replay(
        &mut self,
        keep: &Path,
        dies: usize,
        seed: u64,
        suspects: &[&str],
    ) -> Result<(), Fail> {
        let replay = crate::proc::binary("PERFBENCH_REPLAY")?;
        let mut ts = crate::proc::now_ms();
        let out = Command::new(replay)
            .args([
                "--dies",
                &dies.to_string(),
                "--seed",
                &seed.to_string(),
                "--suspects",
                &suspects.join(","),
            ])
            .output()?;
        if !out.status.success() {
            return Err(format!(
                "perfbench-replay failed: {}",
                String::from_utf8_lossy(&out.stderr)
            )
            .into());
        }
        for line in String::from_utf8(out.stdout)?.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            if let ["span", name, ns, calls] = f[..] {
                let ms = ns.parse::<f64>()? / 1e6;
                self.replay_ms.insert(name.to_string(), ms);
                self.replay_calls.insert(name.to_string(), calls.parse()?);
                self.bench_span(&format!("replay.{name}"), ts, ms, None);
                ts += ms;
            }
        }
        std::fs::write(keep.join("perfbench.trace.json"), self.bench_trace())?;
        Ok(())
    }

    /// The benchmark's own spans as Chrome trace-event JSON.
    fn bench_trace(&self) -> String {
        let events: Vec<String> = self
            .bench
            .iter()
            .map(|s| {
                let args = s
                    .request
                    .as_ref()
                    .map_or(String::new(), |r| format!(", \"args\": {{\"request\": \"{r}\"}}"));
                format!(
                    "{{\"name\": \"{}\", \"cat\": \"perfbench\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \"tid\": 1{args}}}",
                    s.name,
                    s.ts * 1e3,
                    s.dur * 1e3
                )
            })
            .collect();
        format!(
            "{{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n{}\n]}}\n",
            events.join(",\n")
        )
    }

    fn c(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    fn self_of(&self, name: &str) -> f64 {
        self.self_ms.get(name).copied().unwrap_or(0.0)
    }

    fn hit_ratio(&self, prefix: &str) -> f64 {
        let hit = self.c(&format!("{prefix}.hit"));
        ratio(hit, hit + self.c(&format!("{prefix}.miss")))
    }

    /// Every per-layer metric, in `BENCHMARK.json` order; a layer the
    /// workload does not exercise reads 0.
    pub fn metrics(&self) -> Vec<Metric> {
        let replay = |name: &str| self.replay_ms.get(name).copied().unwrap_or(0.0);
        let calibrate: f64 = self
            .self_ms
            .iter()
            .filter(|(k, _)| k.starts_with("calibrate."))
            .fold(0.0, |acc, (_, v)| acc + v);
        let mean_slot = self.slots.iter().sum::<f64>() / self.slots.len().max(1) as f64;
        let max_slot = self.slots.iter().copied().fold(0.0, f64::max);
        vec![
            metric("design.build_ms", replay("design.build"), "ms"),
            metric(
                "design.builds",
                self.replay_calls
                    .get("design.build")
                    .copied()
                    .unwrap_or(0.0),
                "count",
            ),
            metric("fabric.program_ms", self.self_of("program"), "ms"),
            metric("fabric.programs", self.c("span.program"), "count"),
            metric(
                "timing.acquire_delay_ms",
                self.self_of("acquire.delay"),
                "ms",
            ),
            metric("timing.settle_miss", self.c("cache.settle.miss"), "count"),
            metric(
                "timing.settle_hit_ratio",
                self.hit_ratio("cache.settle"),
                "ratio",
            ),
            metric("timing.eventsim_ms", replay("timing.eventsim"), "ms"),
            metric(
                "em.acquire_ms",
                self.self_of("acquire.EM") + self.self_of("acquire.power"),
                "ms",
            ),
            metric("em.activity_miss", self.c("cache.activity.miss"), "count"),
            metric(
                "em.activity_hit_ratio",
                self.hit_ratio("cache.activity"),
                "ratio",
            ),
            metric("em.events_binned", self.c("acquire.events.binned"), "count"),
            metric("em.bin_convolve_ms", replay("em.bin_convolve"), "ms"),
            metric("em.readout_ms", replay("em.readout"), "ms"),
            metric("core.fuse_ms", self.self_of("fuse"), "ms"),
            metric("core.calibrate_ms", calibrate, "ms"),
            metric(
                "core.unspanned_frac",
                ratio(self.top_unspanned_ms, self.top_ms),
                "ratio",
            ),
            metric("par.tasks", self.c("engine.tasks"), "count"),
            metric("par.fans", self.c("engine.fans"), "count"),
            metric("par.slot_imbalance", ratio(max_slot, mean_slot), "ratio"),
            metric("store.read_ms", self.self_of("store.read"), "ms"),
            metric("store.read_bytes", self.c("store.read.bytes"), "bytes"),
            metric("store.write_ms", self.self_of("store.write"), "ms"),
            metric("store.write_bytes", self.c("store.write.bytes"), "bytes"),
            metric(
                "store.golden_hit_ratio",
                self.hit_ratio("store.cache"),
                "ratio",
            ),
            metric(
                "serve.queue_wait_ms",
                quantile(&self.queue_wait_ms, 0.5),
                "ms",
            ),
            metric(
                "serve.batch_ms",
                self.total_ms.get("serve.batch").copied().unwrap_or(0.0),
                "ms",
            ),
            metric(
                "serve.batch_size",
                ratio(self.c("serve.requests"), self.c("serve.batches")),
                "count",
            ),
            metric(
                "serve.respond_ms",
                self.total_ms.get("serve.respond").copied().unwrap_or(0.0),
                "ms",
            ),
            metric(
                "serve.result_hit_ratio",
                self.hit_ratio("serve.cache.result"),
                "ratio",
            ),
            metric("serve.busy", self.c("serve.responses.busy"), "count"),
            metric(
                "wire.overhead_ms",
                quantile(&self.wire_overhead_ms, 0.5),
                "ms",
            ),
            metric("obs.trace_overhead_frac", self.trace_overhead_frac, "ratio"),
            metric(
                "cli.characterize_dies_per_s",
                self.characterize_dies_per_s,
                "1/s",
            ),
            metric("cli.score_dies_per_s", self.score_dies_per_s, "1/s"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_metrics_are_the_ones_benchmark_json_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let bench = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed: Vec<(&str, &str)> = bench
            .get("per_layer")
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
        let reported = Layers::default().metrics();
        let reported: Vec<(&str, &str)> = reported.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(listed, reported);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(
            covered(vec![(1.0, 3.0), (2.0, 4.0), (8.0, 12.0)], 0.0, 10.0),
            5.0
        );
        let trace = Json::parse(
            r#"{"traceEvents": [
                {"name": "score", "ph": "X", "ts": 0, "dur": 10000, "args": {"span": "a"}},
                {"name": "program", "ph": "X", "ts": 1000, "dur": 2000, "args": {"span": "b", "parent": "a"}},
                {"name": "acquire.EM", "ph": "X", "ts": 4000, "dur": 5000, "args": {"span": "c", "parent": "a"}}
            ]}"#,
        )
        .unwrap();
        let mut layers = Layers::default();
        layers.add_spans(&spans(&trace));
        assert_eq!(layers.self_of("score"), 3.0);
        assert_eq!(ratio(layers.top_unspanned_ms, layers.top_ms), 0.3);
    }
}
