//! Observability end-to-end tests: the counter section of a
//! [`RunManifest`] is bit-identical at any worker count (counts are
//! deterministic; durations are observational and never compared), the
//! checked-in manifest fixture pins the schema and counter taxonomy the
//! `htd` CLI produces, and enabling `--metrics` never perturbs the
//! checksummed artifacts themselves.

use std::path::{Path, PathBuf};
use std::process::Command;

use htd_core::campaign::CampaignPlan;
use htd_core::channel::{Channel, ChannelSpec};
use htd_core::em_detect::TraceMetric;
use htd_core::resilience::RetryPolicy;
use htd_core::{Engine, Lab, Mode, Run};
use htd_faults::FaultPlan;
use htd_obs::{Json, Obs, RunManifest, MANIFEST_VERSION};
use htd_trojan::TrojanSpec;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures")
}

/// The campaign of the paper-headline CI smoke: `htd characterize
/// --dies 8 --pairs 2 --reps 2 --seed 2015 --channels em,delay`.
fn cli_characterize_args(out: &Path, workers: usize) -> Vec<String> {
    [
        "characterize",
        "--out",
        &out.display().to_string(),
        "--dies",
        "8",
        "--pairs",
        "2",
        "--reps",
        "2",
        "--seed",
        "2015",
        "--channels",
        "em,delay",
        "--workers",
        &workers.to_string(),
    ]
    .iter()
    .map(ToString::to_string)
    .collect()
}

fn run_htd(args: &[String]) {
    let out = Command::new(env!("CARGO_BIN_EXE_htd"))
        .args(args)
        .output()
        .expect("htd spawns");
    assert!(
        out.status.success(),
        "htd {:?} failed:\n{}{}",
        args,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
}

fn htd_stdout(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_htd"))
        .args(args)
        .output()
        .expect("htd spawns");
    assert!(
        out.status.success(),
        "htd {:?} failed:\n{}",
        args,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// A fresh scratch directory per (test, worker-count) pair so parallel
/// tests never collide.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("htd-obs-{}-{}", std::process::id(), tag));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Library-level counter determinism: the same faulted campaign on 1, 2,
/// and 8 workers yields bit-identical counter snapshots, and the report
/// itself is unchanged by the recording observer.
#[test]
fn library_counters_are_worker_invariant() {
    let plan = CampaignPlan::with_random_pairs(4, 2, 2, [0x42; 16], [0x0f; 16], 42);
    let specs = [
        ChannelSpec::Em(TraceMetric::SumOfLocalMaxima),
        ChannelSpec::Delay,
    ];
    let faults = FaultPlan {
        seed: 7,
        acquire_rate: 0.2,
        rep_rate: 0.1,
        calibrate_rate: 0.0,
        store_rate: 0.0,
    };
    let policy = RetryPolicy::degraded(2);
    let campaign = |engine: &Engine| {
        let lab = Lab::paper();
        let channels: Vec<Box<dyn Channel>> = specs.iter().map(ChannelSpec::build).collect();
        let refs: Vec<&dyn Channel> = channels.iter().map(Box::as_ref).collect();
        let run = Run::new(engine.clone()).with_faults(faults.clone(), policy);
        let charac = run
            .characterize(&lab, &plan, &refs, Mode::Golden)
            .expect("characterize completes");
        let scored = run
            .score(&lab, &charac, &[TrojanSpec::ht2()], &refs)
            .expect("score completes");
        htd_store::to_text(&scored.report)
    };

    let mut runs = Vec::new();
    for workers in [1usize, 2, 8] {
        let engine = Engine::with_workers(workers).with_obs(Obs::recording());
        let report = campaign(&engine);
        let snapshot = engine.obs().snapshot().expect("recording obs snapshots");
        runs.push((workers, report, snapshot.counters));
    }
    let (_, report1, counters1) = &runs[0];
    for (workers, report, counters) in &runs[1..] {
        assert_eq!(counters1, counters, "counters differ at {workers} workers");
        assert_eq!(report1, report, "report differs at {workers} workers");
    }

    // The run is non-trivial: fan/task accounting, spans, cache traffic
    // and retry bookkeeping all registered.
    let get = |name: &str| {
        counters1
            .iter()
            .find(|(k, _)| k == name)
            .unwrap_or_else(|| panic!("missing counter {name:?} in {counters1:?}"))
            .1
    };
    assert!(get("engine.fans") > 0);
    assert!(get("engine.tasks") > get("engine.fans"));
    assert_eq!(get("span.characterize"), 1);
    assert_eq!(get("span.score"), 1);
    assert!(get("cache.settle.miss") > 0);
    // Event-binning accounting: every activity miss feeds the binning
    // kernel exactly once per (pair, chain), so the counters are
    // worker-invariant (checked above) and non-trivial; nothing in this
    // campaign's activity lies outside the acquisition window.
    assert!(get("acquire.events.binned") > 0);
    assert_eq!(get("acquire.events.dropped"), 0);
    // The lint gate on the single scored trojan design ran each check
    // pass exactly once, found nothing, and removed nothing — and those
    // counters are worker-invariant because the gate runs on the calling
    // thread (checked by the cross-run equality above).
    for pass in ["check_unconnected", "check_comb_loops", "check_fanout"] {
        assert_eq!(get(&format!("pass.{pass}.runs")), 1, "pass {pass} runs");
        assert_eq!(get(&format!("pass.{pass}.lints")), 0, "pass {pass} lints");
        assert_eq!(get(&format!("pass.{pass}.cells_removed")), 0);
        assert_eq!(get(&format!("pass.{pass}.nets_removed")), 0);
    }
    assert!(
        get("retry.acquire") + get("faults.rep.fired") > 0,
        "the fault plan fired somewhere: {counters1:?}"
    );

    // A noop observer produces the identical report: observation is free
    // of semantic effect.
    assert_eq!(&campaign(&Engine::with_workers(2)), report1);
}

/// Reference-free mode is worker-invariant too: the same faulted
/// reference-free campaign at 1, 2, and 8 workers yields bit-identical
/// artifact text, report text, and counter snapshots — including the
/// mode's own `score.reffree.*` counters.
#[test]
fn reffree_counters_are_worker_invariant() {
    use htd_store::ScorableArtifact;

    let plan = CampaignPlan::with_random_pairs(4, 2, 2, [0x42; 16], [0x0f; 16], 42);
    let specs = [
        ChannelSpec::Em(TraceMetric::SumOfLocalMaxima),
        ChannelSpec::Delay,
    ];
    let faults = FaultPlan {
        seed: 7,
        acquire_rate: 0.2,
        rep_rate: 0.1,
        calibrate_rate: 0.0,
        store_rate: 0.0,
    };
    let policy = RetryPolicy::degraded(2);
    let campaign = |engine: &Engine| {
        let lab = Lab::paper();
        let channels: Vec<Box<dyn Channel>> = specs.iter().map(ChannelSpec::build).collect();
        let refs: Vec<&dyn Channel> = channels.iter().map(Box::as_ref).collect();
        let run = Run::new(engine.clone()).with_faults(faults.clone(), policy);
        let charac = run
            .characterize(&lab, &plan, &refs, Mode::ReferenceFree)
            .expect("reference-free characterize completes");
        // Lockstep filter, exactly as the CLI stores it: one spec per
        // surviving state, in execution order.
        let surviving: Vec<ChannelSpec> = specs
            .iter()
            .filter(|s| charac.states.iter().any(|st| st.channel == s.name()))
            .cloned()
            .collect();
        let artifact = ScorableArtifact::new(surviving, charac)
            .expect("surviving states form a consistent artifact");
        let scored = run
            .score(
                &lab,
                artifact.characterization(),
                &[TrojanSpec::ht2()],
                &refs,
            )
            .expect("reference-free score completes");
        (
            htd_store::to_text(&artifact),
            htd_store::to_text(&scored.report),
        )
    };

    let mut runs = Vec::new();
    for workers in [1usize, 2, 8] {
        let engine = Engine::with_workers(workers).with_obs(Obs::recording());
        let (artifact, report) = campaign(&engine);
        let snapshot = engine.obs().snapshot().expect("recording obs snapshots");
        runs.push((workers, artifact, report, snapshot.counters));
    }
    let (_, artifact1, report1, counters1) = &runs[0];
    for (workers, artifact, report, counters) in &runs[1..] {
        assert_eq!(counters1, counters, "counters differ at {workers} workers");
        assert_eq!(artifact1, artifact, "artifact differs at {workers} workers");
        assert_eq!(report1, report, "report differs at {workers} workers");
    }

    let get = |name: &str| {
        counters1
            .iter()
            .find(|(k, _)| k == name)
            .unwrap_or_else(|| panic!("missing counter {name:?} in {counters1:?}"))
            .1
    };
    assert_eq!(get("span.characterize"), 1);
    assert_eq!(get("span.score"), 1);
    assert!(
        get("score.reffree.selfscores") > 0,
        "within-die self-scores registered"
    );
    assert_eq!(get("score.reffree.designs"), 1);
    assert_eq!(get("score.designs"), 1);
}

/// CLI-level learned-mode determinism: `htd train` writes byte-identical
/// classifier models (and bit-identical `train.*` counter sections) at
/// 1, 2, and 8 workers, and `htd score --model` reports are
/// byte-identical across worker counts.
#[test]
fn cli_train_and_learned_scores_are_worker_invariant() {
    let mut models = Vec::new();
    let mut manifests = Vec::new();
    let mut reports = Vec::new();
    for workers in [1usize, 2, 8] {
        let dir = scratch(&format!("train-w{workers}"));
        let model = dir.join("model.htd");
        let metrics = dir.join("train.json");
        run_htd(&[
            "train".into(),
            "--out".into(),
            model.display().to_string(),
            "--sizes".into(),
            "8".into(),
            "--kinds".into(),
            "comb,ctr".into(),
            "--holdout".into(),
            "ctr".into(),
            "--dies".into(),
            "4".into(),
            "--seed".into(),
            "2015".into(),
            "--iterations".into(),
            "50".into(),
            "--workers".into(),
            workers.to_string(),
            "--metrics".into(),
            metrics.display().to_string(),
        ]);
        let manifest =
            RunManifest::parse(&std::fs::read_to_string(&metrics).expect("manifest written"))
                .expect("train manifest parses strictly");
        assert_eq!(manifest.command, "train");
        assert_eq!(manifest.workers as usize, workers);

        // A learned score against a fresh golden of the same channel
        // set, reported to a file for byte comparison.
        let golden = dir.join("golden.htd");
        run_htd(&cli_characterize_args(&golden, workers));
        let report = dir.join("report.htd");
        run_htd(&[
            "score".into(),
            "--golden".into(),
            golden.display().to_string(),
            "--model".into(),
            model.display().to_string(),
            "--trojans".into(),
            "ht1".into(),
            "--report".into(),
            report.display().to_string(),
            "--workers".into(),
            workers.to_string(),
        ]);

        models.push(std::fs::read(&model).expect("model readable"));
        reports.push(std::fs::read(&report).expect("report readable"));
        manifests.push((workers, manifest));
        std::fs::remove_dir_all(&dir).ok();
    }

    assert!(
        models.iter().all(|m| m == &models[0]),
        "trained model bytes differ across worker counts"
    );
    assert!(
        reports.iter().all(|r| r == &reports[0]),
        "learned report bytes differ across worker counts"
    );
    let (_, first) = &manifests[0];
    for (workers, manifest) in &manifests[1..] {
        assert_eq!(
            first.counters_text(),
            manifest.counters_text(),
            "train counter section differs at {workers} workers"
        );
    }
    let get = |name: &str| {
        first
            .counters
            .iter()
            .find(|(k, _)| k == name)
            .unwrap_or_else(|| panic!("missing counter {name:?}"))
            .1
    };
    // One comb trojan trains (ctr held out); 4 golden + 4 infected dies.
    assert_eq!(get("train.designs"), 1);
    assert_eq!(get("train.samples"), 8);
    assert_eq!(get("train.iterations"), 50);

    // The learned report really carries the classifier channel.
    let report = String::from_utf8(reports[0].clone()).expect("utf-8 report");
    assert!(
        report.contains("learned"),
        "no learned row in report:\n{report}"
    );
}

/// CLI-level determinism and artifact neutrality: `--metrics` manifests
/// from 1, 2, and 8 workers carry bit-identical counter sections, the
/// golden artifact is byte-identical across worker counts and with
/// metrics disabled, and `htd report --metrics --counters` prints
/// exactly the manifest's counter text.
#[test]
fn cli_manifest_counters_are_bit_identical_across_worker_counts() {
    let mut manifests = Vec::new();
    let mut goldens = Vec::new();
    for workers in [1usize, 2, 8] {
        let dir = scratch(&format!("w{workers}"));
        let golden = dir.join("golden.htd");
        let metrics = dir.join("manifest.json");
        run_htd(&cli_characterize_args(&golden, workers));
        run_htd(&[
            "score".into(),
            "--golden".into(),
            golden.display().to_string(),
            "--trojans".into(),
            "sweep".into(),
            "--workers".into(),
            workers.to_string(),
            "--metrics".into(),
            metrics.display().to_string(),
        ]);
        let text = std::fs::read_to_string(&metrics).expect("manifest written");
        let manifest = RunManifest::parse(&text).expect("manifest parses strictly");
        assert_eq!(manifest.workers as usize, workers);
        assert_eq!(manifest.command, "score");

        // `htd report --metrics FILE --counters` is the CI diff surface;
        // it must reproduce the manifest's counter text byte for byte.
        let printed = htd_stdout(&[
            "report",
            "--metrics",
            &metrics.display().to_string(),
            "--counters",
        ]);
        assert_eq!(printed, manifest.counters_text());

        manifests.push((workers, manifest));
        goldens.push(std::fs::read(&golden).expect("golden readable"));
        std::fs::remove_dir_all(&dir).ok();
    }

    let (_, first) = &manifests[0];
    for (workers, manifest) in &manifests[1..] {
        assert_eq!(
            first.counters_text(),
            manifest.counters_text(),
            "counter section differs at {workers} workers"
        );
        assert_eq!(first.plan_digest, manifest.plan_digest);
    }
    assert!(goldens.iter().all(|g| g == &goldens[0]));

    // Observation never perturbs the artifact: characterizing the same
    // campaign *with* --metrics yields the same golden bytes.
    let dir = scratch("with-metrics");
    let golden = dir.join("golden.htd");
    let mut args = cli_characterize_args(&golden, 2);
    args.push("--metrics".into());
    args.push(dir.join("charac.json").display().to_string());
    run_htd(&args);
    assert_eq!(
        std::fs::read(&golden).expect("golden readable"),
        goldens[0],
        "--metrics changed the golden artifact bytes"
    );
    let charac = RunManifest::parse(
        &std::fs::read_to_string(dir.join("charac.json")).expect("manifest written"),
    )
    .expect("characterize manifest parses");
    assert_eq!(charac.command, "characterize");
    assert!(!charac.health.is_empty(), "characterize reports health");
    std::fs::remove_dir_all(&dir).ok();

    // Schema/taxonomy stability: the committed fixture's counter section
    // matches a fresh run of the same campaign bit for bit.
    let pinned = std::fs::read_to_string(fixture_dir().join("run_manifest.json"))
        .expect("missing tests/fixtures/run_manifest.json; run the regenerate test below");
    let pinned = RunManifest::parse(&pinned).expect("fixture parses strictly");
    assert_eq!(
        pinned.counters_text(),
        first.counters_text(),
        "counter taxonomy drifted from tests/fixtures/run_manifest.json"
    );
    assert_eq!(pinned.plan_digest, first.plan_digest);
}

/// Serve-level counter determinism: the manifest a shutdown `htd serve`
/// writes carries a bit-identical counter section at 1, 2, and 8
/// workers for the same sequential request stream — the scheduler
/// thread owns every cache and counter, so worker count only changes
/// durations, never counts.
#[test]
fn serve_manifest_counters_are_worker_invariant() {
    use htd_serve::{Client, Request, Response};
    use std::process::Stdio;

    let dir = scratch("serve-invariance");
    let golden = dir.join("golden.htd");
    run_htd(&cli_characterize_args(&golden, 2));
    let golden = golden.display().to_string();

    let mut manifests = Vec::new();
    for workers in [1usize, 2, 8] {
        let metrics = dir.join(format!("serve-w{workers}.json"));
        let mut child = Command::new(env!("CARGO_BIN_EXE_htd"))
            .args(["serve", "--addr", "127.0.0.1:0", "--workers"])
            .arg(workers.to_string())
            .arg("--metrics")
            .arg(&metrics)
            .args(["--metrics-every", "1000"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("htd serve spawns");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut lines = std::io::BufRead::lines(std::io::BufReader::new(stdout));
        let addr = loop {
            let line = lines
                .next()
                .expect("serve exited before binding")
                .expect("readable stdout");
            if let Some(addr) = line.strip_prefix("serving on ") {
                break addr.to_string();
            }
        };
        std::thread::spawn(move || for _ in lines {});

        let mut client = Client::connect(addr.as_str()).expect("client connects");
        // Sequential stream: one golden miss then hits, one result-cache
        // conversion on the repeated ht2.
        for suspect in ["ht2", "ht2", "ht-seq"] {
            let response = client
                .call(&Request::Score {
                    golden: golden.clone(),
                    suspect: suspect.into(),
                    model: None,
                    request: None,
                })
                .expect("score answered");
            assert!(
                matches!(response, Response::Score { .. }),
                "{workers} workers: {response:?}"
            );
        }
        assert_eq!(
            client.call(&Request::Shutdown).expect("shutdown"),
            Response::Done
        );
        assert!(child.wait().expect("serve exits").success());

        let manifest =
            RunManifest::parse(&std::fs::read_to_string(&metrics).expect("manifest written"))
                .expect("serve manifest parses strictly");
        assert_eq!(manifest.command, "serve");
        assert_eq!(manifest.workers as usize, workers);
        manifests.push((workers, manifest));
    }

    let (_, first) = &manifests[0];
    for (workers, manifest) in &manifests[1..] {
        assert_eq!(
            first.counters_text(),
            manifest.counters_text(),
            "serve counter section differs at {workers} workers"
        );
        assert_eq!(first.plan_digest, manifest.plan_digest);
    }
    let get = |name: &str| {
        first
            .counters
            .iter()
            .find(|(k, _)| k == name)
            .unwrap_or_else(|| panic!("missing counter {name:?}"))
            .1
    };
    assert_eq!(get("serve.requests"), 3);
    assert_eq!(get("serve.batches"), 3);
    assert_eq!(get("store.cache.miss"), 1);
    assert_eq!(get("store.cache.hit"), 2);
    assert_eq!(get("serve.cache.result.miss"), 2);
    assert_eq!(get("serve.cache.result.hit"), 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// The committed manifest fixture is a valid, current-version manifest
/// with the documented top-level shape. This parses strictly — any
/// added, removed, or renamed field in the writer shows up here (and in
/// CI) as a hard error.
#[test]
fn the_run_manifest_fixture_pins_the_schema() {
    let path = fixture_dir().join("run_manifest.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {} ({e})", path.display()));
    let manifest = RunManifest::parse(&text).expect("fixture parses strictly");
    assert_eq!(manifest.manifest_version, MANIFEST_VERSION);
    assert_eq!(manifest.tool.name, "htd");
    assert!(!manifest.tool.features.is_empty());
    assert!(manifest.plan_digest.starts_with("fnv1a64:"));
    assert!(!manifest.counters.is_empty());
    // Counter keys are sorted and unique — the property the CI diff
    // relies on.
    let keys: Vec<&str> = manifest.counters.iter().map(|(k, _)| k.as_str()).collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(keys, sorted);
    // Durations never leak into the deterministic section.
    assert!(!manifest.counters_text().contains("_ns"));
}

/// `htd version --json` is machine-readable and carries the fields the
/// manifest's tool section promises.
#[test]
fn version_json_is_machine_readable() {
    let text = htd_stdout(&["version", "--json"]);
    let json = Json::parse(&text).expect("version emits valid JSON");
    let obj = json.as_obj("version").expect("top-level object");
    let field = |name: &str| {
        obj.iter()
            .find(|(k, _)| k == name)
            .unwrap_or_else(|| panic!("missing field {name:?}"))
            .1
            .clone()
    };
    assert_eq!(field("name").as_str("name").unwrap(), "htd");
    assert_eq!(
        field("version").as_str("version").unwrap(),
        env!("CARGO_PKG_VERSION")
    );
    assert!(field("format_version").as_u64("format_version").unwrap() >= 1);
    let features = field("features");
    let features = features.as_arr("features").unwrap();
    assert!(features
        .iter()
        .any(|f| f.as_str("feature").unwrap() == "metrics"));
}

/// Rewrites `tests/fixtures/run_manifest.json` from the current CLI.
/// Run only after a deliberate change to the counter taxonomy or the
/// manifest schema:
///
/// ```sh
/// cargo test -p htd-cli --test observability -- --ignored regenerate
/// ```
#[test]
#[ignore = "regenerates the checked-in run manifest fixture"]
fn regenerate_run_manifest() {
    let dir = scratch("regen");
    let golden = dir.join("golden.htd");
    let metrics = fixture_dir().join("run_manifest.json");
    run_htd(&cli_characterize_args(&golden, 2));
    run_htd(&[
        "score".into(),
        "--golden".into(),
        golden.display().to_string(),
        "--trojans".into(),
        "sweep".into(),
        "--workers".into(),
        "2".to_string(),
        "--metrics".into(),
        metrics.display().to_string(),
    ]);
    std::fs::remove_dir_all(&dir).ok();
    println!("wrote {}", metrics.display());
}

/// `--trace` is purely additive: the exported flamegraph JSON is a
/// well-formed span tree (parent links, counter deltas), while the
/// stored artifact and the deterministic counter section stay
/// byte-identical to an untraced run of the same campaign.
#[test]
fn trace_export_perturbs_neither_artifacts_nor_counters() {
    let dir = scratch("trace");
    let (plain, traced) = (dir.join("plain.htd"), dir.join("traced.htd"));
    let (plain_m, traced_m) = (dir.join("plain.json"), dir.join("traced.json"));
    let trace = dir.join("trace.json");

    let mut args = cli_characterize_args(&plain, 2);
    args.extend(["--metrics".into(), plain_m.display().to_string()]);
    run_htd(&args);
    let mut args = cli_characterize_args(&traced, 2);
    args.extend([
        "--metrics".into(),
        traced_m.display().to_string(),
        "--trace".into(),
        trace.display().to_string(),
    ]);
    run_htd(&args);

    let artifact = std::fs::read(&plain).expect("plain artifact");
    assert_eq!(
        artifact,
        std::fs::read(&traced).expect("traced artifact"),
        "--trace changed the stored artifact"
    );
    let counters = |path: &Path| {
        RunManifest::parse(&std::fs::read_to_string(path).expect("manifest"))
            .expect("manifest parses")
            .counters_text()
    };
    assert_eq!(
        counters(&plain_m),
        counters(&traced_m),
        "--trace changed the counter section"
    );

    // The export is a Chrome trace-event document whose spans form a
    // tree: one root `characterize` span, every parent link resolving
    // to another span in the document, and the root's counter deltas
    // carrying the per-span attribution.
    let doc = Json::parse(&std::fs::read_to_string(&trace).expect("trace written"))
        .expect("trace is valid JSON");
    let Json::Obj(top) = &doc else {
        panic!("trace top level must be an object")
    };
    let field = |fields: &[(String, Json)], name: &str| -> Option<Json> {
        fields
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.clone())
    };
    assert_eq!(field(top, "displayTimeUnit"), Some(Json::Str("ns".into())));
    let Some(Json::Arr(events)) = field(top, "traceEvents") else {
        panic!("traceEvents must be an array")
    };
    assert!(!events.is_empty(), "an empty trace explains nothing");
    let mut ids = Vec::new();
    let mut parents = Vec::new();
    let mut names = Vec::new();
    for event in &events {
        let Json::Obj(event) = event else {
            panic!("every trace event is an object")
        };
        let name = field(event, "name").expect("every event is named");
        names.push(name.as_str("name").unwrap().to_string());
        // Only complete (`ph: X`) span events carry the tree linkage;
        // async halves correlate by string id instead.
        let Some(Json::Obj(args)) = field(event, "args") else {
            continue;
        };
        if let Some(span) = field(&args, "span") {
            ids.push(span.as_str("span").unwrap().to_string());
        }
        if let Some(parent) = field(&args, "parent") {
            parents.push(parent.as_str("parent").unwrap().to_string());
        }
    }
    assert!(
        names.iter().any(|n| n == "characterize"),
        "no root span in {names:?}"
    );
    assert!(!parents.is_empty(), "no parent links: the tree is flat");
    for parent in &parents {
        assert!(
            ids.contains(parent),
            "parent {parent} resolves to no span in the document"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Rerunning the same campaign reproduces the same span ids: the trace
/// tree is addressable across runs (diffable, linkable from CI logs).
#[test]
fn trace_span_ids_are_deterministic_across_reruns() {
    let dir = scratch("trace-determinism");
    let mut ids = Vec::new();
    for round in 0..2 {
        let out = dir.join(format!("golden-{round}.htd"));
        let trace = dir.join(format!("trace-{round}.json"));
        let mut args = cli_characterize_args(&out, 1);
        args.extend(["--trace".into(), trace.display().to_string()]);
        run_htd(&args);
        let text = std::fs::read_to_string(&trace).expect("trace written");
        let mut spans: Vec<String> = text
            .lines()
            .filter_map(|l| l.trim().strip_prefix("\"span\": "))
            .map(|s| s.trim_end_matches(',').to_string())
            .collect();
        spans.sort();
        ids.push(spans);
    }
    assert_eq!(ids[0], ids[1], "span ids drifted between identical runs");
    assert!(!ids[0].is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

/// The malformed-manifest fixture pins the strict reader's failure
/// mode: unknown counter *names* are fine (the additive rule), but an
/// unknown top-level *field* is a schema error, loudly rejected.
#[test]
fn the_malformed_manifest_fixture_is_rejected() {
    let path = fixture_dir().join("run_manifest_malformed.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {} ({e})", path.display()));
    let error = RunManifest::parse(&text).expect_err("a malformed schema must not parse");
    assert!(
        error.to_string().contains("unknown key"),
        "the error must name the schema violation, got: {error}"
    );
}
