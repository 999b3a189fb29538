//! The blocking TCP scoring server.
//!
//! Three kinds of thread cooperate:
//!
//! - the **accept loop** (the caller's thread inside [`serve`]) hands
//!   each connection to a handler;
//! - **handler threads** (one per connection) speak the protocol:
//!   strict-parse each frame, answer `ping`/`shutdown` inline, and
//!   enqueue `score` requests onto the bounded queue — or shed them
//!   with `busy` when the queue is at depth;
//! - the **scheduler thread** owns everything stateful (the lab, the
//!   engine, both caches) and drains the queue in batches: each wake
//!   takes every queued request, groups them by golden content digest
//!   (which refines the plan-digest grouping the shard router uses —
//!   same-plan goldens with different channel data never share a
//!   session), and scores each group through one
//!   [`Session`](htd_core::run::Session) so device programming and
//!   golden setup are paid once per batch instead of once per request.
//!
//! Correctness invariant: every suspect is scored at campaign position
//! 0 through the exact code path of the offline campaign scorer, so a
//! served response embeds the byte-identical report `htd score` writes
//! for the same (artifact, suspect) pair — at any worker count, under
//! any request interleaving, whatever batches the queue happens to
//! form. Caching preserves this for free because scoring is a pure
//! function of (artifact content, suspect token) and both caches key
//! by the artifact's content digest.
//!
//! Failure isolation mirrors the offline pipeline's resilience story: a
//! faulted acquisition, an unknown suspect or an unloadable artifact
//! degrades exactly one response into `error`; the connection, the
//! scheduler and the process all live on. Only binding the socket or
//! failing to write a requested manifest is fatal — and even then the
//! scheduler's exit path answers every still-queued request with
//! `error` and wakes the accept loop, so no handler blocks forever and
//! [`serve`] returns the error promptly.

use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use htd_core::prelude::{Channel, RetryPolicy};
use htd_core::{Engine, Error, Lab, Run};
use htd_faults::FaultPlan;
use htd_obs::{Obs, RunManifest, ToolInfo};
use htd_store::ClassifierModel;
use htd_trojan::TrojanSpec;

use crate::cache::{GoldenCache, ResultCache};
use crate::protocol::{read_frame, Request, Response};

/// Periodic manifest snapshots of a serving run.
#[derive(Debug, Clone)]
pub struct ManifestConfig {
    /// Where the manifest JSON is (re)written.
    pub path: PathBuf,
    /// Rewrite after every this many scored requests (plus once at
    /// shutdown). Clamped to at least 1.
    pub every: u64,
    /// Provenance of the serving binary.
    pub tool: ToolInfo,
}

/// Everything [`serve`] needs to run one server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Bounded queue depth: score requests beyond this many waiting are
    /// shed with a `busy` response instead of queued.
    pub queue_depth: usize,
    /// Byte budget of the golden-artifact LRU cache.
    pub cache_bytes: usize,
    /// Entry budget of the rendered-report memo cache; 0 disables it.
    pub result_cache: usize,
    /// Worker threads of the scoring engine (0 = auto).
    pub workers: usize,
    /// Fault plan replayed on every scored request.
    pub faults: FaultPlan,
    /// Retry/degraded policy applied per request.
    pub policy: RetryPolicy,
    /// Periodic run-manifest snapshots, when wanted.
    pub manifest: Option<ManifestConfig>,
    /// Provenance stamped into the manifests the `stats` verb serves
    /// over the wire (and nothing else — `--manifest` snapshots use
    /// [`ManifestConfig::tool`]).
    pub tool: ToolInfo,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            queue_depth: 64,
            cache_bytes: 64 << 20,
            result_cache: 4096,
            workers: 0,
            faults: FaultPlan::none(),
            policy: RetryPolicy::strict(),
            manifest: None,
            tool: ToolInfo {
                name: "htd-serve".to_string(),
                version: env!("CARGO_PKG_VERSION").to_string(),
                format_version: u64::from(htd_store::FORMAT_VERSION),
                features: vec![],
            },
        }
    }
}

/// What one completed serving run did, for the CLI's closing summary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Score requests that reached the scheduler.
    pub requests: u64,
    /// Scheduler wakes that scored at least one request.
    pub batches: u64,
    /// `ok` score responses sent.
    pub responses_ok: u64,
    /// `error` responses sent (scoring failures plus protocol rejects).
    pub responses_error: u64,
    /// `busy` responses sent (requests shed at the queue).
    pub responses_busy: u64,
}

/// One queued score request: what to score and where the handler waits
/// for the answer.
struct Job {
    golden: String,
    suspect: String,
    model: Option<String>,
    /// The request id — client-supplied or server-assigned — tagged
    /// onto every span this request touches.
    request: String,
    /// Whether the client supplied the id (then, and only then, the
    /// response echoes it: server-assigned ids never surprise an old
    /// client on the wire).
    echo: bool,
    /// Trace timestamp at enqueue ([`Obs::now_ns`]; 0 when untraced) —
    /// the queue wait becomes an async trace interval at dequeue.
    enqueued_ns: u64,
    reply: mpsc::Sender<Response>,
}

/// State shared between the accept loop, the handlers and the scheduler.
struct Shared {
    queue: Mutex<VecDeque<Job>>,
    wake: Condvar,
    shutdown: AtomicBool,
    queue_depth: usize,
    /// `busy` responses, counted at the shedding handler.
    shed: AtomicU64,
    /// `error` responses sent directly by handlers (malformed frames,
    /// post-shutdown requests).
    handler_errors: AtomicU64,
    /// Server-assigned request ids (`srv-1`, `srv-2`, …) for requests
    /// that carry none of their own.
    next_request_id: AtomicU64,
    /// Introspection context the `stats` verb serves inline.
    stats: StatsContext,
}

/// What a handler needs to answer `stats` without consulting the
/// scheduler: static provenance plus two scheduler-maintained cells.
struct StatsContext {
    started: Instant,
    tool: ToolInfo,
    /// Resolved engine worker count, written once by the scheduler.
    workers: AtomicU64,
    /// `fnv1a64:<16 hex>` digest of the last golden scored, mirrored
    /// from the scheduler so the wire manifest matches a `--manifest`
    /// snapshot field for field.
    plan_digest: Mutex<String>,
}

/// Runs a scoring server on `config.addr` until a client sends
/// `shutdown`. `on_ready` fires exactly once, after the socket is
/// bound, with the resolved local address — the CLI prints it (port 0
/// resolves to a real ephemeral port), tests connect to it.
///
/// # Errors
///
/// [`Error::Io`] when the socket cannot be bound or accepted on, or
/// when a configured manifest cannot be written. Per-request failures
/// are *not* errors here — they degrade into `error` responses.
pub fn serve(
    config: ServeConfig,
    obs: &Obs,
    on_ready: impl FnOnce(SocketAddr),
) -> Result<ServeReport, Error> {
    let listener = TcpListener::bind(&config.addr).map_err(|e| Error::io(&config.addr, e))?;
    let local = listener
        .local_addr()
        .map_err(|e| Error::io(&config.addr, e))?;
    on_ready(local);

    let shared = Arc::new(Shared {
        queue: Mutex::new(VecDeque::new()),
        wake: Condvar::new(),
        shutdown: AtomicBool::new(false),
        queue_depth: config.queue_depth.max(1),
        shed: AtomicU64::new(0),
        handler_errors: AtomicU64::new(0),
        next_request_id: AtomicU64::new(0),
        stats: StatsContext {
            started: Instant::now(),
            tool: config.tool.clone(),
            workers: AtomicU64::new(0),
            plan_digest: Mutex::new(String::new()),
        },
    });

    let scheduler = {
        let shared = Arc::clone(&shared);
        let obs = obs.clone();
        let config = config.clone();
        std::thread::spawn(move || {
            let result = scheduler_loop(&config, &obs, &shared);
            // However the scheduler ended — clean shutdown or a fatal
            // manifest error — no handler may be left blocked on a
            // reply that will never come, and the accept loop must
            // observe the flag instead of blocking in `accept` until
            // the next client happens to connect.
            shared.shutdown.store(true, Ordering::SeqCst);
            let stranded: Vec<Job> = {
                let mut queue = shared.queue.lock().unwrap_or_else(|p| p.into_inner());
                queue.drain(..).collect()
            };
            for job in stranded {
                shared.handler_errors.fetch_add(1, Ordering::SeqCst);
                obs.incr("serve.responses.error");
                let _ = job.reply.send(Response::Error {
                    reason: "server shutting down".to_string(),
                });
            }
            drop(TcpStream::connect(local));
            result
        })
    };

    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(stream) => stream,
            // A single failed accept (peer vanished mid-handshake) is
            // not worth the whole server.
            Err(_) => continue,
        };
        let shared = Arc::clone(&shared);
        let obs = obs.clone();
        std::thread::spawn(move || handle_connection(stream, local, &shared, &obs));
    }

    let report = scheduler
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))?;
    Ok(ServeReport {
        responses_busy: shared.shed.load(Ordering::SeqCst),
        responses_error: report.responses_error + shared.handler_errors.load(Ordering::SeqCst),
        ..report
    })
}

/// Speaks the protocol on one connection until the peer closes it.
fn handle_connection(stream: TcpStream, local: SocketAddr, shared: &Shared, obs: &Obs) {
    // Responses are one small write each; batching them behind Nagle
    // only adds latency.
    stream.set_nodelay(true).ok();
    let mut writer = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            // Clean disconnect, or a peer too broken to answer.
            Ok(None) | Err(_) => return,
        };
        let response = match Request::parse(&frame) {
            Ok(Request::Ping) => Response::Done,
            Ok(Request::Stats) => stats_response(shared, obs),
            Ok(Request::Shutdown) => {
                // Answer BEFORE starting the teardown: once the flag is
                // up, the accept loop can unwind and the process exit
                // faster than this thread gets scheduled again, closing
                // the socket under an unsent reply.
                send(&mut writer, &Response::Done).ok();
                shared.shutdown.store(true, Ordering::SeqCst);
                shared.wake.notify_all();
                // The accept loop is blocked in `accept`; a throwaway
                // connection wakes it to observe the flag.
                drop(TcpStream::connect(local));
                return;
            }
            Ok(Request::Score {
                golden,
                suspect,
                model,
                request,
            }) => {
                // A client-supplied id is echoed on the response; a
                // server-assigned one only tags the server's own trace.
                let echo = request.is_some();
                let request = request.unwrap_or_else(|| {
                    format!(
                        "srv-{}",
                        shared.next_request_id.fetch_add(1, Ordering::SeqCst) + 1
                    )
                });
                let admitted = {
                    let _span = obs.span_tagged("serve.accept", &[("request", &request)]);
                    enqueue(shared, golden, suspect, model, request.clone(), echo, obs)
                };
                let response = match admitted {
                    Enqueued::Queued(wait) => match wait.recv() {
                        Ok(response) => response,
                        // The scheduler is gone (shutdown drained past
                        // us); the peer still deserves an answer.
                        Err(_) => {
                            shared.handler_errors.fetch_add(1, Ordering::SeqCst);
                            obs.incr("serve.responses.error");
                            Response::Error {
                                reason: "server shutting down".to_string(),
                            }
                        }
                    },
                    Enqueued::Shed => Response::Busy {
                        depth: shared.queue_depth as u64,
                    },
                    Enqueued::ShuttingDown => {
                        shared.handler_errors.fetch_add(1, Ordering::SeqCst);
                        obs.incr("serve.responses.error");
                        Response::Error {
                            reason: "server shutting down".to_string(),
                        }
                    }
                };
                let _span = obs.span_tagged("serve.respond", &[("request", &request)]);
                if send(&mut writer, &response).is_err() {
                    return;
                }
                continue;
            }
            Err(err) => {
                shared.handler_errors.fetch_add(1, Ordering::SeqCst);
                obs.incr("serve.responses.error");
                Response::Error {
                    reason: format!("malformed request: {err}"),
                }
            }
        };
        if send(&mut writer, &response).is_err() {
            return;
        }
    }
}

/// Builds the live introspection snapshot a `stats` request is answered
/// with, entirely from the handler thread: a recorder snapshot, the
/// queue length and the scheduler-maintained stats cells — scoring is
/// never disturbed.
fn stats_response(shared: &Shared, obs: &Obs) -> Response {
    obs.incr("serve.stats.requests");
    let queue = {
        let queue = shared.queue.lock().unwrap_or_else(|p| p.into_inner());
        queue.len() as u64
    };
    let snapshot = obs.snapshot().unwrap_or_default();
    let digest = {
        let digest = shared
            .stats
            .plan_digest
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        if digest.is_empty() {
            "fnv1a64:0000000000000000".to_string()
        } else {
            digest.clone()
        }
    };
    let run = RunManifest::new(
        shared.stats.tool.clone(),
        "serve",
        usize::try_from(shared.stats.workers.load(Ordering::SeqCst)).unwrap_or(usize::MAX),
        &digest,
        &snapshot,
        vec![],
    );
    let uptime = shared.stats.started.elapsed();
    Response::Stats {
        uptime_ns: u64::try_from(uptime.as_nanos()).unwrap_or(u64::MAX),
        queue,
        manifest: run.to_pretty(),
    }
}

enum Enqueued {
    Queued(mpsc::Receiver<Response>),
    Shed,
    ShuttingDown,
}

/// Queues one score request under the depth bound, or says why not.
fn enqueue(
    shared: &Shared,
    golden: String,
    suspect: String,
    model: Option<String>,
    request: String,
    echo: bool,
    obs: &Obs,
) -> Enqueued {
    let mut queue = shared.queue.lock().unwrap_or_else(|p| p.into_inner());
    if shared.shutdown.load(Ordering::SeqCst) {
        return Enqueued::ShuttingDown;
    }
    if queue.len() >= shared.queue_depth {
        shared.shed.fetch_add(1, Ordering::SeqCst);
        obs.incr("serve.responses.busy");
        return Enqueued::Shed;
    }
    let (reply, wait) = mpsc::channel();
    queue.push_back(Job {
        golden,
        suspect,
        model,
        request,
        echo,
        enqueued_ns: obs.now_ns(),
        reply,
    });
    // The histogram sees the depth from both sides — each enqueue here
    // and each drain in the scheduler — so it reflects build-up *and*
    // drain behaviour, not just batch sizes.
    obs.observe("serve.queue.depth", queue.len() as u64);
    drop(queue);
    shared.wake.notify_all();
    Enqueued::Queued(wait)
}

fn send(writer: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    writer.write_all(response.to_text().as_bytes())?;
    writer.flush()
}

/// The scheduler: drains the queue in batches until shutdown, then
/// drains whatever is left and writes the final manifest.
fn scheduler_loop(config: &ServeConfig, obs: &Obs, shared: &Shared) -> Result<ServeReport, Error> {
    let lab = Lab::paper();
    let engine = if config.workers == 0 {
        Engine::auto()
    } else {
        Engine::with_workers(config.workers)
    }
    .with_obs(obs.clone());
    shared
        .stats
        .workers
        .store(engine.workers() as u64, Ordering::SeqCst);
    let mut goldens = GoldenCache::new(config.cache_bytes);
    let mut results = ResultCache::new(config.result_cache);
    let mut report = ServeReport::default();
    let mut manifest_due = 0u64;
    let mut last_digest_hex = String::new();

    loop {
        let batch: Vec<Job> = {
            let mut queue = shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            while queue.is_empty() && !shared.shutdown.load(Ordering::SeqCst) {
                queue = shared.wake.wait(queue).unwrap_or_else(|p| p.into_inner());
            }
            queue.drain(..).collect()
        };
        if batch.is_empty() {
            // Shutdown with an empty queue: nothing left to score.
            break;
        }
        obs.observe("serve.queue.depth", batch.len() as u64);
        if obs.tracing() {
            // Each request's wait in the queue spans two threads, so it
            // cannot nest in any one thread's span stack: record it as
            // an async interval correlated by the request id.
            let dequeued_ns = obs.now_ns();
            for job in &batch {
                obs.trace_async(
                    "serve.queue",
                    &job.request,
                    job.enqueued_ns,
                    dequeued_ns,
                    &[("request", &job.request)],
                );
            }
        }
        score_batch(
            batch,
            config,
            &lab,
            &engine,
            &mut goldens,
            &mut results,
            &mut report,
            &mut manifest_due,
            &mut last_digest_hex,
        );
        {
            // Mirror the digest for the handlers' `stats` responses.
            let mut digest = shared
                .stats
                .plan_digest
                .lock()
                .unwrap_or_else(|p| p.into_inner());
            if *digest != last_digest_hex {
                digest.clone_from(&last_digest_hex);
            }
        }
        if let Some(manifest) = &config.manifest {
            if manifest_due >= manifest.every.max(1) {
                manifest_due = 0;
                write_manifest(manifest, &engine, &last_digest_hex, obs)?;
            }
        }
    }
    if let Some(manifest) = &config.manifest {
        write_manifest(manifest, &engine, &last_digest_hex, obs)?;
    }
    Ok(report)
}

/// Scores one drained batch: resolve, group by content digest, one
/// [`Session`](htd_core::run::Session) per group, memoized responses
/// where the result cache already knows the answer.
#[allow(clippy::too_many_arguments)]
fn score_batch(
    batch: Vec<Job>,
    config: &ServeConfig,
    lab: &Lab,
    engine: &Engine,
    goldens: &mut GoldenCache,
    results: &mut ResultCache,
    report: &mut ServeReport,
    manifest_due: &mut u64,
    last_digest_hex: &mut String,
) {
    let obs = engine.obs();
    let _span = obs.span("serve.batch");
    obs.incr("serve.batches");
    obs.add("serve.requests", batch.len() as u64);
    report.batches += 1;
    report.requests += batch.len() as u64;
    *manifest_due += batch.len() as u64;

    // Resolve every job up front; failures answer immediately and drop
    // out of the batch.
    struct Resolved {
        golden: Arc<crate::cache::CachedGolden>,
        spec: TrojanSpec,
        suspect: String,
        model: Option<String>,
        request: String,
        echo: bool,
        reply: mpsc::Sender<Response>,
    }
    let mut resolved: Vec<Resolved> = Vec::with_capacity(batch.len());
    for job in batch {
        let golden = match goldens.get(std::path::Path::new(&job.golden), obs) {
            Ok(golden) => golden,
            Err(err) => {
                respond_error(report, obs, &job.reply, &err.to_string());
                continue;
            }
        };
        let Some(spec) = TrojanSpec::from_token(&job.suspect) else {
            respond_error(
                report,
                obs,
                &job.reply,
                &format!("unknown suspect `{}`", job.suspect),
            );
            continue;
        };
        resolved.push(Resolved {
            golden,
            spec,
            suspect: job.suspect,
            model: job.model,
            request: job.request,
            echo: job.echo,
            reply: job.reply,
        });
    }

    // Group by (content digest, model path) in first-seen order: one
    // session's setup is then shared by every request for that golden.
    // The key must be content, not plan — two goldens with the same
    // plan but different channel data score differently and may not
    // share a session or a memo entry. The model path joins the key
    // because a session carries at most one classifier.
    type GroupKey = (u64, Option<String>);
    let mut group_order: Vec<GroupKey> = Vec::new();
    let mut groups: std::collections::HashMap<GroupKey, Vec<Resolved>> =
        std::collections::HashMap::new();
    for job in resolved {
        let key = (job.golden.content_digest, job.model.clone());
        if !groups.contains_key(&key) {
            group_order.push(key.clone());
        }
        groups.entry(key).or_default().push(job);
    }

    for key in group_order {
        let group = groups.remove(&key).expect("grouped above");
        let (content, model_path) = key;
        let golden = Arc::clone(&group[0].golden);
        *last_digest_hex = golden.digest_hex.clone();

        // Parse the group's classifier (if any) before the memo lookup:
        // the memo key is salted with the model's *content* digest, so
        // two models at the same path never alias a cached report, and
        // republishing a model invalidates naturally. A malformed or
        // unreadable model answers every request of the group with
        // `error` — the connection and the server live on.
        let model: Option<(ClassifierModel, u64)> = match &model_path {
            None => None,
            Some(path) => {
                let parsed = std::fs::read_to_string(path)
                    .map_err(|e| Error::io(path, e))
                    .and_then(|text| {
                        let model: ClassifierModel = htd_store::from_text_at(&text, path)?;
                        Ok((model, htd_store::fnv1a64(text.as_bytes())))
                    });
                match parsed {
                    Ok(pair) => Some(pair),
                    Err(err) => {
                        let reason = err.to_string();
                        for job in &group {
                            respond_error(report, obs, &job.reply, &reason);
                        }
                        continue;
                    }
                }
            }
        };
        let model_fnv = model.as_ref().map(|(_, fnv)| *fnv);
        let memo_key = |suspect: &str| match model_fnv {
            None => suspect.to_string(),
            Some(fnv) => format!("{suspect}+{fnv:016x}"),
        };

        // Serve memoized answers first; only the misses pay for a
        // session.
        let mut misses: Vec<Resolved> = Vec::new();
        for job in group {
            match results.get(content, &memo_key(&job.suspect), obs) {
                Some(cached) => respond_score(report, obs, &job, &golden.digest_hex, cached),
                None => misses.push(job),
            }
        }
        if misses.is_empty() {
            continue;
        }

        let channels = golden.artifact.build_channels();
        let channel_refs: Vec<&dyn Channel> = channels.iter().map(AsRef::as_ref).collect();
        let run = Run::new(engine.clone())
            .with_faults(config.faults.clone(), config.policy)
            .with_model(model.map(|(m, _)| m));
        let session = match run.session(lab, golden.artifact.characterization(), &channel_refs) {
            Ok(session) => session,
            Err(err) => {
                let reason = err.to_string();
                for job in &misses {
                    respond_error(report, obs, &job.reply, &reason);
                }
                continue;
            }
        };
        for job in misses {
            let _span = obs.span_tagged("serve.request", &[("request", &job.request)]);
            // Position 0 pins the seed stream and fault tag to the
            // offline single-suspect path: bit-identity by construction.
            let outcome = session
                .score_spec_at(0, &job.spec)
                .map(|score| htd_store::to_text(&session.single_report(&score)));
            match outcome {
                Ok(text) => {
                    results.put(content, &memo_key(&job.suspect), text.clone());
                    respond_score(report, obs, &job, &golden.digest_hex, text);
                }
                Err(err) => respond_error(report, obs, &job.reply, &err.to_string()),
            }
        }
    }

    fn respond_score(
        report: &mut ServeReport,
        obs: &Obs,
        job: &Resolved,
        plan: &str,
        text: String,
    ) {
        report.responses_ok += 1;
        obs.incr("serve.responses.ok");
        // A vanished client is its handler's problem, not the batch's.
        let _ = job.reply.send(Response::Score {
            plan: plan.to_string(),
            suspect: job.suspect.clone(),
            request: job.echo.then(|| job.request.clone()),
            report: text,
        });
    }

    fn respond_error(
        report: &mut ServeReport,
        obs: &Obs,
        reply: &mpsc::Sender<Response>,
        reason: &str,
    ) {
        report.responses_error += 1;
        obs.incr("serve.responses.error");
        let _ = reply.send(Response::Error {
            reason: reason.to_string(),
        });
    }
}

/// Rewrites the serve manifest from the current recorder snapshot.
fn write_manifest(
    manifest: &ManifestConfig,
    engine: &Engine,
    last_digest_hex: &str,
    obs: &Obs,
) -> Result<(), Error> {
    obs.incr("serve.manifest.writes");
    let snapshot = obs.snapshot().unwrap_or_default();
    let digest = if last_digest_hex.is_empty() {
        "fnv1a64:0000000000000000"
    } else {
        last_digest_hex
    };
    let run = RunManifest::new(
        manifest.tool.clone(),
        "serve",
        engine.workers(),
        digest,
        &snapshot,
        vec![],
    );
    std::fs::write(&manifest.path, run.to_pretty()).map_err(|e| Error::io(&manifest.path, e))
}
