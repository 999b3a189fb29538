//! htd-serve — a batched, observable scoring service over the artifact
//! store.
//!
//! The offline pipeline characterizes a golden population once (`htd
//! characterize`) and scores suspects against the stored artifact (`htd
//! score`). This crate turns the second half into a long-lived network
//! service: a dependency-free blocking TCP server that keeps parsed
//! golden artifacts (and, optionally, finished reports) hot in memory
//! and amortizes per-request setup by batching.
//!
//! # Protocol
//!
//! Line-oriented frames with the store's framing discipline — versioned
//! header, strict never-panic parsing, FNV-1a checksum trailer:
//!
//! ```text
//! htdserve 1 score                      htdserve 1 ok
//! golden "goldens/em-delay.htd"         plan fnv1a64:56beaff94e0d743d
//! suspect ht2                           suspect ht2
//! checksum fnv1a64 <hex>                report 12
//!                                       |htdstore 1 report
//!                                       |...
//!                                       checksum fnv1a64 <hex>
//! ```
//!
//! Embedded report lines are `|`-prefixed so the report's own checksum
//! trailer cannot terminate the outer frame; stripped of the prefix
//! they are byte-identical to what `htd score --report` writes for the
//! same (artifact, suspect) pair. See [`protocol`] for the grammar.
//!
//! A score request may carry a `request "<id>"` line: the id tags
//! every span the server opens for that request (visible in `--trace`
//! exports) and is echoed on the response. Requests without one get a
//! server-assigned id for the server's own trace and an unchanged
//! response — the pre-tracing wire format both ways. A `stats` request
//! is answered inline by its handler with the live run manifest, the
//! queue depth and the uptime, without touching the scoring queue;
//! `htd top` polls it into a refreshing table.
//!
//! # Scheduling
//!
//! Handlers enqueue score requests onto a bounded queue (past the
//! configured depth they shed with an explicit `busy` response — the
//! client retries, nothing queues unboundedly). A single scheduler
//! thread drains the queue in batches, groups requests by the FNV-1a
//! digest of their golden's artifact text (a refinement of the
//! plan-digest grouping the shard router uses: same-plan goldens with
//! different channel data never share a session), and scores each
//! group through one scoring `Session`, paying device programming and
//! golden setup once per batch. Every suspect scores at campaign
//! position 0
//! through the offline scorer's exact code path, so responses are
//! bit-identical to `htd score` at any worker count and under any
//! request interleaving.
//!
//! # Caching
//!
//! Two scheduler-owned caches (see [`cache`]): a byte-bounded LRU of
//! parsed golden artifacts (`store.cache.{hit,miss,evict}`) and an
//! entry-bounded memo of rendered reports keyed by (content digest,
//! suspect) — sound because scoring is a pure function of that pair
//! (`serve.cache.result.{hit,miss}`). Both key by the FNV-1a digest of
//! the artifact's full file text, never by its plan digest alone: two
//! goldens characterized from one plan through different channels score
//! differently and must never answer for each other. Both live on one
//! thread, so the counters are deterministic for sequential workloads
//! at any worker count.
//!
//! # Failure isolation
//!
//! The offline resilience story carries over: a faulted acquisition
//! (under `--faults`), an unknown suspect, an unloadable artifact or a
//! malformed frame degrades exactly one response into `error`; the
//! connection, the scheduler and the process live on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod protocol;
pub mod server;

pub use cache::{CachedGolden, GoldenCache, ResultCache};
pub use client::{Client, ClientError};
pub use protocol::{
    read_frame, ProtocolError, Request, Response, MAGIC, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
pub use server::{serve, ManifestConfig, ServeConfig, ServeReport};

#[cfg(test)]
mod tests {
    use std::sync::mpsc;

    use htd_obs::Obs;

    use super::*;

    /// Boots a server on an ephemeral port in a background thread and
    /// hands back its address plus the join handle.
    fn boot(
        config: ServeConfig,
        obs: Obs,
    ) -> (
        std::net::SocketAddr,
        std::thread::JoinHandle<Result<ServeReport, htd_core::Error>>,
    ) {
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            serve(config, &obs, move |addr| {
                tx.send(addr).expect("boot listener alive");
            })
        });
        let addr = rx.recv().expect("server bound");
        (addr, handle)
    }

    #[test]
    fn ping_errors_and_shutdown_round_trip() {
        let (addr, handle) = boot(ServeConfig::default(), Obs::recording());
        let mut client = Client::connect(addr).unwrap();

        assert_eq!(client.call(&Request::Ping).unwrap(), Response::Done);

        // A score against a path that is not a golden artifact degrades
        // into an error response; the server keeps serving.
        let response = client
            .call(&Request::Score {
                golden: "/nonexistent/golden.htd".into(),
                suspect: "ht2".into(),
                model: None,
                request: None,
            })
            .unwrap();
        assert!(
            matches!(&response, Response::Error { reason } if reason.contains("nonexistent")),
            "{response:?}"
        );

        // A malformed frame gets an error response on the same socket.
        client
            .send_raw(b"htdserve 1 banana\nchecksum fnv1a64 0000000000000000\n")
            .unwrap();
        let response = client.read_response().unwrap();
        assert!(
            matches!(&response, Response::Error { reason } if reason.contains("malformed")),
            "{response:?}"
        );
        assert_eq!(client.call(&Request::Ping).unwrap(), Response::Done);

        assert_eq!(client.call(&Request::Shutdown).unwrap(), Response::Done);
        let report = handle.join().unwrap().unwrap();
        assert_eq!(report.requests, 1, "only the score reached the queue");
        assert_eq!(report.responses_error, 2);
        assert_eq!(report.responses_busy, 0);
    }

    #[test]
    fn stats_serves_the_live_manifest_inline() {
        let (addr, handle) = boot(ServeConfig::default(), Obs::recording());
        let mut client = Client::connect(addr).unwrap();
        let response = client.call(&Request::Stats).unwrap();
        let Response::Stats {
            uptime_ns: _,
            queue,
            manifest,
        } = response
        else {
            panic!("expected stats, got {response:?}");
        };
        assert_eq!(queue, 0);
        let run = htd_obs::RunManifest::parse(&manifest).expect("wire manifest parses strictly");
        assert_eq!(run.command, "serve");
        assert_eq!(run.plan_digest, "fnv1a64:0000000000000000");
        assert!(
            run.counters
                .iter()
                .any(|(name, value)| name == "serve.stats.requests" && *value == 1),
            "{manifest}"
        );
        // A second poll sees the first one's counter: the manifest is
        // live, not a boot-time snapshot.
        let Response::Stats { manifest, .. } = client.call(&Request::Stats).unwrap() else {
            panic!("expected stats");
        };
        let run = htd_obs::RunManifest::parse(&manifest).unwrap();
        assert!(run
            .counters
            .iter()
            .any(|(name, value)| name == "serve.stats.requests" && *value == 2));
        client.call(&Request::Shutdown).unwrap();
        let report = handle.join().unwrap().unwrap();
        assert_eq!(report.requests, 0, "stats never reaches the queue");
    }

    #[test]
    fn unknown_suspects_degrade_one_response() {
        let (addr, handle) = boot(ServeConfig::default(), Obs::recording());
        let mut client = Client::connect(addr).unwrap();
        // The artifact read fails first unless the path resolves, so
        // point at a real file that simply is not a golden artifact.
        let response = client
            .call(&Request::Score {
                golden: env!("CARGO_MANIFEST_DIR").to_string() + "/Cargo.toml",
                suspect: "ht2".into(),
                model: None,
                request: None,
            })
            .unwrap();
        assert!(matches!(response, Response::Error { .. }), "{response:?}");
        client.call(&Request::Shutdown).unwrap();
        let report = handle.join().unwrap().unwrap();
        assert_eq!(report.responses_error, 1);
        assert_eq!(report.responses_ok, 0);
    }
}
