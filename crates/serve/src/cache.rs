//! The two caches behind the serve scheduler.
//!
//! [`GoldenCache`] holds parsed [`ScorableArtifact`]s — stored golden
//! references and reference-free self-score baselines alike — keyed by
//! the FNV-1a digest of the artifact's *full file text* — not of its
//! plan. Two
//! goldens characterized from the same plan but through different
//! channels carry the same plan digest yet score differently, so
//! keying by plan would let one silently answer for the other; the
//! content digest makes byte-distinct artifacts distinct cache
//! entries. The plan digest (the value `htd_store::plan_digest`
//! computes, the manifest records and the shard router hashes) rides
//! along on each entry as the wire identity. A path→content-digest
//! side index lets repeat requests for the same file skip the
//! filesystem entirely; its entries are pruned when the artifact they
//! point at is evicted. The LRU is bounded by total artifact *bytes* —
//! goldens vary wildly in size with die count, so an entry-count cap
//! would bound nothing.
//!
//! [`ResultCache`] memoizes rendered report texts by `(content digest,
//! suspect token)`. Scoring is a pure function of that pair — the
//! artifact text fixes the plan (hence every seed), the channel states,
//! and the suspect's fault tag at its fixed position 0 — so serving a
//! cached response is *bit-identical* to rescoring, and the warm-path
//! throughput of `htd bench --serve` is really this map's lookup cost.
//! It is bounded by entry count and a cap of zero disables it outright
//! (the bit-identity e2e tests do this to force real scoring).
//!
//! Neither cache locks: both live inside the single scheduler thread,
//! which also makes every `store.cache.*` / `serve.cache.result.*`
//! counter deterministic at any worker count.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use htd_core::Error;
use htd_obs::Obs;
use htd_store::{fnv1a64, from_text_at, plan_digest, ScorableArtifact};

/// A parsed golden artifact plus its two identities: the content
/// digest the caches key by, and the plan digest the wire protocol and
/// shard router speak.
#[derive(Debug)]
pub struct CachedGolden {
    /// FNV-1a digest of the artifact's full file text (the cache key).
    /// Byte-distinct artifacts — including two characterized from the
    /// same plan through different channels — never share this value.
    pub content_digest: u64,
    /// FNV-1a digest of the plan's store text (the wire/shard key).
    pub digest: u64,
    /// `fnv1a64:<16 hex>` rendering of [`digest`](Self::digest), as
    /// responses and manifests print it.
    pub digest_hex: String,
    /// The parsed artifact — a stored golden reference or a
    /// reference-free self-score baseline; both score through one
    /// session type.
    pub artifact: ScorableArtifact,
    /// Size of the artifact's file text, the unit the LRU budget counts.
    pub bytes: usize,
}

struct Slot {
    golden: Arc<CachedGolden>,
    /// Logical clock of the last `get` that returned this entry.
    last_use: u64,
}

/// Byte-bounded LRU of parsed golden artifacts, content-digest-keyed.
pub struct GoldenCache {
    cap_bytes: usize,
    total_bytes: usize,
    tick: u64,
    entries: HashMap<u64, Slot>,
    /// Which content digest a given path last parsed to. An entry here
    /// is only a hint: it must still resolve through `entries` to count
    /// as hot, and it is dropped when that entry is evicted.
    paths: HashMap<PathBuf, u64>,
}

impl GoldenCache {
    /// An empty cache holding at most `cap_bytes` of artifact text.
    pub fn new(cap_bytes: usize) -> Self {
        GoldenCache {
            cap_bytes,
            total_bytes: 0,
            tick: 0,
            entries: HashMap::new(),
            paths: HashMap::new(),
        }
    }

    /// Bytes of artifact text currently resident.
    pub fn resident_bytes(&self) -> usize {
        self.total_bytes
    }

    /// Number of resident artifacts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The artifact at `path`, from cache when hot (`store.cache.hit`)
    /// or freshly read, parsed and inserted when not (`store.cache.miss`,
    /// then one `store.cache.evict` per entry the byte budget pushes
    /// out). The newest entry is never evicted, even when it alone
    /// exceeds the budget — the request that paid for the read gets to
    /// use it.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when the file cannot be read; [`Error::Format`]
    /// when it is not a well-formed golden artifact.
    pub fn get(&mut self, path: &Path, obs: &Obs) -> Result<Arc<CachedGolden>, Error> {
        self.tick += 1;
        if let Some(&content) = self.paths.get(path) {
            if let Some(slot) = self.entries.get_mut(&content) {
                slot.last_use = self.tick;
                obs.incr("store.cache.hit");
                return Ok(Arc::clone(&slot.golden));
            }
        }
        obs.incr("store.cache.miss");
        let text = std::fs::read_to_string(path).map_err(|e| Error::io(path, e))?;
        let artifact: ScorableArtifact = from_text_at(&text, &path.display().to_string())?;
        let content_digest = fnv1a64(text.as_bytes());
        let digest = plan_digest(&artifact.characterization().plan);
        let golden = Arc::new(CachedGolden {
            content_digest,
            digest,
            digest_hex: format!("fnv1a64:{digest:016x}"),
            artifact,
            bytes: text.len(),
        });
        self.paths.insert(path.to_path_buf(), content_digest);
        // Two paths can hold byte-identical files; the displaced entry
        // is the same text, but the byte ledger must still shed its
        // size before counting the replacement's.
        if let Some(old) = self.entries.insert(
            content_digest,
            Slot {
                golden: Arc::clone(&golden),
                last_use: self.tick,
            },
        ) {
            self.total_bytes -= old.golden.bytes;
        }
        self.total_bytes += golden.bytes;
        while self.total_bytes > self.cap_bytes && self.entries.len() > 1 {
            let coldest = self
                .entries
                .iter()
                .filter(|(&d, _)| d != content_digest)
                .min_by_key(|(_, slot)| slot.last_use)
                .map(|(&d, _)| d)
                .expect("len > 1 leaves at least one other entry");
            let evicted = self.entries.remove(&coldest).expect("key came from iter");
            self.total_bytes -= evicted.golden.bytes;
            self.paths.retain(|_, &mut d| d != coldest);
            obs.incr("store.cache.evict");
        }
        Ok(golden)
    }
}

/// Entry-bounded LRU memoizing rendered report texts by
/// `(content digest, suspect token)`.
pub struct ResultCache {
    cap: usize,
    tick: u64,
    entries: HashMap<(u64, String), (String, u64)>,
}

impl ResultCache {
    /// An empty cache holding at most `cap` reports; `cap == 0`
    /// disables caching entirely (every lookup misses, nothing is
    /// stored).
    pub fn new(cap: usize) -> Self {
        ResultCache {
            cap,
            tick: 0,
            entries: HashMap::new(),
        }
    }

    /// Number of memoized reports.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The memoized report for `(digest, suspect)`, counting
    /// `serve.cache.result.hit` / `serve.cache.result.miss`.
    pub fn get(&mut self, digest: u64, suspect: &str, obs: &Obs) -> Option<String> {
        self.tick += 1;
        // A disabled cache is silent: no entries, and no hit/miss noise
        // in the counter section either.
        if self.cap == 0 {
            return None;
        }
        match self.entries.get_mut(&(digest, suspect.to_string())) {
            Some((report, last_use)) => {
                *last_use = self.tick;
                obs.incr("serve.cache.result.hit");
                Some(report.clone())
            }
            None => {
                obs.incr("serve.cache.result.miss");
                None
            }
        }
    }

    /// Memoizes `report` for `(digest, suspect)`, evicting the
    /// least-recently-used entry when full. No-op when disabled.
    pub fn put(&mut self, digest: u64, suspect: &str, report: String) {
        if self.cap == 0 {
            return;
        }
        self.tick += 1;
        if self.entries.len() >= self.cap
            && !self.entries.contains_key(&(digest, suspect.to_string()))
        {
            if let Some(coldest) = self
                .entries
                .iter()
                .min_by_key(|(_, (_, last_use))| *last_use)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&coldest);
            }
        }
        self.entries
            .insert((digest, suspect.to_string()), (report, self.tick));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htd_core::CampaignPlan;
    use htd_store::ScorableArtifact;

    fn counter(obs: &Obs, name: &str) -> u64 {
        obs.snapshot()
            .unwrap()
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// A valid single-channel golden artifact written to `dir`; `seed`
    /// varies the plan (so distinct seeds yield distinct plan digests)
    /// while `level` varies only the channel state — same plan,
    /// byte-distinct file.
    fn write_golden_at(dir: &Path, name: &str, seed: u8, level: f64) -> PathBuf {
        use htd_core::channel::{Calibration, ChannelSpec, GoldenReference};
        use htd_core::em_detect::TraceMetric;
        use htd_core::prelude::{ChannelState, Characterization, Trace};
        let plan = CampaignPlan::with_random_pairs(4, 2, 2, [seed; 16], [seed ^ 0x5a; 16], 7);
        let state = ChannelState::pristine(
            "EM",
            Calibration::None,
            GoldenReference::MeanTrace(Trace::new(vec![level; 9], 125.0)),
            (0..plan.n_dies).map(|i| i as f64 * 1.5).collect(),
        );
        let artifact = ScorableArtifact::new(
            vec![ChannelSpec::Em(TraceMetric::SumOfLocalMaxima)],
            Characterization {
                plan,
                states: vec![state],
                lost: vec![],
            },
        )
        .unwrap();
        let path = dir.join(name);
        std::fs::write(&path, htd_store::to_text(&artifact)).unwrap();
        path
    }

    fn write_golden(dir: &Path, name: &str, seed: u8) -> PathBuf {
        write_golden_at(dir, name, seed, 0.25)
    }

    #[test]
    fn golden_cache_hits_and_evicts() {
        let dir = std::env::temp_dir().join(format!("htd-serve-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = write_golden(&dir, "a.htd", 1);
        let b = write_golden(&dir, "b.htd", 2);
        let obs = Obs::recording();
        let one = std::fs::metadata(&a).unwrap().len() as usize;

        // Budget for one artifact only: loading the second evicts the first.
        let mut cache = GoldenCache::new(one + one / 2);
        let first = cache.get(&a, &obs).unwrap();
        assert_eq!(cache.get(&a, &obs).unwrap().digest, first.digest);
        assert_eq!(counter(&obs, "store.cache.hit"), 1);
        assert_eq!(counter(&obs, "store.cache.miss"), 1);

        let second = cache.get(&b, &obs).unwrap();
        assert_ne!(second.digest, first.digest);
        assert_eq!(counter(&obs, "store.cache.evict"), 1);
        assert_eq!(cache.len(), 1);
        assert!(cache.resident_bytes() <= one + one / 2);

        // The evicted artifact reloads as a miss, not an error.
        cache.get(&a, &obs).unwrap();
        assert_eq!(counter(&obs, "store.cache.miss"), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn same_plan_different_channels_are_distinct_entries() {
        let dir = std::env::temp_dir().join(format!("htd-serve-collide-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Same seed → same plan digest; different level → different file
        // bytes. Keying by plan digest would make B silently answer for A.
        let a = write_golden_at(&dir, "a.htd", 1, 0.25);
        let b = write_golden_at(&dir, "b.htd", 1, 0.75);
        let obs = Obs::recording();
        let mut cache = GoldenCache::new(1 << 20);

        let first = cache.get(&a, &obs).unwrap();
        let second = cache.get(&b, &obs).unwrap();
        assert_eq!(first.digest, second.digest, "plans are identical");
        assert_ne!(first.content_digest, second.content_digest);
        assert_eq!(cache.len(), 2, "both artifacts stay resident");

        // Each path keeps resolving to its own artifact text.
        let text_a = std::fs::read_to_string(&a).unwrap();
        let text_b = std::fs::read_to_string(&b).unwrap();
        assert_eq!(
            cache.get(&a, &obs).unwrap().content_digest,
            htd_store::fnv1a64(text_a.as_bytes())
        );
        assert_eq!(
            cache.get(&b, &obs).unwrap().content_digest,
            htd_store::fnv1a64(text_b.as_bytes())
        );
        assert_eq!(counter(&obs, "store.cache.hit"), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn golden_cache_read_failures_propagate() {
        let obs = Obs::recording();
        let mut cache = GoldenCache::new(1 << 20);
        assert!(cache
            .get(Path::new("/nonexistent/golden.htd"), &obs)
            .is_err());
        assert_eq!(counter(&obs, "store.cache.miss"), 1);
    }

    #[test]
    fn result_cache_memoizes_and_evicts_lru() {
        let obs = Obs::recording();
        let mut cache = ResultCache::new(2);
        assert!(cache.get(1, "ht1", &obs).is_none());
        cache.put(1, "ht1", "report-1".into());
        cache.put(1, "ht2", "report-2".into());
        assert_eq!(cache.get(1, "ht1", &obs).as_deref(), Some("report-1"));
        // Full: inserting a third key evicts ht2 (coldest), not ht1.
        cache.put(2, "ht1", "report-3".into());
        assert!(cache.get(1, "ht2", &obs).is_none());
        assert_eq!(cache.get(1, "ht1", &obs).as_deref(), Some("report-1"));
        assert_eq!(counter(&obs, "serve.cache.result.hit"), 2);
        assert_eq!(counter(&obs, "serve.cache.result.miss"), 2);
    }

    #[test]
    fn zero_capacity_disables_the_result_cache() {
        let obs = Obs::recording();
        let mut cache = ResultCache::new(0);
        cache.put(1, "ht1", "report".into());
        assert!(cache.get(1, "ht1", &obs).is_none());
        assert!(cache.is_empty());
        assert_eq!(counter(&obs, "serve.cache.result.hit"), 0);
        assert_eq!(counter(&obs, "serve.cache.result.miss"), 0);
    }
}
