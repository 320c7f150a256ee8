//! The sharded, content-addressed artifact cache.
//!
//! The cache is split into N independent shards selected by the key's high
//! hash word; each shard is guarded by its own `Mutex`, so concurrent
//! requests for different keys rarely contend. Each shard keeps its
//! entries in an exact recency order (`lru::Lru`): a lookup makes its entry
//! the newest, and an admission pops the oldest entries until the shard
//! fits its byte budget again, each step O(1) whatever the shard holds.
//!
//! Persistence is pluggable behind [`ArtifactStore`]: [`MemoryStore`]
//! keeps artifacts only in the in-memory index, [`DiskStore`] mirrors
//! every admitted artifact to one file per key and preloads the index from
//! those files at startup (warm restart). Callers that do not care which
//! one backs the cache hold it as a `dyn` [`ArtifactProvider`].

use crate::key::ContentKey;
use crate::lru::Lru;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// The result of one compile: the generated C source, or the front-end /
/// synthesis error text. Failures are cached too (negative caching), so a
/// repeatedly-submitted bad model costs one validation, not many.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Successful compile: the full generated C translation unit.
    Success(Arc<String>),
    /// Failed compile: the error message shown to the client.
    Failure(Arc<String>),
}

impl Outcome {
    /// The payload text (source or error).
    pub fn text(&self) -> &str {
        match self {
            Outcome::Success(s) | Outcome::Failure(s) => s,
        }
    }

    /// Payload size in bytes, the unit of the shard budget.
    pub fn byte_len(&self) -> usize {
        self.text().len()
    }

    /// `true` for [`Outcome::Failure`].
    pub fn is_failure(&self) -> bool {
        matches!(self, Outcome::Failure(_))
    }

    /// Serialize for the disk store: a one-line tag, then the payload.
    fn to_disk_bytes(&self) -> Vec<u8> {
        let tag: &[u8] = match self {
            Outcome::Success(_) => b"ok\n",
            Outcome::Failure(_) => b"err\n",
        };
        let mut out = Vec::with_capacity(tag.len() + self.byte_len());
        out.extend_from_slice(tag);
        out.extend_from_slice(self.text().as_bytes());
        out
    }

    /// Parse the disk-store form; `None` when the file is not ours.
    fn from_disk_bytes(bytes: &[u8]) -> Option<Self> {
        let text = |rest: &[u8]| String::from_utf8(rest.to_vec()).ok().map(Arc::new);
        if let Some(rest) = bytes.strip_prefix(b"ok\n") {
            return Some(Outcome::Success(text(rest)?));
        }
        if let Some(rest) = bytes.strip_prefix(b"err\n") {
            return Some(Outcome::Failure(text(rest)?));
        }
        None
    }
}

/// Persistence hooks invoked under the owning shard's lock.
pub trait ArtifactStore: Send + Sync {
    /// Persist `outcome` under `key` (no-op for memory-only stores).
    fn persist(&self, key: ContentKey, outcome: &Outcome);
    /// Drop any persisted copy of `key` (called on eviction).
    fn discard(&self, key: ContentKey);
    /// Every persisted artifact, for index preload at construction.
    fn preload(&self) -> Vec<(ContentKey, Outcome)>;
}

/// In-memory-only persistence: artifacts live solely in the shard index.
#[derive(Debug, Default, Clone, Copy)]
pub struct MemoryStore;

impl ArtifactStore for MemoryStore {
    fn persist(&self, _key: ContentKey, _outcome: &Outcome) {}
    fn discard(&self, _key: ContentKey) {}
    fn preload(&self) -> Vec<(ContentKey, Outcome)> {
        Vec::new()
    }
}

/// Disk-backed persistence: one `<hex key>.art` file per artifact under a
/// root directory. A cache constructed over a previously-used root starts
/// warm — every artifact still on disk is preloaded into the index.
///
/// An artifact is written to `<hex key>.art.tmp`, then renamed into place,
/// so a process that dies mid-write leaves at most a stray `.tmp` file,
/// never a truncated `.art`; preload deletes any `.tmp` it finds. Nothing
/// is synced to disk, so a power cut can still leave a short `.art`.
#[derive(Debug, Clone)]
pub struct DiskStore {
    root: PathBuf,
}

impl DiskStore {
    /// A store rooted at `root`, creating the directory if needed.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the directory cannot be created.
    pub fn new(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(DiskStore { root })
    }

    fn path_for(&self, key: ContentKey) -> PathBuf {
        self.root.join(format!("{}.art", key.hex()))
    }

    fn key_from_stem(stem: &str) -> Option<ContentKey> {
        if stem.len() != 32 {
            return None;
        }
        let hi = u64::from_str_radix(&stem[..16], 16).ok()?;
        let lo = u64::from_str_radix(&stem[16..], 16).ok()?;
        Some(ContentKey { hi, lo })
    }
}

impl ArtifactStore for DiskStore {
    fn persist(&self, key: ContentKey, outcome: &Outcome) {
        // Persistence is best-effort: a full disk degrades the cache to
        // memory-only behavior rather than failing the request.
        let path = self.path_for(key);
        let tmp = path.with_extension("art.tmp");
        if std::fs::write(&tmp, outcome.to_disk_bytes()).is_err()
            || std::fs::rename(&tmp, &path).is_err()
        {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    fn discard(&self, key: ContentKey) {
        let _ = std::fs::remove_file(self.path_for(key));
    }

    fn preload(&self) -> Vec<(ContentKey, Outcome)> {
        let Ok(entries) = std::fs::read_dir(&self.root) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for entry in entries.flatten() {
            let path = entry.path();
            match path.extension().and_then(|e| e.to_str()) {
                Some("art") => {}
                // A write that never reached its rename.
                Some("tmp") => {
                    let _ = std::fs::remove_file(&path);
                    continue;
                }
                _ => continue,
            }
            let Some(key) = path
                .file_stem()
                .and_then(|s| s.to_str())
                .and_then(Self::key_from_stem)
            else {
                continue;
            };
            let Ok(bytes) = std::fs::read(&path) else {
                continue;
            };
            if let Some(outcome) = Outcome::from_disk_bytes(&bytes) {
                out.push((key, outcome));
            }
        }
        // Deterministic preload order regardless of directory iteration.
        out.sort_by_key(|(k, _)| *k);
        out
    }
}

/// One shard: its artifacts in recency order plus their payload byte total.
#[derive(Debug, Default)]
struct Shard {
    index: Lru<ContentKey, Outcome>,
    bytes: usize,
}

/// What [`ArtifactProvider::admit`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmitReport {
    /// Whether the artifact was inserted (false: already present).
    pub admitted: bool,
    /// Entries evicted to make room.
    pub evicted: u64,
    /// Payload bytes those evictions freed.
    pub evicted_bytes: u64,
}

/// The whole-cache interface the server holds, object-safe so memory- and
/// disk-backed caches are interchangeable at runtime.
pub trait ArtifactProvider: Send + Sync {
    /// The cached outcome for `key`, bumping its recency.
    fn fetch(&self, key: ContentKey) -> Option<Outcome>;
    /// Insert `outcome` under `key`, evicting LRU entries as needed.
    /// First writer wins: re-admitting an existing key is a no-op.
    fn admit(&self, key: ContentKey, outcome: Outcome) -> AdmitReport;
    /// Total live entries across all shards.
    fn entries(&self) -> usize;
    /// Total payload bytes across all shards.
    fn bytes(&self) -> usize;
    /// Number of shards.
    fn shard_count(&self) -> usize;
}

/// The sharded LRU cache over a persistence store.
#[derive(Debug)]
pub struct ShardedCache<S: ArtifactStore> {
    shards: Vec<Mutex<Shard>>,
    store: S,
    budget_per_shard: usize,
}

impl<S: ArtifactStore> ShardedCache<S> {
    /// A cache of `shards` shards, each holding at most `budget_per_shard`
    /// payload bytes, preloading any artifacts `store` already persists.
    /// Preloaded artifacts are held within the same budget but not
    /// persisted again: the store already has them. `shards` is clamped to
    /// at least 1.
    pub fn new(shards: usize, budget_per_shard: usize, store: S) -> Self {
        let cache = ShardedCache {
            shards: (0..shards.max(1)).map(|_| Mutex::default()).collect(),
            store,
            budget_per_shard,
        };
        for (key, outcome) in cache.store.preload() {
            cache.insert(key, outcome, false);
        }
        cache
    }

    /// Insert `outcome` under `key` unless present, evicting LRU entries
    /// as needed, and hand it to the store first when `persist` is set.
    fn insert(&self, key: ContentKey, outcome: Outcome, persist: bool) -> AdmitReport {
        let bytes = outcome.byte_len();
        let mut shard = self.shard(key);
        if shard.index.contains_key(&key) {
            return AdmitReport::default();
        }
        let mut report = AdmitReport {
            admitted: true,
            ..AdmitReport::default()
        };
        // Evict least-recently-used entries until the new artifact fits.
        // An artifact bigger than the whole budget still goes in (over an
        // emptied shard): refusing it would force a recompile on every
        // request, the worst possible cache behavior.
        while shard.bytes + bytes > self.budget_per_shard {
            let Some((victim, evicted)) = shard.index.pop_oldest() else {
                break;
            };
            shard.bytes -= evicted.byte_len();
            report.evicted += 1;
            report.evicted_bytes += evicted.byte_len() as u64;
            self.store.discard(victim);
        }
        if persist {
            self.store.persist(key, &outcome);
        }
        shard.bytes += bytes;
        shard.index.insert(key, outcome);
        report
    }

    fn shard(&self, key: ContentKey) -> std::sync::MutexGuard<'_, Shard> {
        self.shards[key.shard(self.shards.len())]
            .lock()
            .expect("cache shard poisoned")
    }
}

impl<S: ArtifactStore> ArtifactProvider for ShardedCache<S> {
    fn fetch(&self, key: ContentKey) -> Option<Outcome> {
        self.shard(key).index.get(&key).cloned()
    }

    fn admit(&self, key: ContentKey, outcome: Outcome) -> AdmitReport {
        self.insert(key, outcome, true)
    }

    fn entries(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").index.len())
            .sum()
    }

    fn bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").bytes)
            .sum()
    }

    fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> ContentKey {
        // Distinct keys all mapping to shard 0 of a 1-shard cache.
        ContentKey { hi: n, lo: n ^ 7 }
    }

    fn ok(text: &str) -> Outcome {
        Outcome::Success(Arc::new(text.to_owned()))
    }

    #[test]
    fn fetch_returns_admitted_outcome() {
        let cache = ShardedCache::new(4, 1 << 20, MemoryStore);
        assert!(cache.fetch(key(1)).is_none());
        let report = cache.admit(key(1), ok("int main;"));
        assert!(report.admitted);
        assert_eq!(report.evicted, 0);
        assert_eq!(cache.fetch(key(1)).unwrap().text(), "int main;");
        assert_eq!(cache.entries(), 1);
        assert_eq!(cache.bytes(), "int main;".len());
        assert_eq!(cache.shard_count(), 4);
    }

    #[test]
    fn first_writer_wins_on_readmission() {
        let cache = ShardedCache::new(1, 1 << 20, MemoryStore);
        cache.admit(key(1), ok("first"));
        let report = cache.admit(key(1), ok("second"));
        assert!(!report.admitted);
        assert_eq!(cache.fetch(key(1)).unwrap().text(), "first");
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn lru_eviction_respects_fetch_recency() {
        // Budget fits exactly two 4-byte entries.
        let cache = ShardedCache::new(1, 8, MemoryStore);
        cache.admit(key(1), ok("aaaa"));
        cache.admit(key(2), ok("bbbb"));
        // Touch key 1 so key 2 becomes the LRU victim.
        cache.fetch(key(1)).unwrap();
        let report = cache.admit(key(3), ok("cccc"));
        assert!(report.admitted);
        assert_eq!(report.evicted, 1);
        assert_eq!(report.evicted_bytes, 4);
        assert!(cache.fetch(key(1)).is_some(), "recently-used survives");
        assert!(cache.fetch(key(2)).is_none(), "LRU evicted");
        assert!(cache.fetch(key(3)).is_some());
        assert_eq!(cache.bytes(), 8);
    }

    /// A memory-only store that records every discarded key in order.
    #[derive(Default)]
    struct DiscardLog(Mutex<Vec<ContentKey>>);

    impl ArtifactStore for &DiscardLog {
        fn persist(&self, _key: ContentKey, _outcome: &Outcome) {}
        fn discard(&self, key: ContentKey) {
            self.0.lock().unwrap().push(key);
        }
        fn preload(&self) -> Vec<(ContentKey, Outcome)> {
            Vec::new()
        }
    }

    /// A memory-only store that preloads three artifacts and counts every
    /// `persist`.
    #[derive(Default)]
    struct PersistCount(Mutex<usize>);

    impl ArtifactStore for &PersistCount {
        fn persist(&self, _key: ContentKey, _outcome: &Outcome) {
            *self.0.lock().unwrap() += 1;
        }
        fn discard(&self, _key: ContentKey) {}
        fn preload(&self) -> Vec<(ContentKey, Outcome)> {
            (1..=3).map(|n| (key(n), ok("warm"))).collect()
        }
    }

    #[test]
    fn a_warm_start_holds_its_preloaded_artifacts_without_persisting_them() {
        let store = PersistCount::default();
        let cache = ShardedCache::new(1, 1 << 20, &store);
        assert_eq!(*store.0.lock().unwrap(), 0);
        assert_eq!(cache.entries(), 3);
        for n in 1..=3 {
            assert_eq!(cache.fetch(key(n)).unwrap().text(), "warm");
        }
        cache.admit(key(4), ok("cold"));
        assert_eq!(*store.0.lock().unwrap(), 1, "a new artifact is persisted");
    }

    #[test]
    fn eviction_takes_the_unfetched_entries_oldest_first() {
        const N: u64 = 64;
        let log = DiscardLog::default();
        // One shard that holds exactly N 4-byte entries.
        let cache = ShardedCache::new(1, 4 * N as usize, &log);
        for n in 0..N {
            cache.admit(key(n), ok("aaaa"));
        }
        for n in (0..N).step_by(2) {
            cache.fetch(key(n)).unwrap();
        }
        for n in N..N + N / 2 {
            assert_eq!(cache.admit(key(n), ok("bbbb")).evicted, 1);
        }
        let unfetched: Vec<_> = (1..N).step_by(2).map(key).collect();
        assert_eq!(*log.0.lock().unwrap(), unfetched);
        assert_eq!(cache.entries(), N as usize);
    }

    #[test]
    fn oversized_artifact_empties_shard_but_is_admitted() {
        let cache = ShardedCache::new(1, 8, MemoryStore);
        cache.admit(key(1), ok("aaaa"));
        cache.admit(key(2), ok("bbbb"));
        let report = cache.admit(key(3), ok("cccccccccccc"));
        assert!(report.admitted);
        assert_eq!(report.evicted, 2);
        assert_eq!(cache.entries(), 1);
        assert_eq!(cache.fetch(key(3)).unwrap().text(), "cccccccccccc");
    }

    #[test]
    fn failures_cache_like_successes() {
        let cache = ShardedCache::new(2, 1 << 20, MemoryStore);
        let err = Outcome::Failure(Arc::new("model invalid: cycle".to_owned()));
        cache.admit(key(9), err.clone());
        let fetched = cache.fetch(key(9)).unwrap();
        assert!(fetched.is_failure());
        assert_eq!(fetched.text(), "model invalid: cycle");
    }

    #[test]
    fn keys_spread_across_shards() {
        let cache = ShardedCache::new(8, 1 << 20, MemoryStore);
        for n in 0..64 {
            cache.admit(ContentKey::of_parts(&[&n_to_bytes(n)]), ok("x"));
        }
        assert_eq!(cache.entries(), 64);
        let occupied = cache
            .shards
            .iter()
            .filter(|s| s.lock().unwrap().index.len() > 0)
            .count();
        assert!(occupied >= 4, "64 hashed keys occupy ≥ half the shards");
    }

    fn n_to_bytes(n: u64) -> [u8; 8] {
        n.to_le_bytes()
    }

    #[test]
    fn disk_store_roundtrips_and_preloads() {
        let dir = std::env::temp_dir().join(format!("hcg-serve-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let cache = ShardedCache::new(2, 1 << 20, DiskStore::new(&dir).unwrap());
            cache.admit(key(1), ok("persisted source"));
            cache.admit(key(2), Outcome::Failure(Arc::new("bad model".to_owned())));
        }
        // A fresh cache over the same root starts warm.
        let warm = ShardedCache::new(2, 1 << 20, DiskStore::new(&dir).unwrap());
        assert_eq!(warm.entries(), 2);
        assert_eq!(warm.fetch(key(1)).unwrap().text(), "persisted source");
        assert!(warm.fetch(key(2)).unwrap().is_failure());
        // Eviction removes the on-disk copy too.
        let tiny = ShardedCache::new(1, 4, DiskStore::new(&dir).unwrap());
        let survivors = tiny.entries();
        assert!(survivors <= 1, "4-byte budget keeps at most one artifact");
        let on_disk = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(on_disk, survivors);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_store_ignores_and_removes_half_written_artifacts() {
        let dir = std::env::temp_dir().join(format!("hcg-serve-tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DiskStore::new(&dir).unwrap();
        ShardedCache::new(1, 1 << 20, store.clone()).admit(key(1), ok("whole source"));
        // Two writes cut short before their rename: one over the artifact
        // already on disk, one for an artifact that never landed.
        let tmp = |k| store.path_for(k).with_extension("art.tmp");
        std::fs::write(tmp(key(1)), b"ok\nwhole so").unwrap();
        std::fs::write(tmp(key(2)), b"ok\nhalf").unwrap();
        let warm = ShardedCache::new(1, 1 << 20, store.clone());
        assert_eq!(warm.entries(), 1);
        assert_eq!(warm.fetch(key(1)).unwrap().text(), "whole source");
        assert!(warm.fetch(key(2)).is_none());
        let mut left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        left.sort();
        assert_eq!(left, [store.path_for(key(1)).file_name().unwrap()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn provider_is_object_safe_over_both_stores() {
        let providers: Vec<Box<dyn ArtifactProvider>> =
            vec![Box::new(ShardedCache::new(2, 1 << 20, MemoryStore))];
        for p in &providers {
            p.admit(key(5), ok("body"));
            assert_eq!(p.fetch(key(5)).unwrap().text(), "body");
        }
    }
}
