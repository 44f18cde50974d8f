//! A size-bounded, deterministic LRU cache for solver artifacts.
//!
//! Sessions ([`crate::session`]) answer many queries against one
//! immutable graph; the expensive intermediates — shortest paths, the
//! undirected diameter, and whole per-path-edge replacement answers —
//! are pure functions of `(graph, artifact kind, params)`, so they are
//! cached here keyed by the graph's stable
//! [`fingerprint`](graphkit::DiGraph::fingerprint) plus a typed
//! [`ArtifactKind`]. These entries are also the only solver artifacts
//! that persist: `crate::artifacts` encodes each one as a `TAG_CACHE`
//! snapshot section.
//!
//! **Determinism contract.** The cache is an ordinary sequential data
//! structure driven only by the session's call sequence: recency is a
//! monotonic logical clock (one tick per touch, never wall time), keys
//! are totally ordered, and eviction always removes the entry with the
//! smallest recency stamp. Two sessions that issue the same operations
//! in the same order therefore hold the same entries, evict the same
//! victims, and report the same [`CacheStats`] on any machine. The LRU
//! proptests in `tests/session_differential.rs` pin this down against a
//! naive model.
//!
//! Cache counters stay *out* of [`congest::Metrics`]: hits change how
//! fast an answer is produced, never the answer or the rounds a cold
//! run takes. Sessions report them through
//! [`crate::SessionStats::cache`].

use std::collections::BTreeMap;
use std::sync::Arc;

use congest::CacheStats;
use graphkit::{NodeId, StPath};

use crate::weighted::ScaledAnswers;

/// Which solver produced a cached replacement-answers artifact.
///
/// Part of the cache key: a session solves unweighted graphs with
/// Theorem 1 and weighted ones with Theorem 3, whose scaled encodings
/// differ, so their artifacts never alias.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SolverKind {
    /// Theorem 1: exact unweighted replacement paths.
    Unweighted,
    /// Theorem 3: `(1+ε)`-approximate weighted replacement paths.
    Weighted,
}

impl SolverKind {
    /// Stable one-byte code used by the persisted cache section.
    ///
    /// Codes 2 and 3 are retired: older snapshots used them for the
    /// naive and MR24 baselines. Decoding rejects them, so warm boot
    /// skips those entries, and no new kind may reuse them.
    pub fn code(self) -> u8 {
        match self {
            SolverKind::Unweighted => 0,
            SolverKind::Weighted => 1,
        }
    }

    /// Inverse of [`SolverKind::code`].
    pub fn from_code(code: u8) -> Option<SolverKind> {
        match code {
            0 => Some(SolverKind::Unweighted),
            1 => Some(SolverKind::Weighted),
            _ => None,
        }
    }

    /// Human-readable name (artifact keys, logs).
    pub fn name(self) -> &'static str {
        match self {
            SolverKind::Unweighted => "unweighted",
            SolverKind::Weighted => "weighted",
        }
    }
}

/// What kind of artifact a cache entry holds, with the parameters that
/// identify it among its kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ArtifactKind {
    /// The undirected diameter `D` of the communication graph.
    Diameter,
    /// A shortest `source → target` path (or proof of unreachability).
    Path {
        /// Path source.
        source: NodeId,
        /// Path target.
        target: NodeId,
    },
    /// Per-path-edge replacement answers for one solved instance.
    Replacement {
        /// Instance source.
        source: NodeId,
        /// Instance target.
        target: NodeId,
        /// The solver that produced the answers.
        solver: SolverKind,
        /// Fingerprint of the [`crate::Params`] used.
        params_fp: u64,
        /// Fingerprint of the instance's path edges (two shortest paths
        /// between the same endpoints may differ; answers depend on
        /// which one failed edges live on).
        path_fp: u64,
    },
}

/// Full cache key: graph identity plus typed artifact identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CacheKey {
    /// [`graphkit::DiGraph::fingerprint`] of the graph the artifact was
    /// computed on.
    pub fingerprint: u64,
    /// The artifact's kind and parameters.
    pub kind: ArtifactKind,
}

/// A cached artifact value.
///
/// Large payloads sit behind [`Arc`] so a hit is a pointer bump, not a
/// deep clone.
#[derive(Clone, Debug)]
pub enum CacheValue {
    /// Value for [`ArtifactKind::Diameter`].
    Diameter(usize),
    /// Value for [`ArtifactKind::Path`]; `None` records that the target
    /// is unreachable (negative results are worth caching too).
    Path(Option<StPath>),
    /// Value for [`ArtifactKind::Replacement`].
    Replacement(Arc<ScaledAnswers>),
}

#[derive(Clone, Debug)]
struct Entry {
    value: CacheValue,
    stamp: u64,
}

/// The deterministic LRU artifact cache.
///
/// See the [module docs](self) for the determinism contract. Stats are
/// cumulative over the cache's lifetime.
#[derive(Clone, Debug)]
pub struct ArtifactCache {
    capacity: usize,
    clock: u64,
    entries: BTreeMap<CacheKey, Entry>,
    /// Inverse index `stamp → key`; stamps are unique (one clock tick
    /// per touch), so the smallest stamp is the unique LRU victim.
    recency: BTreeMap<u64, CacheKey>,
    stats: CacheStats,
}

impl ArtifactCache {
    /// Creates an empty cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a cache that can hold nothing
    /// would turn every insert into an immediate self-eviction.
    pub fn new(capacity: usize) -> ArtifactCache {
        assert!(capacity >= 1, "cache capacity must be at least 1");
        ArtifactCache {
            capacity,
            clock: 0,
            entries: BTreeMap::new(),
            recency: BTreeMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Cumulative hit/miss/insertion/eviction counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drops every entry (counters are kept — a clear is an operational
    /// event, not a new cache).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.recency.clear();
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Looks up `key`, recording a hit or miss and refreshing the
    /// entry's recency on a hit.
    pub fn get(&mut self, key: &CacheKey) -> Option<CacheValue> {
        let stamp = self.tick();
        match self.entries.get_mut(key) {
            Some(entry) => {
                self.recency.remove(&entry.stamp);
                entry.stamp = stamp;
                self.recency.insert(stamp, *key);
                self.stats.hits += 1;
                Some(entry.value.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Looks up `key` without recording a hit/miss or touching recency
    /// (inspection, tests).
    pub fn peek(&self, key: &CacheKey) -> Option<&CacheValue> {
        self.entries.get(key).map(|e| &e.value)
    }

    /// Inserts (or replaces) `key`, evicting the least recently used
    /// entry if the capacity bound would be exceeded.
    pub fn insert(&mut self, key: CacheKey, value: CacheValue) {
        let stamp = self.tick();
        if let Some(old) = self.entries.insert(key, Entry { value, stamp }) {
            self.recency.remove(&old.stamp);
        }
        self.recency.insert(stamp, key);
        self.stats.insertions += 1;
        while self.entries.len() > self.capacity {
            // Unique stamps make the victim unique; `pop_first` on the
            // recency index is the deterministic LRU choice.
            let (_, victim) = self
                .recency
                .pop_first()
                .expect("recency index tracks every entry");
            self.entries.remove(&victim);
            self.stats.evictions += 1;
        }
    }

    /// All entries ordered oldest-touched first.
    ///
    /// This is the persistence order: re-inserting in this order into a
    /// fresh cache reproduces the recency ranking (the last insert is
    /// the most recent, as it was here).
    pub fn entries_by_recency(&self) -> Vec<(CacheKey, CacheValue)> {
        self.recency
            .values()
            .map(|k| (*k, self.entries[k].value.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::Dist;

    fn key(i: u64) -> CacheKey {
        CacheKey {
            fingerprint: 0xfeed,
            kind: ArtifactKind::Path {
                source: i as NodeId,
                target: 0,
            },
        }
    }

    fn val(d: usize) -> CacheValue {
        CacheValue::Diameter(d)
    }

    #[test]
    fn capacity_is_never_exceeded_and_lru_is_evicted() {
        let mut c = ArtifactCache::new(2);
        c.insert(key(0), val(0));
        c.insert(key(1), val(1));
        assert!(c.get(&key(0)).is_some()); // 0 becomes most recent
        c.insert(key(2), val(2)); // evicts 1, the LRU
        assert_eq!(c.len(), 2);
        assert!(c.peek(&key(0)).is_some());
        assert!(c.peek(&key(1)).is_none());
        assert!(c.peek(&key(2)).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn stats_count_hits_misses_insertions() {
        let mut c = ArtifactCache::new(4);
        assert!(c.get(&key(7)).is_none());
        c.insert(key(7), val(3));
        assert!(c.get(&key(7)).is_some());
        assert!(c.get(&key(7)).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions, s.evictions), (2, 1, 1, 0));
        assert_eq!(s.lookups(), 3);
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn replacing_a_key_keeps_one_entry() {
        let mut c = ArtifactCache::new(2);
        c.insert(key(5), val(1));
        c.insert(key(5), val(2));
        assert_eq!(c.len(), 1);
        assert!(matches!(c.peek(&key(5)), Some(CacheValue::Diameter(2))));
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn entries_by_recency_is_oldest_first() {
        let mut c = ArtifactCache::new(8);
        c.insert(key(0), val(0));
        c.insert(key(1), val(1));
        c.insert(key(2), val(2));
        let _ = c.get(&key(0)); // 0 is now the newest
        let order: Vec<CacheKey> = c.entries_by_recency().into_iter().map(|(k, _)| k).collect();
        assert_eq!(order, vec![key(1), key(2), key(0)]);
    }

    #[test]
    fn value_variants_round_trip_through_the_map() {
        let mut c = ArtifactCache::new(4);
        let k = CacheKey {
            fingerprint: 1,
            kind: ArtifactKind::Replacement {
                source: 0,
                target: 3,
                solver: SolverKind::Unweighted,
                params_fp: 9,
                path_fp: 11,
            },
        };
        let answers = Arc::new(ScaledAnswers {
            scaled: vec![Dist::new(4), Dist::INF],
            den: 1,
        });
        c.insert(k, CacheValue::Replacement(answers.clone()));
        match c.get(&k) {
            Some(CacheValue::Replacement(a)) => {
                assert_eq!(a.scaled, answers.scaled);
                assert_eq!(a.den, 1);
            }
            other => panic!("wrong value back: {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_rejected() {
        let _ = ArtifactCache::new(0);
    }
}
