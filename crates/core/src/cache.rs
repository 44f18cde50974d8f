//! The artifact cache of a solver session.
//!
//! Sessions ([`crate::session`]) answer many queries against one
//! immutable graph; the expensive intermediates — shortest paths, the
//! undirected diameter, and whole per-path-edge replacement answers —
//! are pure functions of `(graph, artifact kind, params)`, so they are
//! cached here under a typed [`ArtifactKind`]. A session binds one
//! graph, so the kind alone names an entry; the graph's stable
//! [`fingerprint`](graphkit::DiGraph::fingerprint) is written only into
//! the persisted form. These entries are also the only solver artifacts
//! that persist: `crate::artifacts` encodes each one as a snapshot
//! artifact keyed `cache/…`.
//!
//! The cache is an ordered map plus counters, and it never evicts. A
//! session adds one diameter, and per endpoint pair it is asked about
//! one shortest path and at most one replacement-answers vector; a warm
//! boot adds what the snapshot held. Entries iterate in key order
//! (`ArtifactKind`'s `Ord`), so a save depends only on what the cache
//! holds, not on the order it was filled in. The proptest in
//! `tests/session_differential.rs` checks the map and its counters
//! against a naive model.
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
/// identify it among its kind: the cache key.
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

/// The artifact cache: an ordered map from [`ArtifactKind`] to
/// [`CacheValue`], with cumulative hit/miss/insertion counters.
#[derive(Clone, Debug, Default)]
pub struct ArtifactCache {
    entries: BTreeMap<ArtifactKind, CacheValue>,
    stats: CacheStats,
}

impl ArtifactCache {
    /// Creates an empty cache.
    pub fn new() -> ArtifactCache {
        ArtifactCache::default()
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Cumulative hit/miss/insertion counters (`evictions` stays 0).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up `key`, recording a hit or a miss.
    pub fn get(&mut self, key: &ArtifactKind) -> Option<CacheValue> {
        let value = self.entries.get(key).cloned();
        match value {
            Some(_) => self.stats.hits += 1,
            None => self.stats.misses += 1,
        }
        value
    }

    /// Inserts (or replaces) the entry under `key`.
    pub fn insert(&mut self, key: ArtifactKind, value: CacheValue) {
        self.entries.insert(key, value);
        self.stats.insertions += 1;
    }

    /// Every entry, in key order: the persistence order.
    pub fn entries(&self) -> impl Iterator<Item = (&ArtifactKind, &CacheValue)> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::Dist;

    fn key(i: u64) -> ArtifactKind {
        ArtifactKind::Path {
            source: i as NodeId,
            target: 0,
        }
    }

    fn val(d: usize) -> CacheValue {
        CacheValue::Diameter(d)
    }

    #[test]
    fn stats_count_hits_misses_insertions() {
        let mut c = ArtifactCache::new();
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
        let mut c = ArtifactCache::new();
        c.insert(key(5), val(1));
        c.insert(key(5), val(2));
        assert_eq!(c.len(), 1);
        assert!(matches!(c.get(&key(5)), Some(CacheValue::Diameter(2))));
        assert_eq!(c.stats().insertions, 2);
    }

    #[test]
    fn value_variants_round_trip_through_the_map() {
        let mut c = ArtifactCache::new();
        let k = ArtifactKind::Replacement {
            source: 0,
            target: 3,
            solver: SolverKind::Unweighted,
            params_fp: 9,
            path_fp: 11,
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
}
