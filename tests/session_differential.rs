//! Differential tests for the solver-session layer: cached answers must
//! be *bit-identical* to one-shot solves — answers and, where phases
//! actually run, full `Metrics` equality (`total`/`phases`/`faults`) —
//! and the deterministic LRU cache must behave exactly like its naive
//! model.
//!
//! Acceptance criteria pinned here:
//! - a batch of Q same-graph failed-edge queries through
//!   `SolverSession::solve_batch` reports a nonzero cache hit rate and
//!   answers bit-identical to Q independent one-shot solves;
//! - a snapshot-persisted cache warm-boots with **zero** recomputed
//!   artifacts (no solver runs, no rounds) for repeated queries;
//! - corruption of persisted cache sections degrades to a cold cache,
//!   never a failed load or a wrong answer.

use std::path::PathBuf;

use graphkit::alg::replacement_lengths;
use graphkit::gen::{planted_path_digraph, random_weighted_digraph};
use graphkit::Dist;
use proptest::prelude::*;
use rpaths_core::{
    unweighted, weighted, ArtifactCache, CacheKey, Instance, Params, Query, SolverSession,
};

fn unweighted_case() -> (graphkit::DiGraph, usize, usize, Params) {
    let (g, s, t) = planted_path_digraph(40, 12, 100, 7);
    let mut params = Params::with_zeta(40, 5).with_seed(7);
    params.landmark_prob = 1.0;
    (g, s, t, params)
}

fn temp_snapshot(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rpaths-session-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn batch_is_bit_identical_to_one_shot_solves() {
    let (g, s, t, params) = unweighted_case();
    let inst = Instance::from_endpoints(&g, s, t).unwrap();
    let reference = unweighted::solve(&inst, &params).unwrap();
    let oracle = replacement_lengths(&g, &inst.path);
    assert_eq!(reference.replacement, oracle);

    let mut session = SolverSession::new(&g, params.clone());
    let mut queries: Vec<Query> = inst
        .path
        .edges()
        .iter()
        .map(|&e| Query::avoiding(s, t, e))
        .collect();
    queries.push(Query::intact(s, t));

    let answers = session.solve_batch(&queries).unwrap();
    for (i, a) in answers[..inst.hops()].iter().enumerate() {
        assert_eq!(a.scaled, reference.replacement[i], "edge {i}");
        assert_eq!(a.den, 1);
    }
    assert_eq!(
        answers[inst.hops()].scaled,
        Dist::new(inst.hops() as u64),
        "intact query answers |P|"
    );

    // Full Metrics equality where phases ran: the batch executed exactly
    // one cold solve, and the one-shot reference is that same cold solve.
    // (`Metrics` equality covers total/phases/faults; dispatch telemetry
    // is excluded by design, and cache counters live on SessionStats.)
    let cold = session.take_metrics();
    assert_eq!(cold, reference.metrics);
    assert_eq!(session.stats().solver_runs, 1);

    // The warm repeat: bit-identical answers, zero new phases, and new
    // cache hits reported in the session's CacheStats.
    let hits_before = session.stats().cache.hits;
    let again = session.solve_batch(&queries).unwrap();
    assert_eq!(again, answers, "warm");
    let warm = session.take_metrics();
    assert_eq!(warm.rounds(), 0, "warm batch ran no rounds");
    assert!(warm.phases.is_empty(), "warm batch ran no phases");
    assert!(
        session.stats().cache.hits > hits_before,
        "warm batch must hit the cache"
    );
    assert!(session.stats().cache.hit_rate() > 0.0);
    assert_eq!(session.stats().solver_runs, 1, "no recomputation");
}

#[test]
fn weighted_batch_is_bit_identical_to_one_shot_solves() {
    let g = random_weighted_digraph(30, 110, 9, 3);
    let (s, t) = graphkit::gen::random_reachable_pair(&g, 5).unwrap();
    let inst = Instance::from_endpoints(&g, s, t).unwrap();
    assert!(inst.hops() >= 3, "instance too small to be interesting");
    let mut params = Params::with_zeta(30, 5).with_seed(3);
    params.landmark_prob = 1.0;
    let reference = weighted::solve(&inst, &params).unwrap();

    let mut session = SolverSession::new(&g, params.clone());
    let queries: Vec<Query> = inst
        .path
        .edges()
        .iter()
        .map(|&e| Query::avoiding(s, t, e))
        .collect();
    let answers = session.solve_batch(&queries).unwrap();
    for (i, a) in answers.iter().enumerate() {
        assert_eq!(a.scaled, reference.scaled[i], "edge {i}");
        assert_eq!(a.den, reference.den, "edge {i}");
    }
    assert_eq!(session.take_metrics(), reference.metrics);

    let again = session.solve_batch(&queries).unwrap();
    assert_eq!(again, answers);
    assert_eq!(session.metrics().rounds(), 0);
    assert!(session.stats().cache.hit_rate() > 0.0);
}

#[test]
fn persisted_cache_warm_boots_with_zero_recomputed_artifacts() {
    let (g, s, t, params) = unweighted_case();
    let inst = Instance::from_endpoints(&g, s, t).unwrap();
    let queries: Vec<Query> = inst
        .path
        .edges()
        .iter()
        .map(|&e| Query::avoiding(s, t, e))
        .collect();

    let path = temp_snapshot("warm.snap");
    let mut warm_session = SolverSession::new(&g, params.clone());
    let answers = warm_session.solve_batch(&queries).unwrap();
    warm_session.save(&path).unwrap();
    assert!(!warm_session.cache().is_empty());

    // A fresh session warm-boots and answers the same batch with zero
    // recomputed artifacts: no solver runs, no rounds, pure cache hits.
    let mut cold_session = SolverSession::new(&g, params.clone());
    let imported = cold_session.warm_boot(&path).unwrap();
    assert_eq!(imported, warm_session.cache().len());
    let again = cold_session.solve_batch(&queries).unwrap();
    assert_eq!(again, answers);
    assert_eq!(cold_session.stats().solver_runs, 0, "nothing recomputed");
    assert_eq!(cold_session.metrics().rounds(), 0, "no phases ran");
    assert!(cold_session.stats().cache.hits > 0);

    // A snapshot of a *different* graph imports nothing (and is not an
    // error either).
    let (other, ..) = planted_path_digraph(41, 12, 100, 8);
    let mut mismatched = SolverSession::new(&other, params.clone());
    assert_eq!(mismatched.warm_boot(&path).unwrap(), 0);

    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupt_cache_sections_degrade_to_cold_never_fail() {
    let (g, s, t, params) = unweighted_case();
    let inst = Instance::from_endpoints(&g, s, t).unwrap();
    let queries: Vec<Query> = inst
        .path
        .edges()
        .iter()
        .map(|&e| Query::avoiding(s, t, e))
        .collect();

    let path = temp_snapshot("corrupt.snap");
    let mut session = SolverSession::new(&g, params.clone());
    let answers = session.solve_batch(&queries).unwrap();
    session.save(&path).unwrap();

    // Corrupt a byte inside a cache section: every persisted cache key
    // starts with "cache/", so flipping a byte of that string breaks
    // exactly one cache section's checksum, never the graph's.
    let mut bytes = std::fs::read(&path).unwrap();
    let pos = bytes
        .windows(6)
        .position(|w| w == b"cache/")
        .expect("snapshot holds cache sections");
    bytes[pos] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();

    let mut rebooted = SolverSession::new(&g, params.clone());
    let imported = rebooted.warm_boot(&path).unwrap();
    assert!(
        imported < session.cache().len(),
        "the corrupted section must not be imported"
    );
    // The colder session still answers correctly — it recomputes what
    // the corruption cost it.
    let again = rebooted.solve_batch(&queries).unwrap();
    assert_eq!(again, answers);

    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------
// Deterministic LRU proptests
// ---------------------------------------------------------------------

/// A cache op over a small key space. Generated as a raw `u64` (the
/// vendored proptest subset has no `prop_oneof`): even codes are gets,
/// odd codes are inserts, each over keys `0..24`.
#[derive(Clone, Debug)]
enum Op {
    Get(u64),
    Insert(u64),
}

fn decode_op(code: u64) -> Op {
    if code.is_multiple_of(2) {
        Op::Get(code / 2)
    } else {
        Op::Insert(code / 2)
    }
}

fn key_for(i: u64) -> CacheKey {
    CacheKey {
        fingerprint: 0xfeed_f00d,
        kind: rpaths_core::ArtifactKind::Path {
            source: i as usize,
            target: 0,
        },
    }
}

fn apply(cache: &mut ArtifactCache, ops: &[Op]) -> Vec<CacheKey> {
    let mut trace = Vec::new();
    for op in ops {
        match op {
            Op::Get(i) => {
                let _ = cache.get(&key_for(*i));
            }
            Op::Insert(i) => {
                cache.insert(key_for(*i), rpaths_core::CacheValue::Diameter(*i as usize));
            }
        }
        trace.extend(cache.entries_by_recency().into_iter().map(|(k, _)| k));
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Two caches fed the same op sequence agree on *everything*:
    /// contents, recency order after every step, and all counters.
    /// (This is the determinism the persistence format and the
    /// engine-equivalence story rely on.)
    #[test]
    fn lru_is_deterministic(
        codes in proptest::collection::vec(0u64..48, 1..120),
        cap in 1usize..8,
    ) {
        let ops: Vec<Op> = codes.iter().map(|&c| decode_op(c)).collect();
        let mut a = ArtifactCache::new(cap);
        let mut b = ArtifactCache::new(cap);
        let trace_a = apply(&mut a, &ops);
        let trace_b = apply(&mut b, &ops);
        prop_assert_eq!(trace_a, trace_b);
        prop_assert_eq!(a.len(), b.len());
        let (sa, sb) = (a.stats(), b.stats());
        prop_assert_eq!(
            (sa.hits, sa.misses, sa.insertions, sa.evictions),
            (sb.hits, sb.misses, sb.insertions, sb.evictions)
        );
    }

    /// Capacity is a hard bound, and eviction follows the textbook LRU
    /// model: a naive Vec-based model and the BTreeMap implementation
    /// hold exactly the same keys at every step.
    #[test]
    fn lru_matches_naive_model_and_never_exceeds_capacity(
        codes in proptest::collection::vec(0u64..48, 1..160),
        cap in 1usize..6,
    ) {
        let ops: Vec<Op> = codes.iter().map(|&c| decode_op(c)).collect();
        let mut cache = ArtifactCache::new(cap);
        // The model: most-recent at the back.
        let mut model: Vec<u64> = Vec::new();
        for op in &ops {
            match op {
                Op::Get(i) => {
                    let hit = cache.get(&key_for(*i)).is_some();
                    let model_hit = model.contains(i);
                    prop_assert_eq!(hit, model_hit, "hit status diverged on {:?}", op);
                    if model_hit {
                        model.retain(|k| k != i);
                        model.push(*i);
                    }
                }
                Op::Insert(i) => {
                    cache.insert(key_for(*i), rpaths_core::CacheValue::Diameter(*i as usize));
                    model.retain(|k| k != i);
                    model.push(*i);
                    if model.len() > cap {
                        model.remove(0); // evict the least recently used
                    }
                }
            }
            prop_assert!(cache.len() <= cap, "capacity exceeded: {} > {cap}", cache.len());
            prop_assert_eq!(cache.len(), model.len());
            let keys: Vec<CacheKey> =
                cache.entries_by_recency().into_iter().map(|(k, _)| k).collect();
            let model_keys: Vec<CacheKey> = model.iter().map(|&i| key_for(i)).collect();
            prop_assert_eq!(keys, model_keys, "recency order diverged");
        }
    }
}
