//! Differential tests for the solver-session layer: cached answers must
//! be *bit-identical* to one-shot solves — answers and, where phases
//! actually run, full `Metrics` equality (`total`/`phases`/`faults`) —
//! and the artifact cache must behave exactly like a naive map model.
//!
//! Acceptance criteria pinned here:
//! - a batch of Q same-graph failed-edge queries through
//!   `SolverSession::solve_batch` reports a nonzero cache hit rate and
//!   answers bit-identical to Q independent one-shot solves;
//! - a snapshot-persisted cache warm-boots with **zero** recomputed
//!   artifacts (no solver runs, no rounds) for repeated queries;
//! - corruption of persisted cache sections degrades to a cold cache,
//!   never a failed load or a wrong answer, and cache sections saved
//!   under the retired tag 5 load as nothing, so the cache starts cold;
//! - an imported cached diameter, even a wrong one, changes no answer.

use std::path::PathBuf;

use graphkit::alg::replacement_lengths;
use graphkit::gen::{planted_path_digraph, random_weighted_digraph};
use graphkit::Dist;
use proptest::prelude::*;
use rpaths_core::artifacts::cache_artifact;
use rpaths_core::{
    unweighted, weighted, ArtifactCache, ArtifactKind, CacheValue, Instance, Params, Query,
    SolverKind, SolverSession,
};
use rpaths_store::{crc32, Snapshot, FOOTER_MAGIC, TAG_ARTIFACT};

fn unweighted_case() -> (graphkit::DiGraph, usize, usize, Params) {
    let (g, s, t) = planted_path_digraph(40, 12, 100, 7);
    let mut params = Params::with_zeta(40, 5).with_seed(7);
    params.landmark_prob = 1.0;
    (g, s, t, params)
}

/// A temporary directory of one test, removed when it drops. Tests of
/// one binary run in parallel, so each test names its own directory.
struct TempDir(PathBuf);

impl TempDir {
    fn new(test: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("rpaths-session-{}-{test}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
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

    let dir = TempDir::new("warm");
    let path = dir.0.join("warm.snap");
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

    let dir = TempDir::new("corrupt");
    let path = dir.0.join("corrupt.snap");
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
}

/// `bytes` with every artifact section retagged 5, the tag cache
/// entries were saved under before they became plain artifacts, and the
/// section and footer CRCs recomputed.
fn with_retired_cache_tag(bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes[..12].to_vec();
    let mut pos = 12;
    while bytes[pos..pos + 4] != FOOTER_MAGIC {
        let tag = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap()) as usize;
        let start = out.len();
        let tag = if tag == TAG_ARTIFACT { 5 } else { tag };
        out.extend_from_slice(&tag.to_le_bytes());
        out.extend_from_slice(&bytes[pos + 4..pos + 12 + len]);
        let crc = crc32(&out[start..]);
        out.extend_from_slice(&crc.to_le_bytes());
        pos += 12 + len + 4;
    }
    let crc = crc32(&out);
    out.extend_from_slice(&FOOTER_MAGIC);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

#[test]
fn cache_sections_under_the_retired_tag_load_cold() {
    let (g, s, t, params) = unweighted_case();
    let inst = Instance::from_endpoints(&g, s, t).unwrap();
    let queries: Vec<Query> = inst
        .path
        .edges()
        .iter()
        .map(|&e| Query::avoiding(s, t, e))
        .collect();

    let dir = TempDir::new("retired");
    let path = dir.0.join("retired.snap");
    let mut session = SolverSession::new(&g, params.clone());
    let answers = session.solve_batch(&queries).unwrap();
    session.save(&path).unwrap();
    let saved = std::fs::read(&path).unwrap();
    let retired = with_retired_cache_tag(&saved);
    assert_eq!(retired.len(), saved.len());
    assert_ne!(retired, saved, "the session saved cache sections");
    std::fs::write(&path, &retired).unwrap();

    // The file loads whole: the graph, nothing dropped, no artifact.
    let loaded = Snapshot::read(&path).unwrap();
    assert!(loaded.dropped.is_empty(), "{:?}", loaded.dropped);
    assert!(loaded.snapshot.artifacts.is_empty());
    assert_eq!(loaded.snapshot.graph, g);

    // A session warm-boots nothing from it and answers the batch cold,
    // exactly as the oracle does.
    let mut rebooted = SolverSession::new(&g, params);
    assert_eq!(rebooted.warm_boot(&path).unwrap(), 0);
    let again = rebooted.solve_batch(&queries).unwrap();
    assert_eq!(again, answers);
    assert_eq!(rebooted.stats().solver_runs, 1);
    let oracle = replacement_lengths(&g, &inst.path);
    for (i, (a, want)) in again.iter().zip(&oracle).enumerate() {
        assert_eq!((a.scaled, a.den), (*want, 1), "edge {i}");
    }
}

#[test]
fn an_imported_diameter_never_changes_an_answer() {
    // A warm boot imports the cached diameter without recomputing it, and
    // the session hands it to every instance it builds. No solver reads
    // it, so even a wrong value leaves the answers exact.
    let (g, s, t, params) = unweighted_case();
    let inst = Instance::from_endpoints(&g, s, t).unwrap();
    let queries: Vec<Query> = inst
        .path
        .edges()
        .iter()
        .map(|&e| Query::avoiding(s, t, e))
        .collect();
    let mut session = SolverSession::new(&g, params);
    let wrong = cache_artifact(
        g.fingerprint(),
        &ArtifactKind::Diameter,
        &CacheValue::Diameter(999),
    );
    assert_eq!(session.import_artifacts(&[wrong]), 1);
    let answers = session.solve_batch(&queries).unwrap();
    let oracle = replacement_lengths(&g, &inst.path);
    for (i, (a, want)) in answers.iter().zip(&oracle).enumerate() {
        assert_eq!((a.scaled, a.den), (*want, 1), "edge {i}");
    }
}

// ---------------------------------------------------------------------
// The cache against a naive map model
// ---------------------------------------------------------------------

/// A cache op over a small key space. Generated as a raw `u64` (the
/// vendored proptest subset has no `prop_oneof`): even codes are gets,
/// odd codes are inserts, each over keys `0..24`.
#[derive(Clone, Copy, Debug)]
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

/// Key `i`: the diameter, paths and replacement answers all appear,
/// so key order is checked across kinds as well as within them.
fn key_for(i: u64) -> ArtifactKind {
    let (source, target) = (i as usize / 2, 0);
    match i {
        0 => ArtifactKind::Diameter,
        _ if i.is_multiple_of(2) => ArtifactKind::Path { source, target },
        _ => ArtifactKind::Replacement {
            source,
            target,
            solver: SolverKind::Unweighted,
            params_fp: 0,
            path_fp: 0,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The cache is an ordered map plus counters. A naive model, a list
    /// of `(key, value)` pairs and three counters, agrees with it on
    /// every get's hit or miss and value, on the keys held, in key
    /// order, after every op, and on every counter; nothing is evicted.
    #[test]
    fn cache_matches_naive_map_model(codes in proptest::collection::vec(0u64..48, 1..160)) {
        let mut cache = ArtifactCache::new();
        let mut model: Vec<(ArtifactKind, usize)> = Vec::new();
        let (mut hits, mut misses, mut insertions) = (0u64, 0u64, 0u64);
        for (step, op) in codes.iter().map(|&c| decode_op(c)).enumerate() {
            match op {
                Op::Get(i) => {
                    let got = cache.get(&key_for(i)).map(|v| match v {
                        CacheValue::Diameter(v) => v,
                        other => panic!("a value the model never inserted: {other:?}"),
                    });
                    let want = model.iter().find(|e| e.0 == key_for(i)).map(|e| e.1);
                    prop_assert_eq!(got, want, "get diverged on {:?}", op);
                    if want.is_some() {
                        hits += 1;
                    } else {
                        misses += 1;
                    }
                }
                Op::Insert(i) => {
                    cache.insert(key_for(i), CacheValue::Diameter(step));
                    model.retain(|e| e.0 != key_for(i));
                    model.push((key_for(i), step));
                    insertions += 1;
                }
            }
            let mut model_keys: Vec<ArtifactKind> = model.iter().map(|e| e.0).collect();
            model_keys.sort();
            let keys: Vec<ArtifactKind> = cache.entries().map(|(k, _)| *k).collect();
            prop_assert_eq!(keys, model_keys, "keys or key order diverged");
            let s = cache.stats();
            prop_assert_eq!(
                (s.hits, s.misses, s.insertions, s.evictions),
                (hits, misses, insertions, 0)
            );
        }
    }
}
