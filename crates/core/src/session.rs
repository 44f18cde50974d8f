//! Solver sessions: the plan/execute layer over the network-level
//! solvers.
//!
//! A [`SolverSession`] binds one immutable graph and answers failed-edge
//! queries against it. Each [`Query`] `{ source, target, avoid }` is
//! *planned* into the artifacts it needs — the shortest `s`-`t` path,
//! the undirected diameter, and (only when the avoided edge actually
//! lies on that path) a full per-path-edge replacement solve — and the
//! artifacts are satisfied through the session's [`ArtifactCache`]. A
//! batch of Q queries over the same endpoint pair therefore costs
//! **one** solver run (whose `multi_bfs`/knowledge phases are shared by
//! construction) instead of Q, and repeated batches cost zero runs.
//!
//! **Determinism contract.** A cache hit returns the same
//! [`ScaledAnswers`] the cold run produced, and a cold run is the
//! solver's `solve_on` on a fresh [`Network`] — exactly what the
//! one-shot `solve` entry points run through [`crate::with_network`] —
//! so answers, and full [`Metrics`] equality (`total`/`phases`/`faults`)
//! where phases run, are bit-identical between `solve_batch` and Q
//! independent one-shot solves. The differential suite in
//! `tests/session_differential.rs` asserts this. Cache counters live on
//! [`SessionStats`], never in [`Metrics`].
//!
//! **Persistence.** The session cache is the only persisted solver
//! artifact: [`SolverSession::save`] writes the graph plus one artifact
//! per cache entry, in key order, as an `rpaths-store` snapshot (codec
//! in [`crate::artifacts`]); each entry carries the graph's
//! fingerprint. [`SolverSession::warm_boot`] reloads them, skipping
//! (never failing on) entries that are corrupt, mis-fingerprinted, or
//! shaped wrong — a damaged cache degrades to a cold one, as the store
//! itself drops damaged sections and keeps the graph.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

use congest::{Metrics, Network};
use graphkit::alg::{shortest_st_path, undirected_diameter};
use graphkit::{fnv1a, DiGraph, Dist, EdgeId, NodeId, StPath};
use rpaths_store::{Snapshot, StoreError};

use crate::artifacts::{cache_artifact, cache_entry_from};
use crate::cache::{ArtifactCache, ArtifactKind, CacheValue, SolverKind};
use crate::instance::check_endpoints;
use crate::weighted::ScaledAnswers;
use crate::{unweighted, weighted, Instance, InstanceError, Params, SolveError};

pub use congest::CacheStats;

/// One failed-edge query: the length of a shortest `source → target`
/// path in `G \ avoid` (or in `G` itself when `avoid` is `None`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Query {
    /// Path source.
    pub source: NodeId,
    /// Path target.
    pub target: NodeId,
    /// The failed edge, if any.
    pub avoid: Option<EdgeId>,
}

impl Query {
    /// A query with no failed edge (plain shortest-path length).
    pub fn intact(source: NodeId, target: NodeId) -> Query {
        Query {
            source,
            target,
            avoid: None,
        }
    }

    /// A query avoiding `edge`.
    pub fn avoiding(source: NodeId, target: NodeId, edge: EdgeId) -> Query {
        Query {
            source,
            target,
            avoid: Some(edge),
        }
    }
}

/// One query's answer, as an exact scaled rational `scaled / den`
/// (`den = 1` for exact solvers; the weighted solver's `(1+ε)` scaling
/// otherwise — see [`crate::weighted`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Answer {
    /// Scaled numerator (`Dist::INF` when no replacement path exists).
    pub scaled: Dist,
    /// Denominator.
    pub den: u64,
}

impl Answer {
    /// The "no path" answer.
    pub fn unreachable() -> Answer {
        Answer {
            scaled: Dist::INF,
            den: 1,
        }
    }

    /// `true` when a path exists.
    pub fn is_finite(&self) -> bool {
        self.scaled.is_finite()
    }

    /// The exact integral length, when the answer is exact (`den = 1`)
    /// and finite.
    pub fn exact(&self) -> Option<u64> {
        if self.den == 1 {
            self.scaled.finite()
        } else {
            None
        }
    }

    /// The answer as a float (∞ for unreachable).
    pub fn value(&self) -> f64 {
        match self.scaled.finite() {
            Some(v) => v as f64 / self.den as f64,
            None => f64::INFINITY,
        }
    }
}

/// Why a session could not answer a batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// Building the problem instance failed (disconnected communication
    /// graph, invalid path).
    Instance(InstanceError),
    /// The underlying solver failed.
    Solve(SolveError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Instance(e) => write!(f, "cannot build instance: {e}"),
            SessionError::Solve(e) => write!(f, "solver failed: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<InstanceError> for SessionError {
    fn from(e: InstanceError) -> SessionError {
        SessionError::Instance(e)
    }
}

impl From<SolveError> for SessionError {
    fn from(e: SolveError) -> SessionError {
        SessionError::Solve(e)
    }
}

/// Session-level telemetry.
#[derive(Clone, Copy, Debug, Default)]
pub struct SessionStats {
    /// Queries answered (across all batches).
    pub queries: u64,
    /// Cold solver runs actually executed (each covers every path edge
    /// of its instance, so this is the count the cache saves on).
    pub solver_runs: u64,
    /// The cache's cumulative counters.
    pub cache: CacheStats,
}

/// A solver session: one graph, one artifact cache, many queries.
///
/// See the [module docs](self) for the plan/execute model and the
/// determinism/persistence contracts.
pub struct SolverSession<'g> {
    graph: &'g DiGraph,
    fingerprint: u64,
    params: Params,
    solver: SolverKind,
    cache: ArtifactCache,
    stats: SessionStats,
    metrics: Metrics,
}

impl<'g> SolverSession<'g> {
    /// Creates a session over `graph` with an empty cache.
    ///
    /// The session solves with Theorem 1 on unweighted graphs and
    /// Theorem 3 on weighted ones.
    pub fn new(graph: &'g DiGraph, params: Params) -> SolverSession<'g> {
        let solver = if graph.is_unweighted() {
            SolverKind::Unweighted
        } else {
            SolverKind::Weighted
        };
        SolverSession {
            graph,
            fingerprint: graph.fingerprint(),
            params,
            solver,
            cache: ArtifactCache::new(),
            stats: SessionStats::default(),
            metrics: Metrics::default(),
        }
    }

    /// The bound graph's stable fingerprint, written into every
    /// persisted cache entry.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Session telemetry (including the cache's counters).
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            cache: self.cache.stats(),
            ..self.stats
        }
    }

    /// Read access to the artifact cache.
    pub fn cache(&self) -> &ArtifactCache {
        &self.cache
    }

    /// Accumulated engine metrics of every cold phase the session ran.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Takes (and resets) the accumulated metrics.
    pub fn take_metrics(&mut self) -> Metrics {
        std::mem::take(&mut self.metrics)
    }

    /// The undirected diameter of the communication graph, cached.
    ///
    /// # Errors
    ///
    /// [`SessionError::Instance`] with [`InstanceError::Disconnected`]
    /// when the graph is disconnected.
    pub fn diameter(&mut self) -> Result<usize, SessionError> {
        let key = ArtifactKind::Diameter;
        if let Some(CacheValue::Diameter(d)) = self.cache.get(&key) {
            return Ok(d);
        }
        let d = undirected_diameter(self.graph).ok_or(InstanceError::Disconnected)?;
        self.cache.insert(key, CacheValue::Diameter(d));
        Ok(d)
    }

    /// A shortest `source → target` path, cached (including the
    /// negative "unreachable" result).
    pub fn shortest_path(&mut self, source: NodeId, target: NodeId) -> Option<StPath> {
        let key = ArtifactKind::Path { source, target };
        if let Some(CacheValue::Path(p)) = self.cache.get(&key) {
            return p;
        }
        let p = shortest_st_path(self.graph, source, target);
        self.cache.insert(key, CacheValue::Path(p.clone()));
        p
    }

    /// Solves one full instance through the cache: a hit returns the
    /// stored answers with empty metrics (no phases ran), a miss runs
    /// `solver` cold through [`crate::with_network`] — exactly like the
    /// one-shot entry points — and stores the result.
    fn solve_instance(
        &mut self,
        inst: &Instance<'_>,
        params: &Params,
        solver: SolverKind,
    ) -> Result<(Arc<ScaledAnswers>, Metrics), SolveError> {
        let key = ArtifactKind::Replacement {
            source: inst.s(),
            target: inst.t(),
            solver,
            params_fp: params_fingerprint(params),
            path_fp: path_fingerprint(&inst.path),
        };
        if let Some(CacheValue::Replacement(arc)) = self.cache.get(&key) {
            // Defensive: a warm-booted entry that survived checksums but
            // does not fit this instance is recomputed, never trusted.
            if arc.scaled.len() == inst.hops() {
                return Ok((arc, Metrics::default()));
            }
        }
        let (answers, metrics) =
            crate::with_network(self.graph, |net| run_cold(net, inst, params, solver))?;
        let arc = Arc::new(answers);
        self.cache.insert(key, CacheValue::Replacement(arc.clone()));
        self.stats.solver_runs += 1;
        Ok((arc, metrics))
    }

    /// Answers a batch of failed-edge queries.
    ///
    /// Queries are grouped by `(source, target)`; each group costs at
    /// most one replacement solve (cached across batches), and queries
    /// whose avoided edge is off the shortest path — or absent — are
    /// answered from the path alone. Answers come back in input order.
    ///
    /// # Errors
    ///
    /// [`SessionError::Instance`] when a query's endpoint is not a node
    /// of the graph (checked for every query before any work) or the
    /// communication graph is disconnected; [`SessionError::Solve`] when
    /// a solver fails. Unreachable `(source, target)` pairs are *not*
    /// errors — they answer [`Answer::unreachable`].
    pub fn solve_batch(&mut self, queries: &[Query]) -> Result<Vec<Answer>, SessionError> {
        for q in queries {
            check_endpoints(self.graph, q.source, q.target)?;
        }
        self.stats.queries += queries.len() as u64;
        let params = self.params.clone();
        let solver = self.solver;

        let mut groups: BTreeMap<(NodeId, NodeId), Vec<usize>> = BTreeMap::new();
        for (i, q) in queries.iter().enumerate() {
            groups.entry((q.source, q.target)).or_default().push(i);
        }

        let mut answers = vec![Answer::unreachable(); queries.len()];
        for ((s, t), idxs) in groups {
            if s == t {
                // Zero-length path: no edge of it can fail, so every
                // query (with or without a failed edge) answers 0.
                for &i in &idxs {
                    answers[i] = Answer {
                        scaled: Dist::new(0),
                        den: 1,
                    };
                }
                continue;
            }
            let Some(path) = self.shortest_path(s, t) else {
                continue; // unreachable pair: all its queries stay ∞
            };
            let base = Answer {
                scaled: path.length(self.graph),
                den: 1,
            };
            let mut need_solver = false;
            for &i in &idxs {
                match queries[i].avoid.and_then(|e| path_edge_index(&path, e)) {
                    Some(_) => need_solver = true,
                    // avoid ∉ P (or no failure): P itself survives, so
                    // the shortest length is |P|.
                    None => answers[i] = base,
                }
            }
            if !need_solver {
                continue;
            }
            let diameter = self.diameter()?;
            let inst = Instance::with_parts(self.graph, path.clone(), diameter)?;
            let (repl, mut m) = self.solve_instance(&inst, &params, solver)?;
            self.metrics.merge_from(&mut m);
            for &i in &idxs {
                if let Some(j) = queries[i].avoid.and_then(|e| path_edge_index(&path, e)) {
                    answers[i] = Answer {
                        scaled: repl.scaled[j],
                        den: repl.den,
                    };
                }
            }
        }
        Ok(answers)
    }

    // -----------------------------------------------------------------
    // Persistence
    // -----------------------------------------------------------------

    /// Encodes every cache entry as a typed cache artifact, in key
    /// order.
    pub fn export_artifacts(&self) -> Vec<rpaths_store::Artifact> {
        self.cache
            .entries()
            .map(|(kind, value)| cache_artifact(self.fingerprint, kind, value))
            .collect()
    }

    /// Imports persisted cache artifacts, returning how many were
    /// accepted. Artifacts that are not cache entries, fail to decode,
    /// or carry a different graph fingerprint are skipped — a damaged
    /// cache warms partially or not at all, it never errors.
    pub fn import_artifacts(&mut self, artifacts: &[rpaths_store::Artifact]) -> usize {
        let mut imported = 0;
        for a in artifacts {
            let Ok(entry) = cache_entry_from(a, self.graph) else {
                continue;
            };
            if entry.fingerprint != self.fingerprint {
                continue;
            }
            self.cache.insert(entry.kind, entry.value);
            imported += 1;
        }
        imported
    }

    /// Atomically writes the graph plus the whole cache as one
    /// `rpaths-store` snapshot.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        Snapshot {
            graph: self.graph.clone(),
            artifacts: self.export_artifacts(),
        }
        .write(path)
    }

    /// Warm-boots the cache from a snapshot, returning how many entries
    /// were imported.
    ///
    /// Partial loads are fine (corrupt sections were already dropped by
    /// the store); a snapshot of a *different* graph imports nothing.
    ///
    /// # Errors
    ///
    /// Only structural failures before the graph is recovered
    /// ([`StoreError`]); artifact corruption degrades to a colder cache.
    pub fn warm_boot(&mut self, path: impl AsRef<Path>) -> Result<usize, StoreError> {
        let snapshot = Snapshot::read(path)?.snapshot;
        if snapshot.graph != *self.graph {
            return Ok(0);
        }
        Ok(self.import_artifacts(&snapshot.artifacts))
    }
}

/// Runs `solver` cold on `net` — the single dispatch point from
/// [`SolverKind`] to the network-level `solve_on` implementations.
/// Theorem 1's exact answers come back as [`ScaledAnswers`] with
/// `den = 1`.
fn run_cold(
    net: &mut Network<'_>,
    inst: &Instance<'_>,
    params: &Params,
    solver: SolverKind,
) -> Result<ScaledAnswers, SolveError> {
    match solver {
        SolverKind::Unweighted => {
            unweighted::solve_on(net, inst, params).map(|scaled| ScaledAnswers { scaled, den: 1 })
        }
        SolverKind::Weighted => weighted::solve_on(net, inst, params),
    }
}

/// Index of `e` on `path`, if it is a path edge.
fn path_edge_index(path: &StPath, e: EdgeId) -> Option<usize> {
    path.edges().iter().position(|&pe| pe == e)
}

/// Stable fingerprint of every [`Params`] field that can change a
/// solver's answers or round profile: [`fnv1a`] over their
/// little-endian `u64` words.
pub fn params_fingerprint(p: &Params) -> u64 {
    let words = [
        p.zeta as u64,
        p.landmark_prob.to_bits(),
        p.seed,
        p.eps_num,
        p.eps_den,
        p.budget_factor,
    ];
    fnv1a(words.into_iter().flat_map(u64::to_le_bytes))
}

/// Stable fingerprint of a path's exact edge sequence: [`fnv1a`] over
/// the edge ids as little-endian `u64` words.
pub fn path_fingerprint(path: &StPath) -> u64 {
    fnv1a(path.edges().iter().flat_map(|&e| (e as u64).to_le_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::alg::replacement_lengths;
    use graphkit::gen::{parallel_lane, planted_path_digraph};

    fn lane_session() -> (graphkit::DiGraph, NodeId, NodeId) {
        parallel_lane(12, 3, 2)
    }

    #[test]
    fn batch_matches_oracle_and_reports_hits() {
        let (g, s, t) = lane_session();
        let mut params = Params::with_zeta(g.node_count(), 4);
        params.landmark_prob = 1.0;
        let mut session = SolverSession::new(&g, params);
        let inst = Instance::from_endpoints(&g, s, t).unwrap();
        let oracle = replacement_lengths(&g, &inst.path);

        let queries: Vec<Query> = inst
            .path
            .edges()
            .iter()
            .map(|&e| Query::avoiding(s, t, e))
            .collect();
        let answers = session.solve_batch(&queries).unwrap();
        for (i, a) in answers.iter().enumerate() {
            assert_eq!(a.scaled, oracle[i], "edge {i}");
            assert_eq!(a.den, 1);
        }
        // One path lookup + one solver run covered every query.
        assert_eq!(session.stats().solver_runs, 1);

        // A second identical batch is answered entirely from the cache.
        let runs_before = session.stats().solver_runs;
        let again = session.solve_batch(&queries).unwrap();
        assert_eq!(again, answers);
        assert_eq!(session.stats().solver_runs, runs_before);
        assert!(session.stats().cache.hits > 0);
        assert!(session.stats().cache.hit_rate() > 0.0);
    }

    #[test]
    fn off_path_and_intact_queries_answer_path_length() {
        let (g, s, t) = planted_path_digraph(30, 8, 60, 3);
        let mut session = SolverSession::new(&g, Params::for_n(30));
        let path = session.shortest_path(s, t).unwrap();
        let off_path = (0..g.edge_count() as EdgeId)
            .find(|&e| !path.contains_edge(e))
            .expect("some edge off the path");
        let answers = session
            .solve_batch(&[Query::intact(s, t), Query::avoiding(s, t, off_path)])
            .unwrap();
        assert_eq!(answers[0], answers[1]);
        assert_eq!(answers[0].scaled, path.length(&g));
        // No avoided edge lay on P, so no solver ran at all.
        assert_eq!(session.stats().solver_runs, 0);
    }

    #[test]
    fn fingerprints_distinguish_params_and_paths() {
        let a = Params::with_zeta(100, 5);
        let b = Params::with_zeta(100, 6);
        assert_ne!(params_fingerprint(&a), params_fingerprint(&b));
        assert_eq!(params_fingerprint(&a), params_fingerprint(&a.clone()));
        let (g, s, t) = parallel_lane(6, 2, 1);
        let p = shortest_st_path(&g, s, t).unwrap();
        assert_eq!(path_fingerprint(&p), path_fingerprint(&p));
        // Stable: persisted cache entries carry these values, as they
        // carry the graph fingerprints graphkit pins, so a change
        // orphans every cache already saved.
        assert_eq!(
            params_fingerprint(&Params::for_n(100)),
            0x8c5c_ecfd_b0b1_3146
        );
        assert_eq!(p.edges(), [0, 1, 2, 3, 4, 5]);
        assert_eq!(path_fingerprint(&p), 0x0703_461c_0702_5044);
    }

    #[test]
    fn diameter_is_cached() {
        let (g, _, _) = parallel_lane(8, 2, 1);
        let mut session = SolverSession::new(&g, Params::for_n(g.node_count()));
        let d1 = session.diameter().unwrap();
        let d2 = session.diameter().unwrap();
        assert_eq!(d1, d2);
        let st = session.stats().cache;
        assert_eq!((st.hits, st.misses, st.insertions), (1, 1, 1));
    }
}
