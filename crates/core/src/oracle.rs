//! Ground-truth oracle adapters for differential testing.
//!
//! Every solver in this workspace has a centralized counterpart in
//! `graphkit::alg` (Dijkstra, BFS, [`replacement_lengths`],
//! [`second_simple_shortest`]). This module packages "run solver X and
//! compare against its oracle" as one call per solver kind, returning a
//! structured [`Divergence`] instead of panicking — the building block
//! the `rpaths-fuzz` harness, the regression-fixture replayer
//! ([`crate::fixture`]), and ad-hoc differential tests all share.
//!
//! The checks are *semantic*, per solver contract:
//!
//! - exact solvers (Theorem 1, naive, MR24) must equal
//!   [`replacement_lengths`] bit for bit;
//! - the weighted solver (Theorem 3) must satisfy the exact-rational
//!   `oracle ≤ x ≤ (1+ε)·oracle` guarantee;
//! - 2-SiSP must equal [`second_simple_shortest`];
//! - reachability must equal the oracle's finiteness profile;
//! - batch answers must match a per-query filtered Dijkstra.

use std::fmt;

use graphkit::alg::{dijkstra, replacement_lengths, second_simple_shortest};
use graphkit::{DiGraph, Dist};

use crate::session::{Answer, Query};
use crate::{baseline, reachability, sisp, unweighted, weighted, Instance, Params};

/// Every solver surface the differential harness can drive — a superset
/// of [`crate::SolverKind`] (which only names the session-cacheable
/// replacement solvers).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FuzzSolver {
    /// Theorem 1 exact unweighted solver.
    Unweighted,
    /// Theorem 3 `(1+ε)`-approximate weighted solver.
    Weighted,
    /// 2-SiSP (Definition 2.3) on the unweighted solver.
    Sisp,
    /// Replacement reachability (Section 8).
    Reachability,
    /// The trivial per-edge baseline.
    Naive,
    /// Manoharan–Ramachandran (SIROCCO 2024) baseline.
    Mr24,
}

impl FuzzSolver {
    /// Every solver, in stable order.
    pub const ALL: [FuzzSolver; 6] = [
        FuzzSolver::Unweighted,
        FuzzSolver::Weighted,
        FuzzSolver::Sisp,
        FuzzSolver::Reachability,
        FuzzSolver::Naive,
        FuzzSolver::Mr24,
    ];

    /// Stable name (fixture files, CLI flags, logs).
    pub fn name(self) -> &'static str {
        match self {
            FuzzSolver::Unweighted => "unweighted",
            FuzzSolver::Weighted => "weighted",
            FuzzSolver::Sisp => "sisp",
            FuzzSolver::Reachability => "reachability",
            FuzzSolver::Naive => "naive",
            FuzzSolver::Mr24 => "mr24",
        }
    }

    /// Parses [`FuzzSolver::name`] back.
    pub fn parse(name: &str) -> Option<FuzzSolver> {
        FuzzSolver::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Whether this solver only accepts unweighted graphs (the Theorem 1
    /// machinery and everything built on it asserts unit weights).
    pub fn needs_unweighted(self) -> bool {
        !matches!(self, FuzzSolver::Weighted | FuzzSolver::Reachability)
    }
}

impl fmt::Display for FuzzSolver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A solver answer that disagrees with its ground-truth oracle (or a
/// solver failure on an input the oracle can answer).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// Which comparison failed, e.g. `"unweighted vs replacement_lengths"`.
    pub check: String,
    /// Offending index (path-edge or query position), when localized.
    pub index: Option<usize>,
    /// What the solver produced.
    pub got: String,
    /// What the oracle says.
    pub want: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.check)?;
        if let Some(i) = self.index {
            write!(f, " at index {i}")?;
        }
        write!(f, ": got {}, want {}", self.got, self.want)
    }
}

fn fmt_dist(d: Dist) -> String {
    match d.finite() {
        Some(v) => v.to_string(),
        None => "∞".into(),
    }
}

/// The exact replacement-length oracle for an instance (per path edge;
/// `∞` where `t` is unreachable after the failure).
pub fn oracle_replacements(inst: &Instance<'_>) -> Vec<Dist> {
    replacement_lengths(inst.graph, &inst.path)
}

/// The exact oracle for one batch query: a filtered Dijkstra from the
/// query source (`∞` when the target is unreachable in `G \ avoid`).
pub fn oracle_query(graph: &DiGraph, q: &Query) -> Dist {
    let dist = dijkstra(graph, q.source, |e| Some(e) != q.avoid);
    dist[q.target]
}

/// Runs `solver` on `inst` and checks the answers against the
/// centralized oracle.
///
/// # Errors
///
/// A [`Divergence`] describing the first disagreement, or the solver
/// failure (a solver error on a connected instance is itself a bug the
/// harness must surface).
pub fn check_instance(
    inst: &Instance<'_>,
    params: &Params,
    solver: FuzzSolver,
) -> Result<(), Divergence> {
    let run = |f: &mut dyn FnMut(&mut congest::Network<'_>) -> Result<(), Divergence>| {
        f(&mut congest::Network::new(inst.graph))
    };
    let solver_err = |e: crate::SolveError| Divergence {
        check: format!("{solver} failed to solve"),
        index: None,
        got: e.to_string(),
        want: "an answer".into(),
    };
    let oracle = oracle_replacements(inst);
    match solver {
        FuzzSolver::Unweighted | FuzzSolver::Naive | FuzzSolver::Mr24 => run(&mut |net| {
            let got = match solver {
                FuzzSolver::Unweighted => unweighted::solve_on(net, inst, params),
                FuzzSolver::Naive => baseline::naive::solve_on(net, inst, params),
                _ => baseline::mr24::solve_on(net, inst, params),
            }
            .map_err(solver_err)?;
            for (i, (&g, &w)) in got.iter().zip(&oracle).enumerate() {
                if g != w {
                    return Err(Divergence {
                        check: format!("{solver} vs replacement_lengths"),
                        index: Some(i),
                        got: fmt_dist(g),
                        want: fmt_dist(w),
                    });
                }
            }
            Ok(())
        }),
        FuzzSolver::Weighted => run(&mut |net| {
            let got = weighted::solve_on(net, inst, params).map_err(solver_err)?;
            let got = weighted::ApxOutput {
                scaled: got.scaled,
                den: got.den,
                metrics: congest::Metrics::default(),
            };
            got.check_guarantee(&oracle, params.eps_num, params.eps_den)
                .map_err(|e| Divergence {
                    check: "weighted vs (1+ε) guarantee".into(),
                    index: None,
                    got: e,
                    want: format!("within (1+{}/{})·oracle", params.eps_num, params.eps_den),
                })
        }),
        FuzzSolver::Sisp => run(&mut |net| {
            let got = sisp::solve_on(net, inst, params).map_err(solver_err)?;
            let want = second_simple_shortest(inst.graph, &inst.path);
            if got != want {
                return Err(Divergence {
                    check: "sisp vs second_simple_shortest".into(),
                    index: None,
                    got: fmt_dist(got),
                    want: fmt_dist(want),
                });
            }
            Ok(())
        }),
        FuzzSolver::Reachability => run(&mut |net| {
            let got = reachability::solve_on(net, inst, params).map_err(solver_err)?;
            for (i, (&g, w)) in got
                .iter()
                .zip(oracle.iter().map(|d| d.is_finite()))
                .enumerate()
            {
                if g != w {
                    return Err(Divergence {
                        check: "reachability vs oracle finiteness".into(),
                        index: Some(i),
                        got: g.to_string(),
                        want: w.to_string(),
                    });
                }
            }
            Ok(())
        }),
    }
}

/// Checks one batch answer against [`oracle_query`]: exact equality for
/// `den = 1` answers, the exact-rational `(1+ε)` envelope otherwise.
pub fn check_answer(
    graph: &DiGraph,
    q: &Query,
    a: &Answer,
    eps_num: u64,
    eps_den: u64,
    position: usize,
) -> Result<(), Divergence> {
    let want = oracle_query(graph, q);
    let diverge = |got: String, want: String| Divergence {
        check: "solve_batch vs filtered Dijkstra".into(),
        index: Some(position),
        got,
        want,
    };
    match (a.scaled.finite(), want.finite()) {
        (None, None) => Ok(()),
        (Some(_), None) => Err(diverge(format!("{}/{}", a.scaled, a.den), "∞".into())),
        (None, Some(w)) => Err(diverge("∞".into(), w.to_string())),
        (Some(x), Some(w)) => {
            let (x, w, den) = (x as u128, w as u128, a.den as u128);
            // w ≤ x/den ≤ (1+ε)·w, exactly (den = 1 and ε ignored for
            // exact answers only if callers pass eps 0/1 — exact solvers
            // satisfy the envelope trivially at ε = 0).
            if x < w * den {
                return Err(diverge(format!("{x}/{den}"), format!("at least {w}")));
            }
            if x * eps_den as u128 > w * den * (eps_den as u128 + eps_num as u128) {
                return Err(diverge(
                    format!("{x}/{den}"),
                    format!("at most (1+{eps_num}/{eps_den})·{w}"),
                ));
            }
            Ok(())
        }
    }
}

/// Runs a batch through a fresh [`crate::SolverSession`] and checks
/// every answer against [`oracle_query`].
/// Exact sessions (unweighted graphs) are held to exact equality
/// (ε = 0); weighted sessions to the `(1+ε)` envelope from `params`.
///
/// # Errors
///
/// The first [`Divergence`], including session failures.
pub fn check_batch(graph: &DiGraph, params: &Params, queries: &[Query]) -> Result<(), Divergence> {
    let mut session = crate::SolverSession::new(graph, params.clone());
    let answers = session.solve_batch(queries).map_err(|e| Divergence {
        check: "solve_batch failed".into(),
        index: None,
        got: e.to_string(),
        want: "answers".into(),
    })?;
    let (eps_num, eps_den) = if graph.is_unweighted() {
        (0, 1)
    } else {
        (params.eps_num, params.eps_den)
    };
    for (i, (q, a)) in queries.iter().zip(&answers).enumerate() {
        check_answer(graph, q, a, eps_num, eps_den, i)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::gen::{parallel_lane, planted_path_digraph, random_weighted_digraph};

    fn lane_params(n: usize) -> Params {
        let mut p = Params::with_zeta(n, 4);
        p.landmark_prob = 1.0;
        p
    }

    #[test]
    fn all_solvers_pass_on_a_lane() {
        let (g, s, t) = parallel_lane(10, 2, 2);
        let inst = Instance::from_endpoints(&g, s, t).unwrap();
        let params = lane_params(g.node_count());
        for solver in FuzzSolver::ALL {
            if solver.needs_unweighted() && !g.is_unweighted() {
                continue;
            }
            check_instance(&inst, &params, solver).unwrap_or_else(|d| panic!("{solver}: {d}"));
        }
    }

    #[test]
    fn weighted_guarantee_checked_on_weighted_graph() {
        let g = random_weighted_digraph(24, 70, 7, 3);
        let Some((s, t)) = graphkit::gen::random_reachable_pair(&g, 5) else {
            panic!("seed produced no reachable pair");
        };
        let inst = Instance::from_endpoints(&g, s, t).unwrap();
        let mut params = Params::with_zeta(24, 5);
        params.landmark_prob = 1.0;
        check_instance(&inst, &params, FuzzSolver::Weighted).unwrap();
        check_instance(&inst, &params, FuzzSolver::Reachability).unwrap();
    }

    #[test]
    fn batch_check_agrees_with_dijkstra() {
        let (g, s, t) = planted_path_digraph(40, 10, 80, 2);
        let params = lane_params(40);
        let path = graphkit::alg::shortest_st_path(&g, s, t).unwrap();
        let mut queries = vec![Query::intact(s, t)];
        queries.extend(path.edges().iter().map(|&e| Query::avoiding(s, t, e)));
        queries.push(Query::avoiding(s, t, {
            (0..g.edge_count())
                .find(|&e| !path.contains_edge(e))
                .unwrap()
        }));
        check_batch(&g, &params, &queries).unwrap();
    }

    #[test]
    fn injected_tiebreak_bug_is_caught() {
        // The testhooks defect must be visible to the differential
        // check — this is the contract the fuzz harness's
        // --inject-tiebreak-bug validation rests on.
        let (g, s, t) = parallel_lane(12, 3, 2);
        let inst = Instance::from_endpoints(&g, s, t).unwrap();
        let params = lane_params(g.node_count());
        check_instance(&inst, &params, FuzzSolver::Unweighted).unwrap();
        crate::testhooks::set_flip_unweighted_merge(true);
        let caught = check_instance(&inst, &params, FuzzSolver::Unweighted);
        crate::testhooks::set_flip_unweighted_merge(false);
        assert!(caught.is_err(), "flipped merge must diverge on a lane");
    }

    #[test]
    fn solver_names_round_trip() {
        for s in FuzzSolver::ALL {
            assert_eq!(FuzzSolver::parse(s.name()), Some(s));
        }
        assert_eq!(FuzzSolver::parse("nope"), None);
    }
}
