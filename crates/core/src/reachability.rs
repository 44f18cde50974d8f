//! Replacement *reachability* (Section 8): for each edge `e` of `P`, is
//! `t` reachable from `s` at all in `G \ e`?
//!
//! The paper's conclusions note that even this yes/no variant is not
//! known to beat `eO(n^{2/3} + D)` rounds — the best known approach is
//! to run a replacement-paths algorithm and read off finiteness, which
//! is exactly what this module does (Theorem 1 for unweighted inputs,
//! Theorem 3 for weighted ones — reachability does not care about the
//! `(1+ε)` stretch).

use congest::{Metrics, Network};

use crate::{unweighted, weighted, with_network, Instance, Params, SolveError};

/// Output of the replacement-reachability computation.
#[derive(Clone, Debug)]
pub struct ReachabilityOutput {
    /// `survivable[i]` iff `t` stays reachable when `(v_i, v_{i+1})`
    /// fails.
    pub survivable: Vec<bool>,
    /// Full metrics of the run.
    pub metrics: Metrics,
}

impl ReachabilityOutput {
    /// `true` iff the path survives *any* single-edge failure.
    pub fn fully_protected(&self) -> bool {
        self.survivable.iter().all(|&b| b)
    }

    /// Indices of unprotected path edges (single points of failure).
    pub fn single_points_of_failure(&self) -> Vec<usize> {
        self.survivable
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| (!b).then_some(i))
            .collect()
    }
}

/// Computes replacement reachability for every path edge, w.h.p.
///
/// # Errors
///
/// Returns [`SolveError::Partitioned`] when the communication graph is
/// disconnected, and [`SolveError::InvalidParams`] when `params` lie
/// outside the solvers' domain.
pub fn solve(inst: &Instance<'_>, params: &Params) -> Result<ReachabilityOutput, SolveError> {
    let (survivable, metrics) = with_network(inst.graph, |net| solve_on(net, inst, params))?;
    Ok(ReachabilityOutput {
        survivable,
        metrics,
    })
}

/// Like [`solve`], but on a caller-provided network; metrics accumulate
/// on `net`.
///
/// # Errors
///
/// Returns [`SolveError::Partitioned`] when the communication graph is
/// disconnected, and [`SolveError::InvalidParams`] when `params` lie
/// outside the solvers' domain.
pub fn solve_on(
    net: &mut Network<'_>,
    inst: &Instance<'_>,
    params: &Params,
) -> Result<Vec<bool>, SolveError> {
    if inst.graph.is_unweighted() {
        let replacement = unweighted::solve_on(net, inst, params)?;
        Ok(replacement.iter().map(|d| d.is_finite()).collect())
    } else {
        let answers = weighted::solve_on(net, inst, params)?;
        Ok(answers.scaled.iter().map(|d| d.is_finite()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::alg::replacement_lengths;
    use graphkit::gen::{parallel_lane, planted_path_digraph, random_weighted_digraph};

    fn oracle_reach(g: &graphkit::DiGraph, inst: &Instance<'_>) -> Vec<bool> {
        replacement_lengths(g, &inst.path)
            .iter()
            .map(|d| d.is_finite())
            .collect()
    }

    #[test]
    fn matches_oracle_on_unweighted() {
        for seed in 0..5 {
            let (g, s, t) = planted_path_digraph(40, 12, 70, seed);
            let inst = Instance::from_endpoints(&g, s, t).unwrap();
            let mut params = Params::with_zeta(40, 5).with_seed(seed);
            params.landmark_prob = 1.0;
            let out = solve(&inst, &params).unwrap();
            assert_eq!(out.survivable, oracle_reach(&g, &inst), "seed {seed}");
        }
    }

    #[test]
    fn spof_detection() {
        // Protection only between switches 0 and 6 of a 9-hop path:
        // edges 6, 7, 8 are single points of failure.
        let (g, s, t) = parallel_lane(6, 6, 1);
        let inst = Instance::from_endpoints(&g, s, t).unwrap();
        let mut params = Params::with_zeta(inst.n(), inst.n());
        params.landmark_prob = 1.0;
        let out = solve(&inst, &params).unwrap();
        assert!(out.fully_protected());
        assert!(out.single_points_of_failure().is_empty());

        let (g2, s2, t2) = planted_path_digraph(8, 7, 0, 0);
        let inst2 = Instance::from_endpoints(&g2, s2, t2).unwrap();
        let out2 = solve(&inst2, &params).unwrap();
        assert!(!out2.fully_protected());
        assert_eq!(out2.single_points_of_failure(), (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn matches_oracle_on_weighted() {
        let mut tested = 0;
        for seed in 0..10 {
            let g = random_weighted_digraph(30, 90, 8, seed);
            let Some((s, t)) = graphkit::gen::random_reachable_pair(&g, seed) else {
                continue;
            };
            let Ok(inst) = Instance::from_endpoints(&g, s, t) else {
                continue;
            };
            if inst.hops() < 3 {
                continue;
            }
            let mut params = Params::with_zeta(30, 5).with_seed(seed);
            params.landmark_prob = 1.0;
            let out = solve(&inst, &params).unwrap();
            assert_eq!(out.survivable, oracle_reach(&g, &inst), "seed {seed}");
            tested += 1;
        }
        assert!(tested >= 4);
    }
}
