//! The 2-SiSP problem (Definition 2.3).
//!
//! 2-SiSP asks for the single value `min over e in P of |st ⋄ e|` — the
//! length of the second simple shortest path. It reduces to RPaths plus
//! an `O(D)`-round min aggregation over the BFS tree, which is also the
//! reduction used by the paper's lower bound (Corollary 6.2 ⇒
//! Proposition 6.1 direction).

use congest::aggregate::{aggregate, AggOp};
use congest::bfs_tree::build_bfs_tree;
use congest::Network;
use graphkit::Dist;

use crate::{unweighted, with_network, Instance, Params, SolveError};

/// Result of a 2-SiSP computation.
#[derive(Clone, Debug)]
pub struct SispOutput {
    /// The 2-SiSP value, known to *all* vertices after the aggregation.
    pub value: Dist,
    /// Full metrics of the run.
    pub metrics: congest::Metrics,
}

/// Solves 2-SiSP for an unweighted instance: Theorem 1's RPaths plus an
/// `O(D)`-round aggregation.
///
/// # Errors
///
/// Returns [`SolveError::Partitioned`] when the communication graph is
/// disconnected, and [`SolveError::InvalidParams`] when `params` lie
/// outside the solvers' domain.
pub fn solve(inst: &Instance<'_>, params: &Params) -> Result<SispOutput, SolveError> {
    let (value, metrics) = with_network(inst.graph, |net| solve_on(net, inst, params))?;
    Ok(SispOutput { value, metrics })
}

/// Like [`solve`], but on a caller-provided network (Section 6
/// experiments attach cut accounting before calling this).
///
/// # Errors
///
/// Returns [`SolveError::Partitioned`] when the communication graph is
/// disconnected, [`SolveError::InvalidParams`] (before any round runs)
/// when `params` lie outside the solvers' domain, and
/// [`SolveError::Engine`] when the closing aggregation exhausts its round
/// budget (under a fault plan that drops its messages).
pub fn solve_on(
    net: &mut Network<'_>,
    inst: &Instance<'_>,
    params: &Params,
) -> Result<Dist, SolveError> {
    params.check().map_err(SolveError::InvalidParams)?;
    // One BFS tree serves Theorem 1 and the aggregation.
    let (tree, _) = build_bfs_tree(net, inst.s())?;
    let replacement = unweighted::solve_on_tree(net, inst, params, &tree);
    // Aggregation input: v_i contributes replacement[i].
    let mut values = vec![Dist::INF; inst.n()];
    for i in 0..inst.hops() {
        values[inst.path.node(i)] = replacement[i];
    }
    // Every node learns the minimum over the BFS tree in `O(D)` rounds.
    aggregate(net, &tree, AggOp::Min, &values).map_err(SolveError::Engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::alg::second_simple_shortest;
    use graphkit::gen::{parallel_lane, planted_path_digraph, theorem2_family};

    #[test]
    fn sisp_matches_oracle() {
        for seed in 0..5 {
            let (g, s, t) = planted_path_digraph(40, 12, 100, seed);
            let inst = Instance::from_endpoints(&g, s, t).unwrap();
            let mut params = Params::with_zeta(40, 5).with_seed(seed);
            params.landmark_prob = 1.0;
            let out = solve(&inst, &params).unwrap();
            assert_eq!(
                out.value,
                second_simple_shortest(&g, &inst.path),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn sisp_on_theorem2_family() {
        // The Ω(D) family: 2-SiSP is d+1 when the long path is intact,
        // infinite when an edge is reversed.
        let intact = theorem2_family(8, None);
        let inst = Instance::new(
            &intact.graph,
            graphkit::StPath::from_nodes(&intact.graph, &intact.short_path).unwrap(),
        )
        .unwrap();
        let params = Params::with_zeta(inst.n(), inst.n());
        assert_eq!(solve(&inst, &params).unwrap().value, Dist::new(9));

        let broken = theorem2_family(8, Some(4));
        let inst = Instance::new(
            &broken.graph,
            graphkit::StPath::from_nodes(&broken.graph, &broken.short_path).unwrap(),
        )
        .unwrap();
        assert_eq!(solve(&inst, &params).unwrap().value, Dist::INF);
    }

    #[test]
    fn sisp_on_lane() {
        let (g, s, t) = parallel_lane(14, 7, 2);
        let inst = Instance::from_endpoints(&g, s, t).unwrap();
        let mut params = Params::with_zeta(inst.n(), 7);
        params.landmark_prob = 1.0;
        let out = solve(&inst, &params).unwrap();
        assert_eq!(out.value, second_simple_shortest(&g, &inst.path));
    }
}
