//! Hop-bounded weighted distances (centralized Bellman–Ford layers).
//!
//! The paper's Section 7 reasons about "`h`-hop distances": the cheapest
//! walk using at most `h` edges. This module provides the exact
//! centralized value, used to validate the distributed rounding-based
//! approximations.

use crate::{DiGraph, Dist, EdgeId, NodeId};

/// Cheapest-walk distances from `source` using at most `max_hops` edges.
///
/// Runs `max_hops` rounds of Bellman–Ford relaxation, so it is exact (not
/// an approximation) but costs `O(max_hops · m)` time.
pub fn hop_bounded_dists(
    graph: &DiGraph,
    source: NodeId,
    max_hops: usize,
    filter: impl Fn(EdgeId) -> bool,
) -> Vec<Dist> {
    let mut dist = vec![Dist::INF; graph.node_count()];
    dist[source] = Dist::ZERO;
    for _ in 0..max_hops {
        let snapshot = dist.clone();
        let mut changed = false;
        for (id, e) in graph.edges() {
            if !filter(id) {
                continue;
            }
            let cand = snapshot[e.from] + e.weight;
            if cand < dist[e.to] {
                dist[e.to] = cand;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg::dijkstra;
    use crate::GraphBuilder;

    fn chain_with_shortcut() -> DiGraph {
        // 0 -1- 1 -1- 2 -1- 3 plus a direct 0 -> 3 of weight 10
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        b.add_edge(2, 3, 1);
        b.add_edge(0, 3, 10);
        b.build()
    }

    #[test]
    fn hop_bound_forces_expensive_route() {
        let g = chain_with_shortcut();
        let d1 = hop_bounded_dists(&g, 0, 1, |_| true);
        assert_eq!(d1[3], Dist::new(10)); // only the direct edge fits in 1 hop
        let d3 = hop_bounded_dists(&g, 0, 3, |_| true);
        assert_eq!(d3[3], Dist::new(3));
    }

    #[test]
    fn large_bound_matches_dijkstra() {
        let g = chain_with_shortcut();
        let d = hop_bounded_dists(&g, 0, g.node_count(), |_| true);
        assert_eq!(d, dijkstra(&g, 0, |_| true));
    }

    #[test]
    fn zero_hops_reaches_only_source() {
        let g = chain_with_shortcut();
        let d = hop_bounded_dists(&g, 0, 0, |_| true);
        assert_eq!(d[0], Dist::ZERO);
        assert!(d[1..].iter().all(|&x| x == Dist::INF));
    }
}
