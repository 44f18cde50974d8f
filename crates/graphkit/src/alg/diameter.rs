//! Undirected diameter, the `D` of the paper's round bounds.
//!
//! The CONGEST model's `D` is the diameter of the *underlying undirected*
//! communication graph, regardless of edge directions or weights.

use std::collections::VecDeque;

use crate::DiGraph;

/// Exact undirected diameter via a BFS from every vertex; `O(n·m)` time
/// and `O(n)` space — the per-source scratch is allocated once and
/// generation-stamped (source `v` stamps `v + 1`, so `dist` is never
/// cleared between sources), and neighbor iteration borrows the
/// undirected CSR precomputed at graph build time.
///
/// Returns `None` for a disconnected communication graph. Distributed
/// algorithms in this workspace require a connected communication graph,
/// so generators assert this.
pub fn undirected_diameter(graph: &DiGraph) -> Option<usize> {
    let n = graph.node_count();
    let mut dist = vec![(0u64, 0usize); n];
    let mut queue = VecDeque::with_capacity(n);
    let mut best = 0;
    for v in graph.nodes() {
        let generation = v as u64 + 1;
        dist[v] = (generation, 0);
        queue.push_back(v);
        let mut reached = 1;
        while let Some(u) = queue.pop_front() {
            let du = dist[u].1;
            for w in graph.undirected_neighbors(u) {
                if dist[w].0 != generation {
                    dist[w] = (generation, du + 1);
                    best = best.max(du + 1);
                    reached += 1;
                    queue.push_back(w);
                }
            }
        }
        if reached < n {
            return None;
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn directed_cycle_has_small_undirected_diameter() {
        let n = 8;
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            b.add_arc(i, (i + 1) % n);
        }
        let g = b.build();
        // Directed distance 0 -> 7 is 7, but undirected it is 1 hop.
        assert_eq!(undirected_diameter(&g), Some(4));
    }

    #[test]
    fn path_diameter_is_length() {
        let mut b = GraphBuilder::new(5);
        for i in 0..4 {
            b.add_arc(i, i + 1);
        }
        let g = b.build();
        assert_eq!(undirected_diameter(&g), Some(4));
    }

    #[test]
    fn disconnected_reports_none() {
        let mut b = GraphBuilder::new(3);
        b.add_arc(0, 1);
        let g = b.build();
        assert_eq!(undirected_diameter(&g), None);
    }

    #[test]
    fn single_vertex() {
        let g = GraphBuilder::new(1).build();
        assert_eq!(undirected_diameter(&g), Some(0));
    }
}
