//! Breadth-first search over directed graphs with an edge filter.

use std::collections::VecDeque;

use crate::{DiGraph, Dist, EdgeId, NodeId};

/// Hop distances from `source` following edge directions.
///
/// Edges for which `filter` returns `false` are ignored, which is how
/// callers express `G \ P` or `G \ e`.
///
/// # Examples
///
/// ```
/// use graphkit::{alg::bfs, Dist, GraphBuilder};
///
/// let mut b = GraphBuilder::new(3);
/// b.add_arc(0, 1);
/// b.add_arc(1, 2);
/// let g = b.build();
/// let d = bfs(&g, 0, |_| true);
/// assert_eq!(d, vec![Dist::ZERO, Dist::new(1), Dist::new(2)]);
/// ```
pub fn bfs(graph: &DiGraph, source: NodeId, filter: impl Fn(EdgeId) -> bool) -> Vec<Dist> {
    bfs_hop_bounded(graph, &[source], usize::MAX, filter)
}

/// Hop distances *to* `sink` following edges backwards.
pub fn bfs_reverse(graph: &DiGraph, sink: NodeId, filter: impl Fn(EdgeId) -> bool) -> Vec<Dist> {
    let mut dist = vec![Dist::INF; graph.node_count()];
    let mut queue = VecDeque::new();
    dist[sink] = Dist::ZERO;
    queue.push_back(sink);
    while let Some(v) = queue.pop_front() {
        let next = dist[v] + 1u64;
        for e in graph.in_edges(v) {
            if !filter(e) {
                continue;
            }
            let u = graph.edge(e).from;
            if next < dist[u] {
                dist[u] = next;
                queue.push_back(u);
            }
        }
    }
    dist
}

/// Undirected hop distances from `root` over the edges `keep` accepts,
/// each usable in both directions (the communication graph's view).
pub fn undirected_bfs(graph: &DiGraph, root: NodeId, keep: impl Fn(EdgeId) -> bool) -> Vec<Dist> {
    let mut dist = vec![Dist::INF; graph.node_count()];
    let mut queue = VecDeque::from([root]);
    dist[root] = Dist::ZERO;
    while let Some(v) = queue.pop_front() {
        let next = dist[v] + 1u64;
        let out = graph.out_edges(v).map(|e| (e, graph.edge(e).to));
        let inc = graph.in_edges(v).map(|e| (e, graph.edge(e).from));
        for (e, u) in out.chain(inc) {
            if keep(e) && !dist[u].is_finite() {
                dist[u] = next;
                queue.push_back(u);
            }
        }
    }
    dist
}

/// Multi-source hop-bounded BFS: distances from the nearest source using
/// at most `max_hops` edges, following edge directions.
pub fn bfs_hop_bounded(
    graph: &DiGraph,
    sources: &[NodeId],
    max_hops: usize,
    filter: impl Fn(EdgeId) -> bool,
) -> Vec<Dist> {
    let mut dist = vec![Dist::INF; graph.node_count()];
    let mut queue = VecDeque::new();
    for &s in sources {
        if dist[s] != Dist::ZERO {
            dist[s] = Dist::ZERO;
            queue.push_back(s);
        }
    }
    while let Some(v) = queue.pop_front() {
        let here = dist[v].finite().expect("queued vertices are reachable");
        if here as usize >= max_hops {
            continue;
        }
        let next = dist[v] + 1u64;
        for e in graph.out_edges(v) {
            if !filter(e) {
                continue;
            }
            let u = graph.edge(e).to;
            if next < dist[u] {
                dist[u] = next;
                queue.push_back(u);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn cycle(n: usize) -> DiGraph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            b.add_arc(i, (i + 1) % n);
        }
        b.build()
    }

    #[test]
    fn follows_direction() {
        let g = cycle(5);
        let d = bfs(&g, 0, |_| true);
        assert_eq!(d[4], Dist::new(4)); // must go the long way around
    }

    #[test]
    fn reverse_bfs_matches_forward_on_reversed_graph() {
        let g = cycle(6);
        let rev = g.reversed();
        let back = bfs_reverse(&g, 3, |_| true);
        let fwd = bfs(&rev, 3, |_| true);
        assert_eq!(back, fwd);
    }

    #[test]
    fn filter_removes_edges() {
        let g = cycle(4);
        // remove edge 0 (0 -> 1): nothing reachable from 0 any more
        let d = bfs(&g, 0, |e| e != 0);
        assert_eq!(d[1], Dist::INF);
        assert_eq!(d[0], Dist::ZERO);
    }

    #[test]
    fn undirected_bfs_ignores_direction_and_honours_keep() {
        let g = cycle(6);
        let d = undirected_bfs(&g, 0, |_| true);
        assert_eq!(d[5], Dist::new(1)); // against edge 5 -> 0
        assert_eq!(d[3], Dist::new(3));
        // Without edge 0 (0 -> 1), vertex 1 is five hops the other way.
        assert_eq!(undirected_bfs(&g, 0, |e| e != 0)[1], Dist::new(5));
    }

    #[test]
    fn hop_bound_truncates() {
        let g = cycle(8);
        let d = bfs_hop_bounded(&g, &[0], 3, |_| true);
        assert_eq!(d[3], Dist::new(3));
        assert_eq!(d[4], Dist::INF);
    }

    #[test]
    fn multi_source_takes_nearest() {
        let g = cycle(8);
        let d = bfs_hop_bounded(&g, &[0, 4], usize::MAX, |_| true);
        assert_eq!(d[5], Dist::new(1));
        assert_eq!(d[3], Dist::new(3));
    }
}
