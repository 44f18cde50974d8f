//! Dijkstra's algorithm and shortest-path extraction.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::{DiGraph, Dist, EdgeId, NodeId, StPath};

/// Weighted distances from `source`, following edge directions, ignoring
/// edges rejected by `filter`.
///
/// # Examples
///
/// ```
/// use graphkit::{alg::dijkstra, Dist, GraphBuilder};
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1, 10);
/// b.add_edge(1, 2, 10);
/// b.add_edge(0, 2, 25);
/// let g = b.build();
/// assert_eq!(dijkstra(&g, 0, |_| true)[2], Dist::new(20));
/// ```
pub fn dijkstra(graph: &DiGraph, source: NodeId, filter: impl Fn(EdgeId) -> bool) -> Vec<Dist> {
    dijkstra_with_parents(graph, source, filter).0
}

fn dijkstra_with_parents(
    graph: &DiGraph,
    source: NodeId,
    filter: impl Fn(EdgeId) -> bool,
) -> (Vec<Dist>, Vec<Option<EdgeId>>) {
    let n = graph.node_count();
    let mut dist = vec![Dist::INF; n];
    let mut parent: Vec<Option<EdgeId>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[source] = Dist::ZERO;
    heap.push(Reverse((Dist::ZERO, source)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v] {
            continue;
        }
        for e in graph.out_edges(v) {
            if !filter(e) {
                continue;
            }
            let edge = graph.edge(e);
            let cand = d + edge.weight;
            if cand < dist[edge.to] {
                dist[edge.to] = cand;
                parent[edge.to] = Some(e);
                heap.push(Reverse((cand, edge.to)));
            }
        }
    }
    (dist, parent)
}

/// Extracts a shortest `s`-`t` path as a validated [`StPath`], or `None`
/// when `t` is unreachable from `s` — or when `s = t`: the trivial
/// zero-length path has no edges and is not representable as an
/// [`StPath`], so callers with identical endpoints must special-case
/// it (its length is 0 and it survives every edge failure).
///
/// This is how test instances obtain the input path `P`: the problem
/// definition requires `P` to be a shortest path, and building it from
/// Dijkstra parents guarantees that.
pub fn shortest_st_path(graph: &DiGraph, s: NodeId, t: NodeId) -> Option<StPath> {
    if s == t {
        return None;
    }
    let (dist, parent) = dijkstra_with_parents(graph, s, |_| true);
    dist[t].finite()?;
    let mut edges = Vec::new();
    let mut v = t;
    while v != s {
        let e = parent[v].expect("reachable non-source vertex has a parent");
        edges.push(e);
        v = graph.edge(e).from;
    }
    edges.reverse();
    Some(StPath::new(graph, edges).expect("parent chain forms a simple path"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn weighted_diamond() -> DiGraph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 3, 1);
        b.add_edge(0, 2, 1);
        b.add_edge(2, 3, 5);
        b.build()
    }

    #[test]
    fn picks_cheapest_route() {
        let g = weighted_diamond();
        assert_eq!(dijkstra(&g, 0, |_| true)[3], Dist::new(2));
    }

    #[test]
    fn unreachable_is_infinite() {
        let mut b = GraphBuilder::new(3);
        b.add_arc(0, 1);
        let g = b.build();
        let d = dijkstra(&g, 0, |_| true);
        assert_eq!(d[2], Dist::INF);
    }

    #[test]
    fn extracted_path_is_shortest() {
        let g = weighted_diamond();
        let p = shortest_st_path(&g, 0, 3).unwrap();
        assert_eq!(p.nodes(), &[0, 1, 3]);
        assert!(p.validate_shortest(&g).is_ok());
    }

    #[test]
    fn extraction_fails_when_unreachable() {
        let mut b = GraphBuilder::new(2);
        b.add_arc(1, 0);
        let g = b.build();
        assert!(shortest_st_path(&g, 0, 1).is_none());
    }

    #[test]
    fn filter_can_sever_route() {
        let g = weighted_diamond();
        // remove the cheap middle edge 1 (1 -> 3): forced through weight-5 edge
        let d = dijkstra(&g, 0, |e| e != 1);
        assert_eq!(d[3], Dist::new(6));
    }
}
