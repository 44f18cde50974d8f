//! The given `s`-`t` shortest path `P` and its validation.

use std::collections::HashSet;
use std::fmt;

use crate::alg::dijkstra;
use crate::{DiGraph, Dist, EdgeId, NodeId};

/// Errors raised when constructing or validating an [`StPath`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PathError {
    /// The edge sequence is empty; `P` must contain at least one edge.
    Empty,
    /// Consecutive edges do not share an endpoint.
    Disconnected {
        /// Index in the edge sequence where continuity breaks.
        position: usize,
    },
    /// A vertex repeats; shortest paths are simple.
    RepeatedVertex(NodeId),
    /// The path is not a shortest `s`-`t` path in the graph.
    NotShortest {
        /// Total weight of the supplied path.
        path_length: Dist,
        /// True shortest-path distance from `s` to `t`.
        shortest: Dist,
    },
    /// No edge `from -> to` exists in the graph.
    MissingEdge {
        /// Tail of the missing edge.
        from: NodeId,
        /// Head of the missing edge.
        to: NodeId,
    },
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathError::Empty => write!(f, "path must contain at least one edge"),
            PathError::Disconnected { position } => {
                write!(
                    f,
                    "edges at positions {} and {} do not meet",
                    position,
                    position + 1
                )
            }
            PathError::RepeatedVertex(v) => write!(f, "vertex {v} repeats; P must be simple"),
            PathError::NotShortest {
                path_length,
                shortest,
            } => write!(
                f,
                "path has length {path_length} but the s-t distance is {shortest}"
            ),
            PathError::MissingEdge { from, to } => {
                write!(f, "graph has no edge {from} -> {to}")
            }
        }
    }
}

impl std::error::Error for PathError {}

/// A validated simple `s`-`t` path: the object `P` of the replacement-paths
/// problem.
///
/// Following the paper's notation, `P = (s = v_0, v_1, ..., v_{h_st} = t)`;
/// [`StPath::hops`] is `h_st`. The path stores both the vertex sequence and
/// the concrete edge ids so that "avoiding the edges of `P`" is
/// unambiguous even in multigraphs.
///
/// # Examples
///
/// ```
/// use graphkit::{GraphBuilder, StPath};
///
/// let mut b = GraphBuilder::new(4);
/// b.add_arc(0, 1);
/// b.add_arc(1, 2);
/// b.add_arc(2, 3);
/// b.add_arc(0, 3); // a competing edge, but P below is still shortest? no: 0->3 is shorter
/// let g = b.build();
///
/// // 0->3 has length 1, so the 3-hop path is *not* shortest:
/// let p = StPath::from_nodes(&g, &[0, 1, 2, 3]).unwrap();
/// assert!(p.validate_shortest(&g).is_err());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StPath {
    nodes: Vec<NodeId>,
    edges: Vec<EdgeId>,
}

impl StPath {
    /// Builds a path from a sequence of edge ids.
    pub fn new(graph: &DiGraph, edges: Vec<EdgeId>) -> Result<StPath, PathError> {
        if edges.is_empty() {
            return Err(PathError::Empty);
        }
        let mut nodes = Vec::with_capacity(edges.len() + 1);
        nodes.push(graph.edge(edges[0]).from);
        for (i, &e) in edges.iter().enumerate() {
            let edge = graph.edge(e);
            if edge.from != *nodes.last().expect("nodes is non-empty") {
                return Err(PathError::Disconnected {
                    position: i.saturating_sub(1),
                });
            }
            nodes.push(edge.to);
        }
        let mut seen = HashSet::with_capacity(nodes.len());
        for &v in &nodes {
            if !seen.insert(v) {
                return Err(PathError::RepeatedVertex(v));
            }
        }
        Ok(StPath { nodes, edges })
    }

    /// Builds a path from a vertex sequence, resolving each hop to the
    /// lightest edge between the two vertices.
    pub fn from_nodes(graph: &DiGraph, nodes: &[NodeId]) -> Result<StPath, PathError> {
        if nodes.len() < 2 {
            return Err(PathError::Empty);
        }
        let mut edges = Vec::with_capacity(nodes.len() - 1);
        for w in nodes.windows(2) {
            let (from, to) = (w[0], w[1]);
            let best = graph
                .out_edges(from)
                .filter(|&e| graph.edge(e).to == to)
                .min_by_key(|&e| graph.edge(e).weight)
                .ok_or(PathError::MissingEdge { from, to })?;
            edges.push(best);
        }
        StPath::new(graph, edges)
    }

    /// The source vertex `s = v_0`.
    #[inline]
    pub fn source(&self) -> NodeId {
        self.nodes[0]
    }

    /// The target vertex `t = v_{h_st}`.
    #[inline]
    pub fn target(&self) -> NodeId {
        *self.nodes.last().expect("path is non-empty")
    }

    /// `h_st`: the number of edges (hops) in the path.
    #[inline]
    pub fn hops(&self) -> usize {
        self.edges.len()
    }

    /// The vertex sequence `v_0, ..., v_{h_st}`.
    #[inline]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The edge-id sequence.
    #[inline]
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// The vertex at index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i > h_st`.
    #[inline]
    pub fn node(&self, i: usize) -> NodeId {
        self.nodes[i]
    }

    /// The `i`-th edge `(v_i, v_{i+1})`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= h_st`.
    #[inline]
    pub fn edge(&self, i: usize) -> EdgeId {
        self.edges[i]
    }

    /// Returns `true` when `e` is one of the path's edges (a scan of
    /// the `h_st` edge ids).
    pub fn contains_edge(&self, e: EdgeId) -> bool {
        self.edges.contains(&e)
    }

    /// Total weight of the path.
    pub fn length(&self, graph: &DiGraph) -> Dist {
        self.edges
            .iter()
            .map(|&e| Dist::new(graph.edge(e).weight))
            .sum()
    }

    /// Weight of the prefix `P[s, v_i]`.
    pub fn prefix_length(&self, graph: &DiGraph, i: usize) -> Dist {
        self.edges[..i]
            .iter()
            .map(|&e| Dist::new(graph.edge(e).weight))
            .sum()
    }

    /// Weight of the suffix `P[v_i, t]`.
    pub fn suffix_length(&self, graph: &DiGraph, i: usize) -> Dist {
        self.edges[i..]
            .iter()
            .map(|&e| Dist::new(graph.edge(e).weight))
            .sum()
    }

    /// Checks that the path is a shortest `s`-`t` path in `graph`.
    pub fn validate_shortest(&self, graph: &DiGraph) -> Result<(), PathError> {
        let dist = dijkstra(graph, self.source(), |_| true);
        let shortest = dist[self.target()];
        let own = self.length(graph);
        if own != shortest {
            return Err(PathError::NotShortest {
                path_length: own,
                shortest,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn line(n: usize) -> DiGraph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_arc(i, i + 1);
        }
        b.build()
    }

    #[test]
    fn from_nodes_resolves_edges() {
        let g = line(4);
        let p = StPath::from_nodes(&g, &[0, 1, 2, 3]).unwrap();
        assert_eq!(p.hops(), 3);
        assert_eq!(p.source(), 0);
        assert_eq!(p.target(), 3);
        assert_eq!(p.length(&g), Dist::new(3));
        assert!(p.validate_shortest(&g).is_ok());
    }

    #[test]
    fn prefix_and_suffix_lengths() {
        let g = line(5);
        let p = StPath::from_nodes(&g, &[0, 1, 2, 3, 4]).unwrap();
        assert_eq!(p.prefix_length(&g, 0), Dist::ZERO);
        assert_eq!(p.prefix_length(&g, 3), Dist::new(3));
        assert_eq!(p.suffix_length(&g, 3), Dist::new(1));
        assert_eq!(p.suffix_length(&g, 0), Dist::new(4));
    }

    #[test]
    fn rejects_disconnected_sequence() {
        let g = line(4);
        // edges 0 (0->1) and 2 (2->3) do not meet
        assert!(matches!(
            StPath::new(&g, vec![0, 2]),
            Err(PathError::Disconnected { .. })
        ));
    }

    #[test]
    fn rejects_missing_edge() {
        let g = line(3);
        assert!(matches!(
            StPath::from_nodes(&g, &[0, 2]),
            Err(PathError::MissingEdge { from: 0, to: 2 })
        ));
    }

    #[test]
    fn rejects_empty() {
        let g = line(3);
        assert_eq!(StPath::new(&g, vec![]), Err(PathError::Empty));
        assert_eq!(StPath::from_nodes(&g, &[0]), Err(PathError::Empty));
    }

    #[test]
    fn rejects_repeated_vertex() {
        let mut b = GraphBuilder::new(3);
        b.add_arc(0, 1);
        b.add_arc(1, 2);
        b.add_arc(2, 1);
        let g = b.build();
        assert!(matches!(
            StPath::new(&g, vec![0, 1, 2]),
            Err(PathError::RepeatedVertex(1))
        ));
    }

    #[test]
    fn detects_non_shortest() {
        let mut b = GraphBuilder::new(3);
        b.add_arc(0, 1);
        b.add_arc(1, 2);
        b.add_arc(0, 2);
        let g = b.build();
        let p = StPath::from_nodes(&g, &[0, 1, 2]).unwrap();
        assert!(matches!(
            p.validate_shortest(&g),
            Err(PathError::NotShortest { .. })
        ));
    }

    #[test]
    fn from_nodes_prefers_lightest_parallel_edge() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 5);
        let cheap = b.add_edge(0, 1, 2);
        let g = b.build();
        let p = StPath::from_nodes(&g, &[0, 1]).unwrap();
        assert_eq!(p.edge(0), cheap);
        assert_eq!(p.length(&g), Dist::new(2));
    }
}
