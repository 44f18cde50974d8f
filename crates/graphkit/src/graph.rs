//! Compact directed multigraph with positive integer weights.

use std::collections::HashSet;
use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifies a vertex; vertices are always `0..n`.
pub type NodeId = usize;

/// Identifies an edge by its insertion index.
pub type EdgeId = usize;

/// A directed weighted edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Edge {
    /// Tail vertex (the edge points away from this vertex).
    pub from: NodeId,
    /// Head vertex (the edge points into this vertex).
    pub to: NodeId,
    /// Positive integer weight; `1` for unweighted graphs.
    pub weight: u64,
}

/// A frozen directed multigraph.
///
/// Adjacency is stored in CSR form in both directions, so iterating
/// out-edges and in-edges of a vertex are both `O(degree)` with no
/// allocation. Graphs are immutable after construction; build them with
/// [`GraphBuilder`].
///
/// # Examples
///
/// ```
/// use graphkit::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1, 1);
/// b.add_edge(1, 2, 1);
/// b.add_edge(0, 2, 5);
/// let g = b.build();
///
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.edge_count(), 3);
/// assert_eq!(g.out_edges(0).count(), 2);
/// assert_eq!(g.in_edges(2).count(), 2);
/// ```
#[derive(Clone, Serialize, Deserialize)]
pub struct DiGraph {
    pub(crate) n: usize,
    pub(crate) edges: Vec<Edge>,
    pub(crate) out_index: Csr,
    pub(crate) in_index: Csr,
    /// Deduplicated undirected adjacency (CONGEST communication
    /// neighbors), precomputed once at build time so neighbor iteration
    /// is allocation-free.
    pub(crate) undirected: Csr,
    pub(crate) unweighted: bool,
}

#[derive(Clone, Serialize, Deserialize)]
pub(crate) struct Csr {
    pub(crate) offsets: Vec<u32>,
    pub(crate) items: Vec<u32>,
}

impl Csr {
    pub(crate) fn build(n: usize, keys: impl Iterator<Item = usize> + Clone, m: usize) -> Csr {
        let mut counts = vec![0u32; n + 1];
        for k in keys.clone() {
            counts[k + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut items = vec![0u32; m];
        for (edge_id, k) in keys.enumerate() {
            items[cursor[k] as usize] = edge_id as u32;
            cursor[k] += 1;
        }
        Csr { offsets, items }
    }

    #[inline]
    pub(crate) fn slice(&self, k: usize) -> &[u32] {
        &self.items[self.offsets[k] as usize..self.offsets[k + 1] as usize]
    }
}

/// Deduplicated undirected adjacency in one `O(n + m)` pass: per vertex,
/// successors then predecessors in first-occurrence order, with a
/// stamp array standing in for a per-vertex hash set.
pub(crate) fn build_undirected(n: usize, edges: &[Edge], out_index: &Csr, in_index: &Csr) -> Csr {
    let mut mark = vec![u32::MAX; n];
    let mut offsets = vec![0u32; n + 1];
    let mut items = Vec::with_capacity(2 * edges.len());
    for v in 0..n {
        let stamp = v as u32;
        for &e in out_index.slice(v) {
            let u = edges[e as usize].to;
            if mark[u] != stamp {
                mark[u] = stamp;
                items.push(u as u32);
            }
        }
        for &e in in_index.slice(v) {
            let u = edges[e as usize].from;
            if mark[u] != stamp {
                mark[u] = stamp;
                items.push(u as u32);
            }
        }
        offsets[v + 1] = items.len() as u32;
    }
    items.shrink_to_fit();
    Csr { offsets, items }
}

impl DiGraph {
    /// Number of vertices.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` when every edge has weight 1.
    #[inline]
    pub fn is_unweighted(&self) -> bool {
        self.unweighted
    }

    /// All vertex ids, `0..n`.
    #[inline]
    pub fn nodes(&self) -> std::ops::Range<NodeId> {
        0..self.n
    }

    /// The edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> Edge {
        self.edges[id]
    }

    /// All edges with their ids, in insertion order.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, Edge)> + '_ {
        self.edges.iter().copied().enumerate()
    }

    /// Ids of edges leaving `v`.
    #[inline]
    pub fn out_edges(&self, v: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.out_index.slice(v).iter().map(|&e| e as EdgeId)
    }

    /// Ids of edges entering `v`.
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.in_index.slice(v).iter().map(|&e| e as EdgeId)
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out_index.slice(v).len()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.in_index.slice(v).len()
    }

    /// Successor vertices of `v` (with multiplicity for parallel edges).
    pub fn successors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_edges(v).map(move |e| self.edges[e].to)
    }

    /// Predecessor vertices of `v` (with multiplicity for parallel edges).
    pub fn predecessors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.in_edges(v).map(move |e| self.edges[e].from)
    }

    /// Neighbors of `v` in the *underlying undirected* graph, i.e. the
    /// CONGEST communication neighbors, deduplicated (successors first,
    /// then predecessors, in first-occurrence order).
    ///
    /// Borrows the CSR precomputed at build time — no per-call
    /// allocation, `O(1)` per neighbor.
    pub fn undirected_neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.undirected.slice(v).iter().map(|&u| u as NodeId)
    }

    /// Number of distinct undirected neighbors of `v` (its degree in the
    /// communication graph).
    #[inline]
    pub fn undirected_degree(&self, v: NodeId) -> usize {
        self.undirected.slice(v).len()
    }

    /// Returns a graph with every edge reversed; edge ids are preserved.
    pub fn reversed(&self) -> DiGraph {
        let mut b = GraphBuilder::new(self.n);
        for e in &self.edges {
            b.add_edge(e.to, e.from, e.weight);
        }
        b.build()
    }

    /// Returns a copy with the given edges removed. Edge ids are *not*
    /// preserved; use this only where ids do not matter (reference
    /// algorithms). The vertex set is unchanged.
    pub fn without_edges(&self, remove: &HashSet<EdgeId>) -> DiGraph {
        let mut b = GraphBuilder::new(self.n);
        for (id, e) in self.edges() {
            if !remove.contains(&id) {
                b.add_edge(e.from, e.to, e.weight);
            }
        }
        b.build()
    }

    /// A stable 64-bit identity of the graph's full structure: vertex
    /// count, edge list (order, endpoints, weights), and the precomputed
    /// CSR indexes.
    ///
    /// The fingerprint is an FNV-1a hash of [`DiGraph::to_snapshot`], so
    /// it is identical across processes, platforms, and snapshot round
    /// trips — two graphs fingerprint equal iff their snapshots are
    /// byte-identical. Artifact caches key on it to decide whether a
    /// persisted artifact still describes the graph in hand.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        for &b in &self.to_snapshot() {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
        h
    }

    /// Sum of all edge weights.
    pub fn total_weight(&self) -> u64 {
        self.edges.iter().map(|e| e.weight).sum()
    }

    /// Largest edge weight (`0` for an edgeless graph).
    pub fn max_weight(&self) -> u64 {
        self.edges.iter().map(|e| e.weight).max().unwrap_or(0)
    }
}

impl fmt::Debug for DiGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiGraph")
            .field("nodes", &self.n)
            .field("edges", &self.edges.len())
            .field("unweighted", &self.unweighted)
            .finish()
    }
}

/// Incremental constructor for [`DiGraph`].
///
/// # Examples
///
/// ```
/// use graphkit::GraphBuilder;
///
/// let mut b = GraphBuilder::new(2);
/// let e = b.add_edge(0, 1, 7);
/// let g = b.build();
/// assert_eq!(g.edge(e).weight, 7);
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<Edge>,
}

impl GraphBuilder {
    /// Starts a builder for a graph on `n` vertices (`0..n`).
    pub fn new(n: usize) -> GraphBuilder {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Number of vertices configured so far.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Grows the vertex set to at least `n` vertices.
    pub fn ensure_nodes(&mut self, n: usize) {
        self.n = self.n.max(n);
    }

    /// Adds one fresh vertex and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        self.n += 1;
        self.n - 1
    }

    /// Adds a directed edge and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range, if `from == to` (self loops
    /// are meaningless for replacement paths), or if `weight == 0`
    /// (weights must be positive integers, per the paper's model).
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, weight: u64) -> EdgeId {
        assert!(from < self.n && to < self.n, "edge endpoint out of range");
        assert_ne!(from, to, "self loops are not allowed");
        assert!(weight > 0, "edge weights must be positive integers");
        self.edges.push(Edge { from, to, weight });
        self.edges.len() - 1
    }

    /// Adds an unweighted (weight-1) directed edge.
    pub fn add_arc(&mut self, from: NodeId, to: NodeId) -> EdgeId {
        self.add_edge(from, to, 1)
    }

    /// Adds `u -> v` and `v -> u` weight-1 edges, returning both ids.
    pub fn add_bidirectional(&mut self, u: NodeId, v: NodeId) -> (EdgeId, EdgeId) {
        (self.add_arc(u, v), self.add_arc(v, u))
    }

    /// Returns `true` when some edge `from -> to` already exists.
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.edges.iter().any(|e| e.from == from && e.to == to)
    }

    /// Freezes the builder into an immutable [`DiGraph`].
    pub fn build(self) -> DiGraph {
        let m = self.edges.len();
        let out_index = Csr::build(self.n, self.edges.iter().map(|e| e.from), m);
        let in_index = Csr::build(self.n, self.edges.iter().map(|e| e.to), m);
        let undirected = build_undirected(self.n, &self.edges, &out_index, &in_index);
        let unweighted = self.edges.iter().all(|e| e.weight == 1);
        DiGraph {
            n: self.n,
            edges: self.edges,
            out_index,
            in_index,
            undirected,
            unweighted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        let mut b = GraphBuilder::new(4);
        b.add_arc(0, 1);
        b.add_arc(1, 3);
        b.add_arc(0, 2);
        b.add_arc(2, 3);
        b.build()
    }

    #[test]
    fn adjacency_both_directions() {
        let g = diamond();
        let succ: Vec<_> = g.successors(0).collect();
        assert_eq!(succ, vec![1, 2]);
        let pred: Vec<_> = g.predecessors(3).collect();
        assert_eq!(pred, vec![1, 2]);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.in_degree(0), 0);
    }

    #[test]
    fn reversal_swaps_directions() {
        let g = diamond().reversed();
        let succ: Vec<_> = g.successors(3).collect();
        assert_eq!(succ, vec![1, 2]);
        assert_eq!(g.out_degree(0), 0);
    }

    #[test]
    fn undirected_neighbors_deduplicate() {
        let mut b = GraphBuilder::new(2);
        b.add_arc(0, 1);
        b.add_arc(1, 0);
        let g = b.build();
        assert_eq!(g.undirected_neighbors(0).collect::<Vec<_>>(), vec![1]);
        assert_eq!(g.undirected_degree(0), 1);
    }

    #[test]
    fn undirected_csr_matches_naive_dedup() {
        // First-occurrence order: successors, then predecessors.
        let mut b = GraphBuilder::new(5);
        b.add_arc(0, 3);
        b.add_arc(0, 1);
        b.add_arc(2, 0);
        b.add_arc(3, 0); // duplicate neighbor via reverse edge
        b.add_arc(0, 3); // parallel edge
        let g = b.build();
        assert_eq!(g.undirected_neighbors(0).collect::<Vec<_>>(), vec![3, 1, 2]);
        assert_eq!(g.undirected_degree(0), 3);
        assert_eq!(g.undirected_neighbors(4).count(), 0);
        // Cross-check every vertex against a HashSet-based dedup.
        for v in g.nodes() {
            let mut seen = HashSet::new();
            let mut expect = Vec::new();
            for u in g.successors(v).chain(g.predecessors(v)) {
                if seen.insert(u) {
                    expect.push(u);
                }
            }
            assert_eq!(
                g.undirected_neighbors(v).collect::<Vec<_>>(),
                expect,
                "vertex {v}"
            );
        }
    }

    #[test]
    fn without_edges_drops_only_requested() {
        let g = diamond();
        let removed: HashSet<_> = [1usize].into_iter().collect();
        let h = g.without_edges(&removed);
        assert_eq!(h.edge_count(), 3);
        assert_eq!(h.node_count(), 4);
        assert!(h.edges().all(|(_, e)| !(e.from == 1 && e.to == 3)));
    }

    #[test]
    fn unweighted_flag() {
        assert!(diamond().is_unweighted());
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 9);
        assert!(!b.build().is_unweighted());
    }

    #[test]
    fn parallel_edges_supported() {
        let mut b = GraphBuilder::new(2);
        b.add_arc(0, 1);
        b.add_arc(0, 1);
        let g = b.build();
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.successors(0).collect::<Vec<_>>(), vec![1, 1]);
    }

    #[test]
    #[should_panic(expected = "self loops")]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new(1);
        b.add_arc(0, 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_weight() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 0);
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let g = diamond();
        // Stable: the same construction and a snapshot round trip agree.
        assert_eq!(g.fingerprint(), diamond().fingerprint());
        assert_eq!(
            DiGraph::from_snapshot(&g.to_snapshot())
                .unwrap()
                .fingerprint(),
            g.fingerprint()
        );
        // Sensitive: weights, edge order, and extra vertices all count.
        let mut b = GraphBuilder::new(4);
        b.add_arc(0, 1);
        b.add_arc(1, 3);
        b.add_arc(0, 2);
        b.add_edge(2, 3, 2);
        assert_ne!(b.build().fingerprint(), g.fingerprint());
        let mut b = GraphBuilder::new(4);
        b.add_arc(1, 3);
        b.add_arc(0, 1);
        b.add_arc(0, 2);
        b.add_arc(2, 3);
        assert_ne!(b.build().fingerprint(), g.fingerprint());
        let mut b = GraphBuilder::new(5);
        b.add_arc(0, 1);
        b.add_arc(1, 3);
        b.add_arc(0, 2);
        b.add_arc(2, 3);
        assert_ne!(b.build().fingerprint(), g.fingerprint());
    }

    #[test]
    fn builder_grows() {
        let mut b = GraphBuilder::new(0);
        let a = b.add_node();
        let c = b.add_node();
        b.ensure_nodes(5);
        b.add_arc(a, c);
        let g = b.build();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 1);
    }
}
