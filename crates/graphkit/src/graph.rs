//! Compact directed multigraph with positive integer weights.

use std::fmt;

/// Identifies a vertex; vertices are always `0..n`.
pub type NodeId = usize;

/// Identifies an edge by its insertion index.
pub type EdgeId = usize;

/// A directed weighted edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
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
/// [`GraphBuilder`]. Two graphs are equal when their vertex counts and
/// edge lists are: the indexes are built from those alone.
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
#[derive(Clone, PartialEq, Eq)]
pub struct DiGraph {
    n: usize,
    edges: Vec<Edge>,
    out_index: Csr,
    in_index: Csr,
    /// Deduplicated undirected adjacency (CONGEST communication
    /// neighbors), precomputed once at build time so neighbor iteration
    /// is allocation-free.
    undirected: Csr,
    unweighted: bool,
}

#[derive(Clone, PartialEq, Eq)]
struct Csr {
    offsets: Vec<u32>,
    items: Vec<u32>,
}

impl Csr {
    fn build(n: usize, keys: impl Iterator<Item = usize> + Clone, m: usize) -> Csr {
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
    fn slice(&self, k: usize) -> &[u32] {
        &self.items[self.offsets[k] as usize..self.offsets[k + 1] as usize]
    }
}

/// Deduplicated undirected adjacency in one `O(n + m)` pass: per vertex,
/// successors then predecessors in first-occurrence order, with a
/// stamp array standing in for a per-vertex hash set.
fn build_undirected(n: usize, edges: &[Edge], out_index: &Csr, in_index: &Csr) -> Csr {
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

    /// A stable 64-bit identity of the graph's full structure: vertex
    /// count and edge list (order, endpoints, weights). The adjacency
    /// indexes are a deterministic function of those, so they are
    /// covered too.
    ///
    /// The fingerprint is the [`fnv1a`] hash of the little-endian words
    /// `n: u64`, `m: u64`, then per edge `from: u32`, `to: u32`,
    /// `weight: u64` — the words a snapshot's graph section holds — so
    /// it is identical across processes, platforms, and snapshot round
    /// trips. Artifact caches key on it to decide whether a persisted
    /// artifact still describes the graph in hand.
    pub fn fingerprint(&self) -> u64 {
        let counts = [self.n as u64, self.edges.len() as u64];
        let edges = self.edges.iter().flat_map(|e| {
            let mut words = [0u8; 16];
            words[..4].copy_from_slice(&(e.from as u32).to_le_bytes());
            words[4..8].copy_from_slice(&(e.to as u32).to_le_bytes());
            words[8..].copy_from_slice(&e.weight.to_le_bytes());
            words
        });
        fnv1a(counts.into_iter().flat_map(u64::to_le_bytes).chain(edges))
    }

    /// Sum of all edge weights, or `None` when it does not fit `u64`.
    pub fn total_weight(&self) -> Option<u64> {
        self.edges
            .iter()
            .try_fold(0u64, |sum, e| sum.checked_add(e.weight))
    }

    /// Largest edge weight (`0` for an edgeless graph).
    pub fn max_weight(&self) -> u64 {
        self.edges.iter().map(|e| e.weight).max().unwrap_or(0)
    }
}

/// The 64-bit FNV-1a hash of `bytes`, one byte at a time.
///
/// Every persisted fingerprint is this hash: [`DiGraph::fingerprint`]
/// and the session layer's parameter and path fingerprints. Persisted
/// cache entries carry their values, so it must never change.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    bytes
        .into_iter()
        .fold(OFFSET, |h, b| (h ^ u64::from(b)).wrapping_mul(PRIME))
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

    /// Adds one fresh vertex and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        self.n += 1;
        self.n - 1
    }

    /// Adds a directed edge and returns its id.
    ///
    /// # Panics
    ///
    /// Panics with the rule the edge breaks (see
    /// [`GraphBuilder::try_add_edge`]).
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, weight: u64) -> EdgeId {
        self.try_add_edge(from, to, weight)
            .unwrap_or_else(|rule| panic!("{rule}"))
    }

    /// Adds a directed edge and returns its id, or the rule it breaks.
    ///
    /// # Errors
    ///
    /// An endpoint out of range, `from == to` (self loops are
    /// meaningless for replacement paths), or `weight == 0` (weights
    /// must be positive integers, per the paper's model); the builder
    /// is left unchanged.
    pub fn try_add_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        weight: u64,
    ) -> Result<EdgeId, &'static str> {
        if from >= self.n || to >= self.n {
            return Err("edge endpoint out of range");
        }
        if from == to {
            return Err("self loops are not allowed");
        }
        if weight == 0 {
            return Err("edge weights must be positive integers");
        }
        self.edges.push(Edge { from, to, weight });
        Ok(self.edges.len() - 1)
    }

    /// Adds an unweighted (weight-1) directed edge.
    pub fn add_arc(&mut self, from: NodeId, to: NodeId) -> EdgeId {
        self.add_edge(from, to, 1)
    }

    /// Adds `u -> v` and `v -> u` weight-1 edges, returning both ids.
    pub fn add_bidirectional(&mut self, u: NodeId, v: NodeId) -> (EdgeId, EdgeId) {
        (self.add_arc(u, v), self.add_arc(v, u))
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
    use std::collections::HashSet;

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
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a([]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(*b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(*b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let g = diamond();
        // Stable: persisted cache entries carry these values, so a change
        // orphans every snapshot already written.
        assert_eq!(g.fingerprint(), 0xf68e_a5f4_2347_9795);
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 3);
        b.add_edge(1, 4, 1 << 40);
        b.add_edge(0, 2, 7);
        b.add_edge(2, 4, 2);
        b.add_edge(3, 0, 9);
        assert_eq!(b.build().fingerprint(), 0xb354_3864_9721_2976);
        assert_eq!(
            GraphBuilder::new(0).build().fingerprint(),
            0x8820_1fb9_60ff_6465
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
        b.add_arc(a, c);
        let g = b.build();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
    }
}
