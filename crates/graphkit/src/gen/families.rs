//! Deterministic structured graph families.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{DiGraph, GraphBuilder, NodeId};

/// A path of `h` hops plus a parallel "lane" with switch points every
/// `switch_every` hops, stretched by factor `stretch`; returns
/// `(graph, s, t)`.
///
/// Vertices `0..=h` are the planted shortest path. The lane is a directed
/// path of `h · stretch` edges; at every path index `i` that is a multiple
/// of `switch_every` (and at `h`), bidirectional switch edges connect
/// `v_i` with lane position `i · stretch`.
///
/// The replacement path for edge `(v_i, v_{i+1})` must ride the lane
/// between the nearest switches around the failure, so its detour has
/// `2 + gap · stretch` hops where `gap` is the switch spacing. Choosing
/// `switch_every · stretch` below or above the short-detour threshold ζ
/// moves instances between the paper's Section 4 and Section 5 regimes.
///
/// # Panics
///
/// Panics if `h == 0`, `switch_every == 0`, or `stretch == 0`.
pub fn parallel_lane(h: usize, switch_every: usize, stretch: usize) -> (DiGraph, NodeId, NodeId) {
    assert!(h >= 1 && switch_every >= 1 && stretch >= 1);
    let lane_len = h * stretch;
    let mut b = GraphBuilder::new(h + 1 + lane_len + 1);
    for i in 0..h {
        b.add_arc(i, i + 1);
    }
    let lane = |k: usize| h + 1 + k;
    for k in 0..lane_len {
        b.add_arc(lane(k), lane(k + 1));
    }
    let mut i = 0;
    loop {
        // Switch edges both ways keep the potential argument intact:
        // entering or leaving the lane never advances towards t for free.
        b.add_arc(i, lane(i * stretch));
        b.add_arc(lane(i * stretch), i);
        if i == h {
            break;
        }
        i = (i + switch_every).min(h);
    }
    (b.build(), 0, h)
}

/// Directed grid with rightward and downward edges; returns
/// `(graph, s, t)` with `s` the top-left and `t` the bottom-right corner.
///
/// Every monotone staircase is a shortest path, so replacement paths are
/// plentiful and short — a stress test for the short-detour machinery.
///
/// # Panics
///
/// Panics if `rows == 0` or `cols == 0`.
pub fn grid(rows: usize, cols: usize) -> (DiGraph, NodeId, NodeId) {
    assert!(rows >= 1 && cols >= 1);
    let mut b = GraphBuilder::new(rows * cols);
    let at = |r: usize, c: usize| r * cols + c;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_arc(at(r, c), at(r, c + 1));
            }
            if r + 1 < rows {
                b.add_arc(at(r, c), at(r + 1, c));
            }
        }
    }
    (b.build(), at(0, 0), at(rows - 1, cols - 1))
}

/// Road-like bidirectional grid with optional diagonal chords; returns
/// `(graph, s, t)` with `s` the top-left and `t` the bottom-right corner.
///
/// Unlike [`grid`] (a one-way DAG), every street runs both ways, so
/// replacement paths can backtrack — the realistic road-network regime.
/// `chords` random diagonal shortcuts (each a bidirectional pair between
/// a cell and its down-right or down-left neighbour) act as freeway
/// on-ramps that create asymmetric fast routes.
///
/// Deterministic for a given `(rows, cols, chords, seed)`. The graph has
/// `rows·cols` nodes and `2·(rows·(cols-1) + cols·(rows-1)) + 2·chords`
/// arcs (diagonals may repeat: the graph is a multigraph).
///
/// # Panics
///
/// Panics if `rows == 0` or `cols == 0`.
pub fn grid_road(rows: usize, cols: usize, chords: usize, seed: u64) -> (DiGraph, NodeId, NodeId) {
    assert!(rows >= 1 && cols >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(rows * cols);
    let at = |r: usize, c: usize| r * cols + c;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_bidirectional(at(r, c), at(r, c + 1));
            }
            if r + 1 < rows {
                b.add_bidirectional(at(r, c), at(r + 1, c));
            }
        }
    }
    if rows >= 2 && cols >= 2 {
        for _ in 0..chords {
            let r = rng.gen_range(0..rows - 1);
            let c = rng.gen_range(0..cols);
            // Down-right chord, or down-left when at (or rolling) the
            // right edge.
            let c2 = if c + 1 < cols && rng.gen_bool(0.5) {
                c + 1
            } else if c > 0 {
                c - 1
            } else {
                c + 1
            };
            b.add_bidirectional(at(r, c), at(r + 1, c2));
        }
    }
    (b.build(), at(0, 0), at(rows - 1, cols - 1))
}

/// Octopus-style pod topology: `pods` pods of `pod_size` nodes each,
/// joined by a *sparse* inter-pod spine (PAPERS.md: "Octopus: Enhancing
/// CXL Memory Pods via Sparse Topology").
///
/// Pod `p` occupies nodes `[p·pod_size, (p+1)·pod_size)`; its first node
/// is the pod *head* (the switch). Within a pod, the head has a
/// bidirectional spoke to every member, and members form a bidirectional
/// ring (when `pod_size ≥ 3`) so a crashed head degrades but does not
/// disconnect the pod. Heads form a bidirectional ring, plus
/// `extra_spine` random head-to-head shortcuts drawn from `seed` — the
/// sparse spine. The result is strongly degree-skewed (heads dwarf
/// members) with long inter-pod detours, the shape the star/power-law
/// families miss.
///
/// Deterministic for a given `(pods, pod_size, extra_spine, seed)`.
///
/// # Panics
///
/// Panics if `pods == 0`, `pod_size == 0`, or the graph would be a
/// single node (`pods · pod_size < 2`).
pub fn octopus_pods(pods: usize, pod_size: usize, extra_spine: usize, seed: u64) -> DiGraph {
    assert!(pods >= 1 && pod_size >= 1);
    let n = pods * pod_size;
    assert!(n >= 2, "octopus_pods needs at least two nodes");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    let head = |p: usize| p * pod_size;
    for p in 0..pods {
        for k in 1..pod_size {
            b.add_bidirectional(head(p), head(p) + k);
        }
        if pod_size >= 3 {
            // Member ring (head included) for intra-pod redundancy.
            for k in 0..pod_size {
                b.add_bidirectional(head(p) + k, head(p) + (k + 1) % pod_size);
            }
        }
    }
    // Spine: ring over heads, then sparse random shortcuts.
    if pods == 2 {
        b.add_bidirectional(head(0), head(1));
    } else if pods >= 3 {
        for p in 0..pods {
            b.add_bidirectional(head(p), head((p + 1) % pods));
        }
    }
    if pods >= 2 {
        for _ in 0..extra_spine {
            let a = rng.gen_range(0..pods);
            let mut c = rng.gen_range(0..pods);
            if c == a {
                c = (c + 1) % pods;
            }
            b.add_bidirectional(head(a), head(c));
        }
    }
    b.build()
}

/// Layered DAG: `s`, then `layers` layers of `width` vertices, then `t`;
/// returns `(graph, s, t)`.
///
/// Each vertex has at least one incoming edge from the previous layer
/// (connectivity), the "spine" `s -> layer_0[0] -> layer_1[0] -> ... -> t`
/// always exists (reachability), and `extra_edges` additional random
/// forward edges create alternative routes. All `s`-`t` paths have exactly
/// `layers + 1` hops, so any of them is a valid `P`.
///
/// # Panics
///
/// Panics if `layers == 0` or `width == 0`.
pub fn layered_dag(
    layers: usize,
    width: usize,
    extra_edges: usize,
    seed: u64,
) -> (DiGraph, NodeId, NodeId) {
    assert!(layers >= 1 && width >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 2 + layers * width;
    let mut b = GraphBuilder::new(n);
    let s = 0;
    let t = n - 1;
    let at = |l: usize, w: usize| 1 + l * width + w;
    for w in 0..width {
        b.add_arc(s, at(0, w));
    }
    for l in 1..layers {
        for w in 0..width {
            let src = if w == 0 { 0 } else { rng.gen_range(0..width) };
            b.add_arc(at(l - 1, src), at(l, w));
        }
    }
    for w in 0..width {
        b.add_arc(at(layers - 1, w), t);
    }
    for _ in 0..extra_edges {
        if layers < 2 {
            break;
        }
        let l = rng.gen_range(0..layers - 1);
        let u = rng.gen_range(0..width);
        let v = rng.gen_range(0..width);
        b.add_arc(at(l, u), at(l + 1, v));
    }
    (b.build(), s, t)
}

/// A star: node `0` is the hub, nodes `1..n` are spokes.
///
/// Spoke arcs alternate orientation (hub→spoke for even spokes,
/// spoke→hub for odd) so both arc directions occur without changing the
/// topology. The undirected graph is connected with diameter 2 and the
/// hub has undirected degree `n - 1` — the most extreme single-node
/// hot spot a graph can have.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn star(n: usize) -> DiGraph {
    assert!(n >= 2, "a star needs a hub and at least one spoke");
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        if v % 2 == 0 {
            b.add_arc(0, v);
        } else {
            b.add_arc(v, 0);
        }
    }
    b.build()
}

/// Two linked hubs (`0` and `1`) with spokes `2..n` alternating between
/// them.
///
/// Splits the star's hot spot in half between two adjacent heavy
/// nodes.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn two_hub(n: usize) -> DiGraph {
    assert!(n >= 2, "a two-hub graph needs both hubs");
    let mut b = GraphBuilder::new(n);
    b.add_arc(0, 1);
    for v in 2..n {
        let hub = v % 2;
        if v % 4 < 2 {
            b.add_arc(hub, v);
        } else {
            b.add_arc(v, hub);
        }
    }
    b.build()
}

/// A metro ring: `pops` points of presence joined into a bidirectional
/// cycle, the canonical 2-edge-connected carrier topology.
///
/// Every span (the antiparallel arc pair between adjacent PoPs) has a
/// disjoint alternative route the long way around, so any *single* span
/// failure leaves the ring connected — the design case for the fault
/// campaigns: a degraded solve must still answer, just along the longer
/// arc. Two span failures cut the ring into at most two segments.
///
/// Span `i` connects PoPs `i` and `(i + 1) % pops`; spans are added in
/// ascending `i`, so the arcs of span `i` are edges `2i` (forward) and
/// `2i + 1` (backward). The natural endpoints for a diameter-spanning
/// demand are `s = 0` and `t = pops / 2`.
///
/// # Panics
///
/// Panics if `pops < 3` (a cycle needs three vertices).
pub fn metro_ring(pops: usize) -> DiGraph {
    assert!(pops >= 3, "a ring needs at least three points of presence");
    let mut b = GraphBuilder::new(pops);
    for i in 0..pops {
        b.add_bidirectional(i, (i + 1) % pops);
    }
    b.build()
}

/// Preferential-attachment digraph with a power-law degree profile.
///
/// Nodes arrive one at a time; node `v` attaches to an existing node
/// chosen proportionally to its current undirected degree (the classic
/// rich-get-richer urn), with the arc orientation drawn at random. The
/// result is a connected tree-like graph whose few early nodes
/// accumulate most of the degree — the smooth cousin of [`star`] for
/// testing degree-aware work partitioning.
///
/// Deterministic for a given `(n, seed)`.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn power_law_digraph(n: usize, seed: u64) -> DiGraph {
    assert!(n >= 2, "preferential attachment needs a seed edge");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    b.add_arc(0, 1);
    // One bag entry per edge endpoint: sampling uniformly from the bag
    // is sampling nodes proportionally to degree.
    let mut bag: Vec<NodeId> = vec![0, 1];
    for v in 2..n {
        let target = bag[rng.gen_range(0..bag.len())];
        if rng.gen_range(0..2) == 0 {
            b.add_arc(target, v);
        } else {
            b.add_arc(v, target);
        }
        bag.push(target);
        bag.push(v);
    }
    b.build()
}

/// The Ω(D) lower-bound family from the proof of Theorem 2.
#[derive(Clone, Debug)]
pub struct Theorem2Instance {
    /// The constructed graph.
    pub graph: DiGraph,
    /// Source vertex.
    pub s: NodeId,
    /// Target vertex.
    pub t: NodeId,
    /// Vertex sequence of the length-`d` shortest path (the input `P`).
    pub short_path: Vec<NodeId>,
    /// Expected 2-SiSP value: `Some(d + 1)` when the long path is intact,
    /// `None` (infinite) when one of its edges was reversed.
    pub expected_sisp: Option<u64>,
}

/// Builds the Theorem 2 construction: two parallel directed `s`-`t` paths
/// of lengths `d` and `d + 1`, with optionally one edge of the longer path
/// reversed.
///
/// Distinguishing "second path length `d+1`" from "no second path"
/// requires information to travel the length of the construction, giving
/// the Ω(D) term of the lower bound. The graph has `2d + 1` vertices and
/// undirected diameter `Θ(d)`.
///
/// # Panics
///
/// Panics if `d < 2` or `reversed_edge` is out of range (`>= d + 1`).
pub fn theorem2_family(d: usize, reversed_edge: Option<usize>) -> Theorem2Instance {
    assert!(d >= 2, "need d >= 2 for two internally disjoint paths");
    if let Some(i) = reversed_edge {
        assert!(i < d + 1, "the long path has d + 1 edges");
    }
    // Vertices: s = 0, t = 1, short internals 2..d+1 (d - 1 of them),
    // long internals d+1..2d+1 (d of them). Total 2d + 1.
    let mut b = GraphBuilder::new(2 * d + 1);
    let s = 0;
    let t = 1;
    let short = |k: usize| 2 + (k - 1); // k in 1..=d-1
    let long = |k: usize| (d + 1) + (k - 1); // k in 1..=d

    let mut short_path = vec![s];
    // Short path: s -> short(1) -> ... -> short(d-1) -> t  (d edges).
    let mut prev = s;
    for k in 1..d {
        b.add_arc(prev, short(k));
        short_path.push(short(k));
        prev = short(k);
    }
    b.add_arc(prev, t);
    short_path.push(t);

    // Long path: s -> long(1) -> ... -> long(d) -> t  (d + 1 edges).
    let mut long_nodes = vec![s];
    long_nodes.extend((1..=d).map(long));
    long_nodes.push(t);
    for (i, w) in long_nodes.windows(2).enumerate() {
        if reversed_edge == Some(i) {
            b.add_arc(w[1], w[0]);
        } else {
            b.add_arc(w[0], w[1]);
        }
    }

    Theorem2Instance {
        graph: b.build(),
        s,
        t,
        short_path,
        expected_sisp: if reversed_edge.is_none() {
            Some(d as u64 + 1)
        } else {
            None
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg::{
        replacement_lengths, second_simple_shortest, shortest_st_path, undirected_diameter,
    };
    use crate::{Dist, StPath};

    #[test]
    fn parallel_lane_planted_path_is_shortest() {
        let (g, s, t) = parallel_lane(12, 3, 2);
        let p = shortest_st_path(&g, s, t).unwrap();
        assert_eq!(p.hops(), 12);
        assert!(undirected_diameter(&g).is_some());
    }

    #[test]
    fn parallel_lane_replacement_lengths_follow_switches() {
        let h = 12;
        let (c, stretch) = (3, 2);
        let (g, s, t) = parallel_lane(h, c, stretch);
        let p = shortest_st_path(&g, s, t).unwrap();
        let r = replacement_lengths(&g, &p);
        for (i, &len) in r.iter().enumerate() {
            // Nearest switches around edge (i, i+1).
            let a = (i / c) * c;
            let bnd = ((i / c + 1) * c).min(h);
            let gap = (bnd - a) as u64;
            let expected = (h as u64) - gap + 2 + gap * stretch as u64;
            assert_eq!(len, Dist::new(expected), "edge {i}");
        }
    }

    #[test]
    fn grid_has_many_shortest_paths() {
        let (g, s, t) = grid(4, 5);
        let p = shortest_st_path(&g, s, t).unwrap();
        assert_eq!(p.hops(), 3 + 4);
        let r = replacement_lengths(&g, &p);
        // Interior failures reroute at equal length; only the corners can
        // be pinch points depending on the extracted path.
        assert!(r.iter().any(|d| d.is_finite()));
    }

    #[test]
    fn grid_road_counts_connectivity_and_determinism() {
        let (rows, cols, chords) = (5, 7, 6);
        let (g, s, t) = grid_road(rows, cols, chords, 11);
        assert_eq!(g.node_count(), rows * cols);
        assert_eq!(
            g.edge_count(),
            2 * (rows * (cols - 1) + cols * (rows - 1)) + 2 * chords
        );
        assert!(undirected_diameter(&g).is_some(), "must be connected");
        // Both directions exist: the shortest path backtracks if useful.
        let p = shortest_st_path(&g, s, t).unwrap();
        assert!(p.hops() <= (rows - 1) + (cols - 1));
        let (h, _, _) = grid_road(rows, cols, chords, 11);
        let arcs = |g: &DiGraph| g.edges().map(|(_, e)| (e.from, e.to)).collect::<Vec<_>>();
        assert_eq!(arcs(&g), arcs(&h), "same seed, same graph");
        let (k, _, _) = grid_road(rows, cols, chords, 12);
        assert_ne!(arcs(&g), arcs(&k), "different seed, different chords");
    }

    #[test]
    fn grid_road_replacements_all_finite() {
        // Bidirectional streets: any single failed street has a detour.
        let (g, s, t) = grid_road(4, 6, 0, 0);
        let p = shortest_st_path(&g, s, t).unwrap();
        let r = replacement_lengths(&g, &p);
        assert!(r.iter().all(|d| d.is_finite()));
    }

    #[test]
    fn octopus_pods_shape_and_redundancy() {
        let (pods, pod_size, extra) = (6, 5, 3);
        let g = octopus_pods(pods, pod_size, extra, 5);
        assert_eq!(g.node_count(), pods * pod_size);
        // Pairs: per pod (pod_size-1) spokes + pod_size ring; spine ring
        // pods; extra shortcuts.
        let pairs = pods * ((pod_size - 1) + pod_size) + pods + extra;
        assert_eq!(g.edge_count(), 2 * pairs);
        assert!(undirected_diameter(&g).is_some(), "must be connected");
        // Heads dominate the degree profile.
        let head_deg = g.undirected_degree(0);
        let member_deg = g.undirected_degree(1);
        assert!(head_deg > member_deg, "{head_deg} vs {member_deg}");
        // Determinism.
        let h = octopus_pods(pods, pod_size, extra, 5);
        let arcs = |g: &DiGraph| g.edges().map(|(_, e)| (e.from, e.to)).collect::<Vec<_>>();
        assert_eq!(arcs(&g), arcs(&h));
    }

    #[test]
    fn octopus_pods_degenerate_sizes() {
        // Single pod: just the star + ring.
        let g = octopus_pods(1, 4, 7, 1);
        assert!(undirected_diameter(&g).is_some());
        // Pod size 1: the spine ring alone.
        let g = octopus_pods(5, 1, 2, 1);
        assert!(undirected_diameter(&g).is_some());
        // Two pods: a single spine link, no ring double-edge.
        let g = octopus_pods(2, 3, 0, 1);
        assert_eq!(g.edge_count(), 2 * (2 * (2 + 3) + 1));
        assert!(undirected_diameter(&g).is_some());
    }

    #[test]
    fn layered_dag_paths_have_uniform_length() {
        let (g, s, t) = layered_dag(6, 4, 30, 3);
        let p = shortest_st_path(&g, s, t).unwrap();
        assert_eq!(p.hops(), 7);
        assert!(undirected_diameter(&g).is_some());
    }

    #[test]
    fn metro_ring_is_a_bidirectional_cycle() {
        let pops = 10;
        let g = metro_ring(pops);
        assert_eq!(g.node_count(), pops);
        assert_eq!(g.edge_count(), 2 * pops);
        // Span i = edges (2i, 2i + 1), antiparallel between i and i + 1.
        for i in 0..pops {
            let f = g.edge(2 * i);
            let r = g.edge(2 * i + 1);
            assert_eq!((f.from, f.to), (i, (i + 1) % pops));
            assert_eq!((r.from, r.to), ((i + 1) % pops, i));
        }
        // Antipodal demand: shortest path is half the ring, and every
        // single-edge failure has a finite replacement the long way round.
        let p = shortest_st_path(&g, 0, pops / 2).unwrap();
        assert_eq!(p.hops(), pops / 2);
        let r = replacement_lengths(&g, &p);
        assert!(r.iter().all(|d| d.is_finite()));
        assert_eq!(undirected_diameter(&g), Some(pops / 2));
    }

    #[test]
    fn star_is_connected_with_one_hub() {
        let g = star(31);
        assert_eq!(g.node_count(), 31);
        assert_eq!(g.edge_count(), 30);
        assert_eq!(undirected_diameter(&g), Some(2));
        assert_eq!(g.undirected_degree(0), 30);
        for v in 1..31 {
            assert_eq!(g.undirected_degree(v), 1);
        }
        // Both arc orientations occur.
        assert!(g.out_degree(0) > 0 && g.in_degree(0) > 0);
    }

    #[test]
    fn two_hub_splits_degree_between_hubs() {
        let g = two_hub(40);
        assert!(undirected_diameter(&g).is_some());
        assert_eq!(g.undirected_degree(0), 20);
        assert_eq!(g.undirected_degree(1), 20);
        for v in 2..40 {
            assert_eq!(g.undirected_degree(v), 1);
        }
    }

    #[test]
    fn power_law_is_connected_deterministic_and_skewed() {
        let g = power_law_digraph(400, 7);
        assert_eq!(g.node_count(), 400);
        assert_eq!(g.edge_count(), 399);
        assert!(undirected_diameter(&g).is_some(), "must be connected");
        let h = power_law_digraph(400, 7);
        let arcs = |g: &DiGraph| g.edges().map(|(_, e)| (e.from, e.to)).collect::<Vec<_>>();
        assert_eq!(arcs(&g), arcs(&h), "same seed, same graph");
        // Rich-get-richer: the heaviest node dwarfs the average degree
        // (~2 in a tree).
        let max_deg = g.nodes().map(|v| g.undirected_degree(v)).max().unwrap();
        assert!(max_deg >= 20, "expected a heavy hub, max degree {max_deg}");
    }

    #[test]
    fn theorem2_intact_long_path() {
        let inst = theorem2_family(6, None);
        assert_eq!(inst.graph.node_count(), 13);
        let p = StPath::from_nodes(&inst.graph, &inst.short_path).unwrap();
        assert!(p.validate_shortest(&inst.graph).is_ok());
        assert_eq!(
            second_simple_shortest(&inst.graph, &p),
            Dist::new(inst.expected_sisp.unwrap())
        );
    }

    #[test]
    fn theorem2_reversed_edge_kills_second_path() {
        for rev in [0, 3, 6] {
            let inst = theorem2_family(6, Some(rev));
            let p = StPath::from_nodes(&inst.graph, &inst.short_path).unwrap();
            assert_eq!(second_simple_shortest(&inst.graph, &p), Dist::INF);
        }
    }

    #[test]
    fn theorem2_diameter_scales_with_d() {
        let small = theorem2_family(4, None);
        let large = theorem2_family(16, None);
        let ds = undirected_diameter(&small.graph).unwrap();
        let dl = undirected_diameter(&large.graph).unwrap();
        assert!(dl > ds);
        assert!(dl >= 16 / 2);
    }
}
