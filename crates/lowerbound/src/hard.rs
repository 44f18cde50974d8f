//! The paper's lower-bound construction `G(k, d, p, φ)` and its directed
//! version `G(k, d, p, φ, M, x)` (Section 6.3, Figure 2).
//!
//! - An `s`-`t` path `P*` of `k²` edges (Alice's side).
//! - `k` "outbound" stretched paths `Q^ℓ` and `k` "return" paths `R^ℓ`,
//!   each of `2k²` edges, connecting `P*` to the far structure.
//! - The `G(2k, d, p)` base: `2k` horizontal paths of `dᵖ` vertices plus
//!   the depth-`p` tree that keeps the diameter at `2p + 2`.
//! - A complete bipartite graph on the far endpoints `{v^1..v^k} ×
//!   {w^1..w^k}` (Bob's side) whose *orientations* encode `k²` bits `M`.
//! - Edge `(s_{i−1}, q^{φ₁(i)}_{2(i−1)})` is present iff `x_i = 1`.
//!
//! The point (Lemma 6.8): the replacement path for the `i`-th edge of
//! `P*` has length exactly the "good length" (`3k² + 2dᵖ + 4` under our hop count; see `build`) iff `x_i = 1` **and**
//! `M_{φ(i)} = 1`, and is strictly longer otherwise — so 2-SiSP on this
//! graph computes set disjointness between `x` (on Alice's side) and `M`
//! (on Bob's side).

use congest::Side;
use graphkit::{DiGraph, GraphBuilder, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The bijection `φ : [k²] → [k] × [k]`. We use the lexicographic map
/// (the paper allows any bijection); indices are 0-based here: edge `i`
/// of `P*` (0-based) maps to `(i / k, i % k)`.
#[derive(Clone, Copy, Debug)]
pub struct Phi {
    k: usize,
}

impl Phi {
    /// The lexicographic bijection for a given `k`.
    pub fn lexicographic(k: usize) -> Phi {
        Phi { k }
    }

    /// `φ(i) = (φ₁(i), φ₂(i))`, 0-based.
    #[inline]
    pub fn apply(&self, i: usize) -> (usize, usize) {
        debug_assert!(i < self.k * self.k);
        (i / self.k, i % self.k)
    }
}

/// The directed construction `G(k, d, p, φ, M, x)` with handles to all
/// named vertices.
#[derive(Clone, Debug)]
pub struct HardGraph {
    /// The constructed directed graph.
    pub graph: DiGraph,
    /// Parameter `k` (the bipartite graph is `k × k`).
    pub k: usize,
    /// Tree arity.
    pub d: usize,
    /// Tree depth.
    pub p: usize,
    /// `s = s_0`.
    pub s: NodeId,
    /// `t = s_{k²}`.
    pub t: NodeId,
    /// The path `P*`: `s_0, ..., s_{k²}`.
    pub star: Vec<NodeId>,
    /// `q[ℓ][j]` = `q^ℓ_j`, `j = 0..=2k²`.
    pub q: Vec<Vec<NodeId>>,
    /// `r[ℓ][j]` = `r^ℓ_j`.
    pub r: Vec<Vec<NodeId>>,
    /// `v_paths[ℓ][i]` = `v^ℓ_i` (`i = 0..dᵖ`); `v^ℓ = v_paths[ℓ][dᵖ−1]`.
    pub v_paths: Vec<Vec<NodeId>>,
    /// `w_paths[ℓ][i]` = `w^ℓ_i`; `w^ℓ = w_paths[ℓ][dᵖ−1]`.
    pub w_paths: Vec<Vec<NodeId>>,
    /// `tree[j][i]` = `u^j_i`.
    pub tree: Vec<Vec<NodeId>>,
    /// Alice's vertex `α = u^p_0`.
    pub alpha: NodeId,
    /// Bob's vertex `β = u^p_{dᵖ−1}`.
    pub beta: NodeId,
    /// The Lemma 6.8 "good" replacement length (see the note in
    /// [`build`]: `3k² + 2dᵖ + 4` under our hop count).
    pub good_length: u64,
}

/// Builds `G(k, d, p, φ, M, x)`.
///
/// `m[a][b]` orients the bipartite edge `v^{a+1} w^{b+1}` from `v` to `w`
/// when `true`; `x[i]` keeps the escape edge for `P*`'s `i`-th edge.
///
/// # Panics
///
/// Panics if `k < 2`, `d < 2`, `p < 1`, or the `m`/`x` dimensions are
/// wrong.
pub fn build(k: usize, d: usize, p: usize, m: &[Vec<bool>], x: &[bool]) -> HardGraph {
    assert!(k >= 2 && d >= 2 && p >= 1);
    assert_eq!(m.len(), k);
    assert!(m.iter().all(|row| row.len() == k));
    assert_eq!(x.len(), k * k);
    let dp = d.pow(p as u32);
    let phi = Phi::lexicographic(k);
    let kk = k * k;
    let mut b = GraphBuilder::new(0);

    // Horizontal paths of the base family. First k: v-paths (pointing to
    // larger index); last k: w-paths (pointing to smaller index).
    let v_paths: Vec<Vec<NodeId>> = (0..k)
        .map(|_| (0..dp).map(|_| b.add_node()).collect())
        .collect();
    let w_paths: Vec<Vec<NodeId>> = (0..k)
        .map(|_| (0..dp).map(|_| b.add_node()).collect())
        .collect();
    for row in &v_paths {
        for w in row.windows(2) {
            b.add_arc(w[0], w[1]);
        }
    }
    for row in &w_paths {
        for w in row.windows(2) {
            b.add_arc(w[1], w[0]);
        }
    }
    // The tree, oriented parent -> child; leaves point into the paths.
    let tree: Vec<Vec<NodeId>> = (0..=p)
        .map(|j| (0..d.pow(j as u32)).map(|_| b.add_node()).collect())
        .collect();
    for j in 1..=p {
        for i in 0..tree[j].len() {
            b.add_arc(tree[j - 1][i / d], tree[j][i]);
        }
    }
    for i in 0..dp {
        for row in v_paths.iter().chain(&w_paths) {
            b.add_arc(tree[p][i], row[i]);
        }
    }
    let alpha = tree[p][0];
    let beta = tree[p][dp - 1];

    // The bipartite graph on the far endpoints, oriented by M.
    for a in 0..k {
        for bb in 0..k {
            let v_end = v_paths[a][dp - 1];
            let w_end = w_paths[bb][dp - 1];
            if m[a][bb] {
                b.add_arc(v_end, w_end);
            } else {
                b.add_arc(w_end, v_end);
            }
        }
    }

    // P*, Q^ℓ, R^ℓ.
    let star: Vec<NodeId> = (0..=kk).map(|_| b.add_node()).collect();
    for w in star.windows(2) {
        b.add_arc(w[0], w[1]);
    }
    let q: Vec<Vec<NodeId>> = (0..k)
        .map(|_| (0..=2 * kk).map(|_| b.add_node()).collect())
        .collect();
    let r: Vec<Vec<NodeId>> = (0..k)
        .map(|_| (0..=2 * kk).map(|_| b.add_node()).collect())
        .collect();
    for row in q.iter().chain(&r) {
        for w in row.windows(2) {
            b.add_arc(w[0], w[1]);
        }
    }
    for l in 0..k {
        b.add_arc(q[l][2 * kk], v_paths[l][0]);
        b.add_arc(w_paths[l][0], r[l][0]);
    }
    // Escape and return edges for each P* edge.
    for i in 0..kk {
        let (p1, p2) = phi.apply(i);
        if x[i] {
            b.add_arc(star[i], q[p1][2 * i]);
        }
        b.add_arc(r[p2][2 * (i + 1)], star[i + 1]);
    }
    // α connects to everything on Alice's side (diameter control).
    for &v in star
        .iter()
        .chain(q.iter().flatten())
        .chain(r.iter().flatten())
    {
        b.add_arc(alpha, v);
    }

    // Lemma 6.8's "good" length. Counting hops along the canonical
    // detour (s..s_{i-1}, escape, Q-suffix, v-path, bipartite edge,
    // w-path, R-prefix, return, s_i..t) gives 3k² + 2dᵖ + (l−j) + 4,
    // minimized at l = j = i. The paper states the constant as +6; our
    // edge-by-edge count of the Section 6.3 construction yields +4 — a
    // constant-level difference that affects neither the iff
    // correspondence nor the asymptotic bound, and the oracle-verified
    // tests in `lemma68` pin our value exactly.
    let good_length = 3 * kk as u64 + 2 * dp as u64 + 4;
    HardGraph {
        graph: b.build(),
        k,
        d,
        p,
        s: star[0],
        t: star[kk],
        star,
        q,
        r,
        v_paths,
        w_paths,
        tree,
        alpha,
        beta,
        good_length,
    }
}

impl HardGraph {
    /// `φ` used by this construction.
    pub fn phi(&self) -> Phi {
        Phi::lexicographic(self.k)
    }

    /// `dᵖ`.
    pub fn dp(&self) -> usize {
        self.d.pow(self.p as u32)
    }

    /// Alice/Bob cut labels for the simulation-lemma measurement: every
    /// vertex gets the horizontal coordinate of its attachment point in
    /// the base family (position on its path, midpoint of its leaf range
    /// for tree vertices, `0` for everything hanging off `α`), and the
    /// cut splits at `dᵖ/2`. Any information that moves from the
    /// bipartite orientations (coordinate `dᵖ−1`) to `P*` (coordinate 0)
    /// crosses it, whether it travels the paths or the tree.
    pub fn cut_sides(&self) -> Vec<Side> {
        let dp = self.dp();
        let mid = dp / 2;
        let mut side = vec![Side::Alice; self.graph.node_count()];
        for row in self.v_paths.iter().chain(&self.w_paths) {
            for (i, &v) in row.iter().enumerate() {
                side[v] = if i < mid { Side::Alice } else { Side::Bob };
            }
        }
        for (j, level) in self.tree.iter().enumerate() {
            let span = dp / level.len().max(1);
            let _ = j;
            for (i, &u) in level.iter().enumerate() {
                let midpoint = i * span + span / 2;
                side[u] = if midpoint < mid {
                    Side::Alice
                } else {
                    Side::Bob
                };
            }
        }
        side
    }
}

/// Samples a uniformly random instance `(M, x)` — used by tests and the
/// experiment harness.
pub fn random_inputs(k: usize, seed: u64) -> (Vec<Vec<bool>>, Vec<bool>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = (0..k)
        .map(|_| (0..k).map(|_| rng.gen_bool(0.5)).collect())
        .collect();
    let x = (0..k * k).map(|_| rng.gen_bool(0.5)).collect();
    (m, x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::alg::{shortest_st_path, undirected_diameter};
    use graphkit::Dist;

    #[test]
    fn observation_6_6_vertex_count_and_diameter() {
        for (k, d, p) in [(2, 2, 2), (3, 2, 3), (2, 3, 2)] {
            let (m, x) = random_inputs(k, 1);
            let g = build(k, d, p, &m, &x);
            let dp = d.pow(p as u32);
            let tree_size = (d.pow(p as u32 + 1) - 1) / (d - 1);
            let expected = 2 * k * dp + 2 * k * (2 * k * k + 1) + (k * k + 1) + tree_size;
            assert_eq!(g.graph.node_count(), expected, "k={k}, d={d}, p={p}");
            let diam = undirected_diameter(&g.graph).expect("connected");
            assert!(
                diam <= 2 * p + 2,
                "diameter {diam} > 2p+2 (k={k},d={d},p={p})"
            );
        }
    }

    #[test]
    fn p_star_is_the_shortest_path() {
        let (m, x) = random_inputs(3, 7);
        let g = build(3, 2, 3, &m, &x);
        let p = shortest_st_path(&g.graph, g.s, g.t).expect("t reachable");
        assert_eq!(p.hops(), 9);
        assert_eq!(p.nodes(), &g.star[..]);
    }

    #[test]
    fn good_edge_has_good_replacement_length() {
        // Force x_i = 1 and M_{φ(i)} = 1 for a specific i; check exactly.
        let k = 2;
        let i = 1; // φ(1) = (0, 1)
        let mut m = vec![vec![false; k]; k];
        m[0][1] = true;
        let mut x = vec![false; k * k];
        x[i] = true;
        let g = build(k, 2, 2, &m, &x);
        let p = shortest_st_path(&g.graph, g.s, g.t).unwrap();
        let repl = graphkit::alg::replacement_lengths(&g.graph, &p);
        assert_eq!(repl[i], Dist::new(g.good_length));
        for (j, &len) in repl.iter().enumerate() {
            if j != i {
                assert!(len > Dist::new(g.good_length), "edge {j} should be worse");
            }
        }
    }

    #[test]
    fn bad_orientation_blocks_the_good_detour() {
        let k = 2;
        let i = 1;
        let m = vec![vec![false; k]; k]; // all edges w -> v
        let mut x = vec![false; k * k];
        x[i] = true;
        let g = build(k, 2, 2, &m, &x);
        let p = shortest_st_path(&g.graph, g.s, g.t).unwrap();
        let repl = graphkit::alg::replacement_lengths(&g.graph, &p);
        assert!(repl[i] > Dist::new(g.good_length));
    }

    #[test]
    fn missing_x_edge_blocks_the_good_detour() {
        let k = 2;
        let i = 1;
        let mut m = vec![vec![false; k]; k];
        m[0][1] = true;
        let x = vec![false; k * k];
        let g = build(k, 2, 2, &m, &x);
        let p = shortest_st_path(&g.graph, g.s, g.t).unwrap();
        let repl = graphkit::alg::replacement_lengths(&g.graph, &p);
        assert!(repl[i] > Dist::new(g.good_length));
    }

    #[test]
    fn cut_separates_p_star_from_bipartite() {
        let (m, x) = random_inputs(2, 3);
        let g = build(2, 2, 3, &m, &x);
        let sides = g.cut_sides();
        assert_eq!(sides[g.s], Side::Alice);
        assert_eq!(sides[g.star[2]], Side::Alice);
        let dp = g.dp();
        assert_eq!(sides[g.v_paths[0][dp - 1]], Side::Bob);
        assert_eq!(sides[g.w_paths[1][dp - 1]], Side::Bob);
        assert_eq!(sides[g.alpha], Side::Alice);
        assert_eq!(sides[g.beta], Side::Bob);
    }

    #[test]
    fn tree_keeps_diameter_logarithmic_as_k_grows() {
        let (m2, x2) = random_inputs(2, 5);
        let g2 = build(2, 2, 2, &m2, &x2);
        let (m3, x3) = random_inputs(3, 5);
        let g3 = build(3, 2, 4, &m3, &x3);
        let d2 = undirected_diameter(&g2.graph).unwrap();
        let d3 = undirected_diameter(&g3.graph).unwrap();
        assert!(d2 <= 6);
        assert!(d3 <= 10);
    }
}
