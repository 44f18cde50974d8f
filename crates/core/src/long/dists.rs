//! Lemmas 5.4 and 5.6: distances between landmarks, and from/to every
//! path vertex, in `G \ P`.
//!
//! ζ-hop BFS from every landmark (both directions), the landmark pairs
//! the closure needs, and a local min-plus closure. Because w.h.p. every
//! shortest path in `G \ P` has a landmark in each ζ-vertex stretch
//! (Lemma 5.3), composing hop-bounded pieces through the closure
//! recovers the *exact* unbounded distances.
//!
//! # Only the pairs the closure needs
//!
//! Lemma 5.4 broadcasts all `|L|²` hop-bounded pairs `(l_j, l_k, d)`.
//! Most are redundant: when a third landmark `l_m` has
//! `p[j][m] + p[m][k] ≤ d`, the closure rebuilds the pair from two
//! shorter ones. [`compose_from_tables`] therefore runs Lemma 5.4's
//! pipeline over the BFS tree with [`broadcast`], whose sorted upcast and
//! filtering root make two changes (phase `long/broadcast-landmark-pairs`):
//!
//! 1. **Shortest first.** Every landmark `l_k` sends its finite pairs
//!    `(j, k, d)`, `j ≠ k`, up the tree, and every node merges what it
//!    sends, so the root sees all pairs in ascending `d`, one per round.
//!    The closure's diagonal is zero anyway, so the `|L|` self-pairs stay
//!    home.
//! 2. **Prune at the root.** The root sends a pair down only when no
//!    landmark `m ∉ {j, k}` has `p[j][m] + p[m][k] ≤ d` among the pairs
//!    it has already seen; the rest never leave it.
//! 3. **Down to the path vertices only.** The kept pairs go down only
//!    into the subtrees that hold a path vertex, the only vertices that
//!    compose (below). Every path vertex builds the closure from the
//!    stream it received.
//!
//! Off-diagonal entries are positive: at least one hop unweighted, and
//! `hops × hop_value ≥ 2` on the weighted path's scaled tables. So both
//! legs of a witness are strictly shorter than the pair and reached the
//! root before it: the root keeps exactly the [`undominated_pairs`] of the
//! whole matrix. By induction on `d` the closure of the kept pairs equals
//! the closure of all pairs in every run, not only w.h.p. Answers stay the
//! same; only the landmark-pair phase's rounds, messages and bits change.
//! Each pair crosses only the tree links between its landmark and the
//! root, and only the kept ones come back down, over the tree links above
//! the path vertices, where the all-pairs broadcast sent every pair over
//! every tree link. The phase still takes about one round per pair, as
//! the root serializes the pairs like the all-pairs broadcast does.
//!
//! # Tables by path position
//!
//! The segments phase (Lemmas 5.7–5.9) reads the composed tables only at
//! the `h_st + 1` path vertices, so [`LandmarkDistances`] composes and
//! holds them only there, indexed by path position: `O(h_st · |L|²)`
//! local work instead of `O(n · |L|²)`.

use congest::bfs_tree::BfsTree;
use congest::broadcast::broadcast;
use congest::multi_bfs::{default_budget, multi_source_bfs, MultiBfsConfig};
use congest::{word_bits, Network};
use graphkit::{Dist, NodeId};

use crate::{Instance, Params};

/// Everything Lemmas 5.4 + 5.6 deliver.
#[derive(Clone, Debug)]
pub struct LandmarkDistances {
    /// `from_landmark[j][i]` = `|l_j v_i|` in `G \ P` (exact w.h.p.), for
    /// the path vertex `v_i` at position `i ∈ 0..=h_st`. Known locally at
    /// `v_i`.
    pub from_landmark: Vec<Vec<Dist>>,
    /// `to_landmark[j][i]` = `|v_i l_j|` in `G \ P` (exact w.h.p.), for
    /// the path vertex `v_i` at position `i ∈ 0..=h_st`. Known locally at
    /// `v_i`.
    pub to_landmark: Vec<Vec<Dist>>,
    /// `closure[j][k]` = `|l_j l_k|` in `G \ P` (exact w.h.p.). Known at
    /// every path vertex after the downcast.
    pub closure: Vec<Vec<Dist>>,
}

/// One hop-bounded landmark pair: `d` = `|l_j l_k|` within ζ hops,
/// observed at `l_k`. Pairs order by distance first, the order in which
/// the root must see them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Pair {
    d: u64,
    j: u32,
    k: u32,
}

fn pair_bits(p: &Pair) -> u64 {
    word_bits(p.j as u64) + word_bits(p.k as u64) + word_bits(p.d)
}

/// The `k × k` matrix that `pairs` describe: zero on the diagonal, the
/// least listed distance in every other listed cell, ∞ elsewhere.
fn pair_matrix(k: usize, pairs: &[Pair]) -> Vec<Vec<Dist>> {
    let mut mat = vec![vec![Dist::INF; k]; k];
    for (j, row) in mat.iter_mut().enumerate() {
        row[j] = Dist::ZERO;
    }
    for p in pairs {
        let cell = &mut mat[p.j as usize][p.k as usize];
        *cell = (*cell).min(Dist::new(p.d));
    }
    mat
}

/// The root's prune. Fed the pairs in ascending distance, it keeps a pair
/// unless some landmark `m ∉ {j, k}` has `p[j][m] + p[m][k] ≤ d` among
/// the pairs fed before it.
struct Prune {
    /// The pairs fed so far, as in [`pair_matrix`].
    seen: Vec<Vec<Dist>>,
}

impl Prune {
    fn new(k: usize) -> Prune {
        Prune {
            seen: pair_matrix(k, &[]),
        }
    }

    /// Records `p` and returns whether the closure needs it.
    fn keep(&mut self, p: &Pair) -> bool {
        let (j, k, d) = (p.j as usize, p.k as usize, Dist::new(p.d));
        let seen = &self.seen;
        let witnessed = seen
            .iter()
            .enumerate()
            .any(|(m, via)| m != j && m != k && seen[j][m] + via[k] <= d);
        self.seen[j][k] = self.seen[j][k].min(d);
        !witnessed
    }
}

/// The pairs of the landmark-pair matrix `p` that the closure cannot
/// rebuild from others, as `(j, k, p[j][k])` in row-major order: every
/// finite `p[j][k]`, `j ≠ k`, with no witness `m ∉ {j, k}` such that
/// `p[j][m] + p[m][k] ≤ p[j][k]`.
///
/// Decided as the root of [`compose_from_tables`] decides: pair by pair,
/// shortest first. When every off-diagonal entry is positive, both legs
/// of a witness are strictly shorter than the pair, so they have been
/// seen by then, and by induction on the distance the
/// [`min_plus_closure`] of the kept pairs (with a zero diagonal) equals
/// `min_plus_closure(p)`.
pub fn undominated_pairs(p: &[Vec<Dist>]) -> Vec<(u32, u32, u64)> {
    let mut pairs = Vec::new();
    for (j, row) in p.iter().enumerate() {
        for (k, d) in row.iter().enumerate() {
            if let Some(d) = d.finite().filter(|_| j != k) {
                pairs.push(Pair {
                    d,
                    j: j as u32,
                    k: k as u32,
                });
            }
        }
    }
    pairs.sort_unstable();
    let mut prune = Prune::new(p.len());
    let mut kept: Vec<(u32, u32, u64)> = pairs
        .into_iter()
        .filter(|pair| prune.keep(pair))
        .map(|pair| (pair.j, pair.k, pair.d))
        .collect();
    kept.sort_unstable();
    kept
}

/// Min-plus (Floyd–Warshall) closure of a landmark distance matrix.
pub fn min_plus_closure(mut mat: Vec<Vec<Dist>>) -> Vec<Vec<Dist>> {
    let k_n = mat.len();
    for via in 0..k_n {
        for a in 0..k_n {
            if !mat[a][via].is_finite() {
                continue;
            }
            for b in 0..k_n {
                let cand = mat[a][via] + mat[via][b];
                if cand < mat[a][b] {
                    mat[a][b] = cand;
                }
            }
        }
    }
    mat
}

/// Lemma 5.4's hop-bounded tables: ζ-hop BFS in `G \ P` from every
/// landmark (phase `long/bfs-from-landmarks`) and to every landmark
/// (phase `long/bfs-to-landmarks`). Returns `(fwd, bwd)` with
/// `fwd[j][v] = |l_j v|` and `bwd[j][v] = |v l_j|` within ζ hops, indexed
/// by node id: Theorem 1's tables for [`crate::long::solve_long`].
pub fn hop_tables(
    net: &mut Network<'_>,
    inst: &Instance<'_>,
    params: &Params,
    landmarks: &[NodeId],
) -> (Vec<Vec<Dist>>, Vec<Vec<Dist>>) {
    let zeta = params.zeta as u64;
    let budget = default_budget(landmarks.len(), zeta).max(8 * net.node_count() as u64)
        * params.budget_factor;
    let mut table = |reverse, phase| {
        let cfg = MultiBfsConfig {
            sources: landmarks,
            max_dist: zeta,
            reverse,
            delays: None,
        };
        multi_source_bfs(net, &cfg, |e| inst.in_g_minus_p(e), phase, budget)
            .expect("landmark BFS quiesces")
            .0
    };
    (
        table(false, "long/bfs-from-landmarks"),
        table(true, "long/bfs-to-landmarks"),
    )
}

/// The landmark-pair + closure + composition steps of Lemmas 5.4 / 5.6,
/// given precomputed hop-bounded distance tables `fwd_hb[j][v]` =
/// `|l_j v|` and `bwd_hb[j][v]` = `|v l_j|` (both within ζ hops, indexed
/// by node id).
///
/// Sends the landmark pairs up `tree` shortest first, downcasts the
/// [`undominated_pairs`] to the path vertices as the root meets them, and
/// composes at the path vertices only (see the module docs). The tables
/// are [`hop_tables`] for Theorem 1 and the rounded, scaled tables of
/// `weighted::long` for Theorem 3 (Proposition 7.11); both reach this step
/// through [`crate::long::solve_long`].
pub fn compose_from_tables(
    net: &mut Network<'_>,
    inst: &Instance<'_>,
    landmarks: &[NodeId],
    fwd_hb: Vec<Vec<Dist>>,
    bwd_hb: Vec<Vec<Dist>>,
    tree: &BfsTree,
) -> LandmarkDistances {
    let k = landmarks.len();
    // Landmark l_k sends every finite hop-bounded pair (j, k, d) it
    // observed, bar its own zero.
    let mut items: Vec<Vec<Pair>> = vec![Vec::new(); inst.n()];
    for (j, row) in fwd_hb.iter().enumerate() {
        for (kk, &lk) in landmarks.iter().enumerate() {
            if let Some(d) = row[lk].finite().filter(|_| j != kk) {
                items[lk].push(Pair {
                    d,
                    j: j as u32,
                    k: kk as u32,
                });
            }
        }
    }
    // The root meets the pairs shortest first and sends down, towards the
    // path vertices only, those the closure cannot rebuild from pairs it
    // has already met.
    let mut prune = Prune::new(k);
    let (stream, _) = broadcast(
        net,
        tree,
        items,
        pair_bits,
        |p| prune.keep(p),
        |v| inst.path_index[v].is_some(),
        "long/broadcast-landmark-pairs",
    )
    .expect("landmark-pair broadcast quiesces");
    // Every path vertex received the same pairs; build the closure once,
    // from what the downcast delivered.
    let closure = min_plus_closure(pair_matrix(k, &stream));

    // Lemma 5.6 composition, locally at every path vertex: stitch the
    // hop-bounded first leg to the closure. The closure already chains
    // landmarks, so one pass suffices.
    let path = inst.path.nodes();
    let mut from_landmark = vec![Vec::with_capacity(path.len()); k];
    let mut to_landmark = vec![Vec::with_capacity(path.len()); k];
    for &v in path {
        for j in 0..k {
            let mut best_from = fwd_hb[j][v];
            let mut best_to = bwd_hb[j][v];
            for mid in 0..k {
                best_from = best_from.min(closure[j][mid] + fwd_hb[mid][v]);
                best_to = best_to.min(bwd_hb[mid][v] + closure[mid][j]);
            }
            from_landmark[j].push(best_from);
            to_landmark[j].push(best_to);
        }
    }
    LandmarkDistances {
        from_landmark,
        to_landmark,
        closure,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest::bfs_tree::build_bfs_tree;
    use graphkit::alg::{bfs, bfs_reverse};
    use graphkit::gen::{parallel_lane, planted_path_digraph};

    fn exact_tables(inst: &Instance<'_>, landmarks: &[NodeId]) -> (Vec<Vec<Dist>>, Vec<Vec<Dist>>) {
        let fwd = landmarks
            .iter()
            .map(|&l| bfs(inst.graph, l, |e| inst.in_g_minus_p(e)))
            .collect();
        let bwd = landmarks
            .iter()
            .map(|&l| bfs_reverse(inst.graph, l, |e| inst.in_g_minus_p(e)))
            .collect();
        (fwd, bwd)
    }

    /// The columns of node-indexed `tables` at the path vertices, in path
    /// order: the layout [`LandmarkDistances`] uses.
    fn at_path(inst: &Instance<'_>, tables: &[Vec<Dist>]) -> Vec<Vec<Dist>> {
        tables
            .iter()
            .map(|row| inst.path.nodes().iter().map(|&v| row[v]).collect())
            .collect()
    }

    #[test]
    fn full_landmarks_give_exact_unbounded_distances() {
        // With every vertex a landmark and ζ >= 1, the closure must
        // recover exact distances in G \ P regardless of path length.
        let (g, s, t) = parallel_lane(12, 3, 2);
        let inst = Instance::from_endpoints(&g, s, t).unwrap();
        let mut params = Params::with_zeta(inst.n(), 2);
        params.landmark_prob = 1.0;
        let landmarks: Vec<NodeId> = inst.graph.nodes().collect();
        let mut net = Network::new(inst.graph);
        let (tree, _) = build_bfs_tree(&mut net, inst.s()).unwrap();
        let (hop_fwd, hop_bwd) = hop_tables(&mut net, &inst, &params, &landmarks);
        let ld = compose_from_tables(&mut net, &inst, &landmarks, hop_fwd, hop_bwd, &tree);
        let (fwd, bwd) = exact_tables(&inst, &landmarks);
        // Landmark k is vertex k, so the closure built from the delivered
        // pairs is the exact distance matrix itself.
        assert_eq!(ld.closure, fwd);
        assert_eq!(ld.from_landmark, at_path(&inst, &fwd));
        assert_eq!(ld.to_landmark, at_path(&inst, &bwd));
    }

    #[test]
    fn sparse_landmarks_with_large_zeta_are_exact() {
        // ζ >= n: the hop bound never binds, so hop-bounded BFS is exact
        // even before composition.
        for seed in 0..4 {
            let (g, s, t) = planted_path_digraph(36, 10, 80, seed);
            let inst = Instance::from_endpoints(&g, s, t).unwrap();
            let mut params = Params::with_zeta(inst.n(), inst.n());
            params.landmark_prob = 0.3;
            params.seed = seed;
            let landmarks = crate::long::landmarks::sample(&inst, &params);
            if landmarks.is_empty() {
                continue;
            }
            let mut net = Network::new(inst.graph);
            let (tree, _) = build_bfs_tree(&mut net, inst.s()).unwrap();
            let (hop_fwd, hop_bwd) = hop_tables(&mut net, &inst, &params, &landmarks);
            let ld = compose_from_tables(&mut net, &inst, &landmarks, hop_fwd, hop_bwd, &tree);
            let (fwd, bwd) = exact_tables(&inst, &landmarks);
            assert_eq!(ld.from_landmark, at_path(&inst, &fwd), "seed {seed}");
            assert_eq!(ld.to_landmark, at_path(&inst, &bwd), "seed {seed}");
        }
    }

    #[test]
    fn closure_is_min_plus() {
        let inf = Dist::INF;
        let d = |x| Dist::new(x);
        let mat = vec![
            vec![d(0), d(5), inf],
            vec![inf, d(0), d(2)],
            vec![d(1), inf, d(0)],
        ];
        let c = min_plus_closure(mat);
        assert_eq!(c[0][2], d(7));
        assert_eq!(c[2][1], d(6)); // 2 -> 0 -> 1
        assert_eq!(c[1][0], d(3)); // 1 -> 2 -> 0
    }

    #[test]
    fn closure_distances_never_underestimate() {
        // Composed values are always realizable path lengths: compare
        // against the exact oracle from every landmark, at every path
        // vertex (the only entries the tables hold).
        let (g, s, t) = parallel_lane(20, 5, 2);
        let inst = Instance::from_endpoints(&g, s, t).unwrap();
        let mut params = Params::with_zeta(inst.n(), 4);
        params.landmark_prob = 0.5;
        let landmarks = crate::long::landmarks::sample(&inst, &params);
        let mut net = Network::new(inst.graph);
        let (tree, _) = build_bfs_tree(&mut net, inst.s()).unwrap();
        let (hop_fwd, hop_bwd) = hop_tables(&mut net, &inst, &params, &landmarks);
        let ld = compose_from_tables(&mut net, &inst, &landmarks, hop_fwd, hop_bwd, &tree);
        let (fwd, bwd) = exact_tables(&inst, &landmarks);
        for j in 0..landmarks.len() {
            for (i, &v) in inst.path.nodes().iter().enumerate() {
                assert!(ld.from_landmark[j][i] >= fwd[j][v]);
                assert!(ld.to_landmark[j][i] >= bwd[j][v]);
            }
        }
    }
}
