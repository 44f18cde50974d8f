//! Lemmas 5.4 and 5.6: distances between landmarks and from/to every
//! vertex, in `G \ P`.
//!
//! ζ-hop BFS from every landmark (both directions), one broadcast of the
//! `|L|²` hop-bounded pairwise distances, and a local min-plus closure.
//! Because w.h.p. every shortest path in `G \ P` has a landmark in each
//! ζ-vertex stretch (Lemma 5.3), composing hop-bounded pieces through the
//! closure recovers the *exact* unbounded distances.

use congest::bfs_tree::BfsTree;
use congest::broadcast::broadcast;
use congest::multi_bfs::{default_budget, multi_source_bfs, MultiBfsConfig};
use congest::{word_bits, Network};
use graphkit::{Dist, NodeId};

use crate::{Instance, Params};

/// Everything Lemmas 5.4 + 5.6 deliver.
#[derive(Clone, Debug)]
pub struct LandmarkDistances {
    /// The landmark vertices, in index order.
    pub landmarks: Vec<NodeId>,
    /// `from_landmark[j][v]` = `|l_j v|` in `G \ P` (exact w.h.p.). Known
    /// locally at `v`.
    pub from_landmark: Vec<Vec<Dist>>,
    /// `to_landmark[j][v]` = `|v l_j|` in `G \ P` (exact w.h.p.). Known
    /// locally at `v`.
    pub to_landmark: Vec<Vec<Dist>>,
    /// `closure[j][k]` = `|l_j l_k|` in `G \ P` (exact w.h.p.). Known
    /// globally after the broadcast.
    pub closure: Vec<Vec<Dist>>,
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

/// Runs Lemmas 5.4 and 5.6 and returns the composed distance tables.
pub fn landmark_distances(
    net: &mut Network<'_>,
    inst: &Instance<'_>,
    params: &Params,
    landmarks: &[NodeId],
    tree: &BfsTree,
) -> LandmarkDistances {
    let k = landmarks.len();
    let zeta = params.zeta as u64;
    let budget = default_budget(k, zeta).max(8 * net.node_count() as u64) * params.budget_factor;

    // ζ-hop BFS from all landmarks, forwards and backwards, in G \ P.
    let fwd_cfg = MultiBfsConfig {
        sources: landmarks,
        max_dist: zeta,
        reverse: false,
        delays: None,
    };
    let (fwd_hb, _) = multi_source_bfs(
        net,
        &fwd_cfg,
        |e| inst.in_g_minus_p(e),
        "long/bfs-from-landmarks",
        budget,
    )
    .expect("landmark BFS quiesces");
    let bwd_cfg = MultiBfsConfig {
        sources: landmarks,
        max_dist: zeta,
        reverse: true,
        delays: None,
    };
    let (bwd_hb, _) = multi_source_bfs(
        net,
        &bwd_cfg,
        |e| inst.in_g_minus_p(e),
        "long/bfs-to-landmarks",
        budget,
    )
    .expect("landmark BFS quiesces");
    compose_from_tables(net, inst, landmarks, fwd_hb, bwd_hb, tree)
}

/// The broadcast + closure + composition steps of Lemmas 5.4 / 5.6, given
/// precomputed hop-bounded distance tables.
///
/// Factored out so the weighted algorithm (Proposition 7.11) can feed in
/// *approximate scaled* tables from the rounding BFS and reuse the rest
/// verbatim.
pub fn compose_from_tables(
    net: &mut Network<'_>,
    inst: &Instance<'_>,
    landmarks: &[NodeId],
    fwd_hb: Vec<Vec<Dist>>,
    bwd_hb: Vec<Vec<Dist>>,
    tree: &BfsTree,
) -> LandmarkDistances {
    let k = landmarks.len();
    // Lemma 5.4: broadcast the |L|² hop-bounded pairwise distances (each
    // value originates at the landmark that *observed* it).
    let mut items: Vec<Vec<(u32, u32, u64)>> = vec![Vec::new(); inst.n()];
    for (j, row) in fwd_hb.iter().enumerate() {
        for (kk, &lk) in landmarks.iter().enumerate() {
            if let Some(d) = row[lk].finite() {
                items[lk].push((j as u32, kk as u32, d));
            }
        }
    }
    let (stream, _) = broadcast(
        net,
        tree,
        items,
        |&(j, kk, d)| word_bits(j as u64) + word_bits(kk as u64) + word_bits(d),
        "long/broadcast-landmark-pairs",
    );
    // Every node received the same pairs; build the closure once, from
    // what the broadcast delivered.
    let mut pairs = vec![vec![Dist::INF; k]; k];
    for (j, row) in pairs.iter_mut().enumerate() {
        row[j] = Dist::ZERO;
    }
    for (j, kk, d) in stream {
        let cell = &mut pairs[j as usize][kk as usize];
        *cell = (*cell).min(Dist::new(d));
    }
    let closure = min_plus_closure(pairs);

    // Lemma 5.6 composition, locally at every vertex: stitch the
    // hop-bounded first leg to the closure.
    let n = inst.n();
    let mut from_landmark = fwd_hb;
    let mut to_landmark = bwd_hb;
    for v in 0..n {
        for j in 0..k {
            let mut best_from = from_landmark[j][v];
            let mut best_to = to_landmark[j][v];
            for mid in 0..k {
                best_from = best_from.min(closure[j][mid] + from_landmark[mid][v]);
                best_to = best_to.min(to_landmark[mid][v] + closure[mid][j]);
            }
            from_landmark[j][v] = best_from;
            to_landmark[j][v] = best_to;
        }
    }
    // One more pass is unnecessary: closure already chains landmarks.
    LandmarkDistances {
        landmarks: landmarks.to_vec(),
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
        let ld = landmark_distances(&mut net, &inst, &params, &landmarks, &tree);
        let (fwd, bwd) = exact_tables(&inst, &landmarks);
        // Landmark k is vertex k, so the closure built from the delivered
        // pairs is the exact distance matrix itself.
        assert_eq!(ld.closure, fwd);
        assert_eq!(ld.from_landmark, fwd);
        assert_eq!(ld.to_landmark, bwd);
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
            let ld = landmark_distances(&mut net, &inst, &params, &landmarks, &tree);
            let (fwd, bwd) = exact_tables(&inst, &landmarks);
            assert_eq!(ld.from_landmark, fwd, "seed {seed}");
            assert_eq!(ld.to_landmark, bwd, "seed {seed}");
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
        // against the exact oracle from every landmark.
        let (g, s, t) = parallel_lane(20, 5, 2);
        let inst = Instance::from_endpoints(&g, s, t).unwrap();
        let mut params = Params::with_zeta(inst.n(), 4);
        params.landmark_prob = 0.5;
        let landmarks = crate::long::landmarks::sample(&inst, &params);
        let mut net = Network::new(inst.graph);
        let (tree, _) = build_bfs_tree(&mut net, inst.s()).unwrap();
        let ld = landmark_distances(&mut net, &inst, &params, &landmarks, &tree);
        let (fwd, bwd) = exact_tables(&inst, &landmarks);
        for j in 0..landmarks.len() {
            for v in inst.graph.nodes() {
                assert!(ld.from_landmark[j][v] >= fwd[j][v]);
                assert!(ld.to_landmark[j][v] >= bwd[j][v]);
            }
        }
    }
}
