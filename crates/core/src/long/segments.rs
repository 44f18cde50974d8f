//! Lemmas 5.7–5.9: checkpoints, in-segment pipelining, and the broadcast
//! combine.
//!
//! The path is cut at checkpoints every ζ hops. Within each segment a
//! staggered prefix sweep (Lemma 5.7) computes the localized values
//! `Mᵢ[l_j, v]`; the per-segment summaries are broadcast to the path
//! vertices (Lemma 5.8, `O(ℓ·|L|) = eO(n^{2/3})` messages) and every path
//! vertex combines the two. A vertex reads only the summaries of the
//! segments before its own, so the last segment's summary stays home.
//! The mirrored computation towards `t` (Lemma 5.9) runs on backward
//! lanes, publishes every summary but the first segment's, and finishes
//! with an `O(|L|)`-round shift so that `v_i` (rather than `v_{i+1}`)
//! holds the landmark-to-`t` values.
//!
//! The lane builders, the lane-end broadcast and the one-edge shift serve
//! Lemmas 7.7–7.9 as well (`weighted::intervals`), whose intervals are
//! lanes of the same shape. On a one-segment path (`h_st ≤ ζ`) or a
//! one-interval path no lane publishes, every path vertex knows it, and
//! the empty broadcast does not run.

use std::ops::Range;

use congest::bfs_tree::BfsTree;
use congest::broadcast::broadcast;
use congest::pipeline::{prefix_sweep, Lane};
use congest::{word_bits, Network};
use graphkit::Dist;

use crate::long::dists::LandmarkDistances;
use crate::{Instance, Params};

/// Checkpoint positions: `0, ζ, 2ζ, ..., h` (Section 5). Always includes
/// both endpoints; consecutive checkpoints are at most ζ apart.
pub fn checkpoints(h: usize, spacing: usize) -> Vec<usize> {
    assert!(spacing >= 1);
    let mut cps: Vec<usize> = (0..h).step_by(spacing).collect();
    cps.push(h);
    cps
}

/// One lane per path-position range `(a, b)`, `v_a → … → v_b` along
/// `P`'s edges. Ranges may share endpoints, not edges.
pub(crate) fn forward_lanes(
    inst: &Instance<'_>,
    ranges: impl IntoIterator<Item = (usize, usize)>,
) -> Vec<Lane> {
    let (nodes, edges) = (inst.path.nodes(), inst.path.edges());
    ranges
        .into_iter()
        .map(|(a, b)| Lane::forward(nodes[a..=b].to_vec(), edges[a..b].to_vec()))
        .collect()
}

/// [`forward_lanes`] run backwards, `v_b → … → v_a`.
pub(crate) fn backward_lanes(
    inst: &Instance<'_>,
    ranges: impl IntoIterator<Item = (usize, usize)>,
) -> Vec<Lane> {
    let (nodes, edges) = (inst.path.nodes(), inst.path.edges());
    let rev = |xs: &[usize]| xs.iter().rev().copied().collect();
    ranges
        .into_iter()
        .map(|(a, b)| Lane::backward(rev(&nodes[a..=b]), rev(&edges[a..b])))
        .collect()
}

/// The one-edge shift of Lemmas 5.9 and 7.7: for every path edge `i`,
/// `v_{i+1}` hands `row(i, j)` for each of `jobs` jobs to `v_i` over that
/// edge, all edges in parallel. Returns `out[i][j] = row(i, j)`, as `v_i`
/// received it.
pub(crate) fn shift_left(
    net: &mut Network<'_>,
    inst: &Instance<'_>,
    jobs: usize,
    row: impl Fn(usize, usize) -> Dist,
    phase: &str,
) -> Vec<Vec<Dist>> {
    let lanes = backward_lanes(inst, (0..inst.hops()).map(|i| (i, i + 1)));
    let input = |i, pos, j| if pos == 0 { row(i, j) } else { Dist::INF };
    let (shifted, _) = prefix_sweep(net, &lanes, jobs, &input, phase);
    shifted
        .into_iter()
        .map(|mut lane| lane.swap_remove(1))
        .collect()
}

/// Lemmas 5.8 and 7.8's broadcast: the last vertex of every lane in
/// `publish` sends its finite swept value for each job to the path
/// vertices, and every path vertex keeps the least value it received per
/// lane and job (∞ for the lanes outside `publish`).
///
/// Every path vertex knows `h_st` (Lemma 2.5) and ζ, so it knows which
/// lanes publish. When none does, nothing is coming, no vertex waits for
/// it, and no phase runs.
pub(crate) fn broadcast_lane_ends(
    net: &mut Network<'_>,
    inst: &Instance<'_>,
    tree: &BfsTree,
    lanes: &[Lane],
    swept: &[Vec<Vec<Dist>>],
    publish: Range<usize>,
    phase: &str,
) -> Vec<Vec<Dist>> {
    let jobs = swept[0][0].len();
    let mut least = vec![vec![Dist::INF; jobs]; lanes.len()];
    if publish.is_empty() {
        return least;
    }
    let mut items: Vec<Vec<(u32, u32, u64)>> = vec![Vec::new(); net.node_count()];
    for li in publish {
        let lane = &lanes[li];
        let last = lane.nodes.len() - 1;
        for (j, d) in swept[li][last].iter().enumerate() {
            if let Some(d) = d.finite() {
                items[lane.nodes[last]].push((li as u32, j as u32, d));
            }
        }
    }
    let bits =
        |&(li, j, d): &(u32, u32, u64)| word_bits(li as u64) + word_bits(j as u64) + word_bits(d);
    let (stream, _) = broadcast(
        net,
        tree,
        items,
        bits,
        |_| true,
        |v| inst.path_index[v].is_some(),
        phase,
    )
    .expect("broadcast quiesces within O(M + D)");
    for (li, j, d) in stream {
        let cell = &mut least[li as usize][j as usize];
        *cell = (*cell).min(Dist::new(d));
    }
    least
}

/// Lemma 5.8 (Part 1): returns `out[i][j] = |s·l_j ⋄ P[v_i, t]|` for
/// every edge index `i` and landmark `j`, i.e.
/// `min over u ≤ v_i of (|s·u| + |u·l_j|_{G\P})`.
pub fn distances_from_s(
    net: &mut Network<'_>,
    inst: &Instance<'_>,
    params: &Params,
    ld: &LandmarkDistances,
    tree: &BfsTree,
    prefix: &[Dist],
) -> Vec<Vec<Dist>> {
    let h = inst.hops();
    let k = ld.to_landmark.len();
    let cps = checkpoints(h, params.zeta);
    let lanes = forward_lanes(inst, cps.windows(2).map(|w| (w[0], w[1])));
    // Lemma 5.7: in-segment prefix sweeps, one job per landmark.
    let input = |lane: usize, pos: usize, j: usize| -> Dist {
        let global = cps[lane] + pos;
        prefix[global] + ld.to_landmark[j][global]
    };
    let (m_seg, _) = prefix_sweep(net, &lanes, k, &input, "long/sweep-from-s");
    // Lemma 5.8: broadcast each segment's value at its right checkpoint;
    // no vertex reads the last segment's.
    let ell = lanes.len();
    let summary = broadcast_lane_ends(
        net,
        inst,
        tree,
        &lanes,
        &m_seg,
        0..ell - 1,
        "long/broadcast-from-s",
    );
    // best_before[x][j] = min over segments < x of the broadcast summary.
    let mut best_before = vec![vec![Dist::INF; k]; ell + 1];
    for x in 0..ell {
        for j in 0..k {
            best_before[x + 1][j] = best_before[x][j].min(summary[x][j]);
        }
    }
    // Local combine at each v_i.
    (0..h)
        .map(|i| {
            let lane = (i / params.zeta).min(ell - 1);
            let pos = i - cps[lane];
            (0..k)
                .map(|j| m_seg[lane][pos][j].min(best_before[lane][j]))
                .collect()
        })
        .collect()
}

/// Lemma 5.9 (Part 2): returns `out[i][j] = |l_j·t ⋄ P[s, v_{i+1}]|`,
/// *already shifted* so that index `i` holds the value `v_i` needs, i.e.
/// `min over u ≥ v_{i+1} of (|l_j·u|_{G\P} + |u·t|)`.
pub fn distances_to_t(
    net: &mut Network<'_>,
    inst: &Instance<'_>,
    params: &Params,
    ld: &LandmarkDistances,
    tree: &BfsTree,
    suffix: &[Dist],
) -> Vec<Vec<Dist>> {
    let h = inst.hops();
    let k = ld.to_landmark.len();
    let cps = checkpoints(h, params.zeta);
    let lanes = backward_lanes(inst, cps.windows(2).map(|w| (w[0], w[1])));
    let ell = lanes.len();
    // Mirrored Lemma 5.7: suffix sweeps within each segment.
    let input = |lane: usize, pos: usize, j: usize| -> Dist {
        let global = cps[lane + 1] - pos;
        ld.from_landmark[j][global] + suffix[global]
    };
    let (m_seg, _) = prefix_sweep(net, &lanes, k, &input, "long/sweep-to-t");
    // Broadcast each segment's value at its *left* checkpoint (the lane's
    // last position); no vertex reads the first segment's.
    let summary = broadcast_lane_ends(
        net,
        inst,
        tree,
        &lanes,
        &m_seg,
        1..ell,
        "long/broadcast-to-t",
    );
    // best_after[x][j] = min over segments > x.
    let mut best_after = vec![vec![Dist::INF; k]; ell + 1];
    for x in (0..ell).rev() {
        for j in 0..k {
            best_after[x][j] = best_after[x + 1][j].min(summary[x][j]);
        }
    }
    // N[p][j] for path positions p (what v_p knows).
    let n_at: Vec<Vec<Dist>> = (0..=h)
        .map(|p| {
            let lane = (p / params.zeta).min(ell - 1);
            let pos = cps[lane + 1] - p;
            (0..k)
                .map(|j| m_seg[lane][pos][j].min(best_after[lane + 1][j]))
                .collect()
        })
        .collect();
    // The O(|L|)-round shift: v_{i+1} hands its N row to v_i across the
    // path edge (one value per round, all edges in parallel).
    shift_left(net, inst, k, |i, j| n_at[i + 1][j], "long/shift")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::long::dists::{compose_from_tables, hop_tables};
    use crate::long::landmarks;
    use congest::bfs_tree::build_bfs_tree;
    use graphkit::alg::{bfs, bfs_reverse};
    use graphkit::gen::{parallel_lane, planted_path_digraph};
    use graphkit::NodeId;

    #[test]
    fn checkpoint_layout() {
        assert_eq!(checkpoints(10, 3), vec![0, 3, 6, 9, 10]);
        assert_eq!(checkpoints(6, 3), vec![0, 3, 6]);
        assert_eq!(checkpoints(2, 5), vec![0, 2]);
        assert_eq!(checkpoints(1, 1), vec![0, 1]);
    }

    /// Oracle for |s·l_j ⋄ P[v_i, t]| by direct minimization over exact
    /// distances in G \ P.
    fn oracle_m(inst: &Instance<'_>, lms: &[NodeId]) -> Vec<Vec<Dist>> {
        let exact: Vec<Vec<Dist>> = lms
            .iter()
            .map(|&l| bfs_reverse(inst.graph, l, |e| inst.in_g_minus_p(e)))
            .collect();
        (0..inst.hops())
            .map(|i| {
                lms.iter()
                    .enumerate()
                    .map(|(j, _)| {
                        (0..=i)
                            .map(|u| inst.prefix[u] + exact[j][inst.path.node(u)])
                            .min()
                            .unwrap_or(Dist::INF)
                    })
                    .collect()
            })
            .collect()
    }

    fn oracle_n(inst: &Instance<'_>, lms: &[NodeId]) -> Vec<Vec<Dist>> {
        let exact: Vec<Vec<Dist>> = lms
            .iter()
            .map(|&l| bfs(inst.graph, l, |e| inst.in_g_minus_p(e)))
            .collect();
        let h = inst.hops();
        (0..h)
            .map(|i| {
                lms.iter()
                    .enumerate()
                    .map(|(j, _)| {
                        (i + 1..=h)
                            .map(|u| exact[j][inst.path.node(u)] + inst.suffix[u])
                            .min()
                            .unwrap_or(Dist::INF)
                    })
                    .collect()
            })
            .collect()
    }

    fn setup(h: usize, zeta: usize, seed: u64) -> (graphkit::DiGraph, usize, usize, Params) {
        let (g, s, t) = planted_path_digraph(3 * h + 10, h, 6 * h, seed);
        let params = Params::with_zeta(3 * h + 10, zeta);
        (g, s, t, params)
    }

    #[test]
    fn part1_matches_oracle_with_full_landmarks() {
        for seed in 0..4 {
            let (g, s, t, mut params) = setup(12, 4, seed);
            params.landmark_prob = 1.0;
            let inst = Instance::from_endpoints(&g, s, t).unwrap();
            let lms = landmarks::sample(&inst, &params);
            let mut net = Network::new(inst.graph);
            let (tree, _) = build_bfs_tree(&mut net, inst.s()).unwrap();
            let (fwd, bwd) = hop_tables(&mut net, &inst, &params, &lms);
            let ld = compose_from_tables(&mut net, &inst, &lms, fwd, bwd, &tree);
            let got = distances_from_s(&mut net, &inst, &params, &ld, &tree, &inst.prefix);
            assert_eq!(got, oracle_m(&inst, &lms), "seed {seed}");
        }
    }

    #[test]
    fn part2_matches_oracle_with_full_landmarks() {
        for seed in 0..4 {
            let (g, s, t, mut params) = setup(12, 4, seed + 10);
            params.landmark_prob = 1.0;
            let inst = Instance::from_endpoints(&g, s, t).unwrap();
            let lms = landmarks::sample(&inst, &params);
            let mut net = Network::new(inst.graph);
            let (tree, _) = build_bfs_tree(&mut net, inst.s()).unwrap();
            let (fwd, bwd) = hop_tables(&mut net, &inst, &params, &lms);
            let ld = compose_from_tables(&mut net, &inst, &lms, fwd, bwd, &tree);
            let got = distances_to_t(&mut net, &inst, &params, &ld, &tree, &inst.suffix);
            assert_eq!(got, oracle_n(&inst, &lms), "seed {seed}");
        }
    }

    #[test]
    fn segment_boundaries_are_covered() {
        // ζ = 1: every vertex is a checkpoint; stresses lane boundaries.
        let (g, s, t) = parallel_lane(6, 2, 1);
        let inst = Instance::from_endpoints(&g, s, t).unwrap();
        let mut params = Params::with_zeta(inst.n(), 1);
        params.landmark_prob = 1.0;
        let lms = landmarks::sample(&inst, &params);
        let mut net = Network::new(inst.graph);
        let (tree, _) = build_bfs_tree(&mut net, inst.s()).unwrap();
        let (fwd, bwd) = hop_tables(&mut net, &inst, &params, &lms);
        let ld = compose_from_tables(&mut net, &inst, &lms, fwd, bwd, &tree);
        let got_m = distances_from_s(&mut net, &inst, &params, &ld, &tree, &inst.prefix);
        let got_n = distances_to_t(&mut net, &inst, &params, &ld, &tree, &inst.suffix);
        // ζ = 1 hop-bounds the landmark BFS to single edges; with every
        // vertex a landmark the closure still recovers exact distances.
        assert_eq!(got_m, oracle_m(&inst, &lms));
        assert_eq!(got_n, oracle_n(&inst, &lms));
    }
}
