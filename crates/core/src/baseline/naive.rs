//! The trivial baseline: `h_st` sequential single-source BFS runs.
//!
//! For each edge `e` of `P` in turn, run a BFS from `s` in `G \ e` and
//! record the distance at `t`. This is the `O(h_st · T_SSSP)` algorithm
//! from the paper's remark in Section 1.1 — asymptotically terrible in
//! `h_st`, but simple, exact, deterministic, and *faster* than the
//! `eO(n^{2/3} + D)` algorithm when `h_st` is very small, exactly as the
//! paper notes.

use congest::bfs_tree::build_bfs_tree;
use congest::broadcast::broadcast;
use congest::multi_bfs::{multi_source_bfs, MultiBfsConfig};
use congest::{word_bits, Network};
use graphkit::Dist;

use crate::{with_network, Instance, Params, RPathsOutput, SolveError};

/// Runs the naive per-edge-BFS algorithm. Exact; `O(h_st · T_BFS + D)`
/// rounds.
///
/// # Errors
///
/// Returns [`SolveError::Partitioned`] when the communication graph is
/// disconnected.
pub fn solve(inst: &Instance<'_>, params: &Params) -> Result<RPathsOutput, SolveError> {
    let (replacement, metrics) = with_network(inst.graph, |net| solve_on(net, inst, params))?;
    Ok(RPathsOutput {
        replacement,
        metrics,
    })
}

/// Like [`solve`], but on a caller-provided network; metrics accumulate
/// on `net`.
///
/// # Errors
///
/// Returns [`SolveError::Partitioned`] when the communication graph is
/// disconnected.
pub fn solve_on(
    net: &mut Network<'_>,
    inst: &Instance<'_>,
    _params: &Params,
) -> Result<Vec<Dist>, SolveError> {
    assert!(inst.graph.is_unweighted(), "naive baseline is unweighted");
    let (tree, _) = build_bfs_tree(net, inst.s())?;
    let n = inst.n() as u64;
    let mut replacement = Vec::with_capacity(inst.hops());
    for (i, &banned) in inst.path.edges().iter().enumerate() {
        let cfg = MultiBfsConfig {
            sources: &[inst.s()],
            max_dist: n,
            reverse: false,
            delays: None,
        };
        let (dist, _) = multi_source_bfs(
            net,
            &cfg,
            |e| e != banned,
            &format!("naive/bfs-{i}"),
            8 * n + 64,
        )
        .expect("BFS quiesces");
        replacement.push(dist[0][inst.t()]);
    }
    // `t` observed every answer; publish them so each v_i knows its own
    // (and, for convenience of the caller, everyone knows all).
    let mut items: Vec<Vec<(u32, u64)>> = vec![Vec::new(); inst.n()];
    items[inst.t()] = replacement
        .iter()
        .enumerate()
        .map(|(i, d)| (i as u32, d.raw()))
        .collect();
    let _ = broadcast(
        net,
        &tree,
        items,
        |&(i, d)| word_bits(i as u64) + 1 + word_bits(if d == u64::MAX { 0 } else { d }),
        "naive/publish",
    );
    Ok(replacement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::alg::replacement_lengths;
    use graphkit::gen::{parallel_lane, planted_path_digraph};

    #[test]
    fn naive_matches_oracle() {
        for seed in 0..5 {
            let (g, s, t) = planted_path_digraph(40, 12, 100, seed);
            let inst = Instance::from_endpoints(&g, s, t).unwrap();
            let out = solve(&inst, &Params::for_instance(&inst)).unwrap();
            assert_eq!(out.replacement, replacement_lengths(&g, &inst.path));
        }
    }

    #[test]
    fn rounds_scale_with_hops() {
        let (g1, s1, t1) = parallel_lane(8, 2, 1);
        let inst1 = Instance::from_endpoints(&g1, s1, t1).unwrap();
        let r1 = solve(&inst1, &Params::for_instance(&inst1))
            .unwrap()
            .metrics
            .rounds();

        let (g2, s2, t2) = parallel_lane(32, 2, 1);
        let inst2 = Instance::from_endpoints(&g2, s2, t2).unwrap();
        let r2 = solve(&inst2, &Params::for_instance(&inst2))
            .unwrap()
            .metrics
            .rounds();

        // 4x the hops (and similar per-BFS depth) should cost much more
        // than 4x the rounds of the short instance.
        assert!(r2 > 4 * r1, "r1 = {r1}, r2 = {r2}");
    }

    #[test]
    fn infinite_replacements_detected() {
        let (g, s, t) = parallel_lane(6, 6, 1); // switches only at 0 and 6
        let inst = Instance::from_endpoints(&g, s, t).unwrap();
        let out = solve(&inst, &Params::for_instance(&inst)).unwrap();
        let want = replacement_lengths(&g, &inst.path);
        assert_eq!(out.replacement, want);
    }
}
