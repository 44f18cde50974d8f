//! Section 7.3 / Proposition 7.11: long detours in weighted graphs.
//!
//! The structure is the unweighted Section 5 pipeline, and so is the
//! code: [`solve_long_apx`] runs [`crate::long::solve_long`]. The only
//! change (as in the paper) is that every exact hop-bounded BFS is
//! replaced by a `(1+ε)`-approximate hop-bounded multi-source shortest
//! paths computation, whose scaled tables this module supplies.
//!
//! **Substitution.** The paper takes that computation from [Nan14,
//! Thm 3.6]; this reproduction does not implement that algorithm. It
//! reuses the rounding device of Section 7.1 instead
//! ([`approx_hop_multi_source`]): for each scale `d`, one multi-source
//! BFS with per-edge delays `⌈w(e)/µ_d⌉`, keeping each node's minimum
//! over the scales. Every scale over-estimates by at most `(1+ε)`
//! (Observations 7.3/7.4), so the guarantee is the one the paper
//! states. The scales run one after another, so this phase's rounds
//! grow with the number of scales, `⌈log₂ min(2Σw, 2ζ·w_max/ε)⌉`. All
//! outputs are scaled rationals over the common denominator.

use congest::bfs_tree::BfsTree;
use congest::multi_bfs::{default_budget, multi_source_bfs, MultiBfsConfig};
use congest::Network;
use graphkit::{Dist, NodeId};

use crate::weighted::rounding::ScaleSet;
use crate::weighted::ScaledAnswers;
use crate::{Instance, Params};

/// `(1+ε)`-approximate ζ-hop distances from `k` sources, as scaled
/// numerators over `set.den`. One rounded multi-source BFS per scale.
pub fn approx_hop_multi_source(
    net: &mut Network<'_>,
    inst: &Instance<'_>,
    set: &ScaleSet,
    sources: &[NodeId],
    reverse: bool,
    phase: &str,
    factor: u64,
) -> Vec<Vec<Dist>> {
    let n = inst.n();
    let k = sources.len();
    let mut best = vec![vec![Dist::INF; n]; k];
    for scale in &set.scales {
        let cfg = MultiBfsConfig {
            sources,
            max_dist: set.hop_cap,
            reverse,
            delays: Some(&scale.delays),
        };
        let budget =
            default_budget(k, set.hop_cap).max(4 * set.hop_cap + 4 * k as u64 + 64) * factor;
        let (hops, _) = multi_source_bfs(
            net,
            &cfg,
            |e| inst.in_g_minus_p(e),
            &format!("{phase}-d{}", scale.d),
            budget,
        )
        .expect("rounded multi-BFS quiesces");
        for (src, row) in hops.iter().enumerate() {
            for v in 0..n {
                if let Some(hcount) = row[v].finite() {
                    let scaled = Dist::new(hcount * scale.hop_value);
                    best[src][v] = best[src][v].min(scaled);
                }
            }
        }
    }
    best
}

/// Proposition 7.11: per-edge scaled upper bounds, `(1+ε)`-tight (w.h.p.)
/// for edges whose best replacement uses a long detour.
///
/// [`crate::long::solve_long`] with the rounded tables of
/// [`approx_hop_multi_source`], forwards then backwards, over `set.den`.
pub fn solve_long_apx(
    net: &mut Network<'_>,
    inst: &Instance<'_>,
    params: &Params,
    tree: &BfsTree,
) -> ScaledAnswers {
    let set = ScaleSet::build(inst.graph, params, params.zeta as u64);
    let scaled = crate::long::solve_long(net, inst, params, tree, set.den, |net, lms| {
        let mut table = |reverse, phase| {
            approx_hop_multi_source(net, inst, &set, lms, reverse, phase, params.budget_factor)
        };
        (
            table(false, "apx-long/bfs-fwd"),
            table(true, "apx-long/bfs-bwd"),
        )
    });
    ScaledAnswers {
        scaled,
        den: set.den,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest::bfs_tree::build_bfs_tree;
    use graphkit::alg::{dijkstra, replacement_lengths, shortest_st_path};
    use graphkit::gen::random_weighted_digraph;

    #[test]
    fn approx_multi_source_brackets_exact_distances() {
        let mut tested = 0;
        for seed in 0..10 {
            let g = random_weighted_digraph(28, 80, 9, seed);
            let Some((s, t)) = graphkit::gen::random_reachable_pair(&g, seed) else {
                continue;
            };
            let Some(p) = shortest_st_path(&g, s, t) else {
                continue;
            };
            if p.hops() < 2 {
                continue;
            }
            let inst = Instance::new(&g, p).unwrap();
            let params = Params::with_zeta(inst.n(), inst.n()).with_eps(1, 2);
            let set = ScaleSet::build(inst.graph, &params, params.zeta as u64);
            let sources = vec![s, t];
            let mut net = Network::new(inst.graph);
            let got = approx_hop_multi_source(&mut net, &inst, &set, &sources, false, "t", 1);
            for (si, &src) in sources.iter().enumerate() {
                let exact = dijkstra(inst.graph, src, |e| inst.in_g_minus_p(e));
                for v in inst.graph.nodes() {
                    match (got[si][v].finite(), exact[v].finite()) {
                        (None, None) => {}
                        (Some(gv), Some(ev)) => {
                            assert!(gv >= ev * set.den, "seed {seed}: shrunk");
                            assert!(
                                gv * 2 <= ev * set.den * 3,
                                "seed {seed}: {gv} > 1.5·{ev}·{}",
                                set.den
                            );
                        }
                        (got_f, exact_f) => panic!(
                            "seed {seed} src {src} v {v}: finiteness mismatch {got_f:?} vs {exact_f:?}"
                        ),
                    }
                }
            }
            tested += 1;
        }
        assert!(tested >= 4);
    }

    #[test]
    fn long_apx_is_valid_upper_bound() {
        let mut tested = 0;
        for seed in 0..10 {
            let g = random_weighted_digraph(30, 90, 8, seed + 40);
            let Some((s, t)) = graphkit::gen::random_reachable_pair(&g, seed) else {
                continue;
            };
            let Some(p) = shortest_st_path(&g, s, t) else {
                continue;
            };
            if p.hops() < 3 {
                continue;
            }
            let inst = Instance::new(&g, p).unwrap();
            let mut params = Params::with_zeta(inst.n(), 5).with_eps(1, 2);
            params.landmark_prob = 1.0;
            let mut net = Network::new(inst.graph);
            let (tree, _) = build_bfs_tree(&mut net, inst.s()).unwrap();
            let got = solve_long_apx(&mut net, &inst, &params, &tree);
            let oracle = replacement_lengths(&g, &inst.path);
            for i in 0..inst.hops() {
                if let Some(gv) = got.scaled[i].finite() {
                    let ov = oracle[i]
                        .finite()
                        .expect("finite answer implies a real replacement path");
                    assert!(gv >= ov * got.den, "seed {seed} edge {i}: below oracle");
                }
            }
            tested += 1;
        }
        assert!(tested >= 4);
    }
}
