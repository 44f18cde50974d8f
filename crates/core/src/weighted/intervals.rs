//! Lemmas 7.7–7.9 and Proposition 7.1: interval pipelining for weighted
//! short detours.
//!
//! Weighted short detours can *span* arbitrarily many path indices (a
//! single heavy edge from `s` to `t` is a 1-hop detour), so the
//! unweighted windowed DP of Lemma 4.4 does not apply. Instead the index
//! range `{0..h}` is split into `ℓ = O(n^{1/3})` disjoint intervals of
//! `O(ζ)` indices, and each edge's answer is assembled from
//!
//! - **nearby detours** (one endpoint in the edge's interval): in-interval
//!   pipelined sweeps, `O(ζ)` rounds (Lemma 7.7);
//! - **distant detours** (both endpoints outside): every interval
//!   publishes `X̃(I_q, [l_k, ∞))` for all later intervals `k` to the path
//!   vertices — `O(ℓ²) = O(n^{2/3})` broadcast messages (Lemmas 7.8, 7.9).
//!
//! The intervals are lanes of the same shape as Section 5's segments, so
//! the lane builders, the one-edge shift and the lane-end broadcast are
//! [`crate::long::segments`]'. A one-interval path publishes nothing, and
//! its empty broadcast does not run.

use congest::pipeline::prefix_sweep;
use congest::Network;
use graphkit::Dist;

use crate::long::segments::{backward_lanes, broadcast_lane_ends, forward_lanes, shift_left};
use crate::weighted::{approximator, ScaledAnswers};
use crate::{Instance, Params};

/// The disjoint index intervals `I_q = [q·ζ, min((q+1)·ζ − 1, h)]`.
pub fn intervals(h: usize, zeta: usize) -> Vec<(usize, usize)> {
    assert!(zeta >= 1);
    let mut out = Vec::new();
    let mut l = 0;
    while l <= h {
        let r = (l + zeta - 1).min(h);
        out.push((l, r));
        l = r + 1;
    }
    out
}

/// Proposition 7.1: scaled good approximations of
/// `X((−∞, i], [i+1, ∞))` for every edge `(v_i, v_{i+1})` of `P`.
pub fn solve_short_apx(
    net: &mut Network<'_>,
    inst: &Instance<'_>,
    params: &Params,
    tree: &congest::bfs_tree::BfsTree,
) -> ScaledAnswers {
    let apx = approximator::compute(net, inst, params);
    let h = inst.hops();
    let iv = intervals(h, params.zeta);
    let ell = iv.len();

    let fwd_lanes = forward_lanes(inst, iv.iter().copied());
    let max_size = iv.iter().map(|&(l, r)| r - l + 1).max().unwrap_or(1);

    // (a) Nearby detours leaving within the interval:
    // near_a[i] = X̃([l_q, i], [i+1, ∞)) = min_{k in [l_q, i]} fwd[k][i+1].
    let input_a = |lane: usize, pos: usize, job: usize| -> Dist {
        let (l, r) = iv[lane];
        let k = l + pos;
        let i = l + job;
        if i <= r && i < h && k <= r {
            apx.fwd[k][i + 1]
        } else {
            Dist::INF
        }
    };
    let (sweep_a, _) = prefix_sweep(net, &fwd_lanes, max_size, &input_a, "apx/nearby-fwd");
    let near_a: Vec<Dist> = (0..h)
        .map(|i| {
            let q = i / params.zeta;
            let (l, _) = iv[q];
            let rel = i - l;
            sweep_a[q][rel][rel]
        })
        .collect();

    // (b) Nearby detours returning within the interval:
    // at v_{i+1}: min_{k in [i+1, r_q]} bwd[k][i]; then shift one edge left.
    let bwd_lanes = backward_lanes(inst, iv.iter().copied());
    let input_b = |lane: usize, pos: usize, job: usize| -> Dist {
        let (_, r) = iv[lane];
        if job == 0 || job > r {
            return Dist::INF;
        }
        let i = r - job; // target edge index
        let k = r - pos;
        if k > i {
            apx.bwd[k][i]
        } else {
            Dist::INF
        }
    };
    let (sweep_b, _) = prefix_sweep(net, &bwd_lanes, max_size + 1, &input_b, "apx/nearby-bwd");
    // Value for edge i lives at v_{i+1} = lane pos job-1 where job = r - i.
    let at_next: Vec<Dist> = (0..h)
        .map(|i| {
            let q = i / params.zeta;
            let (_, r) = iv[q];
            if i == r {
                return Dist::INF; // cross-interval edge, handled by (c)
            }
            let job = r - i;
            sweep_b[q][job - 1][job]
        })
        .collect();
    // Shift one edge left: v_{i+1} -> v_i (single round, all edges).
    let near_b = shift_left(net, inst, 1, |i, _| at_next[i], "apx/shift");

    // (c) Distant detours: every interval q publishes
    // X̃(I_q, [l_k, ∞)) for k > q (Lemma 7.8), then everyone combines
    // (Lemma 7.9).
    let input_c = |lane: usize, pos: usize, job: usize| -> Dist {
        let (l, _) = iv[lane];
        if job > lane && job < ell {
            let lk = iv[job].0;
            apx.fwd[l + pos][lk]
        } else {
            Dist::INF
        }
    };
    // Jobs k <= q sweep only ∞, so interval q publishes k > q alone, and
    // the last interval publishes nothing.
    let (sweep_c, _) = prefix_sweep(net, &fwd_lanes, ell, &input_c, "apx/distant");
    let summary = broadcast_lane_ends(
        net,
        inst,
        tree,
        &fwd_lanes,
        &sweep_c,
        0..ell - 1,
        "apx/broadcast-intervals",
    );
    // upto[q][k] = X̃((−∞, r_q], [l_k, ∞)) = min_{x <= q} summary[x][k].
    let mut upto = vec![vec![Dist::INF; ell]; ell];
    for q in 0..ell {
        for k in 0..ell {
            let prev = if q > 0 { upto[q - 1][k] } else { Dist::INF };
            upto[q][k] = prev.min(summary[q][k]);
        }
    }

    // Final per-edge combine (Proposition 7.1's case analysis).
    let scaled = (0..h)
        .map(|i| {
            let q = i / params.zeta;
            let (_, r) = iv[q];
            if i == r {
                // Edge crosses intervals q and q+1.
                return upto[q][q + 1];
            }
            let mut best = near_a[i].min(near_b[i][0]);
            if q > 0 && q + 1 < ell {
                best = best.min(upto[q - 1][q + 1]);
            }
            best
        })
        .collect();
    ScaledAnswers {
        scaled,
        den: apx.den,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::alg::{hop_bounded_dists, shortest_st_path};
    use graphkit::gen::random_weighted_digraph;

    #[test]
    fn interval_layout() {
        assert_eq!(intervals(9, 4), vec![(0, 3), (4, 7), (8, 9)]);
        assert_eq!(intervals(3, 10), vec![(0, 3)]);
        assert_eq!(intervals(0, 1), vec![(0, 0)]);
    }

    /// Exact short-detour oracle: X((−∞,i],[i+1,∞)) with detours of <= ζ
    /// hops, centralized.
    fn oracle_short(inst: &Instance<'_>, zeta: usize) -> Vec<Dist> {
        let h = inst.hops();
        let mut best = vec![Dist::INF; h];
        for k in 0..h {
            let from_vk = hop_bounded_dists(inst.graph, inst.path.node(k), zeta, |e| {
                inst.in_g_minus_p(e)
            });
            for j in k + 1..=h {
                let len = inst.prefix[k] + from_vk[inst.path.node(j)] + inst.suffix[j];
                if !len.is_finite() {
                    continue;
                }
                // This detour replaces edges k..j-1.
                for i in k..j {
                    best[i] = best[i].min(len);
                }
            }
        }
        best
    }

    #[test]
    fn short_apx_brackets_oracle() {
        let mut tested = 0;
        for seed in 0..15 {
            let g = random_weighted_digraph(32, 100, 10, seed);
            let Some((s, t)) = graphkit::gen::random_reachable_pair(&g, seed ^ 7) else {
                continue;
            };
            let Some(p) = shortest_st_path(&g, s, t) else {
                continue;
            };
            if p.hops() < 4 {
                continue;
            }
            let inst = Instance::new(&g, p).unwrap();
            let zeta = 4;
            let params = Params::with_zeta(inst.n(), zeta).with_eps(1, 2);
            let mut net = Network::new(inst.graph);
            let (tree, _) = congest::bfs_tree::build_bfs_tree(&mut net, inst.s()).unwrap();
            let got = solve_short_apx(&mut net, &inst, &params, &tree);
            let want = oracle_short(&inst, zeta);
            let full = graphkit::alg::replacement_lengths(inst.graph, &inst.path);
            for i in 0..inst.hops() {
                // Validity: never below the unrestricted replacement
                // length (candidates may come from detours with more
                // than ζ hops — allowed, and they can undercut the
                // ζ-hop-restricted X).
                if let Some(g_val) = got.scaled[i].finite() {
                    let f = full[i].finite().expect("finite answer implies real path");
                    assert!(
                        g_val >= f * got.den,
                        "seed {seed} edge {i}: below the true replacement length"
                    );
                }
                // Approximation: at most (1+ε)·X_short when it exists.
                if let Some(w) = want[i].finite() {
                    let g_val = got.scaled[i]
                        .finite()
                        .unwrap_or_else(|| panic!("seed {seed} edge {i}: no candidate"));
                    assert!(
                        g_val * 2 <= w * got.den * 3,
                        "seed {seed} edge {i}: {g_val}/{} > 1.5·{w}",
                        got.den
                    );
                }
            }
            tested += 1;
        }
        assert!(tested >= 6, "too few instances: {tested}");
    }
}
