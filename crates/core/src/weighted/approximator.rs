//! Lemmas 7.5 / 7.6 / 7.2: short-detour approximators.
//!
//! For every scale `d`, the trimmed hop-BFS of Lemma 4.2 runs on the
//! rounding graph `G_d` (treating it as unweighted), backwards (locating
//! detour *ends*, Objective::MaxIndex) and forwards (locating detour
//! *starts*, Objective::MinIndex). The two searches send over opposite
//! directions of every link, so they share one engine run of
//! `hop_cap + 1` rounds per scale ([`hop_bfs_pair`]). Each `(level, f*)`
//! entry yields a candidate pair `(endpoint, length)`; collecting the
//! candidates across scales and taking suffix/prefix minima produces the
//! good approximations
//!
//! ```text
//! X̃({i}, [j, ∞))   — detours starting exactly at v_i, ending at ≥ j
//! X̃((−∞, j], {i})  — detours ending exactly at v_i, starting at ≤ j
//! ```
//!
//! All values are scaled numerators over [`super::rounding::ScaleSet::den`].

use congest::Network;
use graphkit::Dist;

use crate::short::hop_bfs::{hop_bfs_pair, HopBfsConfig, Objective};
use crate::weighted::rounding::ScaleSet;
use crate::{Instance, Params};

/// The two tables of good approximations (Lemma 7.6).
#[derive(Clone, Debug)]
pub struct ShortApprox {
    /// Common denominator of all values.
    pub den: u64,
    /// `fwd[i][j]` = scaled `X̃({i}, [j, ∞))`, for `j > i` (else ∞).
    pub fwd: Vec<Vec<Dist>>,
    /// `bwd[i][j]` = scaled `X̃((−∞, j], {i})`, for `j < i` (else ∞).
    pub bwd: Vec<Vec<Dist>>,
}

/// Runs the rounding-BFS executions of Lemma 7.5, a backward and a
/// forward one side by side per scale over `⌈log₂ min(2Σw, 2ζ·w_max/ε)⌉`
/// scales, and distills the approximation tables (Lemma 7.2).
/// Deterministic; `hop_cap + 1 = O(ζ·(1+2/ε))` rounds per scale.
pub fn compute(net: &mut Network<'_>, inst: &Instance<'_>, params: &Params) -> ShortApprox {
    let h = inst.hops();
    let set = ScaleSet::build(inst.graph, params, params.zeta as u64);
    let aux_suffix: Vec<u64> = (0..=h)
        .map(|j| inst.suffix[j].finite().expect("path distances finite"))
        .collect();
    let aux_prefix: Vec<u64> = (0..=h)
        .map(|j| inst.prefix[j].finite().expect("path distances finite"))
        .collect();

    // best_end[i][k]: best candidate with a detour v_i -> v_k (forward).
    let mut best_end = vec![vec![Dist::INF; h + 1]; h + 1];
    // best_start[i][k]: best candidate with a detour v_k -> v_i.
    let mut best_start = vec![vec![Dist::INF; h + 1]; h + 1];

    for scale in &set.scales {
        let end_cfg = HopBfsConfig {
            zeta: set.hop_cap as usize,
            objective: Objective::MaxIndex,
            delays: Some(&scale.delays),
            aux: &aux_suffix,
        };
        let start_cfg = HopBfsConfig {
            zeta: set.hop_cap as usize,
            objective: Objective::MinIndex,
            delays: Some(&scale.delays),
            aux: &aux_prefix,
        };
        let (ends, starts) = hop_bfs_pair(
            net,
            inst,
            &end_cfg,
            &start_cfg,
            &format!("apx/hop-bfs-d{}", scale.d),
        );
        for i in 0..=h {
            for (hops, entry) in ends.table[i].iter().enumerate().skip(1) {
                if let Some((k, suffix_k)) = *entry {
                    if k <= i {
                        continue;
                    }
                    // Validity: prefix(i) + hops·µ_d + suffix(k) bounds a
                    // real replacement path (Observation 7.3).
                    let val = Dist::new(
                        set.scale_exact(aux_prefix[i])
                            + hops as u64 * scale.hop_value
                            + set.scale_exact(suffix_k),
                    );
                    best_end[i][k] = best_end[i][k].min(val);
                }
            }
        }
        for i in 0..=h {
            for (hops, entry) in starts.table[i].iter().enumerate().skip(1) {
                if let Some((k, prefix_k)) = *entry {
                    if k >= i {
                        continue;
                    }
                    let val = Dist::new(
                        set.scale_exact(prefix_k)
                            + hops as u64 * scale.hop_value
                            + set.scale_exact(aux_suffix[i]),
                    );
                    best_start[i][k] = best_start[i][k].min(val);
                }
            }
        }
    }

    // Lemma 7.2: X̃({i},[j,∞)) = min over pairs (k, d) with k >= j.
    let fwd = best_end
        .into_iter()
        .map(|row| {
            let mut out = vec![Dist::INF; h + 2];
            for j in (0..=h).rev() {
                out[j] = out[j + 1].min(row[j]);
            }
            out.truncate(h + 1);
            out
        })
        .collect();
    let bwd = best_start
        .into_iter()
        .map(|row| {
            let mut out = vec![Dist::INF; h + 1];
            let mut running = Dist::INF;
            for (j, &v) in row.iter().enumerate() {
                running = running.min(v);
                out[j] = running;
            }
            out
        })
        .collect();
    ShortApprox {
        den: set.den,
        fwd,
        bwd,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::alg::hop_bounded_dists;
    use graphkit::alg::shortest_st_path;
    use graphkit::gen::random_weighted_digraph;

    /// Exact X({i}, [j, ∞)) restricted to detours of <= ζ hops, via the
    /// centralized hop-bounded oracle.
    fn oracle_x(inst: &Instance<'_>, zeta: usize) -> Vec<Vec<Dist>> {
        let h = inst.hops();
        (0..=h)
            .map(|i| {
                let from_vi = hop_bounded_dists(inst.graph, inst.path.node(i), zeta, |e| {
                    inst.in_g_minus_p(e)
                });
                let mut best = vec![Dist::INF; h + 1];
                for j in 0..=h {
                    if j > i {
                        best[j] = inst.prefix[i] + from_vi[inst.path.node(j)] + inst.suffix[j];
                    }
                }
                let mut out = vec![Dist::INF; h + 2];
                for j in (0..=h).rev() {
                    out[j] = out[j + 1].min(best[j]);
                }
                out.truncate(h + 1);
                out
            })
            .collect()
    }

    /// Unrestricted Y({i}, [j, ∞)): detours of any hop count.
    fn oracle_y(inst: &Instance<'_>) -> Vec<Vec<Dist>> {
        let h = inst.hops();
        (0..=h)
            .map(|i| {
                let from_vi = graphkit::alg::dijkstra(inst.graph, inst.path.node(i), |e| {
                    inst.in_g_minus_p(e)
                });
                let mut best = vec![Dist::INF; h + 1];
                for (j, b) in best.iter_mut().enumerate().take(h + 1).skip(i + 1) {
                    *b = inst.prefix[i] + from_vi[inst.path.node(j)] + inst.suffix[j];
                }
                let mut out = vec![Dist::INF; h + 2];
                for j in (0..=h).rev() {
                    out[j] = out[j + 1].min(best[j]);
                }
                out.truncate(h + 1);
                out
            })
            .collect()
    }

    #[test]
    fn approximator_brackets_the_oracle() {
        let mut tested = 0;
        for seed in 0..12 {
            let g = random_weighted_digraph(30, 90, 10, seed);
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
            let params = Params::with_zeta(inst.n(), 5).with_eps(1, 2);
            let mut net = Network::new(inst.graph);
            let apx = compute(&mut net, &inst, &params);
            let oracle = oracle_x(&inst, 5);
            let unrestricted = oracle_y(&inst);
            let h = inst.hops();
            for i in 0..=h {
                for j in (i + 1)..=h {
                    let got = apx.fwd[i][j];
                    // Validity: never below the *unrestricted* Y({i},[j,∞))
                    // (candidates may use detours with more than ζ hops,
                    // which is allowed and can undercut the ζ-hop X).
                    if let Some(g_val) = got.finite() {
                        let y = unrestricted[i][j]
                            .finite()
                            .expect("finite candidate implies a real path");
                        assert!(
                            g_val >= y * apx.den,
                            "seed {seed} ({i},{j}): shrunk below Y"
                        );
                    }
                    // Approximation: at most (1+ε)·X({i},[j,∞)) (ε = 1/2).
                    if let Some(w) = oracle[i][j].finite() {
                        let g_val = got
                            .finite()
                            .unwrap_or_else(|| panic!("seed {seed} ({i},{j}): missing candidate"));
                        assert!(
                            g_val * 2 <= w * apx.den * 3,
                            "seed {seed} ({i},{j}): {g_val} > 1.5·{w}·{}",
                            apx.den
                        );
                    }
                }
            }
            tested += 1;
        }
        assert!(tested >= 5, "too few instances: {tested}");
    }

    #[test]
    fn backward_table_mirrors_forward_on_symmetric_instance() {
        // On any instance: bwd[i][j] must be a valid upper bound for
        // detours ending at v_i starting at <= j (validity only).
        let g = random_weighted_digraph(25, 70, 6, 42);
        let Some((s, t)) = graphkit::gen::random_reachable_pair(&g, 1) else {
            return;
        };
        let Some(p) = shortest_st_path(&g, s, t) else {
            return;
        };
        if p.hops() < 2 {
            return;
        }
        let inst = Instance::new(&g, p).unwrap();
        let params = Params::with_zeta(inst.n(), 4);
        let mut net = Network::new(inst.graph);
        let apx = compute(&mut net, &inst, &params);
        // Validity: every finite bwd value, rescaled, is >= the true
        // unrestricted replacement value through that split (>= 2-SiSP
        // as a crude but sound lower bound).
        let best_any = graphkit::alg::second_simple_shortest(&g, &inst.path);
        if let Some(global_min) = best_any.finite() {
            for i in 0..=inst.hops() {
                for j in 0..i {
                    if let Some(v) = apx.bwd[i][j].finite() {
                        assert!(v >= global_min * apx.den);
                    }
                }
            }
        }
    }
}
