//! Section 4: short-detour replacement paths (Proposition 4.1).
//!
//! A replacement path's *detour* is its maximal subpath that shares no
//! edge with `P`. Detours of at most ζ hops are handled here, in `O(ζ)`
//! deterministic rounds, in two stages:
//!
//! 1. [`hop_bfs`] (Lemma 4.2) — a ζ-round backward BFS from all path
//!    vertices simultaneously, where each node forwards only the BFS
//!    originating from the *furthest* path vertex. This yields the tables
//!    `f*_u(d)`.
//! 2. [`combine`] (Lemmas 4.3 and 4.4) — each path vertex locally turns
//!    `f*` into the suffix-minima `X[i, ≥ j]`, then a (ζ−1)-round
//!    systolic DP along `P` produces `X[≤ i, ≥ i+1]`, the short-detour
//!    replacement length for each edge.

pub mod combine;
pub mod hop_bfs;

use congest::Network;
use graphkit::Dist;

use crate::{Instance, Params};

/// Proposition 4.1: computes, for every edge `(v_i, v_{i+1})` of `P`, the
/// length of the shortest replacement path whose detour has at most
/// `params.zeta` hops ([`Dist::INF`] when none exists).
///
/// Deterministic; charges `O(ζ)` rounds to `net`.
pub fn solve_short(net: &mut Network<'_>, inst: &Instance<'_>, params: &Params) -> Vec<Dist> {
    let zeta = params.zeta;
    // Stage 1: hop-constrained BFS (Lemma 4.2).
    let aux: Vec<u64> = (0..=inst.hops())
        .map(|j| inst.suffix[j].finite().expect("path distances are finite"))
        .collect();
    let cfg = hop_bfs::HopBfsConfig {
        zeta,
        objective: hop_bfs::Objective::MaxIndex,
        delays: None,
        aux: &aux,
    };
    let fstar = hop_bfs::hop_constrained_bfs(net, inst, &cfg, "short/hop-bfs");
    // Stage 2: local Lemma 4.3 + distributed Lemma 4.4.
    let x_ge = combine::x_ge_tables(inst, &fstar, zeta);
    combine::pipeline_dp(net, inst, &x_ge, zeta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::alg::replacement_lengths;
    use graphkit::gen::{grid, parallel_lane, planted_path_digraph};

    /// With ζ >= n every detour is short, so Proposition 4.1 alone must
    /// reproduce the full oracle.
    fn assert_short_solves_everything(g: &graphkit::DiGraph, s: usize, t: usize) {
        let inst = Instance::from_endpoints(g, s, t).unwrap();
        let params = Params::with_zeta(inst.n(), inst.n());
        let mut net = Network::new(inst.graph);
        let got = solve_short(&mut net, &inst, &params);
        let want = replacement_lengths(g, &inst.path);
        assert_eq!(got, want);
    }

    #[test]
    fn big_zeta_equals_oracle_on_lane() {
        let (g, s, t) = parallel_lane(12, 3, 2);
        assert_short_solves_everything(&g, s, t);
    }

    #[test]
    fn big_zeta_equals_oracle_on_grid() {
        let (g, s, t) = grid(4, 5);
        assert_short_solves_everything(&g, s, t);
    }

    #[test]
    fn big_zeta_equals_oracle_on_random() {
        for seed in 0..8 {
            let (g, s, t) = planted_path_digraph(40, 12, 80, seed);
            assert_short_solves_everything(&g, s, t);
        }
    }

    #[test]
    fn small_zeta_is_a_valid_upper_bound_and_exact_for_short_detours() {
        // Lane with switches every 2 and stretch 1: detours have 2+2·1 = 4
        // hops, so ζ = 4 catches them all, ζ = 3 catches none.
        let (g, s, t) = parallel_lane(10, 2, 1);
        let inst = Instance::from_endpoints(&g, s, t).unwrap();
        let want = replacement_lengths(&g, &inst.path);

        let mut net = Network::new(inst.graph);
        let got4 = solve_short(&mut net, &inst, &Params::with_zeta(inst.n(), 4));
        assert_eq!(got4, want);

        let mut net = Network::new(inst.graph);
        let got3 = solve_short(&mut net, &inst, &Params::with_zeta(inst.n(), 3));
        assert!(got3.iter().all(|d| *d == Dist::INF));
    }

    #[test]
    fn mixed_regime_exactness() {
        // Detour spans vary; whenever the best replacement has a short
        // detour, the short solver must be exact; otherwise it must be an
        // upper bound (possibly infinite).
        let (g, s, t) = parallel_lane(18, 6, 2); // detours: 2 + 6·2 = 14 hops
        let inst = Instance::from_endpoints(&g, s, t).unwrap();
        let want = replacement_lengths(&g, &inst.path);
        let mut net = Network::new(inst.graph);
        let got = solve_short(&mut net, &inst, &Params::with_zeta(inst.n(), 14));
        assert_eq!(got, want);
    }
}
