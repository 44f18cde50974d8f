//! Section 5: long-detour replacement paths (Proposition 5.1), and
//! Section 7.3's weighted variant (Proposition 7.11).
//!
//! Detours longer than ζ hops contain a landmark vertex w.h.p.
//! (Lemma 5.3), so the replacement length for edge `e = (v_i, v_{i+1})`
//! can be reconstructed as
//!
//! ```text
//! min over landmarks l of  |s·l ⋄ P[v_i, t]|  +  |l·t ⋄ P[s, v_{i+1}]|
//! ```
//!
//! The pipeline, per the paper:
//!
//! 1. [`landmarks`] — Definition 5.2 sampling.
//! 2. [`dists`] — Lemma 5.4 + 5.6: ζ-hop BFS from all landmarks in both
//!    directions of `G \ P`; the hop-bounded landmark pairs travel up
//!    the BFS tree shortest first, and the root downcasts only the pairs
//!    the min-plus closure cannot rebuild from shorter ones, and only
//!    towards the path vertices; every path vertex builds the closure
//!    locally. Afterwards every path vertex knows its exact (w.h.p.)
//!    distance to and from every landmark in `G \ P`.
//! 3. [`segments`] — Lemmas 5.7–5.9: the path is cut into `O(n^{1/3})`
//!    segments at checkpoints; pipelined in-segment sweeps compute the
//!    "localized" prefix minima, segment summaries are broadcast
//!    (`O(n^{2/3})` messages), and a final `O(|L|)`-round shift moves the
//!    landmark-to-`t` values one hop left.
//!
//! The result is an upper bound on `|st ⋄ e|` that is exact (w.h.p.)
//! whenever some shortest replacement path for `e` has a long detour.
//!
//! Proposition 7.11 is the same pipeline with `(1+ε)`-approximate tables
//! in step 2, so [`solve_long`] is the one body of both theorems.

pub mod dists;
pub mod landmarks;
pub mod segments;

use congest::bfs_tree::BfsTree;
use congest::Network;
use graphkit::{Dist, NodeId};

use crate::{Instance, Params};

/// Propositions 5.1 and 7.11: per-edge upper bounds on `den·|st ⋄ e|`,
/// exact (resp. `(1+ε)`-tight) w.h.p. for edges whose best replacement
/// uses a long detour.
///
/// `tables` returns the hop-bounded landmark tables `(fwd, bwd)` as
/// numerators over `den`: [`dists::hop_tables`] with `den = 1` for
/// Theorem 1, the rounded tables of [`crate::weighted::long`] for
/// Theorem 3. Without landmarks (possible only on tiny instances) every
/// answer is ∞. Charges `eO(n^{2/3} + D)` rounds (with the paper's ζ).
pub fn solve_long(
    net: &mut Network<'_>,
    inst: &Instance<'_>,
    params: &Params,
    tree: &BfsTree,
    den: u64,
    tables: impl FnOnce(&mut Network<'_>, &[NodeId]) -> (Vec<Vec<Dist>>, Vec<Vec<Dist>>),
) -> Vec<Dist> {
    let lm = landmarks::sample(inst, params);
    if lm.is_empty() {
        return vec![Dist::INF; inst.hops()];
    }
    let (fwd, bwd) = tables(net, &lm);
    let ld = dists::compose_from_tables(net, inst, &lm, fwd, bwd, tree);
    let scaled = |lens: &[Dist]| -> Vec<Dist> {
        lens.iter()
            .map(|d| Dist::new(d.finite().expect("P's prefix and suffix are finite") * den))
            .collect()
    };
    let m_table = segments::distances_from_s(net, inst, params, &ld, tree, &scaled(&inst.prefix));
    let n_table = segments::distances_to_t(net, inst, params, &ld, tree, &scaled(&inst.suffix));
    // Final local combine at each v_i (the n_table is already shifted so
    // that entry i holds the values of v_{i+1}).
    (0..inst.hops())
        .map(|i| {
            (0..lm.len())
                .map(|j| m_table[i][j] + n_table[i][j])
                .min()
                .unwrap_or(Dist::INF)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest::bfs_tree::build_bfs_tree;
    use graphkit::alg::replacement_lengths;
    use graphkit::gen::{parallel_lane, planted_path_digraph};

    fn run_long(inst: &Instance<'_>, params: &Params) -> Vec<Dist> {
        let mut net = Network::new(inst.graph);
        let (tree, _) = build_bfs_tree(&mut net, inst.s()).unwrap();
        solve_long(&mut net, inst, params, &tree, 1, |net, lm| {
            dists::hop_tables(net, inst, params, lm)
        })
    }

    #[test]
    fn long_detours_found_on_lane() {
        // Lane detours have 2 + 4·3 = 14 hops; ζ = 4 makes them "long".
        let (g, s, t) = parallel_lane(16, 4, 3);
        let inst = Instance::from_endpoints(&g, s, t).unwrap();
        // Dense landmarks so the w.h.p. guarantee holds at this tiny n.
        let mut params = Params::with_zeta(inst.n(), 4);
        params.landmark_prob = 1.0;
        let got = run_long(&inst, &params);
        let want = replacement_lengths(&g, &inst.path);
        assert_eq!(got, want);
    }

    #[test]
    fn upper_bound_even_when_detours_are_short() {
        for seed in 0..5 {
            let (g, s, t) = planted_path_digraph(40, 12, 100, seed);
            let inst = Instance::from_endpoints(&g, s, t).unwrap();
            let mut params = Params::with_zeta(inst.n(), 6);
            params.landmark_prob = 1.0;
            let got = run_long(&inst, &params);
            let want = replacement_lengths(&g, &inst.path);
            for (i, (&g_i, &w_i)) in got.iter().zip(want.iter()).enumerate() {
                assert!(g_i >= w_i, "seed {seed} edge {i}: {g_i} < oracle {w_i}");
            }
        }
    }
}
