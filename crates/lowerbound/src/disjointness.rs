//! Lemma 6.9 end-to-end: solving set disjointness through distributed
//! 2-SiSP, with the information-bottleneck measurement.
//!
//! Alice holds `x ∈ {0,1}^{k²}` (which escape edges exist), Bob holds
//! `y ∈ {0,1}^{k²}` (the bipartite orientations, viewed as the matrix
//! `M`). Any algorithm that solves 2-SiSP on `G(k, d, p, φ, M, x)` lets
//! them output `disj(x, y)` — so the `Ω(k² / (dp·B))` communication
//! bound on disjointness transfers to 2-SiSP round complexity.
//!
//! [`run_reduction`] executes the whole chain with a real distributed
//! solver on the simulator, with the Alice/Bob cut instrumented: the
//! measured `cut_bits` shows the algorithm really did move the
//! information the lower bound says it must.

use congest::Network;
use graphkit::Dist;
use rpaths_core::{sisp, Instance, Params};

use crate::hard::{build, HardGraph};

/// The result of one reduction run.
#[derive(Clone, Debug)]
pub struct ReductionOutcome {
    /// The decoded `disj(x, y)` (true = disjoint).
    pub disjoint: bool,
    /// Ground truth from the inputs.
    pub expected_disjoint: bool,
    /// The measured 2-SiSP value.
    pub sisp: Dist,
    /// The decision threshold (the construction's "good" length).
    pub good_length: u64,
    /// Rounds spent by the distributed solver.
    pub rounds: u64,
    /// Bits that crossed the Alice/Bob cut.
    pub cut_bits: u64,
    /// Number of vertices of the construction.
    pub n: usize,
    /// `k²`: the number of bits Bob encodes.
    pub bob_bits: u64,
}

/// Builds `G(k, d, p, φ, M, x)` from disjointness inputs and solves
/// 2-SiSP with the paper's distributed algorithm (Theorem 1 + `O(D)`
/// aggregation), measuring rounds and cut-crossing bits.
///
/// `y` is interpreted as the matrix `M` via the lexicographic map, so
/// `disj(x, y) = 0` iff some index `i` has `x_i = y_i = 1`.
pub fn run_reduction(
    k: usize,
    d: usize,
    p: usize,
    x: &[bool],
    y: &[bool],
    seed: u64,
) -> ReductionOutcome {
    assert_eq!(x.len(), k * k);
    assert_eq!(y.len(), k * k);
    let m: Vec<Vec<bool>> = (0..k)
        .map(|a| (0..k).map(|b| y[a * k + b]).collect())
        .collect();
    let g = build(k, d, p, &m, x);
    let outcome = solve_distributed(&g, seed);
    let expected_disjoint = !(0..k * k).any(|i| x[i] && y[i]);
    ReductionOutcome {
        expected_disjoint,
        ..outcome
    }
}

fn solve_distributed(g: &HardGraph, seed: u64) -> ReductionOutcome {
    let inst = Instance::from_endpoints(&g.graph, g.s, g.t).expect("valid instance");
    // Full landmark coverage keeps the w.h.p. guarantee airtight at the
    // small k these experiments use; rounds are measured, not asserted.
    let mut params = Params::for_instance(&inst).with_seed(seed);
    params.landmark_prob = 1.0;
    let mut net = Network::new(&g.graph);
    net.set_cut(g.cut_sides());
    let value = sisp::solve_on(&mut net, &inst, &params).expect("connected family");
    let disjoint = value != Dist::new(g.good_length);
    ReductionOutcome {
        disjoint,
        expected_disjoint: disjoint, // caller overwrites
        sisp: value,
        good_length: g.good_length,
        rounds: net.metrics().rounds(),
        cut_bits: net.metrics().total.cut_bits,
        n: g.graph.node_count(),
        bob_bits: (g.k * g.k) as u64,
    }
}

/// The implied round lower bound of Lemmas 6.4–6.7, evaluated
/// numerically for reporting: either the algorithm runs at least
/// `(dᵖ−1)/2` rounds (dilation), or the two-party simulation transmits
/// `2·d·p·B` bits per round and must carry the `k²`-bit disjointness
/// input, so `R ≥ k²/(2·d·p·B)` (congestion).
pub fn implied_round_lower_bound(k: usize, d: usize, p: usize, bandwidth: u64) -> f64 {
    let dil = (d.pow(p as u32) as f64 - 1.0) / 2.0;
    let k2 = (k * k) as f64;
    let cong = k2 / (2.0 * d as f64 * p as f64 * bandwidth as f64);
    dil.min(cong)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hard::random_inputs;

    #[test]
    fn reduction_decodes_disjointness_correctly() {
        for seed in 0..6 {
            let (m, x) = random_inputs(2, seed);
            let y: Vec<bool> = m.iter().flatten().copied().collect();
            let out = run_reduction(2, 2, 2, &x, &y, seed);
            assert_eq!(
                out.disjoint, out.expected_disjoint,
                "seed {seed}: decoded {} but truth is {}",
                out.disjoint, out.expected_disjoint
            );
        }
    }

    #[test]
    fn intersecting_inputs_find_the_good_length() {
        let k = 2;
        let x = vec![true, false, false, false];
        let y = vec![true, false, false, false];
        let out = run_reduction(k, 2, 2, &x, &y, 1);
        assert!(!out.disjoint);
        assert_eq!(out.sisp, Dist::new(out.good_length));
    }

    #[test]
    fn disjoint_inputs_avoid_the_good_length() {
        let k = 2;
        let x = vec![true, false, true, false];
        let y = vec![false, true, false, true];
        let out = run_reduction(k, 2, 2, &x, &y, 2);
        assert!(out.disjoint);
        assert!(out.sisp > Dist::new(out.good_length));
    }

    #[test]
    fn information_crosses_the_cut() {
        // The solver must move a non-trivial number of bits across the
        // Alice/Bob cut — the bottleneck the lower bound formalizes.
        let (m, x) = random_inputs(2, 9);
        let y: Vec<bool> = m.iter().flatten().copied().collect();
        let out = run_reduction(2, 2, 2, &x, &y, 9);
        assert!(
            out.cut_bits >= out.bob_bits,
            "only {} bits crossed for {} input bits",
            out.cut_bits,
            out.bob_bits
        );
        assert!(out.rounds > 0);
    }

    #[test]
    fn implied_bound_grows_like_n_two_thirds() {
        // With the paper's balance k² = dᵖ and B = Θ(log n), the bound is
        // Θ(k²/(d·p·B)) = Θ(n^{2/3}/(B·log n)) since n = Θ(dᵖ^{3/2}).
        let b1 = implied_round_lower_bound(4, 2, 4, 16); // dᵖ=16, k²=16
        let b2 = implied_round_lower_bound(8, 2, 6, 16); // dᵖ=64, k²=64
        let b3 = implied_round_lower_bound(16, 2, 8, 16); // dᵖ=256
        assert!(b2 > b1);
        assert!(b3 > b2);
    }
}
