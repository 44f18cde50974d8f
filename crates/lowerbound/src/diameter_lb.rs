//! The Ω(D) part of Theorem 2.
//!
//! Two parallel directed `s`-`t` paths of lengths `D` and `D+1`; the
//! 2-SiSP value is `D+1` when the long path is intact and ∞ when one of
//! its edges is reversed. Distinguishing the two cases requires
//! information to travel the length of the construction — `Ω(D)` rounds.
//! This module runs a real distributed solver on the family and records
//! the value and the rounds, exhibiting the linear-in-`D` growth.

use congest::Network;
use graphkit::gen::theorem2_family;
use graphkit::{Dist, StPath};
use rpaths_core::{sisp, Instance, Params};

/// One data point of the Ω(D) experiment.
#[derive(Clone, Debug)]
pub struct DiameterPoint {
    /// The path-length parameter `d` (so `n = 2d + 1`).
    pub d: usize,
    /// Undirected diameter of the construction.
    pub diameter: usize,
    /// Whether an edge of the long path was reversed.
    pub reversed: bool,
    /// Measured 2-SiSP value.
    pub sisp: Dist,
    /// Whether the measured value matches the family's ground truth.
    pub correct: bool,
    /// Rounds the distributed solver spent.
    pub rounds: u64,
}

/// Runs the distributed 2-SiSP solver on one member of the family.
pub fn run_family(d: usize, reversed_edge: Option<usize>, seed: u64) -> DiameterPoint {
    let fam = theorem2_family(d, reversed_edge);
    let path = StPath::from_nodes(&fam.graph, &fam.short_path).expect("short path valid");
    let inst = Instance::new(&fam.graph, path).expect("valid instance");
    let mut params = Params::for_instance(&inst).with_seed(seed);
    params.landmark_prob = 1.0;
    let mut net = Network::new(&fam.graph);
    let value = sisp::solve_on(&mut net, &inst, &params).expect("connected family");
    let expected = fam.expected_sisp.map(Dist::new).unwrap_or(Dist::INF);
    let diameter = graphkit::alg::undirected_diameter(&fam.graph).expect("connected");
    DiameterPoint {
        d,
        diameter,
        reversed: reversed_edge.is_some(),
        sisp: value,
        correct: value == expected,
        rounds: net.metrics().rounds(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_values_are_distinguished() {
        let intact = run_family(10, None, 1);
        assert!(intact.correct);
        assert_eq!(intact.sisp, Dist::new(11));
        let broken = run_family(10, Some(5), 1);
        assert!(broken.correct);
        assert_eq!(broken.sisp, Dist::INF);
    }

    #[test]
    fn rounds_grow_linearly_with_d() {
        let small = run_family(6, None, 2);
        let large = run_family(24, None, 2);
        assert!(large.diameter > small.diameter);
        assert!(
            large.rounds >= 2 * small.rounds,
            "rounds {} vs {}",
            small.rounds,
            large.rounds
        );
        // And the solver can never beat the diameter: the answer depends
        // on the far end of the construction.
        assert!(large.rounds as usize >= large.diameter);
    }
}
