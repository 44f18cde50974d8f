//! Section 7: `(1+ε)`-approximate RPaths for weighted directed graphs
//! (Theorem 3).
//!
//! All distances in this module travel through the *rounding* device of
//! Section 7.1: for each scale `d = 2, 4, 8, ..., 2^⌈log(mW)⌉`, the graph
//! `G_d` replaces every edge of `G \ P` by `⌈w(e)/µ_d⌉` unit edges, where
//! `µ_d = ε·d/(2ζ)`. Running the *unweighted* hop-BFS of Lemma 4.2 on
//! `G_d` (edge delays on the real network) costs `O(ζ(1+2/ε))` rounds per
//! scale and over-estimates lengths in `[d/2, d]` by at most a factor
//! `(1+ε)` (Observations 7.3/7.4).
//!
//! Internally, all approximate lengths are *scaled rationals*: exact
//! integers in units of `1/den` where `den = 2·ζ·eps_den` (resp.
//! `2·h·eps_den` for the long-detour scales), so the `(1+ε)` guarantee is
//! never eroded by floating-point error. [`ApxOutput`] exposes them both
//! ways.

pub mod approximator;
pub mod intervals;
pub mod long;
pub mod rounding;

use congest::bfs_tree::build_bfs_tree;
use congest::{Metrics, Network};
use graphkit::Dist;

use crate::{knowledge, with_network, Instance, Params, SolveError};

/// Output of the approximate solver: per-edge values `x` with
/// `|st ⋄ e| ≤ x ≤ (1+ε)·|st ⋄ e|`.
#[derive(Clone, Debug)]
pub struct ApxOutput {
    /// Scaled numerators: `x_i = scaled[i] / den` exactly.
    pub scaled: Vec<Dist>,
    /// The common denominator.
    pub den: u64,
    /// Full metrics of the run.
    pub metrics: Metrics,
}

impl ApxOutput {
    /// The approximate replacement lengths as floats.
    pub fn values(&self) -> Vec<f64> {
        self.scaled
            .iter()
            .map(|d| match d.finite() {
                Some(v) => v as f64 / self.den as f64,
                None => f64::INFINITY,
            })
            .collect()
    }

    /// Checks the Theorem 3 guarantee against exact oracle values using
    /// exact rational arithmetic: `oracle ≤ x ≤ (1+ε)·oracle`.
    pub fn check_guarantee(
        &self,
        oracle: &[Dist],
        eps_num: u64,
        eps_den: u64,
    ) -> Result<(), String> {
        if oracle.len() != self.scaled.len() {
            return Err("length mismatch".into());
        }
        for (i, (&x, &o)) in self.scaled.iter().zip(oracle).enumerate() {
            match (x.finite(), o.finite()) {
                (None, None) => {}
                (Some(_), None) => {
                    return Err(format!("edge {i}: finite answer but oracle is ∞"));
                }
                (None, Some(_)) => {
                    return Err(format!("edge {i}: ∞ answer but oracle is finite"));
                }
                (Some(x), Some(o)) => {
                    // x/den >= o  <=>  x >= o*den
                    let x = x as u128;
                    let o = o as u128;
                    let den = self.den as u128;
                    if x < o * den {
                        return Err(format!("edge {i}: answer below oracle"));
                    }
                    // x/den <= (1+ε)o  <=>  x*eps_den <= o*den*(eps_den+eps_num)
                    if x * eps_den as u128 > o * den * (eps_den as u128 + eps_num as u128) {
                        return Err(format!(
                            "edge {i}: answer exceeds (1+ε)·oracle ({x}/{} vs {o})",
                            self.den
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Theorem 3: `(1+ε)`-approximate RPaths for weighted directed graphs in
/// `eO(n^{2/3} + D)` rounds, w.h.p.
///
/// # Errors
///
/// Returns [`SolveError::Partitioned`] when the communication graph is
/// disconnected.
pub fn solve(inst: &Instance<'_>, params: &Params) -> Result<ApxOutput, SolveError> {
    let (answers, metrics) = with_network(inst.graph, |net| solve_on(net, inst, params))?;
    Ok(ApxOutput {
        scaled: answers.scaled,
        den: answers.den,
        metrics,
    })
}

/// Like [`solve`], but on a caller-provided network (pre-configured
/// bandwidth, cut accounting, or the full-sweep schedule); metrics
/// accumulate on `net`.
///
/// # Errors
///
/// Returns [`SolveError::Partitioned`] when the communication graph is
/// disconnected.
pub fn solve_on(
    net: &mut Network<'_>,
    inst: &Instance<'_>,
    params: &Params,
) -> Result<ScaledAnswers, SolveError> {
    let (tree, _) = build_bfs_tree(net, inst.s())?;
    let know = knowledge::acquire(net, inst, params, &tree);
    debug_assert_eq!(know.dist_s, inst.prefix);

    // Proposition 7.1: short detours via rounding + interval pipelining.
    let short = intervals::solve_short_apx(net, inst, params, &tree);
    // Proposition 7.11: long detours via approximate landmark distances.
    let long = long::solve_long_apx(net, inst, params, &tree);

    // Both sides produce scaled values; bring them to a common
    // denominator and take the minimum.
    let den = lcm(short.den, long.den);
    let scaled = short
        .scaled
        .iter()
        .zip(&long.scaled)
        .map(|(&a, &b)| {
            let a2 = a.saturating_mul(den / short.den);
            let b2 = b.saturating_mul(den / long.den);
            a2.min(b2)
        })
        .collect();
    Ok(ScaledAnswers { scaled, den })
}

/// A pair (scaled lengths, denominator) produced by one side of the
/// algorithm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScaledAnswers {
    /// Scaled numerators, per path edge.
    pub scaled: Vec<Dist>,
    /// Common denominator.
    pub den: u64,
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: u64, b: u64) -> u64 {
    a / gcd(a, b) * b
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::alg::replacement_lengths;
    use graphkit::alg::shortest_st_path;
    use graphkit::gen::random_weighted_digraph;

    fn weighted_instance(
        n: usize,
        m: usize,
        w: u64,
        seed: u64,
    ) -> Option<(graphkit::DiGraph, usize, usize)> {
        let g = random_weighted_digraph(n, m, w, seed);
        let (s, t) = graphkit::gen::random_reachable_pair(&g, seed ^ 1)?;
        let p = shortest_st_path(&g, s, t)?;
        if p.hops() < 3 {
            return None;
        }
        Some((g, s, t))
    }

    #[test]
    fn theorem3_guarantee_on_random_weighted() {
        let mut tested = 0;
        for seed in 0..14 {
            let Some((g, s, t)) = weighted_instance(36, 110, 12, seed) else {
                continue;
            };
            let inst = Instance::from_endpoints(&g, s, t).unwrap();
            let mut params = Params::with_zeta(inst.n(), 6).with_seed(seed);
            params.landmark_prob = 1.0;
            let out = solve(&inst, &params).unwrap();
            let oracle = replacement_lengths(&g, &inst.path);
            out.check_guarantee(&oracle, params.eps_num, params.eps_den)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            tested += 1;
        }
        assert!(tested >= 5, "too few usable instances ({tested})");
    }

    #[test]
    fn tighter_epsilon_still_holds() {
        let mut tested = 0;
        for seed in 20..30 {
            let Some((g, s, t)) = weighted_instance(30, 90, 8, seed) else {
                continue;
            };
            let inst = Instance::from_endpoints(&g, s, t).unwrap();
            let mut params = Params::with_zeta(inst.n(), 5)
                .with_seed(seed)
                .with_eps(1, 10);
            params.landmark_prob = 1.0;
            let out = solve(&inst, &params).unwrap();
            let oracle = replacement_lengths(&g, &inst.path);
            out.check_guarantee(&oracle, 1, 10)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            tested += 1;
        }
        assert!(tested >= 4);
    }

    #[test]
    fn unweighted_graphs_work_too() {
        // Theorem 3 subsumes unweighted graphs (weights all 1).
        let (g, s, t) = graphkit::gen::parallel_lane(12, 3, 2);
        let inst = Instance::from_endpoints(&g, s, t).unwrap();
        let mut params = Params::with_zeta(inst.n(), 4);
        params.landmark_prob = 1.0;
        let out = solve(&inst, &params).unwrap();
        let oracle = replacement_lengths(&g, &inst.path);
        out.check_guarantee(&oracle, params.eps_num, params.eps_den)
            .unwrap();
    }
}
