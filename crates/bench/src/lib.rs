//! Shared harness for the paper-reproduction experiments.
//!
//! The paper's measured quantity is the *round complexity* in the CONGEST
//! model, which the simulator reports deterministically — so the
//! table/figure binaries run each configuration once and print the round
//! counts (no statistical repetition needed). The `engine` bench
//! (`cargo bench -p rpaths-bench --bench engine`) times the engine's two
//! schedules; the solvers' wall-clock is measured by the repository
//! benchmark in `perfbench/`.
//!
//! Binaries (run with `cargo run --release -p rpaths-bench --bin <name>`):
//!
//! - `table1` — the Table 1 reproduction: measured rounds of Theorem 1,
//!   MR24, and the naive baseline across `n` and `h_st`, plus the
//!   weighted Theorem 3, with growth-exponent fits.
//! - `figures` — Figures 1 and 2: constructs `G(Γ,d,p)` and
//!   `G(k,d,p,φ,M,x)`, verifies Observations 6.3/6.6 and Lemma 6.8.
//! - `lower_bound` — the Section 6 experiments: the disjointness
//!   reduction end-to-end with cut-bit accounting, and the Ω(D) family.
//! - `ablations` — the two design choices Section 3.1 credits for the
//!   gain over MR24, each against the alternative: X2, furthest-origin
//!   trimming in the ζ-hop BFS (Section 4) against the untrimmed
//!   multi-source BFS; X1, the landmark-only broadcast (Section 5)
//!   against MR24's broadcast of every path vertex's landmark distances.

#![forbid(unsafe_code)]

use graphkit::alg::{replacement_lengths, undirected_diameter};
use graphkit::gen::{parallel_lane, planted_path_digraph, random_weighted_digraph};
use graphkit::{DiGraph, NodeId};
use rpaths_core::{weighted, Instance, Params, RPathsOutput, SolveError};
use serde::Serialize;

/// One measured configuration.
#[derive(Clone, Debug, Serialize)]
pub struct Row {
    /// Algorithm label.
    pub algo: String,
    /// Instance family label.
    pub family: String,
    /// Vertex count.
    pub n: usize,
    /// Path hop count `h_st`.
    pub h: usize,
    /// Undirected diameter `D`.
    pub diameter: usize,
    /// Threshold ζ used.
    pub zeta: usize,
    /// Measured rounds.
    pub rounds: u64,
    /// Messages sent.
    pub messages: u64,
    /// Total bits sent.
    pub bits: u64,
    /// Whether the output matched the oracle (exactly for exact
    /// algorithms, within `(1+ε)` for approximate ones).
    pub correct: bool,
}

impl Row {
    /// Prints the table header.
    pub fn header() {
        println!(
            "{:<14} {:<16} {:>6} {:>6} {:>4} {:>6} {:>10} {:>12} {:>7}",
            "algo", "family", "n", "h_st", "D", "zeta", "rounds", "messages", "ok"
        );
    }

    /// Prints one formatted row.
    pub fn print(&self) {
        println!(
            "{:<14} {:<16} {:>6} {:>6} {:>4} {:>6} {:>10} {:>12} {:>7}",
            self.algo,
            self.family,
            self.n,
            self.h,
            self.diameter,
            self.zeta,
            self.rounds,
            self.messages,
            if self.correct { "yes" } else { "NO" }
        );
    }
}

/// A ready-to-measure unweighted instance.
pub struct Case {
    /// Family label for reporting.
    pub family: String,
    /// The graph (owned).
    pub graph: DiGraph,
    /// Source.
    pub s: NodeId,
    /// Target.
    pub t: NodeId,
}

/// Random digraph with a planted `h`-hop shortest path; `m ≈ 4n` extra
/// edges.
pub fn random_case(n: usize, h: usize, seed: u64) -> Case {
    let (graph, s, t) = planted_path_digraph(n, h, 4 * n, seed);
    Case {
        family: format!("random(h={h})"),
        graph,
        s,
        t,
    }
}

/// Path-plus-lane instance whose detours all have `2 + c·stretch` hops.
pub fn lane_case(h: usize, switch_every: usize, stretch: usize) -> Case {
    let (graph, s, t) = parallel_lane(h, switch_every, stretch);
    Case {
        family: format!("lane(c={switch_every},x{stretch})"),
        graph,
        s,
        t,
    }
}

/// Benchmark parameters: the paper's ζ = n^{2/3}, with a lighter landmark
/// constant than the test default (`c = 1`), since at laptop-scale `n`
/// the `c⁴` constants otherwise swamp the asymptotics being exhibited.
pub fn bench_params(n: usize, seed: u64) -> Params {
    let mut p = Params::for_n(n).with_seed(seed);
    p.landmark_prob = ((n.max(2) as f64).ln() / p.zeta as f64).min(1.0);
    p
}

/// Measures one exact solver (`unweighted::solve` or a baseline's
/// `solve`) on a case, labelled `algo`, and checks it against the
/// oracle.
pub fn measure(
    algo: &str,
    solve: fn(&Instance<'_>, &Params) -> Result<RPathsOutput, SolveError>,
    case: &Case,
    params: &Params,
) -> Row {
    let inst = Instance::from_endpoints(&case.graph, case.s, case.t).expect("valid");
    let out = solve(&inst, params).expect("connected benchmark graph");
    let oracle = replacement_lengths(&case.graph, &inst.path);
    Row {
        algo: algo.into(),
        family: case.family.clone(),
        n: case.graph.node_count(),
        h: inst.hops(),
        diameter: inst.diameter,
        zeta: params.zeta,
        rounds: out.metrics.rounds(),
        messages: out.metrics.total.messages,
        bits: out.metrics.total.bits,
        correct: out.replacement == oracle,
    }
}

/// Measures Theorem 3 on a weighted random instance; correctness is the
/// `(1+ε)` bracket against the exact oracle.
pub fn measure_weighted(n: usize, max_w: u64, seed: u64) -> Option<Row> {
    let graph = random_weighted_digraph(n, 4 * n, max_w, seed);
    let (s, t) = graphkit::gen::random_reachable_pair(&graph, seed ^ 0xbeef)?;
    let inst = Instance::from_endpoints(&graph, s, t).ok()?;
    if inst.hops() < 3 {
        return None;
    }
    let params = bench_params(n, seed);
    let out = weighted::solve(&inst, &params).expect("connected benchmark graph");
    let oracle = replacement_lengths(&graph, &inst.path);
    let correct = out
        .check_guarantee(&oracle, params.eps_num, params.eps_den)
        .is_ok();
    let diameter = undirected_diameter(&graph).unwrap_or(0);
    Some(Row {
        algo: "theorem3".into(),
        family: format!("weighted(W={max_w})"),
        n,
        h: inst.hops(),
        diameter,
        zeta: params.zeta,
        rounds: out.metrics.rounds(),
        messages: out.metrics.total.messages,
        bits: out.metrics.total.bits,
        correct,
    })
}

/// Least-squares slope of `log(rounds)` against `log(n)` — the measured
/// growth exponent.
pub fn growth_exponent(points: &[(usize, u64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(_, r)| r > 0)
        .map(|&(n, r)| ((n as f64).ln(), (r as f64).ln()))
        .collect();
    let n = pts.len() as f64;
    if n < 2.0 {
        return f64::NAN;
    }
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growth_exponent_of_power_law() {
        let pts: Vec<(usize, u64)> = (1..=6)
            .map(|i| {
                let n = 100 * i;
                (n, ((n as f64).powf(0.66)) as u64)
            })
            .collect();
        let e = growth_exponent(&pts);
        assert!((e - 0.66).abs() < 0.05, "exponent {e}");
    }

    #[test]
    fn rows_measure_and_agree() {
        use rpaths_core::{baseline, unweighted};
        let case = random_case(120, 24, 3);
        let params = bench_params(120, 3);
        let ours = measure("theorem1", unweighted::solve, &case, &params);
        assert!(ours.correct, "theorem1 disagreed with oracle");
        let mr = measure("mr24", baseline::mr24::solve, &case, &params);
        assert!(mr.correct, "mr24 disagreed with oracle");
        assert!(ours.rounds > 0 && mr.rounds > 0);
    }

    #[test]
    fn weighted_row_within_guarantee() {
        let row = measure_weighted(80, 16, 5).expect("usable instance");
        assert!(row.correct);
    }
}
