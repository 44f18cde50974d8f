//! The three workloads: what each generates from a seed, and why it is in
//! the benchmark.
//!
//! - `grid-road-default`: `grid_road(30, 30, 30, seed)` (n = 900) at the
//!   paper-default `Params::for_n`. The |L|² landmark-pair broadcast and
//!   the table composition around it do almost all the work, and set the
//!   peak RSS; a change to that broadcast moves this workload.
//! - `weighted-scales`: Theorem 3 on `random_weighted_digraph(512, 4n,
//!   W = 32, ·)`, at the first seed from `seed` on whose shortest path has
//!   at least 3 hops. Dozens of short per-scale hop-BFS phases carry the
//!   rounds; the landmark broadcast is small.
//! - `session-replay`: `planted_path_digraph(1024, 128, 4n, seed)` graphs
//!   at the `table1` bench parameters, each with 8 seeded endpoint pairs,
//!   queried through `SolverSession`: a cold batch, `save`, then warm
//!   boots that replay the batch. The only workload whose cold work runs
//!   the session layer.

use graphkit::alg::{replacement_lengths, shortest_st_path};
use graphkit::gen::{
    grid_road, planted_path_digraph, random_reachable_pair, random_weighted_digraph,
};
use graphkit::{DiGraph, Dist, NodeId};
use rpaths_core::{Params, Query};

/// A workload name, as given on the command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// See the module docs.
    GridRoadDefault,
    /// See the module docs.
    WeightedScales,
    /// See the module docs.
    SessionReplay,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::GridRoadDefault,
        Workload::WeightedScales,
        Workload::SessionReplay,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GridRoadDefault => "grid-road-default",
            Workload::WeightedScales => "weighted-scales",
            Workload::SessionReplay => "session-replay",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `true` when the timed cold work is a session batch rather than
    /// one-shot solves.
    pub fn is_session(self) -> bool {
        self == Workload::SessionReplay
    }
}

/// One endpoint pair with its shortest path's exact replacement
/// lengths (computed once, outside every clock).
pub struct Pair {
    /// Source.
    pub s: NodeId,
    /// Target.
    pub t: NodeId,
    /// Hops of the shortest `s`-`t` path.
    pub hops: usize,
    /// `|P|`, the answer to an intact query.
    pub length: Dist,
    /// `graphkit::alg::replacement_lengths` of the shortest path.
    pub oracle: Vec<Dist>,
}

/// One generated instance: a graph, its endpoint pairs, and the solver
/// parameters.
pub struct Case {
    /// The graph.
    pub graph: DiGraph,
    /// The endpoint pairs, sorted (the order `solve_batch` groups them).
    pub pairs: Vec<Pair>,
    /// Solver parameters.
    pub params: Params,
    /// The generator seed actually used (`weighted-scales` may skip
    /// seeds whose path is too short).
    pub graph_seed: u64,
}

impl Case {
    /// Every query of the session batch: each path-edge failure of each
    /// pair, plus one intact query per pair.
    pub fn queries(&self) -> Vec<Query> {
        let mut out = Vec::new();
        for p in &self.pairs {
            let path = shortest_st_path(&self.graph, p.s, p.t).expect("pair is reachable");
            out.extend(path.edges().iter().map(|&e| Query::avoiding(p.s, p.t, e)));
            out.push(Query::intact(p.s, p.t));
        }
        out
    }

    /// The exact answer to every query of [`Case::queries`], in order.
    pub fn expected(&self) -> Vec<Dist> {
        let mut out = Vec::new();
        for p in &self.pairs {
            out.extend_from_slice(&p.oracle);
            out.push(p.length);
        }
        out
    }
}

/// The seed of `bench_params` (landmark sampling), as in `table1`'s
/// scaling table: fixed, so that |L| does not vary with the input seed.
const PARAMS_SEED: u64 = 7;

/// Endpoint pairs of one `session-replay` graph.
const SESSION_PAIRS: usize = 8;

impl Workload {
    /// Instances a run cycles through. One instance's simulated cost
    /// varies with its seed (landmark-pair reachability, path lengths);
    /// several per run keep a run's totals steady across seeds.
    pub fn cases_per_run(self) -> usize {
        match self {
            Workload::GridRoadDefault => 1,
            Workload::WeightedScales => 3,
            Workload::SessionReplay => 4,
        }
    }
}

/// Builds the instances of `workload` for `seed`. Deterministic; distinct
/// seeds give distinct instances.
pub fn generate(workload: Workload, seed: u64) -> Vec<Case> {
    (0..workload.cases_per_run())
        .map(|i| {
            let case_seed = if workload.cases_per_run() == 1 {
                seed
            } else {
                splitmix(seed ^ splitmix(i as u64))
            };
            generate_case(workload, case_seed)
        })
        .collect()
}

fn generate_case(workload: Workload, seed: u64) -> Case {
    match workload {
        Workload::GridRoadDefault => {
            let (graph, s, t) = grid_road(30, 30, 30, seed);
            let params = Params::for_n(graph.node_count());
            finish(graph, vec![(s, t)], params, seed)
        }
        Workload::WeightedScales => {
            let n = 512;
            (0..)
                .map(|j| seed.wrapping_add(j))
                .find_map(|k| {
                    let graph = random_weighted_digraph(n, 4 * n, 32, k);
                    let (s, t) = random_reachable_pair(&graph, k ^ 0xbeef)?;
                    let hops = shortest_st_path(&graph, s, t)?.hops();
                    let params = rpaths_bench::bench_params(n, PARAMS_SEED);
                    (hops >= 3).then(|| finish(graph, vec![(s, t)], params, k))
                })
                .expect("some seed gives a path of 3 hops")
        }
        Workload::SessionReplay => {
            let n = 1024;
            let (graph, _, _) = planted_path_digraph(n, 128, 4 * n, seed);
            let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
            for k in 0..1024 {
                if let Some((s, t)) = random_reachable_pair(&graph, splitmix(seed ^ k)) {
                    if s != t && !pairs.contains(&(s, t)) {
                        pairs.push((s, t));
                    }
                }
                if pairs.len() == SESSION_PAIRS {
                    break;
                }
            }
            assert_eq!(
                pairs.len(),
                SESSION_PAIRS,
                "too few distinct endpoint pairs"
            );
            finish(
                graph,
                pairs,
                rpaths_bench::bench_params(n, PARAMS_SEED),
                seed,
            )
        }
    }
}

/// SplitMix64: derives well-spread sub-seeds.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn finish(
    graph: DiGraph,
    mut ends: Vec<(NodeId, NodeId)>,
    params: Params,
    graph_seed: u64,
) -> Case {
    ends.sort_unstable();
    let pairs = ends
        .into_iter()
        .map(|(s, t)| {
            let path = shortest_st_path(&graph, s, t).expect("generated pairs are reachable");
            Pair {
                s,
                t,
                hops: path.hops(),
                length: path.length(&graph),
                oracle: replacement_lengths(&graph, &path),
            }
        })
        .collect();
    Case {
        graph,
        pairs,
        params,
        graph_seed,
    }
}
