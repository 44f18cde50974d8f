//! `rpaths-fuzz`: seeded ground-truth differential fuzzing.
//!
//! The harness sweeps a randomized but fully seeded matrix —
//!
//! **topology family** (planted path, parallel lane, road grid, Octopus
//! pods, layered DAG, metro ring, power law, weighted random) ×
//! **solver** (every [`FuzzSolver`] surface, one-shot and
//! `SolverSession::solve_batch`) × **fault plan** (none / permanent) —
//!
//! and holds every answer to the centralized `graphkit::alg` oracles
//! through the [`rpaths_core::oracle`] adapters, plus a warm vs cold
//! batch bit-identity cross-check.
//!
//! Case costs are tiered so a single sweep spans five decades of `n`:
//! the full distributed-solver differential runs at `n` up to ~10³
//! (the engine is `Θ(rounds·m)` work on one host), while the scale tier
//! pushes `n` to 10⁵ through the checks that stay near-linear —
//! generator invariants, session path answers vs Dijkstra (which skip
//! the `O(n·m)` diameter by construction), snapshot round-trips, and
//! the distributed BFS tree vs a centralized BFS at mid scale.
//!
//! On a divergence the harness greedily minimizes the repro
//! ([`minimize`]) and writes it as a self-contained
//! [`rpaths_core::fixture::Fixture`] under `tests/regressions/`, where
//! `tests/fuzz_regressions.rs` replays it on every tier-1 run. See
//! `FUZZING.md` for the workflow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod minimize;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use congest::bfs_tree::build_bfs_tree;
use congest::{FaultPlan, Network};
use graphkit::alg::{shortest_st_path, undirected_bfs};
use graphkit::{gen, DiGraph, EdgeId, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpaths_core::fixture::{Fixture, FIXTURE_EXT};
use rpaths_core::oracle::{self, Divergence, FuzzSolver};
use rpaths_core::resilient::{self, Recovery};
use rpaths_core::{Answer, Instance, Params, Query, SolverSession};

/// Sweep configuration (every knob the CLI exposes).
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Master seed; the whole sweep is a pure function of it.
    pub seed: u64,
    /// Number of cases to plan.
    pub cases: usize,
    /// Largest graph any case may use.
    pub max_n: usize,
    /// Enable the deliberate solver defect
    /// ([`rpaths_core::testhooks::set_flip_unweighted_merge`]) for this
    /// sweep, to validate the catch → minimize → fixture pipeline.
    pub inject_tiebreak: bool,
    /// Where divergence fixtures are written.
    pub out_dir: PathBuf,
}

impl FuzzConfig {
    /// The full-scale profile: `n` up to 10⁵.
    pub fn full(seed: u64, cases: usize) -> FuzzConfig {
        FuzzConfig {
            seed,
            cases,
            max_n: 100_000,
            inject_tiebreak: false,
            out_dir: PathBuf::from("tests/regressions"),
        }
    }

    /// The CI smoke profile: seconds-scale, `n ≤ 4096`.
    pub fn smoke(seed: u64) -> FuzzConfig {
        FuzzConfig {
            seed,
            cases: 40,
            max_n: 4096,
            inject_tiebreak: false,
            out_dir: PathBuf::from("tests/regressions"),
        }
    }
}

/// The topology families the planner samples.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// `gen::planted_path_digraph`: random with a planted shortest path.
    Planted,
    /// `gen::parallel_lane`: path + stretched switch lane.
    Lane,
    /// `gen::grid_road`: bidirectional road grid with diagonal chords.
    GridRoad,
    /// `gen::octopus_pods`: sparse-spine memory pods.
    Octopus,
    /// `gen::layered_dag`: uniform-length layered routes.
    LayeredDag,
    /// `gen::metro_ring`: the 2-edge-connected carrier ring.
    MetroRing,
    /// `gen::power_law_digraph`: preferential attachment.
    PowerLaw,
    /// `gen::random_weighted_digraph`: weighted unstructured.
    WeightedRandom,
}

impl Family {
    /// Stable name for logs and fixture provenance.
    pub fn name(self) -> &'static str {
        match self {
            Family::Planted => "planted",
            Family::Lane => "lane",
            Family::GridRoad => "grid-road",
            Family::Octopus => "octopus",
            Family::LayeredDag => "layered-dag",
            Family::MetroRing => "metro-ring",
            Family::PowerLaw => "power-law",
            Family::WeightedRandom => "weighted-random",
        }
    }

    /// Generates a graph of roughly `n_hint` nodes, plus the family's
    /// natural demand endpoints when it has them.
    pub fn generate(self, n_hint: usize, rng: &mut StdRng) -> (DiGraph, Option<(NodeId, NodeId)>) {
        let n = n_hint.max(8);
        let seed = rng.gen_range(0..u64::MAX / 2);
        match self {
            Family::Planted => {
                let h = rng.gen_range(3..=(n / 3).max(4));
                let extra = rng.gen_range(n..=3 * n);
                let (g, s, t) = gen::planted_path_digraph(n, h, extra, seed);
                (g, Some((s, t)))
            }
            Family::Lane => {
                let stretch = rng.gen_range(1..=3);
                let switch = rng.gen_range(1..=4);
                let h = (n / (1 + stretch)).max(4);
                let (g, s, t) = gen::parallel_lane(h, switch, stretch);
                (g, Some((s, t)))
            }
            Family::GridRoad => {
                let rows = ((n as f64).sqrt() as usize).max(2);
                let cols = (n / rows).max(2);
                let chords = rng.gen_range(0..=(rows * cols) / 8);
                let (g, s, t) = gen::grid_road(rows, cols, chords, seed);
                (g, Some((s, t)))
            }
            Family::Octopus => {
                let pods = ((n as f64 / 4.0).sqrt() as usize).max(2);
                let pod_size = (n / pods).max(1);
                let extra = rng.gen_range(0..=pods / 2 + 1);
                (gen::octopus_pods(pods, pod_size, extra, seed), None)
            }
            Family::LayeredDag => {
                let layers = rng.gen_range(3..=8);
                let width = (n / (layers + 2)).max(2);
                let extra = rng.gen_range(n..=2 * n);
                let (g, s, t) = gen::layered_dag(layers, width, extra, seed);
                (g, Some((s, t)))
            }
            Family::MetroRing => {
                let pops = n.max(4);
                (gen::metro_ring(pops), Some((0, pops / 2)))
            }
            Family::PowerLaw => (gen::power_law_digraph(n, seed), None),
            Family::WeightedRandom => {
                let extra = rng.gen_range(2 * n..=4 * n);
                let w = rng.gen_range(2..=12);
                (gen::random_weighted_digraph(n, extra, w, seed), None)
            }
        }
    }
}

/// The cost tier a case runs in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CaseKind {
    /// Full distributed-solver differential vs the oracle (small `n`).
    InstanceDiff,
    /// `SolverSession::solve_batch` differential with warm/cold
    /// bit-identity (medium `n`).
    BatchDiff,
    /// Fault injection through `resilient::solve_with_recovery`, with
    /// an independently reconstructed survivor-graph oracle.
    FaultTier,
    /// Near-linear checks at `n` up to the configured maximum.
    ScaleTier,
}

impl CaseKind {
    fn name(self) -> &'static str {
        match self {
            CaseKind::InstanceDiff => "instance",
            CaseKind::BatchDiff => "batch",
            CaseKind::FaultTier => "fault",
            CaseKind::ScaleTier => "scale",
        }
    }
}

/// One planned case (a pure function of `(config.seed, index)`).
#[derive(Clone, Debug)]
pub struct CasePlan {
    /// Position in the sweep.
    pub index: usize,
    /// Cost tier.
    pub kind: CaseKind,
    /// Topology family.
    pub family: Family,
    /// Target node count.
    pub n: usize,
    /// Solver under test (instance/fault tiers).
    pub solver: FuzzSolver,
    /// Per-case RNG seed.
    pub case_seed: u64,
}

impl CasePlan {
    /// One-line description for logs and fixture provenance.
    pub fn describe(&self) -> String {
        format!(
            "case {:>3} [{}] family={} n={} solver={}",
            self.index,
            self.kind.name(),
            self.family.name(),
            self.n,
            self.solver,
        )
    }
}

/// What happened to one case.
#[derive(Clone, Debug)]
pub enum CaseOutcome {
    /// All checks held.
    Pass,
    /// The case could not be posed (e.g. too-short demand path); the
    /// reason is logged, the case is not counted as coverage.
    Skip(String),
    /// A check failed; when the case can be replayed as a fixture,
    /// the minimized repro rides along.
    Diverged {
        /// What disagreed.
        divergence: Divergence,
        /// The minimized repro, ready to write to the corpus.
        fixture: Option<Box<Fixture>>,
    },
}

/// Aggregate result of a sweep.
#[derive(Clone, Debug, Default)]
pub struct SweepReport {
    /// Cases that ran and passed.
    pub passed: usize,
    /// Cases skipped (unposeable demand).
    pub skipped: usize,
    /// Cases that diverged.
    pub divergences: usize,
    /// Fixtures written for divergent cases.
    pub fixtures: Vec<PathBuf>,
    /// The largest `n` any executed case actually used.
    pub max_n_exercised: usize,
}

impl SweepReport {
    /// `true` when no case diverged.
    pub fn clean(&self) -> bool {
        self.divergences == 0
    }
}

/// Uniform draw from `[0, 1)` (the vendored `rand` has no float
/// `gen_range`).
fn unit_f64(rng: &mut StdRng) -> f64 {
    rng.gen_range(0..(1u64 << 53)) as f64 / (1u64 << 53) as f64
}

fn case_rng(master: u64, index: usize) -> StdRng {
    // SplitMix-style decorrelation so case i+1 is not a shifted replay
    // of case i.
    StdRng::seed_from_u64(
        master
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((index as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9)),
    )
}

/// Plans case `index` of a sweep (deterministic).
pub fn plan_case(cfg: &FuzzConfig, index: usize) -> CasePlan {
    let mut rng = case_rng(cfg.seed, index);
    // Deterministic tier rotation: half the sweep is the full solver
    // differential, and every tenth case climbs the size ladder.
    let kind = match index % 10 {
        0..=4 => CaseKind::InstanceDiff,
        5 | 6 => CaseKind::BatchDiff,
        7 => CaseKind::ScaleTier,
        8 => CaseKind::FaultTier,
        _ => CaseKind::InstanceDiff,
    };
    let family = match kind {
        CaseKind::FaultTier => {
            // Redundant topologies, so single failures degrade rather
            // than amputate.
            [Family::MetroRing, Family::GridRoad, Family::Octopus][rng.gen_range(0..3)]
        }
        _ => [
            Family::Planted,
            Family::Lane,
            Family::GridRoad,
            Family::Octopus,
            Family::LayeredDag,
            Family::MetroRing,
            Family::PowerLaw,
            Family::WeightedRandom,
        ][rng.gen_range(0..8)],
    };
    let n = match kind {
        CaseKind::InstanceDiff => rng.gen_range(16..=220.min(cfg.max_n)),
        CaseKind::BatchDiff => {
            // On-path avoids cost a full solver run each; scale the
            // graph with the profile so smoke stays seconds-scale, and
            // halve it again for the weighted solver (it sweeps
            // ⌈log₂ min(2Σw, 2ζ·w_max/ε)⌉ distance scales per run).
            let mut cap = 1024.min(cfg.max_n / 16).max(64);
            if family == Family::WeightedRandom {
                cap = (cap / 2).max(64);
            }
            rng.gen_range(64.min(cap)..=cap)
        }
        CaseKind::FaultTier => rng.gen_range(16..=160.min(cfg.max_n)),
        CaseKind::ScaleTier => {
            // Every third scale case pins the configured maximum so the
            // sweep provably reaches it; the rest ramp log-uniformly.
            if (index / 10).is_multiple_of(3) {
                cfg.max_n
            } else {
                let lo = (cfg.max_n / 64).max(256) as f64;
                let hi = cfg.max_n as f64;
                (lo * (hi / lo).powf(unit_f64(&mut rng))) as usize
            }
        }
    };
    let solver = {
        let pool: &[FuzzSolver] = if family == Family::WeightedRandom {
            &[FuzzSolver::Weighted, FuzzSolver::Reachability]
        } else if n > 300 {
            // The baselines are h·T_BFS; keep them off medium graphs.
            &[
                FuzzSolver::Unweighted,
                FuzzSolver::Weighted,
                FuzzSolver::Sisp,
                FuzzSolver::Reachability,
            ]
        } else {
            &FuzzSolver::ALL
        };
        pool[rng.gen_range(0..pool.len())]
    };
    CasePlan {
        index,
        kind,
        family,
        n,
        solver,
        case_seed: rng.gen_range(0..u64::MAX / 2),
    }
}

fn params_for(n: usize, rng: &mut StdRng) -> Params {
    // ζ sweeps the short/long regime split; landmark_prob stays 1.0 so
    // the w.h.p. guarantees are certainties and every divergence is a
    // bug, not sampling bad luck.
    let zeta_cap = ((n as f64).powf(2.0 / 3.0).ceil() as usize).max(3);
    let mut p = Params::with_zeta(n, rng.gen_range(2..=zeta_cap));
    p.landmark_prob = 1.0;
    p.seed = rng.gen_range(0..u64::MAX / 2);
    p
}

/// Picks demand endpoints for a generated graph, preferring the
/// family's natural pair.
fn endpoints(
    graph: &DiGraph,
    natural: Option<(NodeId, NodeId)>,
    rng: &mut StdRng,
) -> Option<(NodeId, NodeId)> {
    natural.or_else(|| gen::random_reachable_pair(graph, rng.gen_range(0..u64::MAX / 2)))
}

fn diverge(
    check: impl Into<String>,
    got: impl Into<String>,
    want: impl Into<String>,
) -> Divergence {
    Divergence {
        check: check.into(),
        index: None,
        got: got.into(),
        want: want.into(),
    }
}

// ---------------------------------------------------------------------
// Case execution
// ---------------------------------------------------------------------

/// What one tier found; [`run_guarded`] turns it into a [`CaseOutcome`].
enum CaseRun {
    Pass,
    Skip(String),
    /// A check failed; the repro parts for the minimizer (graph, `s`,
    /// `t`, params) ride along when the case can be replayed as a
    /// fixture.
    Diverged(Divergence, Option<Box<(DiGraph, NodeId, NodeId, Params)>>),
}

impl CaseRun {
    fn skip(reason: impl Into<String>) -> CaseRun {
        CaseRun::Skip(reason.into())
    }
}

fn run_instance_diff(plan: &CasePlan) -> CaseRun {
    let mut rng = StdRng::seed_from_u64(plan.case_seed);
    let (graph, natural) = plan.family.generate(plan.n, &mut rng);
    let Some((s, t)) = endpoints(&graph, natural, &mut rng) else {
        return CaseRun::skip("no reachable demand pair");
    };
    if plan.solver.needs_unweighted() && !graph.is_unweighted() {
        return CaseRun::skip("weighted graph, unweighted-only solver");
    }
    let params = params_for(graph.node_count(), &mut rng);
    let inst = match Instance::from_endpoints(&graph, s, t) {
        Ok(i) => i,
        Err(e) => return CaseRun::skip(format!("instance: {e}")),
    };
    if inst.hops() < 2 {
        return CaseRun::skip("demand path under 2 hops");
    }
    if let Err(d) = oracle::check_instance(&inst, &params, plan.solver) {
        return CaseRun::Diverged(d, Some(Box::new((graph, s, t, params))));
    }
    CaseRun::Pass
}

/// Solves `queries` cold in `session` and holds every answer to the
/// per-query oracle.
fn checked_batch(
    session: &mut SolverSession<'_>,
    graph: &DiGraph,
    params: &Params,
    queries: &[Query],
) -> Result<Vec<Answer>, Divergence> {
    let answers = session
        .solve_batch(queries)
        .map_err(|e| diverge("solve_batch failed", e.to_string(), "answers"))?;
    oracle::check_batch(graph, params, queries, &answers)?;
    Ok(answers)
}

fn run_batch_diff(plan: &CasePlan) -> CaseRun {
    let mut rng = StdRng::seed_from_u64(plan.case_seed);
    let (graph, natural) = plan.family.generate(plan.n, &mut rng);
    let Some((s, t)) = endpoints(&graph, natural, &mut rng) else {
        return CaseRun::skip("no reachable demand pair");
    };
    let Some(path) = shortest_st_path(&graph, s, t) else {
        return CaseRun::skip("no demand path");
    };
    let params = params_for(graph.node_count(), &mut rng);
    // Mixed batch: intact, on-path avoids (which force a solver run
    // when the graph is small enough for the diameter oracle), and
    // off-path avoids (answered from the path alone at any size).
    let mut queries = vec![Query::intact(s, t)];
    // Each on-path avoid is a full solver run; ramp the budget down
    // with n.
    let on_path_budget = match graph.node_count() {
        0..=256 => 3,
        257..=640 => 2,
        641..=1024 => 1,
        _ => 0,
    };
    for _ in 0..on_path_budget.min(path.hops()) {
        let i = rng.gen_range(0..path.hops());
        queries.push(Query::avoiding(s, t, path.edge(i)));
    }
    let m = graph.edge_count();
    for _ in 0..6 {
        let e = rng.gen_range(0..m);
        if !path.contains_edge(e) {
            queries.push(Query::avoiding(s, t, e));
        }
    }
    // One session: its cold answers are held to the per-query oracle,
    // then the same batch again must come back bit-identical from the
    // cache.
    let mut session = SolverSession::new(&graph, params.clone());
    let cold = match checked_batch(&mut session, &graph, &params, &queries) {
        Ok(cold) => cold,
        Err(d) => return CaseRun::Diverged(d, None),
    };
    match session.solve_batch(&queries) {
        Ok(warm) if warm == cold => CaseRun::Pass,
        Ok(warm) => CaseRun::Diverged(
            diverge(
                "warm batch differs from cold batch",
                format!("{warm:?}"),
                format!("{cold:?}"),
            ),
            None,
        ),
        Err(e) => CaseRun::Diverged(
            diverge("warm solve_batch failed", e.to_string(), "answers"),
            None,
        ),
    }
}

fn run_fault_tier(plan: &CasePlan) -> CaseRun {
    let mut rng = StdRng::seed_from_u64(plan.case_seed);
    let (graph, natural) = plan.family.generate(plan.n, &mut rng);
    if !graph.is_unweighted() {
        return CaseRun::skip("fault tier drives the unweighted solver");
    }
    let Some((s, t)) = endpoints(&graph, natural, &mut rng) else {
        return CaseRun::skip("no reachable demand pair");
    };
    let params = params_for(graph.node_count(), &mut rng);
    // Permanent faults only: with none, recovery solves the pristine
    // instance and never attaches the plan to a network, so a transient
    // plan would only re-check Theorem 1 against the oracle.
    let mut fault_plan = FaultPlan::new(rng.gen_range(0..u64::MAX / 2));
    for _ in 0..rng.gen_range(1..=2) {
        fault_plan = fault_plan.fail_link(rng.gen_range(0..graph.edge_count()), 0, None);
    }
    if graph.node_count() > 4 && rng.gen_bool(0.4) {
        let mut v = rng.gen_range(0..graph.node_count());
        while v == s || v == t {
            v = rng.gen_range(0..graph.node_count());
        }
        fault_plan = fault_plan.crash_node(v, 0, None);
    }
    match resilient::solve_with_recovery(&graph, s, t, &fault_plan, &params) {
        Ok(Recovery::Degraded(d)) => match check_degraded(&graph, s, t, &fault_plan, &d) {
            Ok(()) => CaseRun::Pass,
            Err(div) => CaseRun::Diverged(div, None),
        },
        Ok(Recovery::Full { .. }) => CaseRun::Diverged(
            diverge(
                "permanent faults reported Full recovery",
                "Full",
                "Degraded",
            ),
            None,
        ),
        Err(e) => CaseRun::Diverged(diverge("recovery failed", e.to_string(), "an answer"), None),
    }
}

/// Independently rebuilds the survivor graph (crashed nodes and downed
/// links removed, source component, ascending remap — the documented
/// re-posing rule of `rpaths_core::resilient`) and holds the degraded
/// answer to the replica's oracle.
fn check_degraded(
    graph: &DiGraph,
    s: NodeId,
    t: NodeId,
    plan: &FaultPlan,
    d: &resilient::Degraded,
) -> Result<(), Divergence> {
    let horizon = plan.horizon();
    let downed: Vec<EdgeId> = plan.links_down_at(horizon);
    let crashed: Vec<NodeId> = plan.nodes_down_at(horizon);
    let n = graph.node_count();
    let mut dead = vec![false; n];
    for &v in &crashed {
        dead[v] = true;
    }
    let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for (id, e) in graph.edges() {
        if downed.binary_search(&id).is_ok() || dead[e.from] || dead[e.to] {
            continue;
        }
        adj[e.from].push(e.to);
        adj[e.to].push(e.from);
    }
    let mut in_comp = vec![false; n];
    in_comp[s] = true;
    let mut stack = vec![s];
    while let Some(v) = stack.pop() {
        for &w in &adj[v] {
            if !in_comp[w] {
                in_comp[w] = true;
                stack.push(w);
            }
        }
    }
    let expect_unreachable: Vec<NodeId> = (0..n).filter(|&v| !in_comp[v]).collect();
    if d.unreachable != expect_unreachable {
        return Err(diverge(
            "degraded unreachable set vs local component",
            format!("{:?}", d.unreachable),
            format!("{expect_unreachable:?}"),
        ));
    }
    if !in_comp[t] {
        return match &d.answered {
            None => Ok(()),
            Some(a) => Err(diverge(
                "answered a severed target",
                format!("{a:?}"),
                "no answer",
            )),
        };
    }
    // Replica of the re-posed instance: same ascending remap, same edge
    // order, so the extracted path — and with it the oracle — is the
    // one the recovery wrapper solved against.
    let component: Vec<NodeId> = (0..n).filter(|&v| in_comp[v]).collect();
    let mut new_id = vec![usize::MAX; n];
    for (i, &v) in component.iter().enumerate() {
        new_id[v] = i;
    }
    let mut b = graphkit::GraphBuilder::new(component.len());
    for (id, e) in graph.edges() {
        if downed.binary_search(&id).is_ok() || !in_comp[e.from] || !in_comp[e.to] {
            continue;
        }
        b.add_edge(new_id[e.from], new_id[e.to], e.weight);
    }
    let sub = b.build();
    match Instance::from_endpoints(&sub, new_id[s], new_id[t]) {
        Ok(inst) => {
            let want = oracle::oracle_replacements(&inst);
            match &d.answered {
                Some(got) if *got == want => Ok(()),
                Some(got) => Err(diverge(
                    "degraded answers vs survivor-graph oracle",
                    format!("{got:?}"),
                    format!("{want:?}"),
                )),
                None => Err(diverge(
                    "no answer despite a surviving route",
                    "None",
                    format!("{want:?}"),
                )),
            }
        }
        Err(_) => match &d.answered {
            None => Ok(()),
            Some(a) => Err(diverge(
                "answered without a surviving directed route",
                format!("{a:?}"),
                "no answer",
            )),
        },
    }
}

fn run_scale_tier(plan: &CasePlan) -> CaseRun {
    let mut rng = StdRng::seed_from_u64(plan.case_seed);
    let (graph, natural) = plan.family.generate(plan.n, &mut rng);
    // Generator invariant: every family contract promises an
    // undirected-connected graph. One O(n + m) search; the diameter
    // oracle is O(n·m) and unusable at scale-tier sizes.
    if !undirected_bfs(&graph, 0, |_| true)
        .iter()
        .all(|d| d.is_finite())
    {
        return CaseRun::Diverged(
            diverge(
                format!("{} generator connectivity", plan.family.name()),
                "disconnected graph",
                "connected graph",
            ),
            None,
        );
    }
    let Some((s, t)) = endpoints(&graph, natural, &mut rng) else {
        return CaseRun::skip("no reachable demand pair");
    };
    let Some(path) = shortest_st_path(&graph, s, t) else {
        return CaseRun::skip("no demand path");
    };
    let params = params_for(graph.node_count(), &mut rng);
    // Session answers vs Dijkstra at full scale: intact and off-path
    // avoids never touch the engine or the O(n·m) diameter oracle.
    let mut queries = vec![Query::intact(s, t)];
    let m = graph.edge_count();
    for _ in 0..5 {
        let e = rng.gen_range(0..m);
        if !path.contains_edge(e) {
            queries.push(Query::avoiding(s, t, e));
        }
    }
    match scale_checks(&graph, &params, s, &queries) {
        Ok(()) => CaseRun::Pass,
        Err(d) => CaseRun::Diverged(d, None),
    }
}

/// The scale tier's checks on a posed demand: one cold session batch
/// vs the per-query oracle, the snapshot round trip, and the
/// distributed BFS tree vs a centralized BFS.
fn scale_checks(
    graph: &DiGraph,
    params: &Params,
    s: NodeId,
    queries: &[Query],
) -> Result<(), Divergence> {
    let mut session = SolverSession::new(graph, params.clone());
    checked_batch(&mut session, graph, params, queries)?;
    // Snapshot round-trip: the store must reproduce the graph bit for
    // bit at any size.
    let bytes = rpaths_store::Snapshot::new(graph.clone()).encode();
    let back = rpaths_store::Snapshot::decode(&bytes)
        .map_err(|e| diverge("snapshot decode", e.to_string(), "a snapshot"))?
        .snapshot;
    if back.graph.fingerprint() != graph.fingerprint() {
        return Err(diverge(
            "snapshot round-trip fingerprint",
            format!("{:#x}", back.graph.fingerprint()),
            format!("{:#x}", graph.fingerprint()),
        ));
    }
    // Distributed BFS tree vs centralized BFS, where the engine is
    // still affordable on one host.
    if graph.node_count() <= 4096 {
        let (tree, _) = build_bfs_tree(&mut Network::new(graph), s).map_err(|e| {
            diverge(
                "distributed BFS on a connected graph",
                format!("{e:?}"),
                "a spanning tree",
            )
        })?;
        let want = undirected_bfs(graph, s, |_| true);
        if let Some(v) = (0..graph.node_count()).find(|&v| Some(tree.depth[v]) != want[v].finite())
        {
            return Err(diverge(
                "distributed BFS depth vs centralized BFS",
                format!("node {v}: {}", tree.depth[v]),
                format!("{:?}", want[v].finite()),
            ));
        }
    }
    Ok(())
}

/// Runs one planned case; `minimize` controls whether divergent repros
/// are ddmin-shrunk before being minted as fixtures.
pub fn run_case(plan: &CasePlan, minimize: bool) -> (CaseOutcome, usize) {
    run_guarded(plan, minimize, |plan| match plan.kind {
        CaseKind::InstanceDiff => run_instance_diff(plan),
        CaseKind::BatchDiff => run_batch_diff(plan),
        CaseKind::FaultTier => run_fault_tier(plan),
        CaseKind::ScaleTier => run_scale_tier(plan),
    })
}

/// Runs `run` on `plan` and turns its result into an outcome. A panic
/// anywhere in the case is a divergence naming the panic message, not
/// the end of the sweep.
fn run_guarded(
    plan: &CasePlan,
    minimize: bool,
    run: impl FnOnce(&CasePlan) -> CaseRun,
) -> (CaseOutcome, usize) {
    let run = catch_unwind(AssertUnwindSafe(|| run(plan))).unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|m| m.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        CaseRun::Diverged(diverge("case panicked", message, "no panic"), None)
    });
    match run {
        CaseRun::Pass => (CaseOutcome::Pass, plan.n),
        CaseRun::Skip(reason) => (CaseOutcome::Skip(reason), 0),
        CaseRun::Diverged(divergence, repro) => {
            let fixture = repro.map(|repro| {
                let (graph, s, t, params) = *repro;
                Box::new(build_fixture(
                    plan,
                    graph,
                    s,
                    t,
                    params,
                    &divergence,
                    minimize,
                ))
            });
            (
                CaseOutcome::Diverged {
                    divergence,
                    fixture,
                },
                plan.n,
            )
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn build_fixture(
    plan: &CasePlan,
    graph: DiGraph,
    s: NodeId,
    t: NodeId,
    params: Params,
    divergence: &Divergence,
    minimize: bool,
) -> Fixture {
    let before = graph.node_count();
    let (graph, s, t) = if minimize {
        minimize::minimize_instance(graph, s, t, &params, plan.solver)
    } else {
        (graph, s, t)
    };
    let origin = format!(
        "minimized from {} ({} → {} nodes); {}",
        plan.describe(),
        before,
        graph.node_count(),
        divergence,
    );
    Fixture::instance_mode(
        format!("{}-s{}-c{}", plan.solver.name(), plan.case_seed, plan.index),
        origin,
        graph,
        s,
        t,
        params,
        plan.solver,
    )
}

/// Runs the whole sweep, writing minimized fixtures for divergent cases
/// and logging one line per case through `log`.
pub fn run_sweep(cfg: &FuzzConfig, log: &mut dyn FnMut(&str)) -> SweepReport {
    if cfg.inject_tiebreak {
        rpaths_core::testhooks::set_flip_unweighted_merge(true);
    }
    let mut report = SweepReport::default();
    for index in 0..cfg.cases {
        let plan = plan_case(cfg, index);
        let (outcome, n_used) = run_case(&plan, true);
        report.max_n_exercised = report.max_n_exercised.max(n_used);
        match outcome {
            CaseOutcome::Pass => {
                report.passed += 1;
                log(&format!("{}: ok", plan.describe()));
            }
            CaseOutcome::Skip(reason) => {
                report.skipped += 1;
                log(&format!("{}: skip ({reason})", plan.describe()));
            }
            CaseOutcome::Diverged {
                divergence,
                fixture,
            } => {
                report.divergences += 1;
                log(&format!("{}: DIVERGED: {divergence}", plan.describe()));
                if let Some(fix) = fixture {
                    let path = cfg.out_dir.join(format!("{}.{FIXTURE_EXT}", fix.name));
                    if std::fs::create_dir_all(&cfg.out_dir).is_ok() && fix.write(&path).is_ok() {
                        log(&format!(
                            "  minimized to {} nodes; fixture: {}",
                            fix.graph.node_count(),
                            path.display()
                        ));
                        report.fixtures.push(path);
                    } else {
                        log("  FAILED to write fixture");
                    }
                }
            }
        }
    }
    if cfg.inject_tiebreak {
        rpaths_core::testhooks::set_flip_unweighted_merge(false);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_case_is_a_divergence_naming_the_panic() {
        let plan = plan_case(&FuzzConfig::smoke(1), 0);
        let (outcome, n_used) = run_guarded(&plan, false, |_| panic!("boom at round 7"));
        match outcome {
            CaseOutcome::Diverged {
                divergence,
                fixture,
            } => {
                assert_eq!(divergence.check, "case panicked");
                assert_eq!(divergence.got, "boom at round 7");
                assert!(fixture.is_none());
            }
            other => panic!("expected a divergence, got {other:?}"),
        }
        assert_eq!(n_used, plan.n);
        // Formatted messages arrive as `String` payloads.
        let (outcome, _) = run_guarded(&plan, false, |p| panic!("case {}", p.index));
        assert!(
            matches!(outcome, CaseOutcome::Diverged { ref divergence, .. } if divergence.got == "case 0")
        );
    }

    #[test]
    fn planner_is_deterministic() {
        let cfg = FuzzConfig::full(1, 200);
        for i in 0..50 {
            let a = plan_case(&cfg, i);
            let b = plan_case(&cfg, i);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    // Triage harness: replay exactly one planned case from a sweep, by
    // index, without running its neighbors. See FUZZING.md ("Triaging a
    // divergence"). Usage:
    //
    //   RPATHS_FUZZ_CASE=106 cargo test --release -p rpaths-fuzz \
    //       replay_single_case -- --ignored --nocapture
    //
    // RPATHS_FUZZ_SEED overrides the master seed (default 1).
    #[test]
    #[ignore = "manual triage harness; select a case with RPATHS_FUZZ_CASE"]
    fn replay_single_case() {
        let index: usize = std::env::var("RPATHS_FUZZ_CASE")
            .expect("set RPATHS_FUZZ_CASE to the case index to replay")
            .parse()
            .unwrap();
        let seed: u64 = std::env::var("RPATHS_FUZZ_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1);
        let cfg = FuzzConfig::full(seed, index + 1);
        let plan = plan_case(&cfg, index);
        println!("{}", plan.describe());
        let (outcome, n_used) = run_case(&plan, false);
        println!("n exercised = {n_used}");
        println!("{outcome:?}");
    }
}
