//! Differential tests for the round engine: active-set scheduling
//! against the full-sweep reference schedule, plus the engine contract
//! of the single commit path.
//!
//! The engine's activation contract (see `congest::Protocol`) and flat
//! mailbox arenas are wall-clock optimizations only: for every protocol
//! in the workspace, an active-set run must produce *bit-identical*
//! [`congest::RunStats`] (rounds, messages, bits, cut bits, max message
//! size) and identical outputs to the full-sweep reference schedule
//! (`Network::set_full_sweep`). These tests drive all five
//! communication primitives, the Lemma 4.2 hop-BFS (one direction or
//! both in one run, over unit or delayed edges), and *every public
//! solver* — `unweighted`, `weighted`, `sisp`, `reachability`, and both
//! baselines — across random, sparse/dense, and degree-skewed (star,
//! two-hub, power-law) topologies, pinning end-to-end answers and the
//! full per-phase metrics log; the chaos matrix extends this to seeded
//! fault plans.
//!
//! The engine-contract tests pin what the round driver and the commit
//! path guarantee under both schedules: `NodeCtx::wake` keeps a quiet
//! node scheduled, inboxes list senders in ascending id order, both
//! directions of a link are usable in one round, crashed nodes are
//! silent until restart, an inert fault plan changes nothing, CONGEST
//! violations panic, delayed messages keep `run_until_quiet` awake, and
//! a blown round budget reports its final-round snapshot.

use congest::aggregate::{aggregate, AggOp};
use congest::bfs_tree::build_bfs_tree;
use congest::broadcast::broadcast;
use congest::multi_bfs::{default_budget, multi_source_bfs, MultiBfsConfig};
use congest::pipeline::{diagonal_dp, prefix_sweep, Lane};
use congest::{EngineError, FaultPlan, Network, NodeCtx, Protocol, RunStats, Side};
use graphkit::gen::{planted_path_digraph, random_digraph};
use graphkit::{Dist, GraphBuilder};
use proptest::prelude::*;

/// Runs `f` under both schedules on fresh networks and returns both
/// results.
fn both<T>(g: &graphkit::DiGraph, mut f: impl FnMut(&mut Network<'_>) -> T) -> (T, T) {
    let mut active = Network::new(g);
    let active_out = f(&mut active);
    let mut swept = Network::new(g);
    swept.set_full_sweep(true);
    let swept_out = f(&mut swept);
    (active_out, swept_out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn bfs_tree_is_schedule_invariant(n in 2usize..70, seed in 0u64..500) {
        let g = random_digraph(n, 2 * n, seed);
        let root = seed as usize % n;
        let ((ta, sa), (ts, ss)) = both(&g, |net| build_bfs_tree(net, root).unwrap());
        prop_assert_eq!(sa, ss);
        prop_assert_eq!(ta.parent, ts.parent);
        prop_assert_eq!(ta.depth, ts.depth);
        prop_assert_eq!(ta.child_ports, ts.child_ports);
    }

    #[test]
    fn broadcast_is_schedule_invariant(
        n in 3usize..50,
        per_node in 0usize..4,
        seed in 0u64..500,
        picks in proptest::collection::vec(0usize..50, 0..4),
    ) {
        let g = random_digraph(n, 2 * n, seed);
        let items: Vec<Vec<u64>> = (0..n)
            .map(|v| (0..per_node).map(|j| (v * 16 + j) as u64).collect())
            .collect();
        // A sparse, possibly empty, reader set.
        let mut readers = vec![false; n];
        for p in picks {
            readers[p % n] = true;
        }
        // Keep every item, then every third: the same kept stream, at the
        // same cost.
        for every in [1, 3] {
            let ((oa, sa), (os, ss)) = both(&g, |net| {
                let (tree, _) = build_bfs_tree(net, 0).unwrap();
                broadcast(
                    net,
                    &tree,
                    items.clone(),
                    |_| 16,
                    |x| x.is_multiple_of(every),
                    |v| readers[v],
                    "bc",
                )
                .expect("quiesces")
            });
            prop_assert_eq!(sa, ss);
            prop_assert_eq!(oa, os);
        }
    }

    #[test]
    fn aggregate_is_schedule_invariant(n in 2usize..60, seed in 0u64..500) {
        let g = random_digraph(n, 2 * n, seed);
        let values: Vec<Dist> = (0..n)
            .map(|v| Dist::new((v as u64 * 101 + seed) % 997))
            .collect();
        for op in [AggOp::Min, AggOp::Max, AggOp::Sum] {
            let (ra, rs) = both(&g, |net| {
                let (tree, _) = build_bfs_tree(net, 0).unwrap();
                let before = net.metrics().total;
                let result = aggregate(net, &tree, op, &values).unwrap();
                (result, diff(&net.metrics().total, &before))
            });
            prop_assert_eq!(ra, rs);
        }
    }

    #[test]
    fn multi_bfs_is_schedule_invariant(
        n in 3usize..50,
        k in 1usize..6,
        h in 1u64..30,
        seed in 0u64..500,
    ) {
        let g = random_digraph(n, 3 * n, seed);
        let sources: Vec<usize> = (0..k).map(|i| (i * 13 + 1) % n).collect();
        // Mix in delayed edges on half the cases to cover held-message
        // reactivation.
        let delays: Option<Vec<u64>> = (seed % 2 == 0).then(|| {
            (0..g.edge_count()).map(|e| 1 + (e as u64 + seed) % 3).collect()
        });
        let cfg = MultiBfsConfig {
            sources: &sources,
            max_dist: h,
            reverse: seed % 3 == 0,
            delays: delays.as_deref(),
        };
        let budget = 8 * default_budget(k, h);
        let ((da, sa), (ds, ss)) = both(&g, |net| {
            multi_source_bfs(net, &cfg, |_| true, "mbfs", budget).expect("quiesces")
        });
        prop_assert_eq!(sa, ss);
        prop_assert_eq!(da, ds);
    }

    #[test]
    fn pipelines_are_schedule_invariant(
        len in 2usize..20,
        jobs in 1usize..8,
        seed in 0u64..500,
    ) {
        let mut b = GraphBuilder::new(len);
        let links: Vec<usize> = (0..len - 1).map(|i| b.add_arc(i, i + 1)).collect();
        let g = b.build();
        let lane = Lane::forward((0..len).collect(), links);
        let val = |pos: usize, job: usize| ((pos as u64 * 31 + job as u64 * 7 + seed) % 50) + 1;

        let ((oa, sa), (os, ss)) = both(&g, |net| {
            prefix_sweep(
                net,
                std::slice::from_ref(&lane),
                jobs,
                &|_, pos, job| Dist::new(val(pos, job)),
                "sweep",
            )
        });
        prop_assert_eq!(sa, ss);
        prop_assert_eq!(oa, os);

        let rounds = jobs as u64;
        let ((ca, sa), (cs, ss)) = both(&g, |net| {
            diagonal_dp(
                net,
                &lane,
                |p| Dist::new(val(p, 0)),
                &|p, r| Dist::new(val(p, r as usize)),
                rounds,
                "dp",
            )
        });
        prop_assert_eq!(sa, ss);
        prop_assert_eq!(ca, cs);
    }

    #[test]
    fn theorem1_solver_is_schedule_invariant(
        h in 4usize..14,
        extra in 0usize..100,
        zeta in 2usize..10,
        seed in 0u64..300,
    ) {
        let n = 3 * h + 8;
        let (g, s, t) = planted_path_digraph(n, h, extra, seed);
        let inst = rpaths_core::Instance::from_endpoints(&g, s, t).unwrap();
        let mut params = rpaths_core::Params::with_zeta(n, zeta).with_seed(seed);
        params.landmark_prob = 1.0;
        let ((ra, ma), (rs, ms)) = both(&g, |net| {
            let replacement = rpaths_core::unweighted::solve_on(net, &inst, &params).unwrap();
            (replacement, net.metrics().clone())
        });
        prop_assert_eq!(ra, rs);
        prop_assert_eq!(ma.total, ms.total);
        prop_assert_eq!(ma.phases.len(), ms.phases.len());
        for (pa, ps) in ma.phases.iter().zip(&ms.phases) {
            prop_assert_eq!(&pa.name, &ps.name);
            prop_assert_eq!(pa.stats, ps.stats, "phase {}", pa.name);
        }
    }

    #[test]
    fn cut_bits_are_schedule_invariant(n in 4usize..40, seed in 0u64..300) {
        let g = random_digraph(n, 3 * n, seed);
        let sides: Vec<Side> = (0..n)
            .map(|v| if v < n / 2 { Side::Alice } else { Side::Bob })
            .collect();
        let items: Vec<Vec<u64>> = (0..n).map(|v| vec![v as u64]).collect();
        let ((_, sa), (_, ss)) = both(&g, |net| {
            net.set_cut(sides.clone());
            let (tree, _) = build_bfs_tree(net, 0).unwrap();
            broadcast(net, &tree, items.clone(), |_| 16, |_| true, |_| true, "bc").expect("quiesces")
        });
        prop_assert_eq!(sa, ss);
        prop_assert!(sa.cut_bits > 0, "cut accounting exercised");
    }
}

/// Runs `f` under both schedules on fresh networks, asserts the results
/// are bit-identical, and returns the active-set one.
fn schedule_invariant<T: PartialEq + std::fmt::Debug>(
    g: &graphkit::DiGraph,
    f: impl FnMut(&mut Network<'_>) -> T,
) -> T {
    let (active, swept) = both(g, f);
    assert_eq!(active, swept, "active-set run diverged from the full sweep");
    active
}

/// Sparse and dense topologies for the kernel differentials.
fn matrix_graphs() -> Vec<graphkit::DiGraph> {
    vec![
        random_digraph(41, 45, 11),  // sparse: active set stays small
        random_digraph(48, 300, 12), // dense: every node busy most rounds
    ]
}

#[test]
fn broadcast_matches_full_sweep_bitwise() {
    for g in matrix_graphs() {
        let n = g.node_count();
        let items: Vec<Vec<u64>> = (0..n)
            .map(|v| (0..1 + v % 3).map(|j| (v * 16 + j) as u64).collect())
            .collect();
        schedule_invariant(&g, |net| {
            let (tree, tree_stats) = build_bfs_tree(net, 0).unwrap();
            let (out, stats) =
                broadcast(net, &tree, items.clone(), |_| 16, |_| true, |_| true, "bc")
                    .expect("quiesces");
            (out, stats, tree_stats)
        });
    }
}

#[test]
fn multi_bfs_matches_full_sweep_bitwise() {
    for g in matrix_graphs() {
        let n = g.node_count();
        let sources: Vec<usize> = (0..5).map(|i| (i * 13 + 1) % n).collect();
        let delays: Vec<u64> = (0..g.edge_count()).map(|e| 1 + (e as u64) % 3).collect();
        for (reverse, with_delays) in [(false, false), (true, false), (false, true)] {
            let cfg = MultiBfsConfig {
                sources: &sources,
                max_dist: 25,
                reverse,
                delays: with_delays.then_some(delays.as_slice()),
            };
            schedule_invariant(&g, |net| {
                multi_source_bfs(net, &cfg, |_| true, "mbfs", 8 * default_budget(5, 25))
                    .expect("quiesces")
            });
        }
    }
}

/// Degree-skewed topologies: the star and two-hub families put almost
/// all edge work on one or two nodes, and preferential attachment gives
/// a smooth power-law profile — hub inboxes hold nearly every message
/// of a round, which stresses the counting sort's per-destination
/// order.
fn skewed_graphs() -> Vec<graphkit::DiGraph> {
    use graphkit::gen::{power_law_digraph, star, two_hub};
    vec![star(49), two_hub(50), power_law_digraph(96, 5)]
}

#[test]
fn skewed_kernels_match_full_sweep_bitwise() {
    for g in skewed_graphs() {
        let n = g.node_count();

        // BFS tree + pipelined broadcast rooted at a spoke, so traffic
        // funnels through the hub(s).
        let items: Vec<Vec<u64>> = (0..n)
            .map(|v| (0..1 + v % 2).map(|j| (v * 9 + j) as u64).collect())
            .collect();
        schedule_invariant(&g, |net| {
            let (tree, tree_stats) = build_bfs_tree(net, n - 1).unwrap();
            let (out, stats) =
                broadcast(net, &tree, items.clone(), |_| 16, |_| true, |_| true, "bc")
                    .expect("quiesces");
            (out, stats, tree_stats)
        });

        // Multi-source BFS with sources spread over spokes.
        let sources: Vec<usize> = (0..4).map(|i| (i * 17 + 2) % n).collect();
        let cfg = MultiBfsConfig {
            sources: &sources,
            max_dist: 20,
            reverse: false,
            delays: None,
        };
        schedule_invariant(&g, |net| {
            multi_source_bfs(net, &cfg, |_| true, "mbfs", 8 * default_budget(4, 20))
                .expect("quiesces")
        });

        // Min-aggregation over a hub-rooted tree.
        let values: Vec<Dist> = (0..n).map(|v| Dist::new((v as u64 * 37) % 251)).collect();
        schedule_invariant(&g, |net| {
            let (tree, _) = build_bfs_tree(net, 0).unwrap();
            let result = aggregate(net, &tree, AggOp::Min, &values).unwrap();
            (result, net.metrics().total)
        });
    }
}

#[test]
fn hop_bfs_matches_full_sweep_bitwise() {
    use rpaths_core::short::hop_bfs::{hop_bfs_pair, hop_constrained_bfs, HopBfsConfig, Objective};
    for (extra, seed) in [(30usize, 3u64), (400, 4)] {
        let (g, s, t) = planted_path_digraph(44, 12, extra, seed);
        let inst = rpaths_core::Instance::from_endpoints(&g, s, t).unwrap();
        let words =
            |dists: &[Dist]| -> Vec<u64> { dists.iter().map(|d| d.finite().unwrap()).collect() };
        let (suffix, prefix) = (words(&inst.suffix), words(&inst.prefix));
        // Unit delays, then per-edge delays 0 to 5 drawn from the seed: 0
        // disables an edge, and 2 or more takes the held-token path.
        let drawn: Vec<u64> = (0..g.edge_count() as u64)
            .map(|e| ((e ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) % 6)
            .collect();
        for delays in [None, Some(drawn.as_slice())] {
            let cfg = |objective| HopBfsConfig {
                zeta: 14,
                objective,
                delays,
                aux: match objective {
                    Objective::MaxIndex => &suffix,
                    Objective::MinIndex => &prefix,
                },
            };
            for objective in [Objective::MaxIndex, Objective::MinIndex] {
                schedule_invariant(&g, |net| {
                    let fstar = hop_constrained_bfs(net, &inst, &cfg(objective), "hop-bfs");
                    (fstar.table, net.metrics().total)
                });
            }
            schedule_invariant(&g, |net| {
                let (ends, starts) = hop_bfs_pair(
                    net,
                    &inst,
                    &cfg(Objective::MaxIndex),
                    &cfg(Objective::MinIndex),
                    "hop-bfs-pair",
                );
                (ends.table, starts.table, net.metrics().total)
            });
        }
    }
}

// ---------------------------------------------------------------------
// End-to-end solver matrices: every public solver under both schedules,
// across graph families. Results AND the full per-phase metrics log
// (phase names, rounds, messages, bits) must be bit-identical.
// ---------------------------------------------------------------------

/// Unweighted instance families: sparse planted path, dense planted
/// path, and the parallel-lane (long-detour) family.
fn solver_instances() -> Vec<(graphkit::DiGraph, usize, usize)> {
    let sparse = planted_path_digraph(40, 12, 40, 21);
    let dense = planted_path_digraph(44, 10, 320, 22);
    let lane = graphkit::gen::parallel_lane(12, 4, 2);
    vec![sparse, dense, lane]
}

fn solver_params(n: usize) -> rpaths_core::Params {
    let mut params = rpaths_core::Params::with_zeta(n, 5).with_seed(7);
    params.landmark_prob = 1.0;
    params
}

#[test]
fn unweighted_solver_matches_full_sweep_bitwise() {
    for (g, s, t) in solver_instances() {
        let inst = rpaths_core::Instance::from_endpoints(&g, s, t).unwrap();
        let params = solver_params(inst.n());
        schedule_invariant(&g, |net| {
            let replacement = rpaths_core::unweighted::solve_on(net, &inst, &params).unwrap();
            (replacement, net.metrics().clone())
        });
    }
}

#[test]
fn sisp_solver_matches_full_sweep_bitwise() {
    for (g, s, t) in solver_instances() {
        let inst = rpaths_core::Instance::from_endpoints(&g, s, t).unwrap();
        let params = solver_params(inst.n());
        schedule_invariant(&g, |net| {
            let value = rpaths_core::sisp::solve_on(net, &inst, &params).unwrap();
            (value, net.metrics().clone())
        });
    }
}

#[test]
fn reachability_matches_full_sweep_bitwise() {
    for (g, s, t) in solver_instances() {
        let inst = rpaths_core::Instance::from_endpoints(&g, s, t).unwrap();
        let params = solver_params(inst.n());
        schedule_invariant(&g, |net| {
            let survivable = rpaths_core::reachability::solve_on(net, &inst, &params).unwrap();
            (survivable, net.metrics().clone())
        });
    }
}

#[test]
fn naive_baseline_matches_full_sweep_bitwise() {
    for (g, s, t) in solver_instances() {
        let inst = rpaths_core::Instance::from_endpoints(&g, s, t).unwrap();
        let params = solver_params(inst.n());
        schedule_invariant(&g, |net| {
            let replacement = rpaths_core::baseline::naive::solve_on(net, &inst, &params).unwrap();
            (replacement, net.metrics().clone())
        });
    }
}

#[test]
fn mr24_baseline_matches_full_sweep_bitwise() {
    for (g, s, t) in solver_instances() {
        let inst = rpaths_core::Instance::from_endpoints(&g, s, t).unwrap();
        let params = solver_params(inst.n());
        schedule_invariant(&g, |net| {
            let replacement = rpaths_core::baseline::mr24::solve_on(net, &inst, &params).unwrap();
            (replacement, net.metrics().clone())
        });
    }
}

#[test]
fn weighted_solver_matches_full_sweep_bitwise() {
    use graphkit::gen::random_weighted_digraph;
    let mut tested = 0;
    for seed in 0..10 {
        let g = random_weighted_digraph(30, 90, 8, seed);
        let Some((s, t)) = graphkit::gen::random_reachable_pair(&g, seed) else {
            continue;
        };
        let Ok(inst) = rpaths_core::Instance::from_endpoints(&g, s, t) else {
            continue;
        };
        if inst.hops() < 3 {
            continue;
        }
        let mut params = rpaths_core::Params::with_zeta(inst.n(), 5)
            .with_seed(seed)
            .with_eps(1, 2);
        params.landmark_prob = 1.0;
        schedule_invariant(&g, |net| {
            let out = rpaths_core::weighted::solve_on(net, &inst, &params).unwrap();
            (out.scaled, out.den, net.metrics().clone())
        });
        tested += 1;
        if tested == 2 {
            break;
        }
    }
    assert!(tested >= 1, "no usable weighted instance");
}

// ---------------------------------------------------------------------
// Chaos matrix: deterministic fault injection. A fixed FaultPlan seed
// must produce bit-identical delivery logs, RunStats, and FaultStats
// under both schedules, because every per-message fate is a pure
// function of (seed, round, link, direction) — never of which nodes the
// engine happened to step.
// ---------------------------------------------------------------------

/// Dense traffic generator that logs its inbox verbatim: every node
/// sends a distinct payload on every port each round, so every fault a
/// plan can express (link down, node down, drop, delay) has traffic to
/// act on, and any divergence in delivery contents *or order* shows up
/// as a log difference.
///
/// Each node's slot is its log of `(round, port, payload)` deliveries.
struct ChaosRecorder {
    send_rounds: u64,
}

impl Protocol for ChaosRecorder {
    type Msg = u64;
    type Node = Vec<(u64, u32, u64)>;

    fn msg_bits(&self, _: &u64) -> u64 {
        48
    }

    fn step_node(&self, log: &mut Vec<(u64, u32, u64)>, ctx: &mut NodeCtx<'_, u64>) {
        for &(port, msg) in ctx.inbox() {
            log.push((ctx.round, port, msg));
        }
        if ctx.round < self.send_rounds {
            let v = ctx.node as u64;
            for p in 0..ctx.ports().len() as u32 {
                ctx.send(p, (v << 24) | (ctx.round << 8) | p as u64);
            }
            ctx.wake();
        }
    }
}

/// One fault plan per failure mode, plus one with everything at once.
/// Link and node indices are valid in every chaos graph.
fn chaos_plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        (
            "timed-link-faults",
            FaultPlan::new(0xf00d)
                .fail_link(0, 1, Some(4))
                .fail_link(3, 2, None),
        ),
        (
            "crash-and-restart",
            FaultPlan::new(0xbeef)
                .crash_node(1, 1, Some(4))
                .crash_node(2, 3, None),
        ),
        ("random-drop", FaultPlan::new(0xd00f).drop_messages(0.2)),
        (
            "random-delay",
            FaultPlan::new(0xcafe).delay_messages(0.35, 3),
        ),
        (
            "everything-at-once",
            FaultPlan::new(0x5eed)
                .fail_link(2, 0, Some(3))
                .crash_node(3, 2, Some(5))
                .drop_messages(0.1)
                .delay_messages(0.2, 2),
        ),
    ]
}

/// Drives the chaos recorder for `send_rounds` sending rounds plus a
/// drain window long enough for every delayed message to land.
fn chaos_run(
    g: &graphkit::DiGraph,
    plan: &FaultPlan,
    net: &mut Network<'_>,
) -> (Vec<Vec<(u64, u32, u64)>>, RunStats, congest::Metrics) {
    let send_rounds = 6;
    net.set_fault_plan(Some(plan.clone())).unwrap();
    let mut logs = vec![Vec::new(); g.node_count()];
    let stats = net.run_rounds(
        "chaos",
        &ChaosRecorder { send_rounds },
        &mut logs,
        send_rounds + 4,
    );
    (logs, stats, net.metrics().clone())
}

#[test]
fn chaos_matrix_is_schedule_invariant() {
    use graphkit::gen::{metro_ring, power_law_digraph, star};
    for g in [star(33), metro_ring(24), power_law_digraph(48, 5)] {
        for (name, plan) in chaos_plans() {
            // Metrics equality includes FaultStats, so this pins the
            // fault accounting as well as the delivery log.
            let (_, _, metrics) = schedule_invariant(&g, |net| chaos_run(&g, &plan, net));

            // The matrix would pass vacuously if the plan never fired;
            // make sure the traffic actually met the faults.
            assert!(
                !metrics.faults.is_zero(),
                "plan {name} fired no faults on this graph"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Engine contract of the round driver and the commit path, each case
// asserted under both schedules.
// ---------------------------------------------------------------------

/// A path `0 - 1 - ... - (n-1)`.
fn line(n: usize) -> graphkit::DiGraph {
    let mut b = GraphBuilder::new(n);
    for i in 0..n - 1 {
        b.add_arc(i, i + 1);
    }
    b.build()
}

/// A protocol whose only activity is self-driven: node 0 wakes itself
/// and sends one message every `period` rounds, with no inbox traffic
/// to reactivate it. Each node's slot counts the ticks it heard.
struct Metronome {
    period: u64,
}

impl Protocol for Metronome {
    type Msg = ();
    type Node = u64;

    fn msg_bits(&self, _: &()) -> u64 {
        1
    }

    fn step_node(&self, ticks: &mut u64, ctx: &mut NodeCtx<'_, ()>) {
        if ctx.node == 0 {
            if ctx.round.is_multiple_of(self.period) {
                ctx.send(0, ());
            }
            ctx.wake();
        } else if !ctx.inbox().is_empty() {
            *ticks += 1;
        }
    }
}

/// Runs the metronome (period 3) for 10 rounds on a 2-node line under
/// `plan`; returns the messages delivered, the ticks node 1 heard, and
/// the metrics.
fn run_metronome(net: &mut Network<'_>, plan: Option<FaultPlan>) -> (u64, u64, congest::Metrics) {
    net.set_fault_plan(plan).unwrap();
    let mut ticks = vec![0; 2];
    let stats = net.run_rounds("metronome", &Metronome { period: 3 }, &mut ticks, 10);
    (stats.messages, ticks[1], net.metrics().clone())
}

#[test]
fn wake_keeps_a_quiet_node_scheduled() {
    let (active, swept) = both(&line(2), |net| run_metronome(net, None));
    for (messages, ticks, _) in [active, swept] {
        // Sends at rounds 0, 3, 6, 9; the round-9 send is not observed.
        assert_eq!(messages, 4);
        assert_eq!(ticks, 3);
    }
}

#[test]
fn crashed_node_is_silent_until_restart() {
    // Node 1 is down for rounds [0, 4): the metronome's sends at
    // rounds 0 and 3 vanish, the round-6 send lands after restart.
    let plan = FaultPlan::new(9).crash_node(1, 0, Some(4));
    let (active, swept) = both(&line(2), |net| run_metronome(net, Some(plan.clone())));
    for (messages, ticks, metrics) in [active, swept] {
        assert_eq!(ticks, 1);
        // Rounds 6 and 9 sends are delivered (the round-9 one unobserved).
        assert_eq!(messages, 2);
        assert_eq!(metrics.faults.dropped_node_down, 2);
        assert_eq!(metrics.faults.faulty_rounds, 2);
    }
}

/// Every node except the hub sends its id to port 0 in round 0; each
/// node's slot lists the ids it received, in inbox order.
struct Spokes;

impl Protocol for Spokes {
    type Msg = u32;
    type Node = Vec<u32>;

    fn msg_bits(&self, _: &u32) -> u64 {
        8
    }

    fn step_node(&self, seen: &mut Vec<u32>, ctx: &mut NodeCtx<'_, u32>) {
        if ctx.round == 0 && ctx.node != 0 {
            ctx.send(0, ctx.node as u32);
        }
        seen.extend(ctx.inbox().iter().map(|&(_, m)| m));
    }
}

#[test]
fn inbox_order_groups_by_sender_id() {
    // Three spokes send to a hub in one round; the hub's inbox must list
    // them in ascending sender id (the full-sweep send order), whichever
    // schedule runs.
    let mut b = GraphBuilder::new(4);
    b.add_arc(3, 0);
    b.add_arc(1, 0);
    b.add_arc(2, 0);
    let g = b.build();
    let (active, swept) = both(&g, |net| {
        let mut seen = vec![Vec::new(); 4];
        net.run_rounds("spokes", &Spokes, &mut seen, 2);
        seen.swap_remove(0)
    });
    assert_eq!(active, [1, 2, 3]);
    assert_eq!(swept, [1, 2, 3]);
}

/// Every node sends one message on its first port in round 0.
struct PingPong;

impl Protocol for PingPong {
    type Msg = ();
    type Node = ();

    fn msg_bits(&self, _: &()) -> u64 {
        1
    }

    fn step_node(&self, _: &mut (), ctx: &mut NodeCtx<'_, ()>) {
        if ctx.round == 0 {
            ctx.send(0, ());
        }
    }
}

#[test]
fn opposite_directions_share_a_link() {
    // Both endpoints may use the same link in the same round.
    let (active, swept) = both(&line(2), |net| {
        net.run_rounds("pingpong", &PingPong, &mut [(); 2], 2)
            .messages
    });
    assert_eq!(active, 2);
    assert_eq!(swept, 2);
}

#[test]
fn inert_fault_plan_changes_nothing() {
    // The fault hook must be a bit-exact stand-in for no hook when the
    // plan never fires: same answers, same Metrics (FaultStats included).
    let (g, s, t) = planted_path_digraph(40, 12, 40, 21);
    let inst = rpaths_core::Instance::from_endpoints(&g, s, t).unwrap();
    let params = solver_params(inst.n());
    let solve = |plan: Option<FaultPlan>| {
        let mut net = Network::new(&g);
        net.set_fault_plan(plan).unwrap();
        let replacement = rpaths_core::unweighted::solve_on(&mut net, &inst, &params).unwrap();
        (replacement, net.metrics().clone())
    };
    let plain = solve(None);
    let inert = solve(Some(FaultPlan::new(42)));
    assert!(inert.1.faults.is_zero());
    assert_eq!(plain, inert);
}

/// Node 0 sends `copies` messages of `bits` declared bits on port 0 in
/// round 0 — a CONGEST violation when it sends two or oversizes one.
struct Burst {
    copies: usize,
    bits: u64,
}

impl Protocol for Burst {
    type Msg = ();
    type Node = ();

    fn msg_bits(&self, _: &()) -> u64 {
        self.bits
    }

    fn step_node(&self, _: &mut (), ctx: &mut NodeCtx<'_, ()>) {
        if ctx.node == 0 && ctx.round == 0 {
            for _ in 0..self.copies {
                ctx.send(0, ());
            }
        }
    }
}

fn run_burst(copies: usize, bits: u64) {
    Network::new(&line(2)).run_rounds("burst", &Burst { copies, bits }, &mut [(); 2], 2);
}

#[test]
#[should_panic(expected = "CONGEST violation: two messages on link 0 direction 0 in round 0")]
fn two_messages_on_one_direction_panic() {
    run_burst(2, 1);
}

#[test]
#[should_panic(expected = "exceeds bandwidth")]
fn oversized_message_panics() {
    run_burst(1, 1 << 20);
}

#[test]
fn delayed_messages_keep_run_until_quiet_awake() {
    // Every message is delayed by exactly one round. The tree flood's
    // protocol is always idle, so only the in-flight delayed messages
    // keep `run_until_quiet` from declaring quiescence in round 0; the
    // flood must still span, with the same tree and message count, one
    // extra round per hop, and every delay accounted as a late delivery.
    let g = random_digraph(30, 60, 3);
    let (tree, stats) = build_bfs_tree(&mut Network::new(&g), 0).unwrap();
    let mut net = Network::new(&g);
    net.set_fault_plan(Some(FaultPlan::new(11).delay_messages(1.0, 1)))
        .unwrap();
    let (late_tree, late_stats) = build_bfs_tree(&mut net, 0).expect("the delayed flood spans");
    assert_eq!(late_tree.parent, tree.parent);
    assert_eq!(late_tree.depth, tree.depth);
    assert_eq!(late_stats.messages, stats.messages);
    assert!(late_stats.rounds > stats.rounds);
    let fs = net.metrics().faults;
    assert!(fs.delayed > 0);
    assert_eq!(fs.delayed, fs.delivered_late);
    assert_eq!(fs.total_dropped(), 0);
}

#[test]
fn round_limit_error_carries_the_final_round_snapshot() {
    // A single-source BFS down a 10-node line moves its frontier one
    // node per round; a 3-round budget stops it mid-flight, and the
    // error must say so: one node stepped, one message on the wire.
    let g = line(10);
    let cfg = MultiBfsConfig {
        sources: &[0],
        max_dist: 20,
        reverse: false,
        delays: None,
    };
    let err = multi_source_bfs(&mut Network::new(&g), &cfg, |_| true, "mbfs", 3).unwrap_err();
    assert_eq!(
        err,
        EngineError::RoundLimitExceeded {
            max_rounds: 3,
            rounds: 3,
            last_active: 1,
            last_messages: 1,
        }
    );
}

/// Component-wise difference of two cumulative stats snapshots.
fn diff(after: &RunStats, before: &RunStats) -> RunStats {
    RunStats {
        rounds: after.rounds - before.rounds,
        messages: after.messages - before.messages,
        bits: after.bits - before.bits,
        cut_bits: after.cut_bits - before.cut_bits,
        max_message_bits: after.max_message_bits,
    }
}
