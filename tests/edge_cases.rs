//! Adversarial edge cases aimed at specific code paths of the
//! distributed algorithms: ties, parallel edges, detours that revisit
//! path vertices, minimal instances, boundary thresholds, malformed
//! fault plans, and endpoints outside the graph.

use congest::{FaultPlan, FaultPlanError};
use graphkit::alg::replacement_lengths;
use graphkit::{Dist, GraphBuilder, StPath};
use rpaths_core::oracle::oracle_query;
use rpaths_core::{
    unweighted, weighted, Answer, Instance, InstanceError, Params, Query, SessionError,
    SessionStats, SolveError, SolverSession,
};

fn full_params(n: usize, zeta: usize) -> Params {
    let mut p = Params::with_zeta(n, zeta);
    p.landmark_prob = 1.0;
    p
}

fn assert_exact(g: &graphkit::DiGraph, inst: &Instance<'_>, zeta: usize) {
    let out = unweighted::solve(inst, &full_params(inst.n(), zeta)).unwrap();
    assert_eq!(out.replacement, replacement_lengths(g, &inst.path));
}

#[test]
fn minimal_instance_single_edge_path() {
    // h_st = 1 with a 2-hop alternative.
    let mut b = GraphBuilder::new(3);
    b.add_arc(0, 2);
    b.add_arc(0, 1);
    b.add_arc(1, 2);
    let g = b.build();
    let inst = Instance::from_endpoints(&g, 0, 2).unwrap();
    assert_eq!(inst.hops(), 1);
    for zeta in [1, 2, 3] {
        assert_exact(&g, &inst, zeta);
    }
}

#[test]
fn parallel_edge_duplicates_of_path_edges() {
    // Each path edge has a parallel copy: every replacement is trivial
    // (same length as P), exercising 1-hop detours that start and end at
    // adjacent path vertices.
    let h = 6;
    let mut b = GraphBuilder::new(h + 1);
    for i in 0..h {
        b.add_arc(i, i + 1);
        b.add_arc(i, i + 1); // parallel copy
    }
    let g = b.build();
    // The path must use specific edge ids; pick the even ones.
    let p = StPath::new(&g, (0..h).map(|i| 2 * i).collect()).unwrap();
    let inst = Instance::new(&g, p).unwrap();
    let out = unweighted::solve(&inst, &full_params(inst.n(), 2)).unwrap();
    assert_eq!(out.replacement, vec![Dist::new(h as u64); h]);
}

#[test]
fn detours_through_path_vertices_are_legal() {
    // A detour may *visit* path vertices as long as it avoids path
    // edges: 0 -> 1 -> 2 -> 3 with detour 0 -> 2' -> 1' -> 3 where the
    // detour passes through path vertex 2 (via non-path edges).
    let mut b = GraphBuilder::new(5);
    b.add_arc(0, 1);
    b.add_arc(1, 2);
    b.add_arc(2, 3);
    // Non-path edges that hop across path vertices.
    b.add_arc(0, 2); // skips v1 (non-path edge between path vertices!)
    b.add_arc(2, 4);
    b.add_arc(4, 3);
    let g = b.build();
    let p = StPath::from_nodes(&g, &[0, 1, 2, 3]).unwrap();
    // 0 -> 2 direct would make P non-shortest... check: dist(0,3) via
    // 0->2->3 is 2 < 3, so P = [0,1,2,3] is NOT shortest. Use
    // from_endpoints instead and accept whatever shortest path exists.
    assert!(p.validate_shortest(&g).is_err());
    let inst = Instance::from_endpoints(&g, 0, 3).unwrap();
    assert_exact(&g, &inst, g.node_count());
}

#[test]
fn ties_everywhere_grid_with_equal_routes() {
    let (g, s, t) = graphkit::gen::grid(4, 4);
    let inst = Instance::from_endpoints(&g, s, t).unwrap();
    for zeta in [1, 2, 4, 16] {
        assert_exact(&g, &inst, zeta);
    }
}

#[test]
fn long_cycle_detour_far_from_path() {
    // The replacement must leave immediately and ride a huge loop.
    let h = 5;
    let loop_len = 40;
    let mut b = GraphBuilder::new(h + 1 + loop_len);
    for i in 0..h {
        b.add_arc(i, i + 1);
    }
    let first_loop = h + 1;
    b.add_arc(0, first_loop);
    for i in 0..loop_len - 1 {
        b.add_arc(first_loop + i, first_loop + i + 1);
    }
    b.add_arc(first_loop + loop_len - 1, h);
    let g = b.build();
    let inst = Instance::from_endpoints(&g, 0, h).unwrap();
    let oracle = replacement_lengths(&g, &inst.path);
    assert!(oracle
        .iter()
        .all(|d| d.finite() == Some(loop_len as u64 + 1)));
    // ζ far below the detour length: pure long-detour territory.
    assert_exact(&g, &inst, 3);
}

#[test]
fn weighted_ties_and_heavy_parallel_edges() {
    let mut b = GraphBuilder::new(5);
    b.add_edge(0, 1, 2);
    b.add_edge(1, 2, 2);
    b.add_edge(2, 3, 2);
    b.add_edge(3, 4, 2);
    // Bypass lanes of exactly tying weight.
    b.add_edge(0, 2, 4);
    b.add_edge(2, 4, 4);
    // And a heavy full bypass.
    b.add_edge(0, 4, 50);
    let g = b.build();
    let inst = Instance::from_endpoints(&g, 0, 4).unwrap();
    let params = full_params(5, 2).with_eps(1, 10);
    let out = weighted::solve(&inst, &params).unwrap();
    let oracle = replacement_lengths(&g, &inst.path);
    out.check_guarantee(&oracle, 1, 10).unwrap();
}

#[test]
fn weights_beyond_the_scaled_range_are_typed_errors() {
    // 0 → 1 → 2 → 3 with unit edges, plus bypasses 0 → 3 and 1 → 3 of
    // weight w, so every replacement path is one bypass of length w.
    let bypassed = |w: u64| {
        let mut b = GraphBuilder::new(4);
        b.add_arc(0, 1);
        b.add_arc(1, 2);
        b.add_arc(2, 3);
        b.add_edge(0, 3, w);
        b.add_edge(1, 3, w);
        b.build()
    };
    // At 2^60 the scaled lengths (den = 12) overflow u64; at 2^63 − 1 the
    // total weight itself does.
    for w in [1u64 << 60, u64::MAX >> 1] {
        let g = bypassed(w);
        let inst = Instance::from_endpoints(&g, 0, 3).unwrap();
        let err = weighted::solve(&inst, &Params::for_instance(&inst)).unwrap_err();
        let total_weight = 3 + 2 * w as u128;
        assert_eq!(err, SolveError::WeightsTooLarge { total_weight }, "w = {w}");
    }
    let w = 1u64 << 40;
    let g = bypassed(w);
    let inst = Instance::from_endpoints(&g, 0, 3).unwrap();
    let out = weighted::solve(&inst, &Params::for_instance(&inst)).unwrap();
    assert_eq!(out.den, 12);
    assert_eq!(out.scaled, vec![Dist::new(w * 12); 3]);
}

#[test]
fn zeta_larger_than_n_is_safe() {
    let (g, s, t) = graphkit::gen::parallel_lane(8, 2, 1);
    let inst = Instance::from_endpoints(&g, s, t).unwrap();
    assert_exact(&g, &inst, 10 * inst.n());
}

#[test]
fn star_vertex_high_degree_hub() {
    // A hub adjacent to every path vertex: detours of exactly 2 hops
    // from anywhere to anywhere — maximal congestion pressure on the
    // trimmed BFS.
    let h = 10;
    let hub = h + 1;
    let mut b = GraphBuilder::new(h + 2);
    for i in 0..h {
        b.add_arc(i, i + 1);
    }
    for i in 0..=h {
        b.add_arc(i, hub);
        b.add_arc(hub, i);
    }
    let g = b.build();
    let inst = Instance::from_endpoints(&g, 0, h).unwrap();
    for zeta in [1, 2, 3] {
        assert_exact(&g, &inst, zeta);
    }
}

#[test]
fn source_and_target_adjacent_to_everything() {
    // Dense fan-in/fan-out; every edge has a short bypass.
    let n = 14;
    let mut b = GraphBuilder::new(n);
    for i in 0..5 {
        b.add_arc(i, i + 1);
    }
    for v in 6..n {
        b.add_arc(0, v);
        b.add_arc(v, 5);
        // lateral links
        if v + 1 < n {
            b.add_arc(v, v + 1);
        }
    }
    let g = b.build();
    let inst = Instance::from_endpoints(&g, 0, 5).unwrap();
    assert_exact(&g, &inst, 4);
}

#[test]
fn path_knowledge_protocol_on_extreme_shapes() {
    // Lemma 2.5 on a pure path (max gap) and on a dense graph (min D).
    use congest::bfs_tree::build_bfs_tree;
    use congest::Network;
    use rpaths_core::knowledge;

    let (g, s, t) = graphkit::gen::planted_path_digraph(64, 63, 0, 0);
    let inst = Instance::from_endpoints(&g, s, t).unwrap();
    let params = Params::for_instance(&inst).with_seed(9);
    let mut net = Network::new(inst.graph);
    let (tree, _) = build_bfs_tree(&mut net, inst.s()).unwrap();
    let know = knowledge::acquire(&mut net, &inst, &params, &tree);
    assert_eq!(know.index, (0..=63).collect::<Vec<_>>());
    assert_eq!(know.dist_s, inst.prefix);
    assert_eq!(know.dist_t, inst.suffix);
}

#[test]
fn runs_are_fully_deterministic() {
    // Same seed, same instance: identical answers AND identical metrics
    // (round counts are results in this repo; they must be stable).
    let (g, s, t) = graphkit::gen::planted_path_digraph(80, 20, 200, 5);
    let inst = Instance::from_endpoints(&g, s, t).unwrap();
    let params = Params::for_instance(&inst).with_seed(123);
    let a = unweighted::solve(&inst, &params).unwrap();
    let b = unweighted::solve(&inst, &params).unwrap();
    assert_eq!(a.replacement, b.replacement);
    assert_eq!(a.metrics.total, b.metrics.total);
    assert_eq!(a.metrics.phases.len(), b.metrics.phases.len());
}

/// Answers `queries` through a fresh [`SolverSession`], checks every
/// answer against the centralized replacement oracle, and hands back
/// the answers and the session's telemetry.
fn assert_session_matches_oracle(
    g: &graphkit::DiGraph,
    queries: &[Query],
) -> (Vec<Answer>, SessionStats) {
    let mut session = SolverSession::new(g, full_params(g.node_count(), 4));
    let answers = session.solve_batch(queries).expect("batch must solve");
    for (q, a) in queries.iter().zip(&answers) {
        let want = oracle_query(g, q);
        assert_eq!(
            a.scaled, want,
            "session disagrees with oracle on {q:?}: got {:?}, want {want:?}",
            a.scaled
        );
        assert_eq!(a.den, 1, "unweighted answers must be exact");
    }
    (answers, session.stats())
}

#[test]
fn unreachable_pairs_answer_infinity_without_a_solver_run() {
    // A one-way chain 0 -> 1 -> 2 -> 3: weakly connected, so the
    // communication graph is fine, but no directed path runs 3 -> 0.
    // The reverse pair answers ∞ whether or not an edge fails, and the
    // session learns that from the (cached) missing path alone.
    let mut b = GraphBuilder::new(4);
    b.add_arc(0, 1); // e0
    b.add_arc(1, 2); // e1
    b.add_arc(2, 3); // e2
    let g = b.build();
    let (answers, stats) =
        assert_session_matches_oracle(&g, &[Query::intact(3, 0), Query::avoiding(3, 0, 1)]);
    assert_eq!(answers, vec![Answer::unreachable(); 2]);
    assert_eq!(stats.solver_runs, 0, "an unreachable pair never solves");
}

#[test]
fn zero_length_path_survives_any_avoided_edge() {
    // s = t: the shortest path has no edges, so no failure can touch it
    // and every query answers 0. This is not representable as an
    // `StPath` (paths need >= 1 edge), so both layers special-case it.
    let mut b = GraphBuilder::new(3);
    b.add_arc(0, 1);
    b.add_arc(1, 2);
    b.add_arc(2, 0);
    let g = b.build();
    assert!(graphkit::alg::shortest_st_path(&g, 1, 1).is_none());
    assert_session_matches_oracle(
        &g,
        &[
            Query::intact(1, 1),
            Query::avoiding(1, 1, 0),
            Query::avoiding(1, 1, 1),
            // Mixed into a batch with ordinary queries.
            Query::avoiding(0, 2, 1),
        ],
    );
}

#[test]
fn off_path_avoided_edge_leaves_the_path_intact() {
    // The failed edge is not on the chosen shortest path: the answer is
    // |P| itself, served from the path without running a solver.
    let mut b = GraphBuilder::new(4);
    b.add_arc(0, 1); // e0, on P
    b.add_arc(1, 3); // e1, on P
    b.add_arc(0, 2); // e2, off P
    b.add_arc(2, 3); // e3, off P
    let g = b.build();
    assert_session_matches_oracle(
        &g,
        &[
            Query::avoiding(0, 3, 2),
            Query::avoiding(0, 3, 3),
            Query::intact(0, 3),
            // Avoiding an edge of the *other* 2-hop route from a
            // different source still must not disturb anything.
            Query::avoiding(2, 3, 0),
        ],
    );
}

#[test]
fn parallel_s_t_edges_cover_for_each_other() {
    // Two parallel unit edges straight from s to t: whichever one the
    // path uses, avoiding it leaves the twin, so every replacement is
    // again length 1; avoiding the off-path twin changes nothing.
    let mut b = GraphBuilder::new(2);
    b.add_arc(0, 1); // e0
    b.add_arc(0, 1); // e1, parallel twin
    let g = b.build();
    let inst = Instance::from_endpoints(&g, 0, 1).unwrap();
    assert_eq!(inst.hops(), 1);
    assert_exact(&g, &inst, 2);
    assert_session_matches_oracle(
        &g,
        &[
            Query::avoiding(0, 1, 0),
            Query::avoiding(0, 1, 1),
            Query::intact(0, 1),
        ],
    );
}

#[test]
fn avoiding_a_bridge_disconnects_the_demand() {
    // Shortest path 0 -> 2 -> 3; edge (2,3) is the only way into t, so
    // avoiding it must answer ∞, while avoiding (0,2) reroutes over the
    // longer 0 -> 1 -> 2 -> 3. Exercises the ∞ plumbing end to end:
    // solver, session answers, and the oracle all agree.
    let mut b = GraphBuilder::new(4);
    b.add_arc(0, 1); // e0
    b.add_arc(1, 2); // e1
    b.add_arc(0, 2); // e2, on P
    b.add_arc(2, 3); // e3, on P, bridge into t
    let g = b.build();
    let inst = Instance::from_endpoints(&g, 0, 3).unwrap();
    assert_eq!(inst.path.nodes(), &[0, 2, 3]);
    let oracle = replacement_lengths(&g, &inst.path);
    assert_eq!(oracle, vec![Dist::new(3), Dist::INF]);
    assert_exact(&g, &inst, 3);

    let mut session = SolverSession::new(&g, full_params(4, 3));
    let answers = session
        .solve_batch(&[Query::avoiding(0, 3, 2), Query::avoiding(0, 3, 3)])
        .unwrap();
    assert_eq!(answers[0].exact(), Some(3));
    assert!(!answers[1].is_finite(), "bridge removal must answer ∞");
    assert_session_matches_oracle(&g, &[Query::avoiding(0, 3, 3)]);
}

#[test]
fn out_of_range_fault_plans_are_typed_errors() {
    // A plan naming a link or node the graph does not have is rejected
    // before any work, whether its faults are all transient or include
    // permanent ones: the recovery layer attaches no plan to a network,
    // so no engine check would catch it later.
    use rpaths_core::resilient::{solve_with_recovery, RecoveryError};
    let g = graphkit::gen::metro_ring(8);
    let (m, n) = (g.edge_count(), g.node_count());
    let unknown_link = |link| FaultPlanError::UnknownLink {
        fault: 0,
        link,
        edges: m,
    };
    let unknown_node = |node| FaultPlanError::UnknownNode {
        fault: 0,
        node,
        nodes: n,
    };
    for (plan, want) in [
        (FaultPlan::new(1).fail_link(m, 0, Some(5)), unknown_link(m)),
        (
            FaultPlan::new(2).fail_link(m + 3, 0, None),
            unknown_link(m + 3),
        ),
        (
            FaultPlan::new(3)
                .crash_node(n, 1, Some(4))
                .drop_messages(0.1),
            unknown_node(n),
        ),
        (
            FaultPlan::new(4).crash_node(n + 1, 0, None),
            unknown_node(n + 1),
        ),
    ] {
        let got = solve_with_recovery(&g, 0, 4, &plan, &Params::for_n(n));
        assert_eq!(got.unwrap_err(), RecoveryError::FaultPlan(want));
    }
}

#[test]
fn baselines_under_message_drops_end_with_the_engine_error() {
    // A dropped message leaves a phase waiting for what never arrives:
    // both baselines stop at that phase's round budget and return a typed
    // error instead of panicking.
    use congest::{EngineError, Network};
    use rpaths_core::baseline::{mr24, naive};
    use rpaths_core::SolveError;
    type SolveOn = fn(&mut Network<'_>, &Instance<'_>, &Params) -> Result<Vec<Dist>, SolveError>;
    let (g, s, t) = graphkit::gen::planted_path_digraph(40, 10, 100, 3);
    let inst = Instance::from_endpoints(&g, s, t).unwrap();
    let params = Params::for_instance(&inst);
    for seed in 0..6 {
        for (name, solve_on) in [
            ("naive", naive::solve_on as SolveOn),
            ("mr24", mr24::solve_on),
        ] {
            let mut net = Network::new(&g);
            net.set_fault_plan(Some(FaultPlan::new(seed).drop_messages(0.2)))
                .unwrap();
            let got = solve_on(&mut net, &inst, &params);
            assert!(
                matches!(
                    got,
                    Err(SolveError::Engine(EngineError::RoundLimitExceeded { .. }))
                ),
                "{name}, seed {seed}: {got:?}"
            );
        }
    }
}

/// An endpoint id past the last node of the lane the tests below build.
const FAR: usize = 10_000;

#[test]
fn out_of_range_endpoints_are_typed_instance_errors() {
    let (g, s, t) = graphkit::gen::parallel_lane(6, 2, 1);
    let unknown = InstanceError::UnknownNode {
        node: FAR,
        nodes: g.node_count(),
    };
    for (src, dst) in [(FAR, t), (s, FAR)] {
        let err = Instance::from_endpoints(&g, src, dst).unwrap_err();
        assert_eq!(err, unknown, "demand {src} -> {dst}");
    }
    assert_eq!(
        unknown.to_string(),
        format!(
            "endpoint {FAR} is not a node of the {}-node graph",
            g.node_count()
        )
    );
}

#[test]
fn session_batches_reject_out_of_range_endpoints() {
    // Every query is checked before any work: one foreign endpoint
    // anywhere in the batch rejects it without a solver run.
    let (g, s, t) = graphkit::gen::parallel_lane(6, 2, 1);
    let unknown = SessionError::Instance(InstanceError::UnknownNode {
        node: FAR,
        nodes: g.node_count(),
    });
    let mut session = SolverSession::new(&g, full_params(g.node_count(), 3));
    for bad in [Query::intact(FAR, t), Query::intact(s, FAR)] {
        let batch = [Query::intact(s, t), bad];
        assert_eq!(session.solve_batch(&batch).unwrap_err(), unknown);
    }
    assert_eq!(session.stats().solver_runs, 0);
    assert_eq!(session.metrics().rounds(), 0);
}

#[test]
fn recovery_rejects_out_of_range_endpoints() {
    // Both recovery paths: a transient plan solves the demand as posed,
    // a permanent one re-poses it on the surviving component.
    use rpaths_core::resilient::{solve_with_recovery, RecoveryError};
    let (g, s, t) = graphkit::gen::parallel_lane(6, 2, 1);
    let unknown = RecoveryError::Instance(InstanceError::UnknownNode {
        node: FAR,
        nodes: g.node_count(),
    });
    let params = Params::for_n(g.node_count());
    for plan in [
        FaultPlan::new(5).fail_link(0, 0, Some(3)),
        FaultPlan::new(6).fail_link(0, 0, None),
    ] {
        for (src, dst) in [(FAR, t), (s, FAR)] {
            let got = solve_with_recovery(&g, src, dst, &plan, &params);
            assert_eq!(got.unwrap_err(), unknown, "demand {src} -> {dst}");
        }
    }
}
