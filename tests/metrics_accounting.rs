//! Accounting-level tests: the metrics a run reports must reflect the
//! algorithm's documented phase structure, and the CONGEST(B) bandwidth
//! knob must behave.

use congest::bfs_tree::build_bfs_tree;
use congest::Network;
use graphkit::gen::{parallel_lane, planted_path_digraph};
use rpaths_core::{baseline, sisp, unweighted, weighted, Instance, Params};

#[test]
fn theorem1_reports_its_documented_phases() {
    let (g, s, t) = planted_path_digraph(60, 18, 150, 2);
    let inst = Instance::from_endpoints(&g, s, t).unwrap();
    let mut params = Params::with_zeta(60, 6);
    params.landmark_prob = 1.0;
    let out = unweighted::solve(&inst, &params).unwrap();
    let m = &out.metrics;
    // One phase per documented stage, each with nonzero rounds.
    for needle in [
        "bfs-tree",
        "lemma2.5/waves",
        "lemma2.5/broadcast",
        "short/hop-bfs",
        "short/pipeline-dp",
        "long/bfs-from-landmarks",
        "long/bfs-to-landmarks",
        "long/broadcast-landmark-pairs",
        "long/sweep-from-s",
        "long/broadcast-from-s",
        "long/sweep-to-t",
        "long/broadcast-to-t",
        "long/shift",
    ] {
        let stats = m.phase_total(needle);
        assert!(stats.rounds > 0, "phase {needle} missing or empty");
    }
    // Totals are consistent with the phase log.
    let sum: u64 = m.phases.iter().map(|p| p.stats.rounds).sum();
    assert_eq!(sum, m.total.rounds);
    let msg_sum: u64 = m.phases.iter().map(|p| p.stats.messages).sum();
    assert_eq!(msg_sum, m.total.messages);
}

#[test]
fn a_single_segment_publishes_no_lane_summary() {
    // With h_st ≤ ζ the path is one segment. Towards `t` no vertex reads
    // the summary of the last segment before it, and from `s` none reads
    // the summary of the first segment after it, so both lane-end
    // broadcasts are empty: every non-root node reports its empty subtree
    // in one message, the deepest first.
    let (g, s, t) = planted_path_digraph(60, 18, 150, 2);
    let inst = Instance::from_endpoints(&g, s, t).unwrap();
    let mut params = Params::with_zeta(60, inst.hops());
    params.landmark_prob = 1.0;
    let out = unweighted::solve(&inst, &params).unwrap();
    let (tree, _) = build_bfs_tree(&mut Network::new(&g), s).unwrap();
    for phase in ["long/broadcast-from-s", "long/broadcast-to-t"] {
        let stats = out.metrics.phase_total(phase);
        assert_eq!(
            (stats.rounds, stats.messages),
            (tree.height + 1, inst.n() as u64 - 1),
            "{phase}"
        );
    }
}

#[test]
fn sisp_builds_one_bfs_tree() {
    // Theorem 1 and the closing aggregation share one tree rooted at `s`.
    let (g, s, t) = planted_path_digraph(40, 12, 100, 1);
    let inst = Instance::from_endpoints(&g, s, t).unwrap();
    let mut params = Params::with_zeta(40, 5);
    params.landmark_prob = 1.0;
    let out = sisp::solve(&inst, &params).unwrap();
    let trees = out
        .metrics
        .phases
        .iter()
        .filter(|p| p.name == "bfs-tree")
        .count();
    assert_eq!(trees, 1);
}

#[test]
fn weighted_solver_runs_one_bfs_pair_per_scale() {
    let (g, s, t) = parallel_lane(10, 3, 2);
    let inst = Instance::from_endpoints(&g, s, t).unwrap();
    let mut params = Params::with_zeta(inst.n(), 4);
    params.landmark_prob = 1.0;
    let out = weighted::solve(&inst, &params).unwrap();
    let ends = out
        .metrics
        .phases
        .iter()
        .filter(|p| p.name.starts_with("apx/hop-bfs-end-d"))
        .count();
    let starts = out
        .metrics
        .phases
        .iter()
        .filter(|p| p.name.starts_with("apx/hop-bfs-start-d"))
        .count();
    assert_eq!(ends, starts, "one MaxIndex run per MinIndex run");
    // Scales are d = 2, 4, ... up to the first where every edge is one
    // G_d hop: ζ = 4 and ε = 1/2 give den = 16, so on this unit-weight
    // instance d = 16 is the last of 4 scales, long before 2·Σw.
    assert_eq!(ends, 4, "{ends} scales");
}

#[test]
fn every_message_respects_the_declared_bandwidth() {
    // The engine enforces this online; here we check the recorded
    // maximum is comfortably logarithmic.
    let (g, s, t) = planted_path_digraph(120, 30, 300, 4);
    let inst = Instance::from_endpoints(&g, s, t).unwrap();
    let params = Params::for_instance(&inst).with_seed(8);
    let out = unweighted::solve(&inst, &params).unwrap();
    let n = inst.n() as u64;
    let default_bandwidth = 8 * congest::word_bits(n) + 32;
    assert!(out.metrics.total.max_message_bits <= default_bandwidth);
    // And the messages are genuinely small — a few words.
    assert!(out.metrics.total.max_message_bits <= 4 * congest::word_bits(n) + 8);
}

#[test]
fn tight_custom_bandwidth_is_accepted_when_sufficient() {
    // CONGEST(B) with B = 3·log n + 4 is enough for every message of the
    // unweighted pipeline on this instance (index + distance + tags).
    let (g, s, t) = parallel_lane(12, 3, 1);
    let inst = Instance::from_endpoints(&g, s, t).unwrap();
    let mut params = Params::with_zeta(inst.n(), 5);
    params.landmark_prob = 1.0;
    let n = inst.n() as u64;
    let mut net = Network::new(&g).with_bandwidth(3 * congest::word_bits(n) + 8);
    let replacement = unweighted::solve_on(&mut net, &inst, &params).unwrap();
    let oracle = graphkit::alg::replacement_lengths(&g, &inst.path);
    assert_eq!(replacement, oracle);
}

#[test]
fn naive_baseline_charges_one_bfs_per_edge() {
    let (g, s, t) = parallel_lane(9, 3, 1);
    let inst = Instance::from_endpoints(&g, s, t).unwrap();
    let out = baseline::naive::solve(&inst, &Params::for_instance(&inst)).unwrap();
    let bfs_phases = out
        .metrics
        .phases
        .iter()
        .filter(|p| p.name.starts_with("naive/bfs-"))
        .count();
    assert_eq!(bfs_phases, inst.hops());
}

#[test]
fn mr24_fat_broadcast_dwarfs_ours_in_messages() {
    let (g, s, t) = parallel_lane(64, 8, 2);
    let inst = Instance::from_endpoints(&g, s, t).unwrap();
    let n = inst.n();
    let mut params = Params::for_n(n).with_seed(6);
    params.landmark_prob = ((n as f64).ln() / params.zeta as f64).min(1.0);
    let ours = unweighted::solve(&inst, &params).unwrap().metrics;
    let mr = baseline::mr24::solve(&inst, &params).unwrap().metrics;
    let ours_bc = ours.phase_total("long/broadcast").messages;
    let mr_bc = mr.phase_total("fat-broadcast").messages;
    assert!(
        mr_bc > ours_bc,
        "mr24 broadcast {mr_bc} should exceed ours {ours_bc}"
    );
}
