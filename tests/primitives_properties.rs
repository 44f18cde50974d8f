//! Property-based tests for the `congest` communication primitives:
//! whatever the topology, the primitives must deliver exactly the right
//! data within their claimed round bounds.

use congest::aggregate::{aggregate, AggOp};
use congest::bfs_tree::build_bfs_tree;
use congest::broadcast::broadcast;
use congest::multi_bfs::{default_budget, multi_source_bfs, MultiBfsConfig};
use congest::pipeline::{diagonal_dp, prefix_sweep, Lane};
use congest::{FaultPlan, Metrics, Network, NodeCtx, Protocol, RunStats};
use graphkit::alg::bfs_hop_bounded;
use graphkit::gen::random_digraph;
use graphkit::{DiGraph, Dist, GraphBuilder};
use proptest::prelude::*;

/// A traffic generator that records exactly what the engine delivers:
/// every node sends on a pseudo-random subset of its ports each round
/// and logs its inbox verbatim (round, port, payload). Any change to
/// delivery contents *or order* — the quantities the active-set
/// schedule must preserve — shows up as a log difference. Each node's
/// slot is its log of `(round, port, payload)` deliveries.
struct Recorder {
    seed: u64,
    send_rounds: u64,
}

impl Protocol for Recorder {
    type Msg = u64;
    type Node = Vec<(u64, u32, u64)>;

    fn msg_bits(&self, _: &u64) -> u64 {
        32
    }

    fn step_node(&self, log: &mut Vec<(u64, u32, u64)>, ctx: &mut NodeCtx<'_, u64>) {
        for &(port, msg) in ctx.inbox() {
            log.push((ctx.round, port, msg));
        }
        if ctx.round < self.send_rounds {
            let v = ctx.node as u64;
            for p in 0..ctx.ports().len() as u32 {
                if (v * 31 + ctx.round * 17 + p as u64 * 7 + self.seed).is_multiple_of(3) {
                    ctx.send(p, (v << 32) | (ctx.round << 16) | p as u64);
                }
            }
            ctx.wake();
        }
    }
}

/// Drives the recorder under a fault plan, with a drain window long
/// enough for delayed messages to land, on the chosen schedule; returns
/// the per-node logs, the stats, and the full metrics log so that
/// `FaultStats` parity is part of the comparison.
fn run_recorder_faulty(
    g: &DiGraph,
    seed: u64,
    send_rounds: u64,
    plan: &FaultPlan,
    full_sweep: bool,
) -> (Vec<Vec<(u64, u32, u64)>>, RunStats, Metrics) {
    let mut net = Network::new(g);
    net.set_full_sweep(full_sweep);
    net.set_fault_plan(Some(plan.clone())).unwrap();
    let mut logs = vec![Vec::new(); g.node_count()];
    let stats = net.run_rounds(
        "recorder",
        &Recorder { seed, send_rounds },
        &mut logs,
        send_rounds + 5,
    );
    (logs, stats, net.metrics().clone())
}

/// `per_node` distinct items at every node.
fn numbered_items(n: usize, per_node: usize) -> Vec<Vec<u64>> {
    (0..n)
        .map(|v| (0..per_node).map(|j| (v * 10 + j) as u64).collect())
        .collect()
}

fn sorted(mut items: Vec<u64>) -> Vec<u64> {
    items.sort_unstable();
    items
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn broadcast_delivers_every_item_to_everyone(
        n in 4usize..60,
        per_node in 0usize..4,
        seed in 0u64..500,
    ) {
        let g = random_digraph(n, 2 * n, seed);
        let mut net = Network::new(&g);
        let (tree, _) = build_bfs_tree(&mut net, 0).unwrap();
        let items = numbered_items(n, per_node);
        let total: usize = items.iter().map(|i| i.len()).sum();
        // Each item climbs from its origin to the root, then crosses every
        // tree link downwards once.
        let upcast: u64 = (0..n).map(|v| tree.depth[v] * per_node as u64).sum();
        let (stream, stats) = broadcast(&mut net, &tree, items.clone(), |_| 16, "bc");
        // The root's stream is a permutation of all items.
        prop_assert_eq!(sorted(stream), sorted(items.concat()));
        prop_assert_eq!(stats.messages, upcast + (total * (n - 1)) as u64);
        // Lemma 2.4's O(M + D) with an explicit constant.
        prop_assert!(stats.rounds <= 3 * (total as u64 + tree.height) + 8);
    }

    #[test]
    fn broadcast_under_delays_delivers_the_fault_free_multiset(
        n in 4usize..50,
        per_node in 1usize..4,
        seed in 0u64..500,
    ) {
        let g = random_digraph(n, 2 * n, seed);
        let items = numbered_items(n, per_node);
        let run = |plan: Option<FaultPlan>| {
            let mut net = Network::new(&g);
            let (tree, _) = build_bfs_tree(&mut net, seed as usize % n).unwrap();
            net.set_fault_plan(plan).unwrap();
            broadcast(&mut net, &tree, items.clone(), |_| 16, "bc")
        };
        let (clean, clean_stats) = run(None);
        // A delayed item can land alongside the next one; relays queue it
        // rather than send two items on one link in one round.
        let (delayed, delayed_stats) = run(Some(FaultPlan::new(seed).delay_messages(0.35, 3)));
        prop_assert_eq!(delayed.len(), n * per_node);
        prop_assert_eq!(sorted(delayed), sorted(clean));
        prop_assert_eq!(delayed_stats.messages, clean_stats.messages);
    }

    #[test]
    fn multi_bfs_equals_centralized_oracle(
        n in 4usize..50,
        k in 1usize..6,
        h in 1u64..30,
        seed in 0u64..500,
    ) {
        let g = random_digraph(n, 3 * n, seed);
        let sources: Vec<usize> = (0..k).map(|i| (i * 13 + 1) % n).collect();
        let cfg = MultiBfsConfig {
            sources: &sources,
            max_dist: h,
            reverse: false,
            delays: None,
        };
        let mut net = Network::new(&g);
        let (dist, stats) =
            multi_source_bfs(&mut net, &cfg, |_| true, "mbfs", default_budget(k, h))
                .expect("quiesces");
        for (i, &s) in sources.iter().enumerate() {
            let oracle = bfs_hop_bounded(&g, &[s], h as usize, |_| true);
            prop_assert_eq!(&dist[i], &oracle, "source {}", s);
        }
        // Lemma 5.5's O(k + h) with an explicit constant.
        prop_assert!(stats.rounds <= 2 * (k as u64 + h) + 16);
    }

    #[test]
    fn prefix_sweep_is_a_prefix_min(
        len in 2usize..20,
        jobs in 1usize..10,
        seed in 0u64..500,
    ) {
        let mut b = GraphBuilder::new(len);
        let links: Vec<usize> = (0..len - 1).map(|i| b.add_arc(i, i + 1)).collect();
        let g = b.build();
        let lane = Lane::forward((0..len).collect(), links);
        let val = |pos: usize, job: usize| {
            ((pos as u64 * 7919 + job as u64 * 104729 + seed) % 97) + 1
        };
        let mut net = Network::new(&g);
        let (out, stats) = prefix_sweep(
            &mut net,
            std::slice::from_ref(&lane),
            jobs,
            &|_, pos, job| Dist::new(val(pos, job)),
            "sweep",
        );
        for pos in 0..len {
            for job in 0..jobs {
                let expect = (0..=pos).map(|p| val(p, job)).min().unwrap();
                prop_assert_eq!(out[0][pos][job], Dist::new(expect));
            }
        }
        prop_assert_eq!(stats.rounds, jobs as u64 + len as u64);
    }

    #[test]
    fn diagonal_dp_matches_direct_recurrence(
        len in 2usize..16,
        rounds in 1u64..12,
        seed in 0u64..500,
    ) {
        let mut b = GraphBuilder::new(len);
        let links: Vec<usize> = (0..len - 1).map(|i| b.add_arc(i, i + 1)).collect();
        let g = b.build();
        let lane = Lane::forward((0..len).collect(), links);
        let f = |p: usize, r: u64| ((p as u64 * 31 + r * 17 + seed) % 89) + 1;
        let mut net = Network::new(&g);
        let (cur, _) = diagonal_dp(
            &mut net,
            &lane,
            |p| Dist::new(f(p, 0)),
            &|p, r| Dist::new(f(p, r)),
            rounds,
            "dp",
        );
        let mut reference: Vec<Dist> = (0..len).map(|p| Dist::new(f(p, 0))).collect();
        for r in 1..=rounds {
            let prev = reference.clone();
            for p in 0..len {
                let local = Dist::new(f(p, r));
                reference[p] = if p == 0 { local } else { prev[p - 1].min(local) };
            }
        }
        prop_assert_eq!(cur, reference);
    }

    #[test]
    fn aggregate_matches_local_fold(
        n in 2usize..60,
        seed in 0u64..500,
    ) {
        let g = random_digraph(n, 2 * n, seed);
        let values: Vec<Dist> = (0..n)
            .map(|v| Dist::new(((v as u64 * 37 + seed) % 1000) + 1))
            .collect();
        for (op, expect) in [
            (AggOp::Min, values.iter().copied().min().unwrap()),
            (AggOp::Max, values.iter().copied().max().unwrap()),
            (AggOp::Sum, values.iter().copied().sum()),
        ] {
            let mut net = Network::new(&g);
            let (tree, _) = build_bfs_tree(&mut net, seed as usize % n).unwrap();
            prop_assert_eq!(aggregate(&mut net, &tree, op, &values), expect);
        }
    }

    #[test]
    fn fault_plans_never_break_schedule_parity(
        n in 3usize..40,
        density in 1usize..4,
        seed in 0u64..500,
        fseed in 0u64..1000,
    ) {
        // Random fault plans mixing every failure mode (timed link
        // faults, crash/restart, probabilistic drop and delay) must be
        // invisible to the schedule: per-message fates are pure
        // functions of (seed, round, link, direction), so active-set
        // and full-sweep runs agree on the delivery log, the RunStats,
        // and the FaultStats.
        let g = random_digraph(n, density * n, seed);
        prop_assert!(g.edge_count() > 0);
        let m = g.edge_count();
        let plan = FaultPlan::new(fseed)
            .fail_link((fseed as usize * 7 + 1) % m, fseed % 3, Some(fseed % 3 + 2))
            .crash_node((fseed as usize * 5 + 2) % n, 1 + fseed % 2, Some(4))
            .drop_messages((fseed % 4) as f64 * 0.08)
            .delay_messages((fseed % 5) as f64 * 0.07, 1 + fseed % 3);
        let (swept_logs, swept_stats, swept_metrics) =
            run_recorder_faulty(&g, seed, 6, &plan, true);
        let (active_logs, active_stats, active_metrics) =
            run_recorder_faulty(&g, seed, 6, &plan, false);
        prop_assert_eq!(active_stats, swept_stats);
        prop_assert_eq!(active_logs, swept_logs);
        prop_assert_eq!(active_metrics, swept_metrics);
    }

    #[test]
    fn graph_snapshot_round_trip_is_bit_identical(
        n in 1usize..80,
        density in 0usize..4,
        seed in 0u64..1000,
    ) {
        // The persistence codec is an exact bijection on encodable
        // graphs: decode(encode(g)) re-encodes to the same bytes, and
        // the decoded graph is structurally identical (CSRs included —
        // neighbor iteration order is part of determinism).
        let g = random_digraph(n, density * n, seed);
        let bytes = g.to_snapshot();
        let back = DiGraph::from_snapshot(&bytes).expect("round trip");
        prop_assert_eq!(back.to_snapshot(), bytes);
        prop_assert_eq!(back.node_count(), g.node_count());
        prop_assert_eq!(back.edge_count(), g.edge_count());
        for v in 0..n {
            let a: Vec<usize> = g.undirected_neighbors(v).collect();
            let b: Vec<usize> = back.undirected_neighbors(v).collect();
            prop_assert_eq!(a, b, "node {}", v);
        }
    }

    #[test]
    fn store_snapshot_round_trip_is_bit_identical(
        n in 1usize..50,
        seed in 0u64..1000,
        nart in 0usize..4,
    ) {
        // Full store files (header + sections + footer) re-encode to
        // identical bytes after a decode, for any graph and artifact
        // payload mix — the invariant checkpoint/resume rides on.
        let g = random_digraph(n, 2 * n, seed);
        let mut snap = rpaths_store::Snapshot::new(g);
        for i in 0..nart {
            let body: Vec<u8> = (0..(seed as usize + 7 * i) % 40)
                .map(|j| (j as u8).wrapping_mul(31).wrapping_add(seed as u8))
                .collect();
            snap.artifacts
                .push(rpaths_store::Artifact::blob(format!("blob/{i}"), body));
        }
        let bytes = snap.encode();
        let back = rpaths_store::Snapshot::decode(&bytes)
            .expect("decode")
            .expect_complete("round trip");
        prop_assert_eq!(back.encode(), bytes);
        prop_assert_eq!(back.artifacts.len(), nart);
    }

    #[test]
    fn grid_road_has_exact_counts_symmetric_arcs_and_bounded_degrees(
        rows in 2usize..12,
        cols in 2usize..12,
        chords in 0usize..20,
        seed in 0u64..1000,
    ) {
        // The documented contract of `gen::grid_road`: rows·cols nodes,
        // every street bidirectional (arcs come in reverse pairs, so the
        // graph is strongly connected), exactly
        // 2·(rows·(cols−1) + cols·(rows−1)) + 2·chords arcs, and street
        // degree ≤ 4 with each incident chord adding at most one
        // out-arc.
        let (g, s, t) = graphkit::gen::grid_road(rows, cols, chords, seed);
        let n = rows * cols;
        prop_assert_eq!(g.node_count(), n);
        prop_assert_eq!(s, 0);
        prop_assert_eq!(t, n - 1);
        prop_assert_eq!(
            g.edge_count(),
            2 * (rows * (cols - 1) + cols * (rows - 1)) + 2 * chords
        );
        let mut pairs = std::collections::HashMap::new();
        for (_, e) in g.edges() {
            *pairs.entry((e.from, e.to)).or_insert(0i64) += 1;
        }
        for (&(u, v), &c) in &pairs {
            prop_assert_eq!(
                c, pairs.get(&(v, u)).copied().unwrap_or(0),
                "arc {}->{} lacks its reverse twin", u, v
            );
        }
        let dist = bfs_hop_bounded(&g, &[s], n, |_| true);
        for v in 0..n {
            prop_assert!(dist[v].is_finite(), "node {} unreachable", v);
            prop_assert!(
                g.successors(v).count() <= 4 + chords,
                "node {} exceeds the street + chord degree bound", v
            );
        }
    }

    #[test]
    fn octopus_pods_has_exact_counts_head_skew_and_pod_redundancy(
        pods in 1usize..10,
        pod_size in 1usize..12,
        extra in 0usize..8,
        seed in 0u64..1000,
    ) {
        // The documented contract of `gen::octopus_pods`: pods·pod_size
        // nodes; per pod 2·(pod_size−1) spoke arcs plus a 2·pod_size
        // member ring when pod_size ≥ 3; a head ring spine plus
        // 2·extra_spine shortcuts; strongly connected; heads dominate
        // member degrees; and a crashed head leaves its pod connected.
        // A 1×1 octopus is rejected by the generator; test from 2 nodes.
        let pod_size = if pods * pod_size < 2 { 2 } else { pod_size };
        let g = graphkit::gen::octopus_pods(pods, pod_size, extra, seed);
        let n = pods * pod_size;
        prop_assert_eq!(g.node_count(), n);
        let mut m =
            pods * (2 * (pod_size - 1) + if pod_size >= 3 { 2 * pod_size } else { 0 });
        m += match pods {
            0 | 1 => 0,
            2 => 2,
            _ => 2 * pods,
        };
        if pods >= 2 {
            m += 2 * extra;
        }
        prop_assert_eq!(g.edge_count(), m);
        let dist = bfs_hop_bounded(&g, &[0], n, |_| true);
        for v in 0..n {
            prop_assert!(dist[v].is_finite(), "node {} unreachable", v);
        }
        // Degree skew: members touch only their spoke and ring; heads
        // carry the whole pod plus the spine.
        for p in 0..pods {
            let head = p * pod_size;
            prop_assert!(g.successors(head).count() >= pod_size - 1);
            for k in 1..pod_size {
                prop_assert!(
                    g.successors(head + k).count() <= 3,
                    "member {} of pod {} exceeds spoke + ring degree", k, p
                );
            }
        }
        // Head-crash redundancy: with a member ring, dropping pod 0's
        // head must leave its members mutually reachable.
        if pod_size >= 3 {
            let head = 0;
            let avoid_head = |e: usize| {
                let edge = g.edge(e);
                edge.from != head && edge.to != head
            };
            let d = bfs_hop_bounded(&g, &[1], n, avoid_head);
            for k in 1..pod_size {
                prop_assert!(
                    d[k].is_finite(),
                    "member {} stranded after head crash", k
                );
            }
        }
    }

    #[test]
    fn bfs_tree_depths_are_undirected_distances(
        n in 2usize..60,
        seed in 0u64..500,
    ) {
        let g = random_digraph(n, 2 * n, seed);
        let root = seed as usize % n;
        let mut net = Network::new(&g);
        let (tree, _) = build_bfs_tree(&mut net, root).unwrap();
        // Centralized undirected BFS.
        let mut dist = vec![usize::MAX; n];
        let mut q = std::collections::VecDeque::new();
        dist[root] = 0;
        q.push_back(root);
        while let Some(u) = q.pop_front() {
            for w in g.undirected_neighbors(u) {
                if dist[w] == usize::MAX {
                    dist[w] = dist[u] + 1;
                    q.push_back(w);
                }
            }
        }
        for v in 0..n {
            prop_assert_eq!(tree.depth[v] as usize, dist[v]);
        }
    }
}

#[test]
fn broadcast_from_one_origin_under_a_nonzero_root_keeps_its_order() {
    let g = random_digraph(25, 50, 3);
    let mut net = Network::new(&g);
    let (tree, _) = build_bfs_tree(&mut net, 5).unwrap();
    let mut items: Vec<Vec<u64>> = vec![vec![]; 25];
    items[13] = (0..40).collect();
    let (stream, _) = broadcast(&mut net, &tree, items, |_| 16, "bc");
    assert_eq!(stream, (0..40).collect::<Vec<u64>>());
}

#[test]
fn empty_broadcast_is_cheap() {
    let g = random_digraph(20, 30, 1);
    let mut net = Network::new(&g);
    let (tree, _) = build_bfs_tree(&mut net, 0).unwrap();
    let (stream, stats) = broadcast(&mut net, &tree, vec![vec![]; 20], |_: &u64| 8, "bc");
    assert!(stream.is_empty());
    assert!(stats.rounds <= 2);
}

#[test]
#[should_panic(expected = "broadcast quiesces")]
fn broadcast_past_a_cut_tree_link_never_returns() {
    // A leaf with no items of its own behind a link that is down for the
    // whole run: the root still serializes every item, but the leaf never
    // receives any, so its receive count must keep the run from
    // quiescing.
    let n = 30;
    let g = random_digraph(n, 2 * n, 2);
    let mut net = Network::new(&g);
    let (tree, _) = build_bfs_tree(&mut net, 0).unwrap();
    let leaf = (1..n)
        .find(|&v| tree.child_ports[v].is_empty())
        .expect("a tree on 30 nodes has a non-root leaf");
    let link = net.ports(leaf)[tree.parent_port[leaf].unwrap() as usize].link;
    net.set_fault_plan(Some(FaultPlan::new(1).fail_link(link, 0, None)))
        .unwrap();
    let mut items = numbered_items(n, 1);
    items[leaf].clear();
    broadcast(&mut net, &tree, items, |_| 16, "bc");
}
