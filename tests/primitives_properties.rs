//! Property-based tests for the `congest` communication primitives and
//! the Lemma 4.2 hop-BFS: whatever the topology, the primitives must
//! deliver exactly the right data within their claimed round bounds.

use congest::aggregate::{aggregate, AggOp};
use congest::bfs_tree::{build_bfs_tree, BfsTree};
use congest::broadcast::broadcast;
use congest::multi_bfs::{default_budget, multi_source_bfs, MultiBfsConfig};
use congest::pipeline::{diagonal_dp, prefix_sweep, Lane};
use congest::{EngineError, FaultPlan, Metrics, Network, NodeCtx, Protocol, RunStats};
use graphkit::alg::{bfs_hop_bounded, dijkstra};
use graphkit::gen::{planted_path_digraph, random_digraph};
use graphkit::{DiGraph, Dist, GraphBuilder};
use proptest::prelude::*;
use rpaths_core::short::hop_bfs::{hop_bfs_pair, hop_constrained_bfs, HopBfsConfig, Objective};
use rpaths_core::Instance;

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

/// Drives the recorder under a fault plan for `send_rounds` sending
/// rounds plus the round that receives the last sends, on the chosen
/// schedule; returns the per-node logs, the stats, and the full metrics
/// log so that `FaultStats` parity is part of the comparison.
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
        send_rounds + 1,
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

/// The non-root nodes of `tree` whose subtree holds (`true`) or does not
/// hold (`false`) a node with a positive `count`.
fn subtrees_holding(tree: &BfsTree, count: &[usize], holding: bool) -> u64 {
    let mut held = count.to_vec();
    let mut deepest_first: Vec<usize> = (0..held.len()).collect();
    deepest_first.sort_by_key(|&v| std::cmp::Reverse(tree.depth[v]));
    for v in deepest_first {
        if let Some(p) = tree.parent[v] {
            held[p] += held[v];
        }
    }
    (0..held.len())
        .filter(|&v| v != tree.root && (held[v] > 0) == holding)
        .count() as u64
}

/// Broadcasts `per_node` items from two of every three nodes of a random
/// digraph to the nodes `v` with `readers[v]`, keeping the items `x` with
/// `x + seed` a multiple of `every`, and checks what the root meets, the
/// stream, the exact message count and the round bounds.
fn check_broadcast(
    n: usize,
    per_node: usize,
    seed: u64,
    every: u64,
    readers: &[bool],
) -> Result<(), TestCaseError> {
    let g = random_digraph(n, 2 * n, seed);
    let mut items = numbered_items(n, per_node);
    // A third of the nodes hold nothing, so some subtrees send nothing.
    for v in (0..n).filter(|v| (v + seed as usize).is_multiple_of(3)) {
        items[v].clear();
    }
    let all = sorted(items.concat());
    let m = all.len() as u64;
    let wanted = |x: &u64| (x + seed).is_multiple_of(every);
    let mut net = Network::new(&g);
    let (tree, _) = build_bfs_tree(&mut net, seed as usize % n).unwrap();
    let mut met = Vec::new();
    let keep = |x: &u64| {
        met.push(*x);
        wanted(x)
    };
    let (stream, stats) = broadcast(
        &mut net,
        &tree,
        items.clone(),
        |_| 16,
        keep,
        |v| readers[v],
        "bc",
    )
    .expect("quiesces");
    // The root meets every item exactly once, smallest first, and the
    // stream is what the filter kept, in that order.
    prop_assert_eq!(&met, &all);
    let kept: Vec<u64> = all.iter().copied().filter(|x| wanted(x)).collect();
    prop_assert_eq!(&stream, &kept);
    // Every item climbs from its origin to the root, a kept one then
    // crosses the tree link above every node whose subtree holds a
    // reader, and every other node whose subtree holds no item says so in
    // one message.
    let upcast: u64 = (0..n).map(|v| tree.depth[v] * items[v].len() as u64).sum();
    let reached = subtrees_holding(
        &tree,
        &readers.iter().map(|&r| usize::from(r)).collect::<Vec<_>>(),
        true,
    );
    let empty = subtrees_holding(
        &tree,
        &items.iter().map(Vec::len).collect::<Vec<_>>(),
        false,
    );
    let messages = upcast + stream.len() as u64 * reached + empty;
    prop_assert_eq!(stats.messages, messages);
    // The root meets one item per round, after the first has climbed and
    // before the last kept one descends.
    let rounds = m..=m + 2 * tree.height;
    prop_assert!(rounds.contains(&stats.rounds), "{} rounds", stats.rounds);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn broadcast_delivers_every_item_to_everyone(
        n in 4usize..60,
        per_node in 0usize..4,
        seed in 0u64..500,
    ) {
        // A filter that keeps every item and every node reading: the
        // plain broadcast.
        check_broadcast(n, per_node, seed, 1, &vec![true; n])?;
    }

    #[test]
    fn broadcast_meets_every_item_in_order_and_sends_the_kept_down(
        n in 4usize..60,
        per_node in 0usize..4,
        seed in 0u64..500,
    ) {
        check_broadcast(n, per_node, seed, 3, &vec![true; n])?;
    }

    #[test]
    fn broadcast_sends_the_kept_items_only_towards_the_readers(
        n in 4usize..60,
        per_node in 0usize..4,
        seed in 0u64..500,
    ) {
        // Up to three readers picked by the seed; a quarter of the cases
        // have none, and then no kept item leaves the root.
        let mut readers = vec![false; n];
        for i in 0..seed as usize % 4 {
            readers[(seed as usize / 4 + 17 * i) % n] = true;
        }
        check_broadcast(n, per_node, seed, 3, &readers)?;
    }

    #[test]
    fn multi_bfs_equals_centralized_oracle(
        n in 4usize..50,
        k in 1usize..6,
        h in 1u64..30,
        reverse in any::<bool>(),
        delayed in any::<bool>(),
        draw in proptest::collection::vec(0u64..=4, 200),
        seed in 0u64..500,
    ) {
        let g = random_digraph(n, 3 * n, seed);
        let sources: Vec<usize> = (0..k).map(|i| (i * 13 + 1) % n).collect();
        // Delays in 0..=4 (0 disables the edge) with a small cap, so that
        // `dist + w > max_dist` stops a node's announcement on some of
        // its ports and not on others.
        let delays = &draw[..g.edge_count()];
        let max_dist = if delayed { 1 + h % 12 } else { h };
        let cfg = MultiBfsConfig {
            sources: &sources,
            max_dist,
            reverse,
            delays: delayed.then_some(delays),
        };
        let mut net = Network::new(&g);
        let (dist, stats) = multi_source_bfs(
            &mut net,
            &cfg,
            |_| true,
            "mbfs",
            default_budget(k, max_dist),
        )
        .expect("quiesces");
        // Oracle: shortest paths capped at `max_dist` on the graph whose
        // edge lengths are the delays, reversed when the BFS is.
        let mut b = GraphBuilder::new(n);
        for (e, edge) in g.edges() {
            let w = if delayed { delays[e] } else { 1 };
            let (from, to) = if reverse { (edge.to, edge.from) } else { (edge.from, edge.to) };
            if w > 0 {
                b.add_edge(from, to, w);
            }
        }
        let delayed_graph = b.build();
        for (i, &s) in sources.iter().enumerate() {
            let oracle: Vec<Dist> = dijkstra(&delayed_graph, s, |_| true)
                .into_iter()
                .map(|d| if d > Dist::new(max_dist) { Dist::INF } else { d })
                .collect();
            prop_assert_eq!(&dist[i], &oracle, "source {}", s);
        }
        // Lemma 5.5's O(k + h) with an explicit constant.
        if !delayed {
            prop_assert!(
                stats.rounds <= k as u64 + h + 8,
                "{} rounds for k = {}, h = {}", stats.rounds, k, h
            );
        }
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
            prop_assert_eq!(aggregate(&mut net, &tree, op, &values).unwrap(), expect);
        }
    }

    #[test]
    fn hop_bfs_pair_equals_its_two_halves(
        h in 2usize..14,
        extra in 0usize..5,
        seed in 0u64..500,
        zeta in 1usize..16,
        dropping in any::<bool>(),
    ) {
        // The backward and the forward half of a pair use opposite link
        // directions, so one run of ζ + 1 rounds carries both, for the
        // two single runs' messages and bits together. Every fate of a
        // fault plan hashes (seed, round, link, direction), so under a
        // drop plan each half's messages meet the same fates alone and
        // paired.
        let n = 3 * h + 4;
        let (g, s, t) = planted_path_digraph(n, h, extra * n, seed);
        let inst = Instance::from_endpoints(&g, s, t).unwrap();
        let delays: Vec<u64> = (0..g.edge_count() as u64)
            .map(|e| ((e ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) % 6)
            .collect();
        let words = |dists: &[Dist]| -> Vec<u64> {
            dists.iter().map(|d| d.finite().unwrap()).collect()
        };
        let (suffix, prefix) = (words(&inst.suffix), words(&inst.prefix));
        let end = HopBfsConfig {
            zeta,
            objective: Objective::MaxIndex,
            delays: Some(&delays),
            aux: &suffix,
        };
        let start = HopBfsConfig {
            zeta,
            objective: Objective::MinIndex,
            delays: Some(&delays),
            aux: &prefix,
        };
        let plan = dropping.then(|| FaultPlan::new(seed).drop_messages(0.2));
        let fresh = || {
            let mut net = Network::new(&g);
            net.set_fault_plan(plan.clone()).unwrap();
            net
        };
        let mut net = fresh();
        let alone_end = hop_constrained_bfs(&mut net, &inst, &end, "end");
        let end_stats = net.metrics().total;
        let mut net = fresh();
        let alone_start = hop_constrained_bfs(&mut net, &inst, &start, "start");
        let start_stats = net.metrics().total;
        let mut net = fresh();
        let (ends, starts) = hop_bfs_pair(&mut net, &inst, &end, &start, "pair");
        let pair_stats = net.metrics().total;
        prop_assert_eq!(ends.table, alone_end.table);
        prop_assert_eq!(starts.table, alone_start.table);
        let rounds = zeta as u64 + 1;
        prop_assert_eq!(
            (pair_stats.rounds, end_stats.rounds, start_stats.rounds),
            (rounds, rounds, rounds)
        );
        prop_assert_eq!(pair_stats.messages, end_stats.messages + start_stats.messages);
        prop_assert_eq!(pair_stats.bits, end_stats.bits + start_stats.bits);
    }

    #[test]
    fn fault_plans_never_break_schedule_parity(
        n in 3usize..40,
        density in 1usize..4,
        seed in 0u64..500,
        fseed in 0u64..1000,
    ) {
        // Random fault plans mixing every failure mode (timed link
        // faults, crash/restart, random drops) must be invisible to the
        // schedule: per-message fates are pure
        // functions of (seed, round, link, direction), so active-set
        // and full-sweep runs agree on the delivery log, the RunStats,
        // and the FaultStats.
        let g = random_digraph(n, density * n, seed);
        prop_assert!(g.edge_count() > 0);
        let m = g.edge_count();
        let plan = FaultPlan::new(fseed)
            .fail_link((fseed as usize * 7 + 1) % m, fseed % 3, Some(fseed % 3 + 2))
            .crash_node((fseed as usize * 5 + 2) % n, 1 + fseed % 2, Some(4))
            .drop_messages((fseed % 4) as f64 * 0.08);
        let (swept_logs, swept_stats, swept_metrics) =
            run_recorder_faulty(&g, seed, 6, &plan, true);
        let (active_logs, active_stats, active_metrics) =
            run_recorder_faulty(&g, seed, 6, &plan, false);
        prop_assert_eq!(active_stats, swept_stats);
        prop_assert_eq!(active_logs, swept_logs);
        prop_assert_eq!(active_metrics, swept_metrics);
    }

    #[test]
    fn store_snapshot_round_trip_is_bit_identical(
        n in 1usize..50,
        density in 0usize..4,
        seed in 0u64..1000,
        nart in 0usize..4,
    ) {
        // Full store files (header + sections + footer) re-encode to
        // identical bytes after a decode, for any graph and artifact
        // payload mix — the invariant session saves and the regression
        // fixtures ride on. The decoded graph iterates its neighbors in
        // the same order: that order is part of determinism, and the
        // builder derives it from the edge list alone.
        let g = random_digraph(n, density * n, seed);
        let mut snap = rpaths_store::Snapshot::new(g.clone());
        for i in 0..nart {
            let body: Vec<u8> = (0..(seed as usize + 7 * i) % 40)
                .map(|j| (j as u8).wrapping_mul(31).wrapping_add(seed as u8))
                .collect();
            snap.artifacts.push(rpaths_store::Artifact {
                key: format!("blob/{i}"),
                body,
            });
        }
        let bytes = snap.encode();
        let loaded = rpaths_store::Snapshot::decode(&bytes).expect("decode");
        prop_assert!(loaded.dropped.is_empty(), "{:?}", loaded.dropped);
        let back = loaded.snapshot;
        prop_assert_eq!(back.encode(), bytes);
        prop_assert_eq!(back.artifacts.len(), nart);
        for v in 0..n {
            let a: Vec<usize> = g.undirected_neighbors(v).collect();
            let b: Vec<usize> = back.graph.undirected_neighbors(v).collect();
            prop_assert_eq!(a, b, "node {}", v);
        }
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
    let (stream, _) =
        broadcast(&mut net, &tree, items, |_| 16, |_| true, |_| true, "bc").expect("quiesces");
    assert_eq!(stream, (0..40).collect::<Vec<u64>>());
}

#[test]
fn empty_broadcast_is_cheap() {
    // Every non-root node reports its empty subtree in one message, the
    // deepest first, so the root learns that nothing is coming after
    // height + 1 rounds.
    let g = random_digraph(20, 30, 1);
    let mut net = Network::new(&g);
    let (tree, _) = build_bfs_tree(&mut net, 0).unwrap();
    let (stream, stats) = broadcast(
        &mut net,
        &tree,
        vec![vec![]; 20],
        |_: &u64| 8,
        |_| true,
        |_| true,
        "bc",
    )
    .expect("quiesces");
    assert!(stream.is_empty());
    assert_eq!((stats.rounds, stats.messages), (tree.height + 1, 19));
}

/// Broadcasts one item from every node of a random digraph on 30 nodes
/// but its first non-root leaf, which holds one if `leaf_holds_an_item`
/// and is cut off from its parent for the whole run: by a link that is
/// down if `link_down`, else by a parent that does not list it as a child
/// (as a dropped `Adopt` message can leave a BFS tree; the parent then
/// ignores the leaf's upcast). Returns the broadcast's budget and result.
fn broadcast_with_a_cut_off_leaf(
    link_down: bool,
    leaf_holds_an_item: bool,
) -> (u64, Result<(Vec<u64>, RunStats), EngineError>) {
    let n = 30;
    let g = random_digraph(n, 2 * n, 2);
    let mut net = Network::new(&g);
    let (mut tree, _) = build_bfs_tree(&mut net, 0).unwrap();
    let leaf = (1..n)
        .find(|&v| tree.child_ports[v].is_empty())
        .expect("a tree on 30 nodes has a non-root leaf");
    if link_down {
        let link = net.ports(leaf)[tree.parent_port[leaf].unwrap() as usize].link;
        net.set_fault_plan(Some(FaultPlan::new(1).fail_link(link, 0, None)))
            .unwrap();
    } else {
        let parent = tree.parent[leaf].unwrap();
        let ports = net.ports(parent);
        tree.child_ports[parent].retain(|&p| ports[p as usize].peer != leaf);
    }
    let mut items = numbered_items(n, 1);
    if !leaf_holds_an_item {
        items[leaf].clear();
    }
    let budget = 4 * (items.concat().len() as u64 + tree.height) + 16;
    let result = broadcast(&mut net, &tree, items, |_| 16, |_| true, |_| true, "bc");
    (budget, result)
}

#[test]
#[should_panic(expected = "broadcast quiesces")]
fn broadcast_past_a_cut_tree_link_never_returns() {
    // A leaf with no items of its own behind a link that is down: its
    // parent never hears that the leaf's subtree is done, and the leaf
    // never receives the kept items, so the run must not quiesce, and a
    // caller that expects the stream (as `knowledge::acquire` does) never
    // gets one.
    let (_, result) = broadcast_with_a_cut_off_leaf(true, false);
    result.expect("broadcast quiesces");
}

#[test]
fn broadcast_behind_a_cut_tree_link_ends_with_the_budget_error() {
    // With an item, the root never meets it; without one, the leaf never
    // receives the kept items. Either way the run must stop at its budget
    // with a typed error instead of waiting or panicking.
    for link_down in [true, false] {
        for leaf_holds_an_item in [true, false] {
            let (budget, result) = broadcast_with_a_cut_off_leaf(link_down, leaf_holds_an_item);
            let EngineError::RoundLimitExceeded {
                max_rounds, rounds, ..
            } = result.expect_err("the leaf is cut off");
            assert_eq!((max_rounds, rounds), (budget, budget));
        }
    }
}
