//! Ablations for the two design choices the paper's Section 3.1
//! highlights as the source of the improvement over MR24:
//!
//! - **X2 / furthest-origin trimming (Section 4):** the ζ-hop BFS from all
//!   path vertices propagates only the strongest origin per node per
//!   round, making its cost `O(ζ)` independent of `h_st`; the untrimmed
//!   multi-source BFS (MR24's short-detour stage) costs `O(h_st + ζ)`.
//! - **X1 / landmark-only broadcast (Section 5):** our long-detour stage
//!   broadcasts `O(|L|² + ℓ·|L|)` messages (ℓ = number of segments);
//!   MR24 additionally broadcasts every path vertex's landmark distances,
//!   `O(|L|·h_st)` more messages — the `√(n·h_st)` term's origin. Our
//!   landmark pairs travel up the BFS tree shortest first, and only the
//!   pairs the closure needs come back down.
//!
//! X3 counts, on the X1 cases, the landmark pairs Lemma 5.4's literal
//! broadcast would send (every finite ζ-hop pair) against the pairs the
//! closure needs (`undominated_pairs`), both counted centrally, next to
//! the messages our landmark-pair phase sent and `R`, the non-root tree
//! nodes above a path vertex, which every kept pair reaches.

use congest::bfs_tree::{build_bfs_tree, BfsTree};
use congest::multi_bfs::{default_budget, multi_source_bfs, MultiBfsConfig};
use congest::Network;
use graphkit::alg::bfs_hop_bounded;
use graphkit::Dist;
use rpaths_bench::{args_or_exit, bench_params, lane_case, quick_flag, random_case};
use rpaths_core::long::dists::undominated_pairs;
use rpaths_core::long::landmarks;
use rpaths_core::short::hop_bfs::{hop_constrained_bfs, HopBfsConfig, Objective};
use rpaths_core::{baseline, unweighted, Instance};

fn main() {
    let quick = args_or_exit("ablations [--quick]", quick_flag);
    let hs: &[usize] = if quick {
        &[64, 128]
    } else {
        &[64, 128, 256, 512]
    };

    println!("== X2: furthest-origin trimming vs untrimmed multi-source BFS ==");
    println!(
        "{:>6} {:>6} {:>6} | {:>14} {:>14} | {:>14} {:>14}",
        "h_st", "n", "zeta", "trim rounds", "trim msgs", "plain rounds", "plain msgs"
    );
    for &h in hs {
        // Dense random instances: many BFS waves overlap, so the
        // congestion profile of the untrimmed variant is visible.
        let case = random_case(4 * h, h, 7 + h as u64);
        let n = case.graph.node_count();
        let inst = Instance::from_endpoints(&case.graph, case.s, case.t).expect("valid");
        let zeta = 32usize;
        // Trimmed (the paper's Lemma 4.2).
        let aux: Vec<u64> = (0..=inst.hops())
            .map(|j| inst.suffix[j].finite().unwrap())
            .collect();
        let cfg = HopBfsConfig {
            zeta,
            objective: Objective::MaxIndex,
            delays: None,
            aux: &aux,
        };
        let mut net = Network::new(&case.graph);
        let _ = hop_constrained_bfs(&mut net, &inst, &cfg, "trim");
        let trim = net.metrics().total;
        // Untrimmed: per-source announcements (MR24's congestion profile).
        let mut net = Network::new(&case.graph);
        let bcfg = MultiBfsConfig {
            sources: inst.path.nodes(),
            max_dist: zeta as u64,
            reverse: true,
            delays: None,
        };
        let _ = multi_source_bfs(
            &mut net,
            &bcfg,
            |e| inst.in_g_minus_p(e),
            "plain",
            default_budget(inst.hops() + 1, zeta as u64) * 2,
        )
        .expect("quiesces");
        let plain = net.metrics().total;
        println!(
            "{:>6} {:>6} {:>6} | {:>14} {:>14} | {:>14} {:>14}",
            h, n, zeta, trim.rounds, trim.messages, plain.rounds, plain.messages
        );
        assert!(trim.rounds <= zeta as u64 + 2, "trimmed BFS must cost O(ζ)");
    }

    println!();
    println!("== X1: broadcast volume, landmark-only (ours) vs fat (MR24) ==");
    println!(
        "{:>6} {:>6} | {:>16} {:>16} | {:>16} {:>16}",
        "h_st", "n", "ours bc rounds", "ours bc msgs", "mr24 bc rounds", "mr24 bc msgs"
    );
    let mut pair_rows = Vec::new();
    for &h in hs {
        let case = lane_case(h, 8, 3);
        let n = case.graph.node_count();
        let inst = Instance::from_endpoints(&case.graph, case.s, case.t).expect("valid");
        let params = bench_params(n, 13);
        let ours = unweighted::solve(&inst, &params)
            .expect("connected")
            .metrics;
        let mr = baseline::mr24::solve(&inst, &params)
            .expect("connected")
            .metrics;
        let ours_bc = ours.phase_total("broadcast");
        let mr_bc = mr.phase_total("fat-broadcast");
        println!(
            "{:>6} {:>6} | {:>16} {:>16} | {:>16} {:>16}",
            h, n, ours_bc.rounds, ours_bc.messages, mr_bc.rounds, mr_bc.messages
        );

        let lms = landmarks::sample(&inst, &params);
        let pairs: Vec<Vec<Dist>> = lms
            .iter()
            .map(|&l| {
                let d = bfs_hop_bounded(&case.graph, &[l], params.zeta, |e| inst.in_g_minus_p(e));
                lms.iter().map(|&m| d[m]).collect()
            })
            .collect();
        let literal = pairs.iter().flatten().filter(|d| d.is_finite()).count() as u64;
        let kept = undominated_pairs(&pairs).len() as u64;
        let sent = ours.phase_total("long/broadcast-landmark-pairs").messages;
        assert!(
            kept < literal,
            "the closure needs fewer pairs than Lemma 5.4 sends"
        );
        // Over the solve's BFS tree rooted at s, landmark l_k sends its
        // finite off-diagonal pairs (j, k) up to the root, every kept pair
        // crosses the link above each of the R non-root nodes whose subtree
        // holds a path vertex, and each of the E non-root nodes whose
        // subtree holds no pair reports so in one message.
        let (tree, _) =
            build_bfs_tree(&mut Network::new(&case.graph), inst.s()).expect("connected");
        let mut items = vec![0; n];
        for (k, &l) in lms.iter().enumerate() {
            items[l] = (0..lms.len())
                .filter(|&j| j != k && pairs[j][k].is_finite())
                .count();
        }
        let mut readers = vec![0; n];
        for &v in inst.path.nodes() {
            readers[v] = 1;
        }
        let upcast: u64 = (0..n).map(|v| tree.depth[v] * items[v] as u64).sum();
        let reached = subtrees_holding(&tree, &readers, true);
        let empty = subtrees_holding(&tree, &items, false);
        assert_eq!(
            sent,
            upcast + kept * reached + empty,
            "{sent} landmark-pair messages for {kept} kept of {literal} pairs and R = {reached}"
        );
        pair_rows.push((h, n, lms.len(), literal, kept, reached, sent));
    }

    println!();
    println!("== X3: landmark pairs, Lemma 5.4's literal broadcast vs the pairs kept ==");
    println!(
        "{:>6} {:>6} {:>6} | {:>14} {:>14} {:>6} | {:>14}",
        "h_st", "n", "|L|", "literal pairs", "kept pairs", "R", "ours msgs"
    );
    for (h, n, k, literal, kept, reached, sent) in pair_rows {
        println!("{h:>6} {n:>6} {k:>6} | {literal:>14} {kept:>14} {reached:>6} | {sent:>14}");
    }
    println!("\nablation checks passed");
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
