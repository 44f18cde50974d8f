//! Lemma 5.5: `k`-source `h`-hop BFS in `O(k + h)` rounds.
//!
//! Each node learns its hop distance (up to `h`) from every source. The
//! implementation pipelines announcements with a smallest-distance-first
//! priority per link, the standard schedule behind the `O(k + h)` bound
//! of Lenzen–Patt-Shamir–Peleg.
//!
//! Two extensions used elsewhere in the workspace:
//!
//! - **Direction**: BFS can follow edges forwards or backwards (the paper
//!   runs BFS in the reverse graph in Lemmas 4.2 and 5.6).
//! - **Per-edge hop delays**: an edge with delay `w` behaves like a path
//!   of `w` unit edges. This realizes the Section 7 rounding graphs `G_d`
//!   *on the real network*: traversing the subdivided edge costs `w`
//!   rounds, which the receiving node models by holding the announcement
//!   for `w - 1` extra rounds before acting on it. Capacity matches the
//!   subdivided path: one announcement may enter the edge per round.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use graphkit::{Dist, EdgeId, NodeId};

use crate::network::{word_bits, Network, NodeCtx, Protocol};
use crate::{Port, RunStats};

/// Configuration for a multi-source hop-bounded BFS.
///
/// Borrows its source list and delay table so constructing a
/// configuration allocates nothing — callers that sweep over scales or
/// path edges reuse one sources slice across every run.
pub struct MultiBfsConfig<'a> {
    /// The BFS sources; distances are reported per source index.
    pub sources: &'a [NodeId],
    /// Maximum (delayed-)hop distance to explore; larger distances stay
    /// infinite.
    pub max_dist: u64,
    /// `false`: announcements travel along edge direction (distances
    /// *from* the sources). `true`: they travel against it (distances
    /// *to* the sources).
    pub reverse: bool,
    /// Optional per-edge hop delays (the `⌈w(e)/µ⌉` of Section 7). `None`
    /// means every edge has delay 1. A delay of 0 disables the edge.
    pub delays: Option<&'a [u64]>,
}

/// Wire format: both fields are u32 so an announcement is 8 bytes, not
/// 16 — halving staging/arena traffic on the hot path. Hop distances
/// are bounded by `max_dist` (asserted `< u32::MAX` at entry) and
/// source indices by `k <= n`, so the narrowing is lossless and the
/// declared [`word_bits`] sizes are unchanged.
#[derive(Clone, Copy, Debug)]
struct Announce {
    src: u32,
    /// Sender's distance at send time; receiver adds the edge delay.
    dist: u32,
}

/// One node's BFS state.
struct MbfsNode {
    /// `best[src]`; `u32::MAX` is the "unreached" sentinel (real
    /// distances are capped at `max_dist < u32::MAX`).
    best: Vec<u32>,
    /// Per port: announcements waiting for this link, smallest distance
    /// first. Entries are (dist_at_sender, src).
    queues: Vec<BinaryHeap<Reverse<(u32, u32)>>>,
    /// Announcements received over a delayed edge, held until the round
    /// at which the subdivided path would deliver them:
    /// (release_round, src, dist_at_receiver).
    held: Vec<(u64, u32, u32)>,
    /// Queued announcements across all port queues (the node's
    /// activation signal and quiescence witness).
    pending: u64,
}

/// The BFS of one configuration over the edges `enabled` admits.
struct MultiBfsProtocol<'c, F> {
    cfg: &'c MultiBfsConfig<'c>,
    enabled: F,
}

fn delay_of(cfg: &MultiBfsConfig<'_>, e: EdgeId) -> u64 {
    match cfg.delays {
        Some(d) => d[e],
        None => 1,
    }
}

impl<F: Fn(EdgeId) -> bool> MultiBfsProtocol<'_, F> {
    /// Try to improve `node.best[src]` to `dist`; on success enqueue
    /// announcements on every sending port.
    fn relax(&self, node: &mut MbfsNode, src: u32, dist: u32, ports: &[Port]) {
        let cfg = self.cfg;
        if dist as u64 > cfg.max_dist || dist >= node.best[src as usize] {
            return;
        }
        node.best[src as usize] = dist;
        for (pi, port) in ports.iter().enumerate() {
            let sends_here = if cfg.reverse {
                !port.outgoing
            } else {
                port.outgoing
            };
            if !sends_here || !(self.enabled)(port.link) {
                continue;
            }
            let w = delay_of(cfg, port.link);
            if w == 0 || dist as u64 + w > cfg.max_dist {
                continue;
            }
            node.queues[pi].push(Reverse((dist, src)));
            node.pending += 1;
        }
    }
}

impl<F: Fn(EdgeId) -> bool> Protocol for MultiBfsProtocol<'_, F> {
    type Msg = Announce;
    type Node = MbfsNode;

    fn msg_bits(&self, msg: &Announce) -> u64 {
        word_bits(msg.src as u64) + word_bits(msg.dist as u64)
    }

    fn step_node(&self, node: &mut MbfsNode, ctx: &mut NodeCtx<'_, Announce>) {
        let v = ctx.node;
        let ports = ctx.ports();
        // Initial relaxations.
        if ctx.round == 0 {
            for (i, &s) in self.cfg.sources.iter().enumerate() {
                if s == v {
                    self.relax(node, i as u32, 0, ports);
                }
            }
        }
        // Receive: apply unit-delay announcements now, hold delayed ones.
        for &(port_idx, ann) in ctx.inbox() {
            let port = ports[port_idx as usize];
            let w = delay_of(self.cfg, port.link);
            debug_assert!(w >= 1, "received over a disabled edge");
            // The sender only forwards when dist + w <= max_dist, so
            // the sum fits u32 (max_dist < u32::MAX is asserted).
            let arrived = (ann.dist as u64 + w) as u32;
            if w == 1 {
                self.relax(node, ann.src, arrived, ports);
            } else {
                // Engine already charged 1 round; the rest of the
                // subdivided path costs w - 1 more.
                node.held.push((ctx.round + (w - 1), ann.src, arrived));
            }
        }
        // Release matured held announcements.
        let mut matured = Vec::new();
        node.held.retain(|&(release, src, dist)| {
            if release <= ctx.round {
                matured.push((src, dist));
                false
            } else {
                true
            }
        });
        for (src, dist) in matured {
            self.relax(node, src, dist, ports);
        }
        // Send: one announcement per port, smallest distance first,
        // skipping entries superseded by a later improvement.
        for pi in 0..ports.len() {
            while let Some(Reverse((dist, src))) = node.queues[pi].pop() {
                node.pending -= 1;
                if dist > node.best[src as usize] {
                    continue; // superseded
                }
                ctx.send(pi as u32, Announce { src, dist });
                break;
            }
        }
        // Queued announcements and held (delayed) arrivals are
        // self-driven work: re-arm until both drain.
        if node.pending > 0 || !node.held.is_empty() {
            ctx.wake();
        }
    }

    fn idle(&self, nodes: &[MbfsNode]) -> bool {
        nodes.iter().all(|nd| nd.pending == 0 && nd.held.is_empty())
    }
}

/// Runs a multi-source hop-bounded BFS; returns `dist[src_idx][node]`.
///
/// `enabled` filters edges (e.g. `G \ P`). The round budget should be
/// comfortably above the theoretical `O(k + h)`; the returned stats tell
/// you what was actually used.
///
/// # Errors
///
/// Returns the engine error when the protocol fails to quiesce within
/// `max_rounds`.
pub fn multi_source_bfs(
    net: &mut Network<'_>,
    cfg: &MultiBfsConfig<'_>,
    enabled: impl Fn(EdgeId) -> bool,
    phase: &str,
    max_rounds: u64,
) -> Result<(Vec<Vec<Dist>>, RunStats), crate::EngineError> {
    let n = net.node_count();
    let k = cfg.sources.len();
    assert!(
        cfg.max_dist < u32::MAX as u64,
        "max_dist {} does not fit the u32 hop-distance encoding",
        cfg.max_dist
    );
    // Each port queue holds at most one live announcement per source and
    // each held list at most one delayed arrival per source, so `k` is
    // the natural pre-reservation for both.
    let mut nodes: Vec<MbfsNode> = (0..n)
        .map(|v| MbfsNode {
            best: vec![u32::MAX; k],
            queues: (0..net.ports(v).len())
                .map(|_| BinaryHeap::with_capacity(k))
                .collect(),
            held: Vec::with_capacity(k),
            pending: 0,
        })
        .collect();
    let proto = MultiBfsProtocol { cfg, enabled };
    let stats = net.run_until_quiet(phase, &proto, &mut nodes, max_rounds)?;
    let mut out = vec![vec![Dist::INF; n]; k];
    for (v, node) in nodes.iter().enumerate() {
        for s in 0..k {
            if node.best[s] != u32::MAX {
                out[s][v] = Dist::new(node.best[s] as u64);
            }
        }
    }
    Ok((out, stats))
}

/// A generous default round budget for [`multi_source_bfs`]:
/// `4(k + h) + 64` rounds, several times the theoretical bound.
pub fn default_budget(k: usize, max_dist: u64) -> u64 {
    4 * (k as u64 + max_dist) + 64
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::alg::{bfs, bfs_hop_bounded};
    use graphkit::gen::random_digraph;
    use graphkit::GraphBuilder;

    fn check_against_oracle(n: usize, m: usize, seed: u64, k: usize, h: u64) {
        let g = random_digraph(n, m, seed);
        let sources: Vec<NodeId> = (0..k).map(|i| (i * 7) % n).collect();
        let cfg = MultiBfsConfig {
            sources: &sources,
            max_dist: h,
            reverse: false,
            delays: None,
        };
        let mut net = Network::new(&g);
        let (dist, stats) =
            multi_source_bfs(&mut net, &cfg, |_| true, "mbfs", default_budget(k, h)).unwrap();
        for (i, &s) in sources.iter().enumerate() {
            let oracle = bfs_hop_bounded(&g, &[s], h as usize, |_| true);
            assert_eq!(dist[i], oracle, "source {s}");
        }
        assert!(
            stats.rounds <= k as u64 + h + 8,
            "rounds {} above k + h = {}",
            stats.rounds,
            k as u64 + h
        );
    }

    #[test]
    fn matches_oracle_small() {
        check_against_oracle(30, 60, 1, 4, 10);
    }

    #[test]
    fn matches_oracle_many_sources() {
        check_against_oracle(50, 150, 2, 12, 50);
    }

    #[test]
    fn reverse_direction() {
        let g = random_digraph(40, 100, 3);
        let cfg = MultiBfsConfig {
            sources: &[5, 17],
            max_dist: 40,
            reverse: true,
            delays: None,
        };
        let mut net = Network::new(&g);
        let (dist, _) =
            multi_source_bfs(&mut net, &cfg, |_| true, "mbfs", default_budget(2, 40)).unwrap();
        let rev = g.reversed();
        for (i, &s) in [5usize, 17].iter().enumerate() {
            assert_eq!(dist[i], bfs(&rev, s, |_| true), "source {s}");
        }
    }

    #[test]
    fn edge_filter_respected() {
        let mut b = GraphBuilder::new(3);
        b.add_arc(0, 1); // edge 0 (disabled below)
        b.add_arc(0, 2);
        b.add_arc(2, 1);
        let g = b.build();
        let cfg = MultiBfsConfig {
            sources: &[0],
            max_dist: 10,
            reverse: false,
            delays: None,
        };
        let mut net = Network::new(&g);
        let (dist, _) = multi_source_bfs(&mut net, &cfg, |e| e != 0, "mbfs", 100).unwrap();
        assert_eq!(dist[0][1], Dist::new(2)); // via 2
    }

    #[test]
    fn hop_cap_enforced() {
        let g = random_digraph(40, 80, 4);
        let cfg = MultiBfsConfig {
            sources: &[0],
            max_dist: 2,
            reverse: false,
            delays: None,
        };
        let mut net = Network::new(&g);
        let (dist, _) = multi_source_bfs(&mut net, &cfg, |_| true, "mbfs", 100).unwrap();
        let oracle = bfs_hop_bounded(&g, &[0], 2, |_| true);
        assert_eq!(dist[0], oracle);
    }

    #[test]
    fn delays_act_as_subdivided_edges() {
        // 0 -> 1 with delay 5, 0 -> 2 -> 1 with unit delays.
        let mut b = GraphBuilder::new(3);
        b.add_arc(0, 1);
        b.add_arc(0, 2);
        b.add_arc(2, 1);
        let g = b.build();
        let cfg = MultiBfsConfig {
            sources: &[0],
            max_dist: 10,
            reverse: false,
            delays: Some(&[5, 1, 1]),
        };
        let mut net = Network::new(&g);
        let (dist, stats) = multi_source_bfs(&mut net, &cfg, |_| true, "mbfs", 100).unwrap();
        assert_eq!(dist[0][1], Dist::new(2)); // the 2-hop route beats delay 5
        assert_eq!(dist[0][2], Dist::new(1));
        // Delayed announcement still takes real rounds: at least 3.
        assert!(stats.rounds >= 3);
    }

    #[test]
    fn delay_zero_disables_edge() {
        let mut b = GraphBuilder::new(2);
        b.add_arc(0, 1);
        let g = b.build();
        let cfg = MultiBfsConfig {
            sources: &[0],
            max_dist: 10,
            reverse: false,
            delays: Some(&[0]),
        };
        let mut net = Network::new(&g);
        let (dist, _) = multi_source_bfs(&mut net, &cfg, |_| true, "mbfs", 100).unwrap();
        assert_eq!(dist[0][1], Dist::INF);
    }

    #[test]
    fn delayed_distance_semantics_match_weights() {
        // Weighted shortest path semantics under rounding with µ = 1:
        // delays equal weights, so BFS distance equals weighted distance.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 3);
        b.add_edge(1, 3, 4);
        b.add_edge(0, 2, 2);
        b.add_edge(2, 3, 9);
        let g = b.build();
        let delays: Vec<u64> = g.edges().map(|(_, e)| e.weight).collect();
        let cfg = MultiBfsConfig {
            sources: &[0],
            max_dist: 20,
            reverse: false,
            delays: Some(&delays),
        };
        let mut net = Network::new(&g);
        let (dist, _) = multi_source_bfs(&mut net, &cfg, |_| true, "mbfs", 200).unwrap();
        assert_eq!(dist[0][3], Dist::new(7));
        assert_eq!(dist[0][2], Dist::new(2));
    }
}
