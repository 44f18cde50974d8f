//! Lemma 2.5: acquiring the per-vertex knowledge of `(P, s, t)`.
//!
//! The problem's *initial knowledge* is minimal (Section 2): each path
//! vertex knows only its incident path edges, `s` knows it is the source,
//! `t` knows it is the target. This module implements the paper's
//! `eO(√n + D)`-round algorithm that lets every `v_i ∈ P` learn its index
//! `i`, `|P[s, v_i]|`, and `|P[v_i, t]|`:
//!
//! 1. Sample each path vertex with probability `1/√n` (forcing `s` and
//!    `t`).
//! 2. Run *waves* along `P` from every sampled vertex in both directions;
//!    a wave accumulates hops and weight and is absorbed by the next
//!    sampled vertex. Takes `O(max gap)` rounds, which is `O(√n log n)`
//!    w.h.p. by a Chernoff bound.
//! 3. Every sampled vertex broadcasts its chain link (predecessor id, gap
//!    hops, gap weight); `s` and `t` announce themselves. `O(√n + D)`
//!    rounds by Lemma 2.4.
//! 4. Each path vertex locally reconstructs the sampled chain and splices
//!    in its own wave offsets.

use congest::bfs_tree::BfsTree;
use congest::broadcast::broadcast;
use congest::{word_bits, Network, NodeCtx, Protocol};
use graphkit::{Dist, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Instance, Params};

/// What every path vertex knows after Lemma 2.5.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathKnowledge {
    /// `index[i] = i` for each path position (trivially, but produced by
    /// the distributed computation and cross-checked in tests).
    pub index: Vec<usize>,
    /// `dist_s[i] = |P[s, v_i]|`.
    pub dist_s: Vec<Dist>,
    /// `dist_t[i] = |P[v_i, t]|`.
    pub dist_t: Vec<Dist>,
}

#[derive(Clone, Copy, Debug)]
struct Wave {
    origin: NodeId,
    hops: u64,
    weight: u64,
}

/// Wave state at one path vertex.
#[derive(Clone, Copy, Debug, Default)]
struct WaveState {
    from_left: Option<Wave>,
    from_right: Option<Wave>,
    /// Waves to forward in the next round.
    forward_right: Option<Wave>,
    forward_left: Option<Wave>,
}

/// The waves along `P`: every node consults the instance and the
/// sampled positions; its [`WaveState`] slot is meaningful only at path
/// vertices.
///
/// Waves are seeded in round 0 and then advance strictly on receipt
/// (forwarded the same round they arrive), so no step needs a wake.
struct WaveProtocol<'i> {
    inst: &'i Instance<'i>,
    sampled: &'i [bool],
}

impl Protocol for WaveProtocol<'_> {
    type Msg = Wave;
    type Node = WaveState;

    fn msg_bits(&self, m: &Wave) -> u64 {
        word_bits(m.origin as u64) + word_bits(m.hops) + word_bits(m.weight)
    }

    fn step_node(&self, node: &mut WaveState, ctx: &mut NodeCtx<'_, Wave>) {
        let v = ctx.node;
        let inst = self.inst;
        let Some(pos) = inst.path_index[v] else {
            return;
        };
        let h = inst.hops();
        // Identify this vertex's path ports by matching link ids.
        let left_link = (pos > 0).then(|| inst.path.edge(pos - 1));
        let right_link = (pos < h).then(|| inst.path.edge(pos));
        let port_for = |ctx: &NodeCtx<'_, Wave>, link: usize| -> u32 {
            ctx.ports()
                .iter()
                .position(|p| p.link == link)
                .expect("path edge must be incident") as u32
        };
        // Receive waves.
        for &(port, wave) in ctx.inbox() {
            let link = ctx.ports()[port as usize].link;
            let w_edge = ctx.ports()[port as usize].weight;
            let arrived = Wave {
                origin: wave.origin,
                hops: wave.hops + 1,
                weight: wave.weight + w_edge,
            };
            if Some(link) == left_link {
                node.from_left = Some(arrived);
                if !self.sampled[pos] {
                    node.forward_right = Some(arrived);
                }
            } else if Some(link) == right_link {
                node.from_right = Some(arrived);
                if !self.sampled[pos] {
                    node.forward_left = Some(arrived);
                }
            }
        }
        // Kick off waves from sampled vertices.
        if ctx.round == 0 && self.sampled[pos] {
            let seed = Wave {
                origin: v,
                hops: 0,
                weight: 0,
            };
            node.forward_right = Some(seed);
            node.forward_left = Some(seed);
        }
        // Forward pending waves.
        if let Some(wave) = node.forward_right.take() {
            if let Some(link) = right_link {
                ctx.send(port_for(ctx, link), wave);
            }
        }
        if let Some(wave) = node.forward_left.take() {
            if let Some(link) = left_link {
                ctx.send(port_for(ctx, link), wave);
            }
        }
    }
}

/// A broadcast item describing the sampled chain.
#[derive(Clone, Copy, Debug)]
enum ChainItem {
    /// "`s` is this node."
    Source(NodeId),
    /// "`t` is this node."
    Target(NodeId),
    /// "the previous sampled vertex is `from`, I am `to`, separated by
    /// `hops` hops of total weight `weight`."
    Link {
        from: NodeId,
        to: NodeId,
        hops: u64,
        weight: u64,
    },
}

fn chain_item_bits(item: &ChainItem) -> u64 {
    match item {
        ChainItem::Source(v) | ChainItem::Target(v) => 2 + word_bits(*v as u64),
        ChainItem::Link {
            from,
            to,
            hops,
            weight,
        } => {
            2 + word_bits(*from as u64)
                + word_bits(*to as u64)
                + word_bits(*hops)
                + word_bits(*weight)
        }
    }
}

/// Runs Lemma 2.5 and returns what every path vertex learned.
///
/// The result is produced *by the distributed protocol*; callers (and
/// tests) can compare it against [`Instance::prefix`] / suffix to confirm
/// the protocol is right. Rounds are charged to `net`.
pub fn acquire(
    net: &mut Network<'_>,
    inst: &Instance<'_>,
    params: &Params,
    tree: &BfsTree,
) -> PathKnowledge {
    let n = inst.n();
    let h = inst.hops();
    let mut rng = StdRng::seed_from_u64(params.seed ^ 0x00fe_ed25);
    let p_sample = 1.0 / (n as f64).sqrt();
    let mut sampled = vec![false; h + 1];
    sampled[0] = true;
    sampled[h] = true;
    for s in sampled.iter_mut().take(h).skip(1) {
        *s = rng.gen_bool(p_sample);
    }
    // Phase 1: waves along P.
    let mut nodes = vec![WaveState::default(); n];
    let proto = WaveProtocol {
        inst,
        sampled: &sampled,
    };
    let budget = 4 * (h as u64 + 4) * params.budget_factor;
    net.run_until_quiet("lemma2.5/waves", &proto, &mut nodes, budget)
        .expect("waves terminate within the path length");
    // Per path position: the wave state of the vertex at that position.
    let state: Vec<WaveState> = (0..=h).map(|pos| nodes[inst.path.node(pos)]).collect();

    // Phase 2: sampled vertices publish their chain links.
    let mut items: Vec<Vec<ChainItem>> = vec![Vec::new(); n];
    for pos in 0..=h {
        if !sampled[pos] {
            continue;
        }
        let v = inst.path.node(pos);
        if pos == 0 {
            items[v].push(ChainItem::Source(v));
        }
        if pos == h {
            items[v].push(ChainItem::Target(v));
        }
        if pos > 0 {
            let wave = state[pos]
                .from_left
                .expect("sampled vertex absorbed the left wave");
            items[v].push(ChainItem::Link {
                from: wave.origin,
                to: v,
                hops: wave.hops,
                weight: wave.weight,
            });
        }
    }
    let (stream, _) = broadcast(net, tree, items, chain_item_bits, "lemma2.5/broadcast");

    // Phase 3: local reconstruction at each path vertex. All vertices
    // received the same items; reconstruct once and read off per-vertex
    // values (each step uses only information local to that vertex).
    let mut source = None;
    let mut next_link = std::collections::HashMap::new();
    for item in stream {
        match item {
            ChainItem::Source(v) => source = Some(v),
            ChainItem::Target(_) => {}
            ChainItem::Link {
                from,
                to,
                hops,
                weight,
            } => {
                next_link.insert(from, (to, hops, weight));
            }
        }
    }
    let source = source.expect("source announced itself");
    // Walk the chain, assigning cumulative index/weight to sampled nodes.
    let mut chain_pos = std::collections::HashMap::new();
    let mut cur = source;
    let (mut ch, mut cw) = (0u64, 0u64);
    chain_pos.insert(cur, (ch, cw));
    while let Some(&(to, hops, weight)) = next_link.get(&cur) {
        ch += hops;
        cw += weight;
        chain_pos.insert(to, (ch, cw));
        cur = to;
    }
    let total_hops = ch;
    let total_weight = cw;
    assert_eq!(total_hops as usize, h, "chain must span the whole path");

    let mut index = vec![0usize; h + 1];
    let mut dist_s = vec![Dist::ZERO; h + 1];
    let mut dist_t = vec![Dist::ZERO; h + 1];
    for pos in 0..=h {
        let v = inst.path.node(pos);
        let (i, w) = if sampled[pos] {
            *chain_pos.get(&v).expect("sampled vertex on chain")
        } else {
            let wave = state[pos]
                .from_left
                .expect("every path vertex is reached by a left wave");
            let &(oi, ow) = chain_pos
                .get(&wave.origin)
                .expect("wave origin is a sampled chain vertex");
            (oi + wave.hops, ow + wave.weight)
        };
        index[pos] = i as usize;
        dist_s[pos] = Dist::new(w);
        dist_t[pos] = Dist::new(total_weight - w);
    }
    PathKnowledge {
        index,
        dist_s,
        dist_t,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest::bfs_tree::build_bfs_tree;
    use graphkit::alg::shortest_st_path;
    use graphkit::gen::{parallel_lane, planted_path_digraph, random_weighted_digraph};

    fn check(inst: &Instance<'_>, params: &Params) {
        let mut net = Network::new(inst.graph);
        let (tree, _) = build_bfs_tree(&mut net, inst.s()).unwrap();
        let know = acquire(&mut net, inst, params, &tree);
        let h = inst.hops();
        assert_eq!(know.index, (0..=h).collect::<Vec<_>>());
        assert_eq!(know.dist_s, inst.prefix);
        assert_eq!(know.dist_t, inst.suffix);
    }

    #[test]
    fn unweighted_knowledge_matches_instance() {
        let (g, s, t) = planted_path_digraph(80, 25, 150, 7);
        let inst = Instance::from_endpoints(&g, s, t).unwrap();
        check(&inst, &Params::for_instance(&inst));
    }

    #[test]
    fn weighted_knowledge_matches_instance() {
        let g = random_weighted_digraph(60, 150, 20, 3);
        let (s, t) = graphkit::gen::random_reachable_pair(&g, 5).unwrap();
        let p = shortest_st_path(&g, s, t).unwrap();
        if p.hops() < 2 {
            return; // trivial path; nothing to exercise
        }
        let inst = Instance::new(&g, p).unwrap();
        check(&inst, &Params::for_instance(&inst));
    }

    #[test]
    fn long_path_with_sparse_sampling() {
        let (g, s, t) = parallel_lane(60, 10, 1);
        let inst = Instance::from_endpoints(&g, s, t).unwrap();
        check(&inst, &Params::for_instance(&inst).with_seed(99));
    }

    #[test]
    fn rounds_scale_with_gap_plus_broadcast() {
        let (g, s, t) = parallel_lane(40, 5, 1);
        let inst = Instance::from_endpoints(&g, s, t).unwrap();
        let params = Params::for_instance(&inst);
        let mut net = Network::new(inst.graph);
        let (tree, _) = build_bfs_tree(&mut net, inst.s()).unwrap();
        let _ = acquire(&mut net, &inst, &params, &tree);
        let rounds = net.metrics().rounds();
        // Wave phase <= h, broadcast <= O(#sampled + D); very loose cap.
        assert!(rounds <= 4 * (40 + 40 + inst.diameter as u64) + 64);
    }
}
