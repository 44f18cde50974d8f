//! Lemma 4.2: hop-constrained BFS with furthest-origin trimming.
//!
//! Every path vertex starts a BFS in `G \ P`; to avoid congestion, in
//! each round every node forwards only the strongest origin it heard in
//! the previous round ("strongest" = furthest along `P` for the paper's
//! backward BFS; the mirrored variant used by Section 7 keeps the
//! *earliest* origin instead). After `d` rounds a node's current value is
//! exactly
//!
//! ```text
//! f*_u(d) = max { j : a path u → v_j of length exactly d avoiding P }
//! ```
//!
//! (resp. `min { k : a path v_k → u ... }` for the mirrored variant).
//!
//! Messages carry the origin's index plus an auxiliary word (the origin's
//! distance to `t`, resp. from `s`) so the weighted algorithm can
//! reconstruct candidate lengths; in unweighted graphs the auxiliary word
//! is redundant but harmless.
//!
//! With per-edge *delays* the BFS runs on the rounding graph `G_d` of
//! Section 7: an edge of delay `w` behaves like `w` unit hops, which the
//! receiver models by holding the message `w - 1` extra rounds.

use congest::{word_bits, Network, NodeCtx, Protocol};
use graphkit::EdgeId;

use crate::Instance;

/// Which endpoint of a detour the BFS locates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Objective {
    /// Backward BFS (messages travel against edge direction): node `u`
    /// learns the largest `j` with a `u → v_j` path of length exactly
    /// `d` in `G \ P`. This is the paper's Lemma 4.2.
    MaxIndex,
    /// Forward BFS (messages travel along edge direction): node `u`
    /// learns the smallest `k` with a `v_k → u` path of length exactly
    /// `d` in `G \ P`. The mirror image, used for detour *starts*
    /// (Section 7).
    MinIndex,
}

/// Configuration for [`hop_constrained_bfs`].
pub struct HopBfsConfig<'a> {
    /// Number of BFS levels ζ (in delay units).
    pub zeta: usize,
    /// Which index to propagate.
    pub objective: Objective,
    /// Optional per-edge delays (`G_d` rounding); `0` disables an edge.
    pub delays: Option<&'a [u64]>,
    /// Per path position: the auxiliary word attached to that origin's
    /// announcements (distance to `t` for [`Objective::MaxIndex`], from
    /// `s` for [`Objective::MinIndex`]).
    pub aux: &'a [u64],
}

/// The tables `f*`: `table[pos][d] = Some((index, aux))` gives the
/// strongest path-vertex index whose BFS reaches `v_pos` in exactly `d`
/// (delayed) hops, together with that origin's auxiliary word.
#[derive(Clone, Debug)]
pub struct FStar {
    /// Indexed `[path position][level d]`, `d = 0..=ζ`.
    pub table: Vec<Vec<Option<(usize, u64)>>>,
}

#[derive(Clone, Copy, Debug)]
struct Token {
    idx: u32,
    aux: u64,
}

/// One node's BFS state.
struct HopNode {
    /// The value computed this round: f*_u(round).
    cur: Option<Token>,
    /// Best candidate gathered for the *current* round.
    gather: Option<Token>,
    /// Delayed candidates: (release_round, token).
    held: Vec<(u64, Token)>,
    /// Per level `d`: the f* record. Allocated only at path vertices;
    /// the tables are assembled from these after the run.
    record: Vec<Option<(usize, u64)>>,
}

/// The ζ-level BFS of one configuration from every path vertex.
struct HopBfsProtocol<'a, 'i> {
    inst: &'i Instance<'i>,
    cfg: &'a HopBfsConfig<'a>,
}

fn delay_of(cfg: &HopBfsConfig<'_>, e: EdgeId) -> u64 {
    match cfg.delays {
        Some(d) => d[e],
        None => 1,
    }
}

fn stronger(objective: Objective, a: Token, b: Option<Token>) -> bool {
    match b {
        None => true,
        Some(b) => match objective {
            Objective::MaxIndex => a.idx > b.idx,
            Objective::MinIndex => a.idx < b.idx,
        },
    }
}

fn offer(objective: Objective, node: &mut HopNode, t: Token) {
    if stronger(objective, t, node.gather) {
        node.gather = Some(t);
    }
}

impl Protocol for HopBfsProtocol<'_, '_> {
    type Msg = Token;
    type Node = HopNode;

    fn msg_bits(&self, m: &Token) -> u64 {
        word_bits(m.idx as u64) + word_bits(m.aux)
    }

    fn step_node(&self, node: &mut HopNode, ctx: &mut NodeCtx<'_, Token>) {
        step(self, node, ctx);
        // Held (delayed-edge) candidates mature on round numbers, not on
        // receipt: stay armed until they are all released.
        if !node.held.is_empty() {
            ctx.wake();
        }
    }
}

fn step(proto: &HopBfsProtocol<'_, '_>, node: &mut HopNode, ctx: &mut NodeCtx<'_, Token>) {
    let v = ctx.node;
    let round = ctx.round;
    let cfg = proto.cfg;
    let inst = proto.inst;
    if round > cfg.zeta as u64 {
        return;
    }
    node.gather = None;
    if round == 0 {
        // Base: S_0(v_i) = {i}.
        if let Some(pos) = inst.path_index[v] {
            offer(
                cfg.objective,
                node,
                Token {
                    idx: pos as u32,
                    aux: cfg.aux[pos],
                },
            );
        }
    } else {
        let ports = ctx.ports();
        for &(port_idx, tok) in ctx.inbox() {
            let port = ports[port_idx as usize];
            let w = delay_of(cfg, port.link);
            debug_assert!(w >= 1);
            if w == 1 {
                offer(cfg.objective, node, tok);
            } else {
                node.held.push((round + (w - 1), tok));
            }
        }
        let mut held = std::mem::take(&mut node.held);
        held.retain(|&(release, tok)| {
            let matured = release <= round;
            if matured {
                offer(cfg.objective, node, tok);
            }
            !matured
        });
        node.held = held;
    }
    node.cur = node.gather;
    if let (Some(_), Some(tok)) = (inst.path_index[v], node.cur) {
        node.record[round as usize] = Some((tok.idx as usize, tok.aux));
    }
    // Propagate the strongest origin.
    if let Some(tok) = node.cur {
        if round == cfg.zeta as u64 {
            return; // final level recorded; nothing further to send
        }
        for (pi, port) in ctx.ports().iter().enumerate() {
            // Exclude edges of P entirely (Lemma 4.2: the BFS lives in
            // G \ P) and respect travel direction.
            if inst.is_path_edge[port.link] {
                continue;
            }
            let sends_here = match cfg.objective {
                Objective::MaxIndex => !port.outgoing, // towards in-neighbors
                Objective::MinIndex => port.outgoing,  // towards out-neighbors
            };
            if !sends_here {
                continue;
            }
            let w = delay_of(cfg, port.link);
            if w == 0 || round + w > cfg.zeta as u64 {
                continue;
            }
            ctx.send(pi as u32, tok);
        }
    }
}

/// Runs Lemma 4.2 (or its mirror) and returns the `f*` tables for all
/// path vertices. Deterministic; charges exactly `ζ + 1` rounds.
pub fn hop_constrained_bfs(
    net: &mut Network<'_>,
    inst: &Instance<'_>,
    cfg: &HopBfsConfig<'_>,
    phase: &str,
) -> FStar {
    let n = inst.n();
    assert_eq!(
        cfg.aux.len(),
        inst.hops() + 1,
        "one aux word per path vertex"
    );
    if let Some(d) = cfg.delays {
        assert_eq!(d.len(), inst.graph.edge_count());
    }
    let mut nodes: Vec<HopNode> = (0..n)
        .map(|v| HopNode {
            cur: None,
            gather: None,
            held: Vec::new(),
            record: if inst.path_index[v].is_some() {
                vec![None; cfg.zeta + 1]
            } else {
                Vec::new()
            },
        })
        .collect();
    let proto = HopBfsProtocol { inst, cfg };
    net.run_rounds(phase, &proto, &mut nodes, cfg.zeta as u64 + 1);
    // Assemble the per-position tables from the path vertices' records.
    let mut table = vec![vec![None; cfg.zeta + 1]; inst.hops() + 1];
    for (v, node) in nodes.into_iter().enumerate() {
        if let Some(pos) = inst.path_index[v] {
            table[pos] = node.record;
        }
    }
    FStar { table }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Instance;
    use graphkit::gen::{parallel_lane, planted_path_digraph};
    use graphkit::{DiGraph, GraphBuilder};

    /// Centralized reference for f* with the MaxIndex objective:
    /// dynamic programming over walk lengths in G \ P.
    fn reference_fstar(inst: &Instance<'_>, zeta: usize) -> Vec<Vec<Option<usize>>> {
        let g = inst.graph;
        let n = g.node_count();
        // best[d][u] = max j with a u -> v_j walk of length exactly d.
        let mut best = vec![vec![None::<usize>; n]; zeta + 1];
        for (pos, &v) in inst.path.nodes().iter().enumerate() {
            best[0][v] = Some(pos);
        }
        for d in 1..=zeta {
            for (e, edge) in g.edges() {
                if inst.is_path_edge[e] {
                    continue;
                }
                if let Some(j) = best[d - 1][edge.to] {
                    let cur = &mut best[d][edge.from];
                    if cur.is_none_or(|c| j > c) {
                        *cur = Some(j);
                    }
                }
            }
        }
        inst.path
            .nodes()
            .iter()
            .map(|&v| (0..=zeta).map(|d| best[d][v]).collect())
            .collect()
    }

    fn check_fstar(g: &DiGraph, s: usize, t: usize, zeta: usize) {
        let inst = Instance::from_endpoints(g, s, t).unwrap();
        let aux: Vec<u64> = (0..=inst.hops())
            .map(|j| inst.suffix[j].finite().unwrap())
            .collect();
        let cfg = HopBfsConfig {
            zeta,
            objective: Objective::MaxIndex,
            delays: None,
            aux: &aux,
        };
        let mut net = Network::new(inst.graph);
        let fstar = hop_constrained_bfs(&mut net, &inst, &cfg, "test");
        let want = reference_fstar(&inst, zeta);
        for pos in 0..=inst.hops() {
            for d in 0..=zeta {
                assert_eq!(
                    fstar.table[pos][d].map(|(j, _)| j),
                    want[pos][d],
                    "pos {pos}, d {d}"
                );
            }
        }
        // Aux words carry the origin's distance to t.
        for pos in 0..=inst.hops() {
            for d in 0..=zeta {
                if let Some((j, aux)) = fstar.table[pos][d] {
                    assert_eq!(aux, inst.suffix[j].finite().unwrap());
                }
            }
        }
    }

    #[test]
    fn fstar_matches_reference_on_lane() {
        let (g, s, t) = parallel_lane(8, 2, 2);
        check_fstar(&g, s, t, 8);
    }

    #[test]
    fn fstar_matches_reference_on_random() {
        for seed in 0..6 {
            let (g, s, t) = planted_path_digraph(36, 10, 90, seed);
            check_fstar(&g, s, t, 12);
        }
    }

    #[test]
    fn min_index_mirror() {
        // 0 -> 1 -> 2 path; detour edges 0 -> 3, 3 -> 2.
        let mut b = GraphBuilder::new(4);
        b.add_arc(0, 1);
        b.add_arc(1, 2);
        b.add_arc(0, 3);
        b.add_arc(3, 2);
        let g = b.build();
        let inst = Instance::from_endpoints(&g, 0, 2).unwrap();
        let aux: Vec<u64> = (0..=2).map(|i| inst.prefix[i].finite().unwrap()).collect();
        let cfg = HopBfsConfig {
            zeta: 4,
            objective: Objective::MinIndex,
            delays: None,
            aux: &aux,
        };
        let mut net = Network::new(inst.graph);
        let fstar = hop_constrained_bfs(&mut net, &inst, &cfg, "test");
        // v_2 is reached from v_0 by the walk 0 -> 3 -> 2 of length 2.
        assert_eq!(fstar.table[2][2], Some((0, 0)));
        // Node 3 is not on P, so f* is recorded only for path vertices;
        // v_2 at level 1 is reached from no one (3 is not a path vertex).
        assert_eq!(fstar.table[2][1], None);
    }

    #[test]
    fn delays_shift_levels() {
        // 0 -> 1 path edge; detour 0 -> 2 -> 1 where (2,1) has delay 3.
        let mut b = GraphBuilder::new(3);
        b.add_arc(0, 1); // path edge
        let e02 = b.add_arc(0, 2);
        let e21 = b.add_arc(2, 1);
        let g = b.build();
        let inst = Instance::from_endpoints(&g, 0, 1).unwrap();
        let aux = vec![1, 0];
        let mut delays = vec![1u64; g.edge_count()];
        delays[e02] = 2;
        delays[e21] = 3;
        let cfg = HopBfsConfig {
            zeta: 6,
            objective: Objective::MaxIndex,
            delays: Some(&delays),
            aux: &aux,
        };
        let mut net = Network::new(inst.graph);
        let fstar = hop_constrained_bfs(&mut net, &inst, &cfg, "test");
        // Backward BFS from v_1: reaches node 2 at level 3, node 0 at 5.
        assert_eq!(fstar.table[0][5], Some((1, 0)));
        for d in 1..5 {
            assert_eq!(fstar.table[0][d], None, "level {d}");
        }
    }

    #[test]
    fn trimming_keeps_congestion_at_one_message_per_link() {
        // The engine enforces this (it panics otherwise); a run on a dense
        // graph with a long path is the stress test.
        let (g, s, t) = planted_path_digraph(60, 20, 400, 11);
        let inst = Instance::from_endpoints(&g, s, t).unwrap();
        let aux: Vec<u64> = (0..=inst.hops())
            .map(|j| inst.suffix[j].finite().unwrap())
            .collect();
        let cfg = HopBfsConfig {
            zeta: 15,
            objective: Objective::MaxIndex,
            delays: None,
            aux: &aux,
        };
        let mut net = Network::new(inst.graph);
        let _ = hop_constrained_bfs(&mut net, &inst, &cfg, "test");
        assert_eq!(net.metrics().rounds(), 16);
    }
}
