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
//! receiver models by holding the token `w - 1` extra rounds. Every token
//! released in one round competes for that round's level, where only the
//! strongest can win, and two tokens with one origin index carry one
//! auxiliary word. So a node keeps at most one held token per release
//! round, the strongest, in a list ordered by descending release round:
//! the next token to mature sits at its end, and the list is as long as
//! the release rounds pending.
//!
//! # Both directions in one run
//!
//! The backward BFS sends only against edges and the forward one only
//! along them, so the two use opposite directions of every link, and
//! CONGEST allows one message per link per direction per round.
//! [`hop_bfs_pair`] therefore runs a [`Objective::MaxIndex`] and a
//! [`Objective::MinIndex`] configuration in one engine run of `ζ + 1`
//! rounds, for the messages and bits of the two runs together. A node
//! tells the halves apart by the direction of the port a token arrived
//! on, so no tag bit is sent: a token that arrives at an edge's tail
//! travelled against the edge, one that arrives at its head travelled
//! along it. Each step makes one pass over the inbox and one over the
//! ports for both halves. Theorem 3 runs one pair per rounding scale.

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

impl Objective {
    /// This objective's slot in the per-half arrays of a run.
    fn half(self) -> usize {
        match self {
            Objective::MaxIndex => 0,
            Objective::MinIndex => 1,
        }
    }

    /// The objective whose tokens arrive on a port: a token that reaches
    /// an edge's tail (`outgoing`) travelled against the edge.
    fn arriving_on(outgoing: bool) -> Objective {
        if outgoing {
            Objective::MaxIndex
        } else {
            Objective::MinIndex
        }
    }

    /// The objective whose tokens leave on a port: MaxIndex goes to
    /// in-neighbours, MinIndex to out-neighbours.
    fn leaving_on(outgoing: bool) -> Objective {
        Objective::arriving_on(!outgoing)
    }

    /// Does `a` beat `b`?
    fn prefers(self, a: Token, b: Token) -> bool {
        match self {
            Objective::MaxIndex => a.idx > b.idx,
            Objective::MinIndex => a.idx < b.idx,
        }
    }
}

/// Configuration for [`hop_constrained_bfs`] and either half of
/// [`hop_bfs_pair`].
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

/// A token held until round `release`, packed into 16 bytes: the held
/// lists take most of the writes of a delayed run.
#[derive(Clone, Copy)]
struct HeldToken {
    release: u32,
    idx: u32,
    aux: u64,
}

/// One half's tokens waiting out an edge delay: at most one per release
/// round, in descending release order (module docs).
#[derive(Default)]
struct Held(Vec<HeldToken>);

impl Held {
    /// Holds `tok` until round `release`, unless a stronger token already
    /// waits for that round.
    fn hold(&mut self, objective: Objective, release: u32, tok: Token) {
        let at = self.0.partition_point(|h| h.release > release);
        match self.0.get_mut(at) {
            Some(kept) if kept.release == release => {
                let kept_tok = Token {
                    idx: kept.idx,
                    aux: kept.aux,
                };
                if objective.prefers(tok, kept_tok) {
                    (kept.idx, kept.aux) = (tok.idx, tok.aux);
                }
            }
            _ => self.0.insert(
                at,
                HeldToken {
                    release,
                    idx: tok.idx,
                    aux: tok.aux,
                },
            ),
        }
    }

    /// Takes the token that matures in `round`, if any. A node that holds
    /// a token is stepped every round, so none matures unseen.
    fn release(&mut self, round: u32) -> Option<Token> {
        let next = *self.0.last()?;
        debug_assert!(next.release >= round, "a held token outlived its round");
        (next.release == round).then(|| {
            self.0.pop();
            Token {
                idx: next.idx,
                aux: next.aux,
            }
        })
    }
}

/// One node's state, per half (indexed by [`Objective::half`]).
struct HopNode {
    held: [Held; 2],
    /// Per level `d`: the f* record. Allocated only at path vertices, for
    /// the halves that run; the tables are assembled from these after
    /// the run.
    record: [Vec<Option<(usize, u64)>>; 2],
}

/// The ζ-level BFS from every path vertex, of one configuration or of a
/// MaxIndex/MinIndex pair side by side.
struct HopBfsProtocol<'a, 'i> {
    inst: &'i Instance<'i>,
    /// The number of levels, shared by both halves.
    zeta: u64,
    /// The configuration of each half that runs, indexed by
    /// [`Objective::half`].
    halves: [Option<&'a HopBfsConfig<'a>>; 2],
}

impl<'a> HopBfsProtocol<'a, '_> {
    /// The configuration of the half that `objective` names. Tokens exist
    /// only in the halves that run, so this never fails on a token's half.
    fn cfg(&self, objective: Objective) -> &'a HopBfsConfig<'a> {
        self.halves[objective.half()].expect("tokens travel only in the halves that run")
    }
}

fn delay_of(cfg: &HopBfsConfig<'_>, e: EdgeId) -> u64 {
    match cfg.delays {
        Some(d) => d[e],
        None => 1,
    }
}

/// Keeps `t` as the round's value unless `best` beats it.
fn offer(objective: Objective, best: &mut Option<Token>, t: Token) {
    if best.is_none_or(|b| objective.prefers(t, b)) {
        *best = Some(t);
    }
}

impl Protocol for HopBfsProtocol<'_, '_> {
    type Msg = Token;
    type Node = HopNode;

    fn msg_bits(&self, m: &Token) -> u64 {
        word_bits(m.idx as u64) + word_bits(m.aux)
    }

    fn step_node(&self, node: &mut HopNode, ctx: &mut NodeCtx<'_, Token>) {
        let round = ctx.round;
        let ports = ctx.ports();
        // Per half: this round's value f*_u(round).
        let mut cur: [Option<Token>; 2] = [None; 2];
        if round == 0 {
            // Base: S_0(v_i) = {i}.
            if let Some(pos) = self.inst.path_index[ctx.node] {
                for (cur, cfg) in cur.iter_mut().zip(self.halves) {
                    *cur = cfg.map(|cfg| Token {
                        idx: pos as u32,
                        aux: cfg.aux[pos],
                    });
                }
            }
        } else {
            // One pass over the inbox: each token goes to the half of the
            // direction it arrived in.
            for &(port_idx, tok) in ctx.inbox() {
                let port = &ports[port_idx as usize];
                let objective = Objective::arriving_on(port.outgoing);
                let h = objective.half();
                let w = delay_of(self.cfg(objective), port.link);
                debug_assert!(w >= 1);
                if w == 1 {
                    offer(objective, &mut cur[h], tok);
                } else {
                    // Release rounds stay below 2ζ, which `run` checks
                    // fits u32: a token arrives by round ζ over a delay
                    // of at most ζ.
                    node.held[h].hold(objective, (round + (w - 1)) as u32, tok);
                }
            }
            for objective in [Objective::MaxIndex, Objective::MinIndex] {
                let h = objective.half();
                if let Some(tok) = node.held[h].release(round as u32) {
                    offer(objective, &mut cur[h], tok);
                }
            }
        }
        // Only path vertices record, and only for the halves that run.
        for (record, cur) in node.record.iter_mut().zip(cur) {
            if let (Some(slot), Some(tok)) = (record.get_mut(round as usize), cur) {
                *slot = Some((tok.idx as usize, tok.aux));
            }
        }
        // One pass over the ports propagates each half's strongest origin;
        // the final level sends nothing.
        if round < self.zeta && cur.iter().any(Option::is_some) {
            for (pi, port) in ports.iter().enumerate() {
                // The BFS lives in G \ P (Lemma 4.2).
                if self.inst.is_path_edge[port.link] {
                    continue;
                }
                let objective = Objective::leaving_on(port.outgoing);
                let Some(tok) = cur[objective.half()] else {
                    continue;
                };
                let w = delay_of(self.cfg(objective), port.link);
                if w == 0 || round + w > self.zeta {
                    continue;
                }
                ctx.send(pi as u32, tok);
            }
        }
        // Held tokens mature on round numbers, not on receipt: stay armed
        // until they are all released.
        if node.held.iter().any(|held| !held.0.is_empty()) {
            ctx.wake();
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
    let [fstar] = run(net, inst, [cfg], phase);
    fstar
}

/// Runs a [`Objective::MaxIndex`] configuration (`end`) and a
/// [`Objective::MinIndex`] one (`start`) side by side in one engine run
/// (module docs) and returns their tables in that order, equal to those
/// of two [`hop_constrained_bfs`] runs. Deterministic; charges exactly
/// `ζ + 1` rounds and the two runs' messages and bits together.
///
/// # Panics
///
/// Panics if `end` and `start` do not have those objectives, or differ
/// in ζ.
pub fn hop_bfs_pair(
    net: &mut Network<'_>,
    inst: &Instance<'_>,
    end: &HopBfsConfig<'_>,
    start: &HopBfsConfig<'_>,
    phase: &str,
) -> (FStar, FStar) {
    assert_eq!(
        end.objective,
        Objective::MaxIndex,
        "`end` finds detour ends"
    );
    assert_eq!(
        start.objective,
        Objective::MinIndex,
        "`start` finds detour starts"
    );
    let [end, start] = run(net, inst, [end, start], phase);
    (end, start)
}

/// The body of both entry points: one engine run of `ζ + 1` rounds that
/// carries every configuration in `cfgs`, at most one per objective, and
/// returns their tables in order.
fn run<const K: usize>(
    net: &mut Network<'_>,
    inst: &Instance<'_>,
    cfgs: [&HopBfsConfig<'_>; K],
    phase: &str,
) -> [FStar; K] {
    let zeta = cfgs[0].zeta;
    assert!(
        u32::try_from(2 * zeta).is_ok(),
        "held tokens keep their release rounds in u32"
    );
    let mut halves = [None; 2];
    for cfg in cfgs {
        assert_eq!(
            cfg.aux.len(),
            inst.hops() + 1,
            "one aux word per path vertex"
        );
        if let Some(d) = cfg.delays {
            assert_eq!(d.len(), inst.graph.edge_count());
        }
        assert_eq!(cfg.zeta, zeta, "both halves run ζ levels");
        let half = &mut halves[cfg.objective.half()];
        assert!(half.is_none(), "one configuration per objective");
        *half = Some(cfg);
    }
    let mut nodes: Vec<HopNode> = (0..inst.n())
        .map(|v| {
            let on_path = inst.path_index[v].is_some();
            HopNode {
                held: Default::default(),
                record: halves.map(|cfg| {
                    if on_path && cfg.is_some() {
                        vec![None; zeta + 1]
                    } else {
                        Vec::new()
                    }
                }),
            }
        })
        .collect();
    let proto = HopBfsProtocol {
        inst,
        zeta: zeta as u64,
        halves,
    };
    net.run_rounds(phase, &proto, &mut nodes, zeta as u64 + 1);
    // Assemble each configuration's per-position table from the path
    // vertices' records.
    cfgs.map(|cfg| FStar {
        table: inst
            .path
            .nodes()
            .iter()
            .map(|&v| std::mem::take(&mut nodes[v].record[cfg.objective.half()]))
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Instance;
    use graphkit::gen::{parallel_lane, planted_path_digraph};
    use graphkit::{DiGraph, GraphBuilder};

    /// Centralized reference for f*: dynamic programming over walk
    /// lengths in G \ P. A non-path edge of delay `w ≥ 1` takes level
    /// `d − w` at its far end to level `d` at its near end, a delay of 0
    /// disables the edge, and no walk goes past ζ. The far end is the
    /// head for MaxIndex (walks u → v_j) and the tail for MinIndex (walks
    /// v_k → u).
    fn reference_fstar(
        inst: &Instance<'_>,
        zeta: usize,
        objective: Objective,
        delays: Option<&[u64]>,
    ) -> Vec<Vec<Option<usize>>> {
        let g = inst.graph;
        let n = g.node_count();
        // best[d][u] = the strongest index with a walk of length exactly d.
        let mut best = vec![vec![None::<usize>; n]; zeta + 1];
        for (pos, &v) in inst.path.nodes().iter().enumerate() {
            best[0][v] = Some(pos);
        }
        for d in 1..=zeta {
            for (e, edge) in g.edges() {
                let w = delays.map_or(1, |ds| ds[e]) as usize;
                if inst.is_path_edge[e] || w == 0 || w > d {
                    continue;
                }
                let (near, far) = match objective {
                    Objective::MaxIndex => (edge.from, edge.to),
                    Objective::MinIndex => (edge.to, edge.from),
                };
                if let Some(j) = best[d - w][far] {
                    let cur = &mut best[d][near];
                    let stronger = match objective {
                        Objective::MaxIndex => cur.is_none_or(|c| j > c),
                        Objective::MinIndex => cur.is_none_or(|c| j < c),
                    };
                    if stronger {
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

    /// Per-edge delays in `0..=5` drawn from `seed`.
    fn random_delays(g: &DiGraph, seed: u64) -> Vec<u64> {
        (0..g.edge_count() as u64)
            .map(|e| ((e ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) % 6)
            .collect()
    }

    /// The aux words of `objective`: each origin's distance to `t` for
    /// MaxIndex, from `s` for MinIndex.
    fn aux_words(inst: &Instance<'_>, objective: Objective) -> Vec<u64> {
        let dists = match objective {
            Objective::MaxIndex => &inst.suffix,
            Objective::MinIndex => &inst.prefix,
        };
        (0..=inst.hops())
            .map(|j| dists[j].finite().unwrap())
            .collect()
    }

    /// Runs both objectives alone and then as a pair, and checks every
    /// table against the reference.
    fn check_fstar(g: &DiGraph, s: usize, t: usize, zeta: usize, delays: Option<&[u64]>) {
        let inst = Instance::from_endpoints(g, s, t).unwrap();
        let objectives = [Objective::MaxIndex, Objective::MinIndex];
        let aux = objectives.map(|objective| aux_words(&inst, objective));
        let cfgs = [0, 1].map(|k| HopBfsConfig {
            zeta,
            objective: objectives[k],
            delays,
            aux: &aux[k],
        });
        let mut tables: Vec<(usize, FStar)> = (0..2)
            .map(|k| {
                let mut net = Network::new(inst.graph);
                (k, hop_constrained_bfs(&mut net, &inst, &cfgs[k], "test"))
            })
            .collect();
        let mut net = Network::new(inst.graph);
        let (ends, starts) = hop_bfs_pair(&mut net, &inst, &cfgs[0], &cfgs[1], "test");
        tables.extend([(0, ends), (1, starts)]);
        for (k, fstar) in tables {
            let objective = objectives[k];
            let want = reference_fstar(&inst, zeta, objective, delays);
            for pos in 0..=inst.hops() {
                for d in 0..=zeta {
                    assert_eq!(
                        fstar.table[pos][d].map(|(j, _)| j),
                        want[pos][d],
                        "{objective:?}: pos {pos}, d {d}"
                    );
                    // Aux words carry the origin's word.
                    if let Some((j, word)) = fstar.table[pos][d] {
                        assert_eq!(word, aux[k][j]);
                    }
                }
            }
        }
    }

    #[test]
    fn fstar_matches_reference_on_lane() {
        let (g, s, t) = parallel_lane(8, 2, 2);
        check_fstar(&g, s, t, 8, None);
    }

    #[test]
    fn fstar_matches_reference_on_random() {
        for seed in 0..6 {
            let (g, s, t) = planted_path_digraph(36, 10, 90, seed);
            check_fstar(&g, s, t, 12, None);
        }
    }

    #[test]
    fn delayed_fstar_matches_reference() {
        // Delays 0 to 5 exercise disabled edges, unit hops and held
        // tokens, several of which can share a release round.
        for seed in 0..8 {
            let (g, s, t) = planted_path_digraph(36, 10, 120, seed);
            let delays = random_delays(&g, seed);
            check_fstar(&g, s, t, 14, Some(&delays));
        }
    }

    #[test]
    fn held_keeps_the_strongest_token_per_release_round() {
        let tok = |idx| Token { idx, aux: 0 };
        let mut held = Held::default();
        for (release, idx) in [(5, 2), (3, 7), (5, 4), (4, 1), (3, 6)] {
            held.hold(Objective::MaxIndex, release, tok(idx));
        }
        let releases: Vec<u32> = held.0.iter().map(|h| h.release).collect();
        assert_eq!(releases, [5, 4, 3]);
        assert_eq!(held.release(2).map(|t| t.idx), None);
        assert_eq!(held.release(3).map(|t| t.idx), Some(7));
        assert_eq!(held.release(4).map(|t| t.idx), Some(1));
        assert_eq!(held.release(5).map(|t| t.idx), Some(4));
        assert!(held.0.is_empty());
        held.hold(Objective::MinIndex, 9, tok(4));
        held.hold(Objective::MinIndex, 9, tok(2));
        assert_eq!(held.release(9).map(|t| t.idx), Some(2));
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
