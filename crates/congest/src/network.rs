//! The synchronous round engine.
//!
//! Two engine-level optimizations keep simulation wall-clock
//! proportional to *traffic* rather than `Θ(n · rounds)`:
//!
//! - **Active-set scheduling**: every protocol is stepped only at nodes
//!   that can act — nodes that received a message, nodes in round 0, and
//!   nodes that explicitly re-armed themselves with [`NodeCtx::wake`]
//!   (the activation contract on [`Protocol`]).
//!   [`Network::set_full_sweep`] selects the reference schedule instead,
//!   which steps every node every round.
//! - **Flat mailbox arenas**: instead of per-node `Vec<Vec<_>>` inboxes
//!   and a reallocated outbox, one staging buffer is counting-sorted by
//!   destination into a CSR-bucketed arena each round. Occupancy and
//!   validity checks use monotonically increasing round generations, so
//!   nothing is cleared between rounds or phases.
//!
//! Every round is one pass of a single driver: step the scheduled nodes
//! in ascending id order, then commit — enforce CONGEST, let the
//! attached [`FaultPlan`] (if any) seal each message's fate, charge
//! [`RunStats`], and counting-sort the delivered messages into the next
//! round's inboxes.
//!
//! Both optimizations are pure wall-clock savings: the delivered
//! messages, their per-destination order, and all [`RunStats`]
//! accounting are bit-exact with a full sweep (asserted by
//! `tests/engine_equivalence.rs` for every primitive and solver).

use std::fmt;

use graphkit::{DiGraph, EdgeId, NodeId};

use crate::faults::{Fate, FaultPlan, FaultPlanError};
use crate::metrics::{FaultStats, Metrics, RunStats};

/// Number of bits needed to write `x` in binary (`0 -> 1` bit).
///
/// Used to express message sizes in terms of the paper's `O(log n)`-bit
/// words.
pub fn word_bits(x: u64) -> u64 {
    (64 - x.leading_zeros() as u64).max(1)
}

/// One end of a communication link, as seen from a particular node.
///
/// A link is a graph edge; communication is bidirectional regardless of
/// the edge's direction, but protocols usually care whether the node is
/// the edge's tail (`outgoing == true`) or head.
#[derive(Clone, Copy, Debug)]
pub struct Port {
    /// The graph edge realizing this link.
    pub link: EdgeId,
    /// The node on the other end.
    pub peer: NodeId,
    /// `true` when this node is the edge's tail (`edge.from`).
    pub outgoing: bool,
    /// The edge weight (1 in unweighted graphs).
    pub weight: u64,
}

/// Which side of the Alice/Bob cut a node belongs to (Section 6
/// experiments). Messages between `Alice` and `Bob` nodes are counted in
/// [`RunStats::cut_bits`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// Alice's side of the cut.
    Alice,
    /// Bob's side of the cut.
    Bob,
    /// Not assigned to either player.
    Neutral,
}

/// Errors the engine can report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The protocol did not reach quiescence within the round budget.
    ///
    /// The final-round snapshot makes budget exhaustion diagnosable
    /// without rerunning: a protocol that is *still making progress*
    /// (nonzero `last_active`/`last_messages`) merely needs a larger
    /// budget, while one that exhausted the budget in silence is
    /// livelocked on [`Protocol::idle`] or stranded in-flight (delayed)
    /// traffic under a fault plan.
    RoundLimitExceeded {
        /// The configured budget.
        max_rounds: u64,
        /// Rounds actually executed before giving up.
        rounds: u64,
        /// Nodes stepped in the final round.
        last_active: u64,
        /// Messages delivered or still in flight after the final
        /// round's commit.
        last_messages: u64,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::RoundLimitExceeded {
                max_rounds,
                rounds,
                last_active,
                last_messages,
            } => {
                write!(
                    f,
                    "protocol still active after {rounds} of {max_rounds} budgeted rounds \
                     ({last_active} nodes stepped and {last_messages} messages delivered or \
                     in flight in the final round)"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// A staged send: `(sender, port index at the sender, message)`. The
/// message is an `Option` so the commit can move it into the delivery
/// arena (or the delay queue) without cloning.
type Staged<M> = (NodeId, u32, Option<M>);

/// A node's view of one round: its inbox from the previous round and an
/// outbox for this round.
pub struct NodeCtx<'a, M> {
    /// This node's id.
    pub node: NodeId,
    /// The current round number (0-based; round 0 has empty inboxes).
    pub round: u64,
    ports: &'a [Port],
    inbox: &'a [(u32, M)],
    outbox: &'a mut Vec<Staged<M>>,
    woke: &'a mut bool,
}

impl<'a, M> NodeCtx<'a, M> {
    /// The node's incident links.
    ///
    /// The returned slice borrows the network, not the context, so it
    /// can be held across [`NodeCtx::send`] calls.
    #[inline]
    pub fn ports(&self) -> &'a [Port] {
        self.ports
    }

    /// Messages delivered this round as `(port index, message)` pairs.
    ///
    /// The returned slice borrows the delivery arena, not the context,
    /// so inbox processing can be interleaved with [`NodeCtx::send`]
    /// without cloning the inbox first.
    #[inline]
    pub fn inbox(&self) -> &'a [(u32, M)] {
        self.inbox
    }

    /// Queues a message on the given port.
    ///
    /// The engine enforces the CONGEST constraint when the round is
    /// committed: at most one message per link per direction per round.
    /// Sending also schedules the receiver for the next round.
    #[inline]
    pub fn send(&mut self, port: u32, msg: M) {
        debug_assert!((port as usize) < self.ports.len(), "port out of range");
        self.outbox.push((self.node, port, Some(msg)));
    }

    /// Marks this node active for the next round even if it receives no
    /// message (the explicit arm of the activation contract; see
    /// [`Protocol`]).
    ///
    /// Use it for self-driven work: pending send queues, held/delayed
    /// messages, or systolic schedules that fire on round numbers rather
    /// than on receipt. A no-op under the full-sweep reference schedule
    /// ([`Network::set_full_sweep`]), which steps every node anyway.
    #[inline]
    pub fn wake(&mut self) {
        *self.woke = true;
    }
}

/// A distributed algorithm driven by the engine.
///
/// A protocol value is the state every node may read: configuration and
/// topology, immutable for the whole run. Per-node state lives in a slice
/// of [`Protocol::Node`] slots that the caller owns and lends to
/// [`Network::run_rounds`] or [`Network::run_until_quiet`] (`len == n`,
/// indexed by `NodeId`), and reads its results from afterwards.
///
/// The engine calls [`Protocol::step_node`] once per scheduled node per
/// round with `&mut` to that node's slot alone, so a step cannot touch
/// another node's state: all cross-node information flows through
/// messages, which is exactly the locality discipline the CONGEST model
/// asks for. The engine enforces the bandwidth constraints on everything
/// that is sent.
///
/// # The activation contract
///
/// The engine steps a node only when it (a) is in round 0, (b) received
/// a message delivered this round, or (c) called [`NodeCtx::wake`] in
/// the previous round. Every implementation must therefore be
/// *sweep-agnostic*: stepping a node with an empty inbox that did not
/// wake itself is a no-op (no sends, no externally visible state
/// change). Work that fires on round numbers rather than on receipt —
/// send queues, held messages, systolic schedules — re-arms itself with
/// `wake`. [`Network::set_full_sweep`] selects the reference schedule,
/// which steps every node every round; a sweep-agnostic protocol
/// delivers bit-identical messages and [`RunStats`] under both.
pub trait Protocol {
    /// The message type. Its size in bits is declared via
    /// [`Protocol::msg_bits`] and checked against the network bandwidth.
    type Msg;

    /// Per-node state, one slot per node in node-id order.
    type Node;

    /// Declared size of a message in bits; must be `O(log n)` (fit the
    /// network's bandwidth).
    fn msg_bits(&self, msg: &Self::Msg) -> u64;

    /// Executes one round at `ctx.node`: read `ctx.inbox()`, update
    /// `node` (that node's state slot), send messages.
    fn step_node(&self, node: &mut Self::Node, ctx: &mut NodeCtx<'_, Self::Msg>);

    /// `false` while the protocol has internal pending work even though no
    /// messages are in flight (e.g. delayed deliveries or staggered
    /// starts). Quiescence requires `idle` *and* an empty network.
    fn idle(&self, _nodes: &[Self::Node]) -> bool {
        true
    }
}

/// Reusable, non-generic engine buffers.
///
/// Sized once per network and shared by every phase run on it; validity
/// is tracked by the monotonically increasing `generation`, so between
/// rounds and phases nothing needs clearing (the "round-stamped
/// generations" device).
struct EngineScratch {
    /// Monotonic round generation, never reset.
    generation: u64,
    /// Per link direction (`2*link + side`): generation of the last send.
    occupied: Vec<u64>,
    /// Per node: start of its inbox slice in the arena.
    inbox_start: Vec<u32>,
    /// Per node: length of its inbox slice.
    inbox_len: Vec<u32>,
    /// Per node: generation at which `inbox_start`/`inbox_len` are valid.
    inbox_stamp: Vec<u64>,
    /// Per node: message count this round, then placement cursor.
    counts: Vec<u32>,
    /// Per node: generation at which `counts` is valid.
    count_stamp: Vec<u64>,
    /// Per node: generation for which the node is already queued to step.
    active_stamp: Vec<u64>,
    /// Nodes to step this round (ascending ids), under active-set
    /// scheduling.
    active: Vec<u32>,
    /// Nodes queued for the next round (unsorted until the round ends).
    next_active: Vec<u32>,
    /// Destinations that received at least one message this round.
    touched: Vec<u32>,
    /// Per delivered message: destination node.
    dests: Vec<u32>,
    /// Per delivered message: receiving port at the destination.
    recv_ports: Vec<u32>,
    /// Stable counting-sort permutation (arena slot -> delivery index).
    order: Vec<u32>,
}

impl EngineScratch {
    fn new(nodes: usize, edges: usize) -> EngineScratch {
        EngineScratch {
            generation: 0,
            occupied: vec![0; 2 * edges],
            inbox_start: vec![0; nodes],
            inbox_len: vec![0; nodes],
            inbox_stamp: vec![0; nodes],
            counts: vec![0; nodes],
            count_stamp: vec![0; nodes],
            active_stamp: vec![0; nodes],
            active: Vec::new(),
            next_active: Vec::new(),
            touched: Vec::new(),
            dests: Vec::new(),
            recv_ports: Vec::new(),
            order: Vec::new(),
        }
    }
}

/// A CONGEST network over a [`DiGraph`], with cumulative metrics.
///
/// # Examples
///
/// ```
/// use congest::Network;
/// use graphkit::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_arc(0, 1);
/// b.add_arc(1, 2);
/// let g = b.build();
/// let net = Network::new(&g);
/// assert_eq!(net.node_count(), 3);
/// assert_eq!(net.ports(1).len(), 2);
/// ```
pub struct Network<'g> {
    graph: &'g DiGraph,
    ports: Vec<Vec<Port>>,
    /// For each edge: (port index at `from`, port index at `to`).
    edge_ports: Vec<(u32, u32)>,
    bandwidth: u64,
    cut: Option<Vec<Side>>,
    metrics: Metrics,
    scratch: EngineScratch,
    full_sweep: bool,
    /// Optional fault-injection schedule applied at commit time; see
    /// [`crate::faults`].
    fault_plan: Option<FaultPlan>,
}

impl<'g> Network<'g> {
    /// Wraps a graph as a CONGEST network with the default `Θ(log n)`
    /// bandwidth (`8·⌈log₂ n⌉ + 32` bits, enough for a constant number of
    /// words per message).
    pub fn new(graph: &'g DiGraph) -> Network<'g> {
        let n = graph.node_count();
        // Two-pass construction: count degrees first so every per-node
        // port vector is allocated exactly once.
        let mut degree = vec![0u32; n];
        for (_, e) in graph.edges() {
            degree[e.from] += 1;
            degree[e.to] += 1;
        }
        let mut ports: Vec<Vec<Port>> = degree
            .iter()
            .map(|&d| Vec::with_capacity(d as usize))
            .collect();
        let mut edge_ports = vec![(0u32, 0u32); graph.edge_count()];
        for (id, e) in graph.edges() {
            edge_ports[id].0 = ports[e.from].len() as u32;
            ports[e.from].push(Port {
                link: id,
                peer: e.to,
                outgoing: true,
                weight: e.weight,
            });
            edge_ports[id].1 = ports[e.to].len() as u32;
            ports[e.to].push(Port {
                link: id,
                peer: e.from,
                outgoing: false,
                weight: e.weight,
            });
        }
        let bandwidth = 8 * word_bits(n as u64) + 32;
        Network {
            graph,
            ports,
            edge_ports,
            bandwidth,
            cut: None,
            metrics: Metrics::default(),
            scratch: EngineScratch::new(n, graph.edge_count()),
            full_sweep: false,
            fault_plan: None,
        }
    }

    /// Overrides the per-message bandwidth in bits (the `B` of
    /// `CONGEST(B)`).
    pub fn with_bandwidth(mut self, bits: u64) -> Network<'g> {
        self.bandwidth = bits;
        self
    }

    /// Switches every later run on this network to the full-sweep
    /// reference schedule, which steps every node every round, or back
    /// to active-set scheduling (the default).
    ///
    /// The differential tests use this to check that active-set runs are
    /// bit-exact with full sweeps; it is also a debugging aid when a
    /// protocol is suspected of violating the activation contract (see
    /// [`Protocol`]).
    pub fn set_full_sweep(&mut self, on: bool) {
        self.full_sweep = on;
    }

    /// The number of threads that step nodes: always 1, since every
    /// round runs on the caller's thread.
    ///
    /// Kept only because the benchmark harness (`perfbench/`) records
    /// it; it goes with the next change to the benchmark.
    #[inline]
    pub fn threads(&self) -> usize {
        1
    }

    /// Attaches (or clears) a fault-injection schedule; every subsequent
    /// drive on this network applies it at commit time, with per-drive
    /// round numbering starting at 0 (use [`FaultPlan::shifted`] to
    /// spread one logical timeline over several drives). Fault telemetry
    /// accumulates in [`Metrics::faults`]; see [`crate::faults`] for the
    /// fault model and the determinism contract.
    ///
    /// # Errors
    ///
    /// Returns the [`FaultPlanError`] naming the first fault that
    /// targets an edge or node outside this graph; the network keeps its
    /// previous plan.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) -> Result<(), FaultPlanError> {
        if let Some(p) = &plan {
            p.validate(self.graph.edge_count(), self.graph.node_count())?;
        }
        self.fault_plan = plan;
        Ok(())
    }

    /// The attached fault plan, if any.
    #[inline]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Labels nodes with cut sides for Alice/Bob bit accounting.
    ///
    /// # Panics
    ///
    /// Panics if `sides.len() != n`.
    pub fn set_cut(&mut self, sides: Vec<Side>) {
        assert_eq!(sides.len(), self.graph.node_count());
        self.cut = Some(sides);
    }

    /// The underlying graph.
    #[inline]
    pub fn graph(&self) -> &'g DiGraph {
        self.graph
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// The ports of node `v`.
    #[inline]
    pub fn ports(&self, v: NodeId) -> &[Port] {
        &self.ports[v]
    }

    /// Port index of edge `e` at its tail (`from`) endpoint.
    #[inline]
    pub fn port_at_tail(&self, e: EdgeId) -> u32 {
        self.edge_ports[e].0
    }

    /// Port index of edge `e` at its head (`to`) endpoint.
    #[inline]
    pub fn port_at_head(&self, e: EdgeId) -> u32 {
        self.edge_ports[e].1
    }

    /// Cumulative metrics over every phase run so far.
    #[inline]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Moves the accumulated metrics out of the network, leaving an
    /// empty log behind.
    ///
    /// Solvers that own their network use this to hand the accounting to
    /// their output without deep-cloning every phase record; combine
    /// multiple runs with [`Metrics::merge_from`].
    pub fn take_metrics(&mut self) -> Metrics {
        std::mem::take(&mut self.metrics)
    }

    /// Runs `proto` over the node slots `nodes` for exactly `rounds`
    /// rounds (deterministic schedules with known round bounds, e.g. the
    /// ζ-round hop-BFS).
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len()` is not the node count, or if the protocol
    /// violates the CONGEST constraints (two messages on one link
    /// direction in a round, or an oversized message).
    pub fn run_rounds<P: Protocol>(
        &mut self,
        name: &str,
        proto: &P,
        nodes: &mut [P::Node],
        rounds: u64,
    ) -> RunStats {
        let out = self.drive(proto, nodes, Budget::Exact(rounds));
        self.metrics.record(name, out.stats);
        self.metrics.record_faults(out.faults);
        out.stats
    }

    /// Runs `proto` over the node slots `nodes` until quiescence (no
    /// messages in flight and `proto.idle(nodes)`), up to `max_rounds`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::RoundLimitExceeded`] when the protocol
    /// fails to quiesce within `max_rounds`.
    ///
    /// # Panics
    ///
    /// Panics on a node-slot count mismatch or a CONGEST constraint
    /// violation, as in [`Network::run_rounds`].
    pub fn run_until_quiet<P: Protocol>(
        &mut self,
        name: &str,
        proto: &P,
        nodes: &mut [P::Node],
        max_rounds: u64,
    ) -> Result<RunStats, EngineError> {
        let out = self.drive(proto, nodes, Budget::UntilQuiet(max_rounds));
        if !out.quiesced {
            return Err(out.round_limit_error(max_rounds));
        }
        self.metrics.record(name, out.stats);
        self.metrics.record_faults(out.faults);
        Ok(out.stats)
    }

    /// The round driver behind [`Network::run_rounds`] and
    /// [`Network::run_until_quiet`].
    fn drive<P: Protocol>(
        &mut self,
        proto: &P,
        nodes: &mut [P::Node],
        budget: Budget,
    ) -> DriveOutcome {
        let n = self.graph.node_count();
        assert_eq!(
            nodes.len(),
            n,
            "a protocol run needs one state slot per node"
        );
        let full_sweep = self.full_sweep;
        let mut stats = RunStats::default();
        // The only per-drive (message-typed) buffers; both are filled and
        // drained wholesale, so they stabilize at peak traffic size after
        // the first few rounds.
        let mut staging: Vec<Staged<P::Msg>> = Vec::new();
        let mut arena: Vec<(u32, P::Msg)> = Vec::new();
        // Split borrows: scratch is mutated while ports/edge_ports/cut
        // are read, which the compiler allows per-field.
        let ports = &self.ports;
        let edge_ports = &self.edge_ports;
        let cut = self.cut.as_deref();
        let bandwidth = self.bandwidth;
        let mut faults: Option<FaultRun<'_, P::Msg>> = self.fault_plan.as_ref().map(FaultRun::new);
        let sc = &mut self.scratch;
        sc.active.clear();
        sc.next_active.clear();
        let mut round: u64 = 0;
        let mut quiesced = false;
        let mut last_active: u64 = 0;
        let mut last_sent: u64 = 0;
        // Round 0 sweeps everyone even under active-set scheduling (the
        // activation contract's base case).
        let mut step_all_next = true;
        loop {
            match budget {
                Budget::Exact(r) if round >= r => {
                    quiesced = true;
                    break;
                }
                Budget::UntilQuiet(max) if round >= max => break,
                _ => {}
            }
            sc.generation += 1;
            let g = sc.generation;
            let step_all = full_sweep || step_all_next;
            let step_count = if step_all { n } else { sc.active.len() };
            for i in 0..step_count {
                let v = if step_all { i } else { sc.active[i] as usize };
                let inbox: &[(u32, P::Msg)] = if sc.inbox_stamp[v] == g {
                    let start = sc.inbox_start[v] as usize;
                    &arena[start..start + sc.inbox_len[v] as usize]
                } else {
                    &[]
                };
                let mut woke = false;
                let mut ctx = NodeCtx {
                    node: v,
                    round,
                    ports: &ports[v],
                    inbox,
                    outbox: &mut staging,
                    woke: &mut woke,
                };
                proto.step_node(&mut nodes[v], &mut ctx);
                if woke && !full_sweep && sc.active_stamp[v] != g + 1 {
                    sc.active_stamp[v] = g + 1;
                    sc.next_active.push(v as u32);
                }
            }
            let sent = commit_round(
                sc,
                &mut stats,
                faults.as_mut(),
                &mut staging,
                &mut arena,
                ports,
                edge_ports,
                cut,
                bandwidth,
                full_sweep,
                round,
                g,
                |m| proto.msg_bits(m),
            );
            last_active = step_count as u64;
            last_sent = sent;
            round += 1;
            if !full_sweep {
                // Stepping a superset of the active set is always exact
                // (the activation contract), so on traffic-dense
                // rounds skip the sort and sweep everyone — active-set
                // bookkeeping then costs nothing when it cannot win.
                step_all_next = 8 * sc.next_active.len() >= n;
                if !step_all_next {
                    // Ascending node order keeps send order — and
                    // therefore per-destination inbox order — identical
                    // to a full sweep.
                    sc.next_active.sort_unstable();
                    std::mem::swap(&mut sc.active, &mut sc.next_active);
                }
                sc.next_active.clear();
            }
            if matches!(budget, Budget::UntilQuiet(_)) && sent == 0 && proto.idle(nodes) {
                quiesced = true;
                break;
            }
        }
        stats.rounds = round;
        // Invalidate the final round's stamps so the next phase on this
        // network cannot observe stale inboxes or activations.
        sc.generation += 1;
        DriveOutcome {
            stats,
            quiesced,
            last_active,
            last_sent,
            faults: faults.map(|fr| fr.stats).unwrap_or_default(),
        }
    }
}

impl fmt::Debug for Network<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("nodes", &self.graph.node_count())
            .field("links", &self.graph.edge_count())
            .field("bandwidth_bits", &self.bandwidth)
            .finish()
    }
}

#[derive(Clone, Copy)]
enum Budget {
    Exact(u64),
    UntilQuiet(u64),
}

/// Everything one engine drive produced: the public [`RunStats`], the
/// quiescence verdict, a final-round snapshot (for diagnosable budget
/// errors), and the drive's fault telemetry.
struct DriveOutcome {
    stats: RunStats,
    quiesced: bool,
    /// Nodes stepped in the final executed round.
    last_active: u64,
    /// Messages delivered or left in flight by the final round's commit.
    last_sent: u64,
    faults: FaultStats,
}

impl DriveOutcome {
    fn round_limit_error(&self, max_rounds: u64) -> EngineError {
        EngineError::RoundLimitExceeded {
            max_rounds,
            rounds: self.stats.rounds,
            last_active: self.last_active,
            last_messages: self.last_sent,
        }
    }
}

/// Per-drive fault-injection state: the plan, the in-flight delayed
/// messages, and the drive's [`FaultStats`].
struct FaultRun<'p, M> {
    plan: &'p FaultPlan,
    /// In-flight delayed messages as `(due round, send)`, in send order.
    /// Fates are sealed at send time, so due entries are always
    /// delivered.
    delayed: Vec<(u64, Staged<M>)>,
    stats: FaultStats,
}

impl<'p, M> FaultRun<'p, M> {
    fn new(plan: &'p FaultPlan) -> FaultRun<'p, M> {
        FaultRun {
            plan,
            delayed: Vec::new(),
            stats: FaultStats::default(),
        }
    }

    /// Moves the messages due in `round` to the front of `staging`, in
    /// send order, and returns how many there are. They have been on the
    /// wire longest; the fixed position keeps inbox order deterministic.
    fn prepend_due(&mut self, round: u64, staging: &mut Vec<Staged<M>>) -> usize {
        let before = staging.len();
        staging.splice(
            0..0,
            self.delayed
                .extract_if(.., |(due, _)| *due == round)
                .map(|(_, send)| send),
        );
        let due = staging.len() - before;
        self.stats.delivered_late += due as u64;
        due
    }

    /// Seals the fate of a fresh send in `round` over `port`: `true`
    /// delivers it now; otherwise the message is taken out of `send` and
    /// dropped (an endpoint crashed, the link is down, or bad luck,
    /// checked in that order) or moved to the delay queue.
    fn admit(&mut self, round: u64, port: Port, send: &mut Staged<M>) -> bool {
        let plan = self.plan;
        let counter = if plan.node_down(send.0, round) || plan.node_down(port.peer, round) {
            &mut self.stats.dropped_node_down
        } else if plan.link_down(port.link, round) {
            &mut self.stats.dropped_link_down
        } else {
            match plan.fate(round, port.link, port.outgoing) {
                Fate::Deliver => return true,
                Fate::Drop => &mut self.stats.dropped_random,
                Fate::Delay(extra) => {
                    let delayed = (send.0, send.1, send.2.take());
                    self.delayed.push((round + extra, delayed));
                    &mut self.stats.delayed
                }
            }
        };
        *counter += 1;
        send.2 = None;
        false
    }
}

/// The commit step of a round: enforce CONGEST, let the fault plan (if
/// any) seal each message's fate, charge [`RunStats`], and counting-sort
/// the delivered messages by destination into the next round's arena.
///
/// Every fresh send passes the occupancy and bandwidth checks before the
/// plan sees it — faults never excuse a protocol bug. Messages whose
/// delay ends this round are delivered ahead of the fresh sends, skip
/// the occupancy check (the wire, not a sender, holds them), and are
/// charged at delivery. Without a plan the hook costs a branch per
/// message.
///
/// Returns the messages delivered plus those still in flight, so a
/// network with pending delayed traffic never looks quiescent.
#[allow(clippy::too_many_arguments)]
fn commit_round<M>(
    sc: &mut EngineScratch,
    stats: &mut RunStats,
    mut faults: Option<&mut FaultRun<'_, M>>,
    staging: &mut Vec<Staged<M>>,
    arena: &mut Vec<(u32, M)>,
    ports: &[Vec<Port>],
    edge_ports: &[(u32, u32)],
    cut: Option<&[Side]>,
    bandwidth: u64,
    full_sweep: bool,
    round: u64,
    g: u64,
    bits_of: impl Fn(&M) -> u64,
) -> u64 {
    sc.touched.clear();
    sc.dests.clear();
    sc.recv_ports.clear();
    let due = match faults.as_deref_mut() {
        Some(fr) => fr.prepend_due(round, staging),
        None => 0,
    };
    let mut skipped = 0;
    for (i, send) in staging.iter_mut().enumerate() {
        let (sender, port_idx) = (send.0, send.1);
        let port = ports[sender][port_idx as usize];
        let bits = bits_of(send.2.as_ref().expect("staged message present"));
        if i >= due {
            let dir = 2 * port.link + usize::from(!port.outgoing);
            assert_ne!(
                sc.occupied[dir],
                g,
                "CONGEST violation: two messages on link {} direction {} in round {} \
                 (sender {})",
                port.link,
                usize::from(!port.outgoing),
                round,
                sender
            );
            sc.occupied[dir] = g;
            assert!(
                bits <= bandwidth,
                "CONGEST violation: {bits}-bit message exceeds bandwidth {bandwidth} \
                 (sender {sender})",
            );
            if let Some(fr) = faults.as_deref_mut() {
                if !fr.admit(round, port, send) {
                    skipped += 1;
                    continue;
                }
            }
        }
        stats.messages += 1;
        stats.bits += bits;
        stats.max_message_bits = stats.max_message_bits.max(bits);
        if let Some(cut) = cut {
            let (a, b) = (cut[sender], cut[port.peer]);
            if a != b && a != Side::Neutral && b != Side::Neutral {
                stats.cut_bits += bits;
            }
        }
        let dest = port.peer;
        sc.dests.push(dest as u32);
        sc.recv_ports.push(if port.outgoing {
            edge_ports[port.link].1
        } else {
            edge_ports[port.link].0
        });
        if sc.count_stamp[dest] != g {
            sc.count_stamp[dest] = g;
            sc.counts[dest] = 0;
            sc.touched.push(dest as u32);
        }
        sc.counts[dest] += 1;
        // Receiving a message activates the destination.
        if !full_sweep && sc.active_stamp[dest] != g + 1 {
            sc.active_stamp[dest] = g + 1;
            sc.next_active.push(dest as u32);
        }
    }
    if skipped > 0 {
        // Only a plan skips messages; keep the delivered ones, in order,
        // so arena indices line up with `dests`.
        staging.retain(|send| send.2.is_some());
    }
    // CSR offsets for the next round's inboxes, then the stable
    // counting-sort permutation (arena slot -> delivery index).
    let mut offset: u32 = 0;
    for &d in &sc.touched {
        let d = d as usize;
        sc.inbox_start[d] = offset;
        sc.inbox_len[d] = sc.counts[d];
        sc.inbox_stamp[d] = g + 1;
        offset += sc.counts[d];
        sc.counts[d] = 0;
    }
    sc.order.clear();
    sc.order.resize(sc.dests.len(), 0);
    for (i, &d) in sc.dests.iter().enumerate() {
        let d = d as usize;
        let slot = (sc.inbox_start[d] + sc.counts[d]) as usize;
        sc.counts[d] += 1;
        sc.order[slot] = i as u32;
    }
    arena.clear();
    arena.extend(sc.order.iter().map(|&i| {
        let msg = staging[i as usize]
            .2
            .take()
            .expect("each delivered message is moved exactly once");
        (sc.recv_ports[i as usize], msg)
    }));
    let delivered = staging.len();
    staging.clear();
    match faults {
        None => delivered as u64,
        Some(fr) => {
            if due + skipped > 0 {
                fr.stats.faulty_rounds += 1;
            }
            (delivered + fr.delayed.len()) as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::GraphBuilder;

    /// Floods a token from node 0; each node records the round it heard it.
    ///
    /// Message-driven, so it upholds the activation contract with no
    /// explicit wakes.
    struct Flood;

    impl Protocol for Flood {
        type Msg = ();
        type Node = Option<u64>;

        fn msg_bits(&self, _: &()) -> u64 {
            1
        }

        fn step_node(&self, heard: &mut Option<u64>, ctx: &mut NodeCtx<'_, ()>) {
            let newly = if ctx.round == 0 && ctx.node == 0 {
                *heard = Some(0);
                true
            } else if heard.is_none() && !ctx.inbox().is_empty() {
                *heard = Some(ctx.round);
                true
            } else {
                false
            };
            if newly {
                for p in 0..ctx.ports().len() as u32 {
                    ctx.send(p, ());
                }
            }
        }
    }

    fn line(n: usize) -> DiGraph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_arc(i, i + 1);
        }
        b.build()
    }

    #[test]
    fn flood_reaches_everyone_in_ecc_rounds() {
        let g = line(6);
        let mut net = Network::new(&g);
        let mut heard = vec![None; 6];
        let stats = net
            .run_until_quiet("flood", &Flood, &mut heard, 100)
            .unwrap();
        for (v, h) in heard.iter().enumerate() {
            assert_eq!(*h, Some(v as u64), "node {v}");
        }
        // 5 hops to the far end, +1 round to observe quiescence.
        assert!(stats.rounds <= 7, "rounds = {}", stats.rounds);
        assert_eq!(net.metrics().rounds(), stats.rounds);
    }

    #[test]
    fn flood_crosses_reversed_edges() {
        // Links are bidirectional even though edges are directed.
        let mut b = GraphBuilder::new(3);
        b.add_arc(1, 0);
        b.add_arc(2, 1);
        let g = b.build();
        let mut net = Network::new(&g);
        let mut heard = vec![None; 3];
        net.run_until_quiet("flood", &Flood, &mut heard, 100)
            .unwrap();
        assert!(heard.iter().all(|h| h.is_some()));
    }

    #[test]
    fn exact_budget_charges_full_rounds() {
        let g = line(4);
        let mut net = Network::new(&g);
        let stats = net.run_rounds("flood", &Flood, &mut [None; 4], 50);
        assert_eq!(stats.rounds, 50);
    }

    #[test]
    fn active_set_matches_full_sweep_exactly() {
        for n in [2usize, 5, 9, 16] {
            let g = line(n);
            let mut active = Network::new(&g);
            let mut ha = vec![None; n];
            let sa = active
                .run_until_quiet("flood", &Flood, &mut ha, 100)
                .unwrap();
            let mut swept = Network::new(&g);
            swept.set_full_sweep(true);
            let mut hs = vec![None; n];
            let ss = swept
                .run_until_quiet("flood", &Flood, &mut hs, 100)
                .unwrap();
            assert_eq!(sa, ss, "stats diverged at n = {n}");
            assert_eq!(ha, hs, "results diverged at n = {n}");
        }
    }

    #[test]
    fn arena_is_reusable_across_phases() {
        // Two protocol runs on one network: generation stamping must not
        // leak the first run's final-round messages into the second.
        let g = line(5);
        let mut net = Network::new(&g);
        net.run_until_quiet("first", &Flood, &mut [None; 5], 100)
            .unwrap();
        let mut heard = vec![None; 5];
        let stats2 = net
            .run_until_quiet("second", &Flood, &mut heard, 100)
            .unwrap();
        assert_eq!(heard, (0..5).map(|v| Some(v as u64)).collect::<Vec<_>>());
        // Same topology, same protocol: both phases cost the same.
        assert_eq!(net.metrics().phase_total("first"), stats2);
    }

    #[test]
    fn cut_accounting_counts_crossing_bits() {
        let g = line(4);
        let mut net = Network::new(&g);
        net.set_cut(vec![Side::Alice, Side::Alice, Side::Bob, Side::Bob]);
        let stats = net
            .run_until_quiet("flood", &Flood, &mut [None; 4], 100)
            .unwrap();
        // Only link 1<->2 crosses; flooding sends once in each direction
        // eventually, but node 2 hears before sending back, so exactly the
        // forward message plus node 2's echo cross.
        assert!(stats.cut_bits >= 1);
        assert!(stats.cut_bits <= 2);
    }

    #[test]
    fn word_bits_examples() {
        assert_eq!(word_bits(0), 1);
        assert_eq!(word_bits(1), 1);
        assert_eq!(word_bits(2), 2);
        assert_eq!(word_bits(255), 8);
        assert_eq!(word_bits(256), 9);
    }

    #[test]
    fn downed_link_severs_the_flood() {
        // Link 2 (between nodes 2 and 3) is down forever: the token
        // reaches nodes 0..=2 only, and the loss is itemized.
        let g = line(6);
        let mut net = Network::new(&g);
        net.set_fault_plan(Some(FaultPlan::new(7).fail_link(2, 0, None)))
            .unwrap();
        let mut heard = vec![None; 6];
        net.run_until_quiet("flood", &Flood, &mut heard, 100)
            .unwrap();
        assert_eq!(heard[..3], [Some(0), Some(1), Some(2)]);
        assert_eq!(heard[3..], [None, None, None]);
        let fs = net.metrics().faults;
        assert_eq!(fs.dropped_link_down, 1);
        assert_eq!(fs.total_dropped(), 1);
        assert_eq!(fs.faulty_rounds, 1);
    }

    #[test]
    fn identical_fault_plans_give_identical_metrics() {
        // Seeded fates are a pure function of message identity, so two
        // runs of the same plan agree on Metrics — whose equality
        // includes FaultStats.
        let g = line(8);
        let mk = || {
            FaultPlan::new(1234)
                .fail_link(4, 2, Some(5))
                .drop_messages(0.3)
        };
        let run = |plan: FaultPlan| {
            let mut net = Network::new(&g);
            net.set_fault_plan(Some(plan)).unwrap();
            let mut heard = vec![None; 8];
            net.run_rounds("flood", &Flood, &mut heard, 20);
            (heard, net.metrics().clone())
        };
        let (h1, m1) = run(mk());
        let (h2, m2) = run(mk());
        assert_eq!(h1, h2);
        assert_eq!(m1, m2);
    }

    #[test]
    fn fault_plan_validation_rejects_unknown_links() {
        let g = line(3);
        let mut net = Network::new(&g);
        let err = net
            .set_fault_plan(Some(FaultPlan::new(1).fail_link(99, 0, None)))
            .unwrap_err();
        assert_eq!(
            err,
            FaultPlanError::UnknownLink {
                fault: 0,
                link: 99,
                edges: 2
            }
        );
        assert_eq!(
            err.to_string(),
            "fault plan link fault #0 targets edge 99 but the graph has 2 edges"
        );
        assert!(
            net.fault_plan().is_none(),
            "a rejected plan is not attached"
        );
    }
}
