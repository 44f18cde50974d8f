//! A round-accurate simulator for the CONGEST model of distributed
//! computing, plus the communication primitives used by the
//! replacement-paths algorithms.
//!
//! # The model
//!
//! A network is a graph `G = (V, E)`; each vertex is a computational node
//! and each edge a bidirectional communication link. Computation proceeds
//! in synchronous rounds: in each round every node may send one
//! `O(log n)`-bit message per incident link per direction, then receives
//! whatever its neighbors sent. Local computation is free; the complexity
//! measure is the number of rounds ([Peleg 2000]).
//!
//! The simulator *enforces* the model: at most one message per link
//! direction per round, and every message's declared size must fit the
//! configured bandwidth. Violations are protocol bugs and panic.
//!
//! # The engine
//!
//! [`Network`] + [`Protocol`]: algorithms are state machines; the engine
//! owns delivery, round counting, bit accounting, and optional cut
//! accounting (bits crossing a labelled vertex cut — used by the
//! Section 6 lower-bound experiments).
//!
//! A [`Protocol`] value is the read-only state every node consults;
//! the caller owns one state slot per node and lends the slice to the
//! run. The engine steps a node with `&mut` to that node's slot alone,
//! so the type system keeps every local step local: cross-node
//! information can only travel in messages. All protocols run through
//! the same two entry points — [`Network::run_rounds`] for fixed round
//! schedules and [`Network::run_until_quiet`] for quiescence-driven
//! ones — which share one round driver and one commit path.
//!
//! Internally the engine is built for the paper's regime — protocols
//! whose rounds vastly outnumber their busy nodes:
//!
//! - **Active-set scheduling.** Every protocol runs under one schedule:
//!   a node is stepped only when it is in round 0, received a message
//!   this round, or re-armed itself with [`NodeCtx::wake`] in the
//!   previous round; senders implicitly arm their receivers. Protocols
//!   with self-driven work (send queues, held items, systolic round
//!   schedules) call `wake` to stay scheduled, and every protocol
//!   must be sweep-agnostic (the activation contract on [`Protocol`]).
//!   [`Network::set_full_sweep`] selects the reference schedule instead,
//!   which steps every node every round. On traffic-dense rounds the
//!   engine automatically falls back to sweeping (stepping a superset
//!   of the active set is always exact), so active-set bookkeeping never
//!   loses to the sweep it replaces.
//! - **Flat mailbox arenas.** Sends are staged in one flat buffer and
//!   counting-sorted by destination into a CSR-bucketed arena at the end
//!   of each round; per-node inboxes are slices of that arena. Arena
//!   offsets, link occupancy, and activation marks are validated by
//!   monotonically increasing round generations instead of being
//!   cleared, and all non-message buffers live on the [`Network`], reused
//!   across rounds *and* phases.
//!
//! Every round runs on the caller's thread. The simulator's cost on the
//! paper's instances (n ≤ ~10³) is dominated by rounds with a handful
//! of busy nodes, where handing work to other threads costs more than
//! the round itself.
//!
//! **Invariant:** scheduling is a wall-clock optimization with no
//! effect on the measured model quantities. Delivered messages,
//! per-destination delivery order, round counts, and every [`RunStats`]
//! field are bit-identical between active-set and full-sweep runs;
//! the differential suite in `tests/engine_equivalence.rs` asserts this
//! for every primitive and every end-to-end solver. Table 1 numbers
//! depend only on the model, never on the schedule or the hardware.
//!
//! # Fault injection
//!
//! The invariant extends to *misbehaving* networks: a seeded
//! [`FaultPlan`] ([`faults`]) attaches timed link failures, node
//! crashes, and random message drops to a [`Network`]
//! ([`Network::set_fault_plan`], which rejects a plan naming elements
//! outside the graph with a [`FaultPlanError`]). The plan is applied at
//! commit time and only ever drops messages: the rounds stay
//! synchronous, and whatever it lets through arrives in the round after
//! it was sent. Every per-message decision hashes `(seed, round, link,
//! direction)` — message identity, not draw order — so a fixed plan
//! yields bit-identical delivery, [`RunStats`], and [`FaultStats`]
//! under either schedule; [`FaultStats`] is *included* in [`Metrics`]
//! equality to pin that down.
//!
//! # Communication primitives
//! - [`bfs_tree`]: distributed BFS tree over the underlying undirected
//!   graph (depth at most the eccentricity of the root, hence at most
//!   `D`).
//! - [`broadcast`]: Lemma 2.4 — broadcasting `M` messages to the readers
//!   in `O(M + D)` rounds via pipelined upcast/downcast on the BFS tree.
//!   The upcast is sorted, so the root meets the items in ascending
//!   order and filters what goes down; only the root stores the stream,
//!   and the nodes above a reader relay it into the readers' subtrees.
//! - [`aggregate`]: op-generic tree aggregation (convergecast +
//!   downcast) in `O(D)` rounds — the 2-SiSP finale uses the `Min`
//!   instance.
//! - [`multi_bfs`]: Lemma 5.5 — `k`-source `h`-hop BFS in `O(k + h)`
//!   rounds, with optional per-edge hop delays (the rounding device of
//!   Section 7) and per-source distance tables.
//! - [`pipeline`]: staggered prefix folds along an embedded path — the
//!   "information pipelining" pattern of Lemmas 4.4, 5.7, 7.7 and 7.8.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod bfs_tree;
pub mod broadcast;
pub mod faults;
mod metrics;
pub mod multi_bfs;
mod network;
pub mod pipeline;

pub use faults::{FaultPlan, FaultPlanError};
pub use metrics::{CacheStats, DispatchStats, FaultStats, Metrics, PhaseStats, RunStats};
pub use network::{word_bits, EngineError, Network, NodeCtx, Port, Protocol, Side};
