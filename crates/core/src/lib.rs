//! Distributed replacement paths in the CONGEST model.
//!
//! This crate implements the algorithms of *Optimal Distributed
//! Replacement Paths* (Chang, Chen, Dey, Mishra, Nguyen, Sanchez; PODC
//! 2025) on top of the message-level simulator in the `congest` crate:
//!
//! - [`unweighted::solve`] — **Theorem 1**: exact replacement paths in
//!   unweighted directed graphs in `eO(n^{2/3} + D)` rounds, combining
//!   the short-detour machinery of Section 4 ([`short`]) with the
//!   landmark-based long-detour machinery of Section 5 ([`long`]).
//! - [`weighted::solve`] — **Theorem 3**: `(1+ε)`-approximate replacement
//!   paths in weighted directed graphs in the same round complexity
//!   (Section 7), via rounding.
//! - [`sisp`] — the 2-SiSP problem (Definition 2.3): the single smallest
//!   replacement length, aggregated in `O(D)` extra rounds.
//! - [`reachability`] — the yes/no variant from the paper's open
//!   problems (Section 8): which path edges are survivable at all.
//! - [`resilient`] — Theorem 1 under faults:
//!   [`resilient::solve_with_recovery`] detects the permanent faults of
//!   a `congest::FaultPlan`, re-poses the demand on the source's
//!   surviving component, and solves it there once, returning a
//!   structured degraded answer instead of all-or-nothing failure.
//! - [`baseline`] — what the paper compares against: the trivial
//!   `O(h_st · T_SSSP)` algorithm and the `eO(n^{2/3} + √(n·h_st) + D)`
//!   algorithm of Manoharan and Ramachandran (SIROCCO 2024).
//!
//! The entry point for problem instances is [`Instance`]; algorithm knobs
//! (the short/long threshold ζ, the landmark sampling rate, seeds, ε)
//! live in [`Params`]. Every solver returns both the answers and the
//! full round/message/bit accounting of its run. Each one-shot `solve`
//! is its network-level `solve_on` run through [`with_network`] on a
//! fresh network.
//!
//! For answering *many* queries against one graph, [`SolverSession`]
//! ([`session`]) is the plan/execute layer: it batches failed-edge
//! queries, runs at most one cold `solve_on` per distinct instance, and
//! caches its artifacts in a deterministic LRU ([`cache`]) that persists
//! through `rpaths-store` snapshots ([`artifacts`] holds the codec).
//!
//! Every phase of every solver — tree construction, knowledge waves,
//! hop-BFS, multi-source BFS, pipelines, broadcasts, aggregations — runs
//! on the `congest` crate's deterministic round engine, so whole solves
//! are bit-identical under either scheduling mode (enforced end-to-end
//! by `tests/engine_equivalence.rs`). Failure scenarios are first-class:
//! solvers return [`SolveError`] (for example, on a partitioned
//! communication graph) instead of panicking.
//!
//! # Quick example
//!
//! ```
//! use graphkit::gen::parallel_lane;
//! use rpaths_core::{Instance, Params, unweighted};
//!
//! let (g, s, t) = parallel_lane(16, 4, 2);
//! let inst = Instance::from_endpoints(&g, s, t).unwrap();
//! let params = Params::for_instance(&inst);
//! let out = unweighted::solve(&inst, &params).unwrap();
//! // Exact agreement with the centralized oracle:
//! let oracle = graphkit::alg::replacement_lengths(inst.graph, &inst.path);
//! assert_eq!(out.replacement, oracle);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
pub mod baseline;
pub mod cache;
pub mod fixture;
mod instance;
pub mod knowledge;
pub mod long;
pub mod oracle;
mod params;
pub mod reachability;
pub mod resilient;
pub mod session;
pub mod short;
pub mod sisp;
pub mod testhooks;
pub mod unweighted;
pub mod weighted;

pub use cache::{ArtifactCache, ArtifactKind, CacheKey, CacheValue, SolverKind};
pub use instance::{Instance, InstanceError};
pub use params::Params;
pub use session::{Answer, Query, SessionError, SessionStats, SolverSession};

use std::fmt;

use congest::bfs_tree::TreeError;
use congest::{Metrics, Network};
use graphkit::{DiGraph, Dist};

/// Why a solver could not produce an answer.
///
/// Every public solver returns `Result<_, SolveError>`: failure scenarios
/// (most importantly a *partitioned* communication graph, where the BFS
/// tree the global primitives run on cannot span) are recoverable
/// conditions callers handle, never panics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveError {
    /// The communication graph is partitioned: the BFS tree rooted at the
    /// source reached only `reached` of `total` nodes.
    Partitioned {
        /// Nodes in the source's component.
        reached: usize,
        /// Nodes in the network.
        total: usize,
        /// The smallest node id outside the source's component.
        witness: usize,
    },
    /// An engine round budget was exhausted (an invariant violation, not
    /// a topology property).
    Engine(congest::EngineError),
    /// The edge weights are too large for Theorem 3's exact scaled
    /// arithmetic: some scaled length the weighted solver forms would
    /// not fit `u64`.
    WeightsTooLarge {
        /// The sum of all edge weights (which may itself exceed `u64`).
        total_weight: u128,
    },
    /// The [`Params`] lie outside the domain every solver assumes
    /// (`Params::check`): the message names the first field outside it.
    /// Returned before any round runs.
    InvalidParams(String),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Partitioned {
                reached,
                total,
                witness,
            } => write!(
                f,
                "communication graph is partitioned: the source's component holds \
                 {reached} of {total} nodes and {severed} nodes are unreachable \
                 (first witness: node {witness})",
                severed = total - reached
            ),
            SolveError::Engine(e) => write!(f, "engine budget exhausted: {e}"),
            SolveError::WeightsTooLarge { total_weight } => write!(
                f,
                "edge weights too large for exact scaled arithmetic: the total \
                 weight {total_weight} gives scaled lengths beyond u64"
            ),
            SolveError::InvalidParams(e) => write!(f, "invalid parameters: {e}"),
        }
    }
}

impl std::error::Error for SolveError {}

impl From<TreeError> for SolveError {
    fn from(e: TreeError) -> SolveError {
        match e {
            TreeError::Disconnected {
                joined,
                total,
                witness,
            } => SolveError::Partitioned {
                reached: joined,
                total,
                witness,
            },
            TreeError::Engine(e) => SolveError::Engine(e),
        }
    }
}

/// The output of a replacement-paths solver.
#[derive(Clone, Debug)]
pub struct RPathsOutput {
    /// `replacement[i] = |st ⋄ (v_i, v_{i+1})|` for each edge of `P`
    /// (exact solvers) or an upper bound within the approximation
    /// guarantee (approximate solvers).
    pub replacement: Vec<Dist>,
    /// Full round/message/bit accounting for the run.
    pub metrics: Metrics,
}

impl RPathsOutput {
    /// The 2-SiSP value implied by the per-edge answers.
    pub fn sisp(&self) -> Dist {
        self.replacement.iter().copied().min().unwrap_or(Dist::INF)
    }
}

/// Runs `f` on a fresh network over `graph` and pairs its result with
/// the network's metrics: the one implementation of the `Network::new`
/// / `solve_on` / `take_metrics` sequence behind every one-shot `solve`.
///
/// # Errors
///
/// Whatever `f` reports.
pub fn with_network<'g, T>(
    graph: &'g DiGraph,
    f: impl FnOnce(&mut Network<'g>) -> Result<T, SolveError>,
) -> Result<(T, Metrics), SolveError> {
    let mut net = Network::new(graph);
    let out = f(&mut net)?;
    Ok((out, net.take_metrics()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioned_message_names_witness_and_component_sizes() {
        // Campaign reports and operator logs surface this string; keep
        // the witness node and both component sizes in it.
        let err = SolveError::Partitioned {
            reached: 5,
            total: 12,
            witness: 9,
        };
        assert_eq!(
            err.to_string(),
            "communication graph is partitioned: the source's component holds \
             5 of 12 nodes and 7 nodes are unreachable (first witness: node 9)"
        );
    }

    #[test]
    fn tree_error_converts_with_fields_preserved() {
        let err: SolveError = TreeError::Disconnected {
            joined: 2,
            total: 5,
            witness: 0,
        }
        .into();
        assert_eq!(
            err,
            SolveError::Partitioned {
                reached: 2,
                total: 5,
                witness: 0
            }
        );
    }
}
