//! Graph substrate for the distributed replacement-paths reproduction.
//!
//! This crate provides everything the rest of the workspace needs to talk
//! about graphs *outside* the CONGEST model:
//!
//! - [`DiGraph`]: a compact directed multigraph with positive integer
//!   weights, indexed adjacency in both directions, and cheap edge lookups.
//! - [`StPath`]: a validated `s`-`t` shortest path, the object `P` that the
//!   replacement-paths problem is defined relative to.
//! - [`Dist`]: an extended-natural distance value (`u64` plus infinity)
//!   with saturating arithmetic, so "no path" propagates safely through
//!   min-plus computations.
//! - [`gen`]: graph families used by tests, examples, and benchmarks —
//!   random digraphs with a planted shortest path, ladder graphs with
//!   tunable detour lengths, grids, layered DAGs, and the Θ(D) family from
//!   the paper's Theorem 2.
//! - [`alg`]: centralized reference algorithms (BFS, Dijkstra, hop-bounded
//!   distances, undirected eccentricity/diameter) and the ground-truth
//!   replacement-paths oracle used to validate every distributed
//!   algorithm in the workspace.
//! - a snapshot codec ([`DiGraph::to_snapshot`] /
//!   [`DiGraph::from_snapshot`]): a defensive little-endian byte
//!   encoding of a graph's vertex count and edge list, decoded through
//!   [`GraphBuilder::build`] like every other graph, and used as the
//!   graph section of the `rpaths-store` single-file snapshot format.
//!
//! Nothing in this crate knows about rounds or messages; the CONGEST
//! simulation lives in the `congest` crate and the paper's algorithms in
//! `rpaths-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alg;
mod dist;
pub mod gen;
mod graph;
mod path;
mod snapshot;

pub use dist::Dist;
pub use graph::{DiGraph, Edge, EdgeId, GraphBuilder, NodeId};
pub use path::{PathError, StPath};
pub use snapshot::SnapshotError;
