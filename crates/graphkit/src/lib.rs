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
//!
//! Nothing in this crate knows about rounds, messages or bytes on disk;
//! the CONGEST simulation lives in the `congest` crate, the paper's
//! algorithms in `rpaths-core`, and the graph's byte codec in
//! `rpaths-store`, which decodes through [`GraphBuilder::try_add_edge`]
//! so the edge rules are stated once.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alg;
mod dist;
pub mod gen;
mod graph;
mod path;

pub use dist::Dist;
pub use graph::{DiGraph, Edge, EdgeId, GraphBuilder, NodeId};
pub use path::{PathError, StPath};
