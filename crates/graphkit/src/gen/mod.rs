//! Graph families for tests, examples, and benchmarks.
//!
//! Every generator returns a graph whose *underlying undirected* graph is
//! connected (the CONGEST model needs a connected communication network)
//! and is deterministic given its seed.
//!
//! The families are chosen to exercise the regimes the paper
//! distinguishes:
//!
//! - [`random_digraph`] / [`random_weighted_digraph`]: unstructured
//!   instances for differential testing against the centralized oracle.
//! - [`planted_path_digraph`]: random instances with a *guaranteed*
//!   shortest path of a chosen hop count `h_st`, so benchmarks can sweep
//!   `h_st` independently of `n` (the quantity the paper eliminates from
//!   the round complexity).
//! - [`parallel_lane`]: a path plus a stretched parallel lane with
//!   switch points every `c` hops — detour length is `2 + c·stretch`, so
//!   choosing `c` moves instances between the short-detour and
//!   long-detour regimes of Sections 4 and 5.
//! - [`layered_dag`] and [`grid`]: structured topologies with many
//!   alternative routes.
//! - [`theorem2_family`]: the Ω(D) construction from the proof of
//!   Theorem 2 (two parallel `s`-`t` paths of lengths `D` and `D+1`).
//! - [`star`], [`two_hub`], [`power_law_digraph`]: degree-skewed
//!   topologies (one hub, two adjacent hubs, preferential attachment)
//!   whose hub inboxes receive most of a round's messages.
//! - [`metro_ring`]: a bidirectional cycle of points of presence — the
//!   2-edge-connected carrier topology the fault-injection campaigns
//!   degrade one span at a time.
//! - [`grid_road`]: a bidirectional road grid with random diagonal
//!   chords — realistic two-way street networks where detours backtrack.
//! - [`octopus_pods`]: Octopus-style memory pods on a sparse inter-pod
//!   spine — strongly degree-skewed clusters with long inter-pod detours.

mod families;
mod random;

pub use families::{
    grid, grid_road, layered_dag, metro_ring, octopus_pods, parallel_lane, power_law_digraph, star,
    theorem2_family, two_hub, Theorem2Instance,
};
pub use random::{
    planted_path_digraph, random_digraph, random_reachable_pair, random_weighted_digraph,
};
