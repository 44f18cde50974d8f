//! Centralized reference algorithms.
//!
//! These are the ground-truth oracles the distributed algorithms are
//! validated against, plus small utilities (diameter, hop-bounded
//! distances) the generators and benchmark harness need. None of them is
//! part of the paper's contribution; they exist so the reproduction can be
//! *checked*.

mod bfs;
mod diameter;
mod dijkstra;
mod khop;
mod replacement;

pub use bfs::{bfs, bfs_hop_bounded, bfs_reverse, undirected_bfs};
pub use diameter::undirected_diameter;
pub use dijkstra::{dijkstra, shortest_st_path};
pub use khop::hop_bounded_dists;
pub use replacement::{replacement_lengths, second_simple_shortest};
