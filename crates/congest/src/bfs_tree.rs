//! Distributed BFS tree over the underlying undirected graph.
//!
//! Nearly every global primitive in the paper (Lemma 2.4 broadcast, the
//! `O(D)`-round aggregations) runs on a BFS tree rooted anywhere; its
//! depth is at most the root's undirected eccentricity, hence at most `D`.
//!
//! Construction can *fail*: a partitioned communication graph leaves some
//! nodes outside the root's component, which [`build_bfs_tree`] reports
//! as the recoverable [`TreeError::Disconnected`] instead of aborting —
//! failure-scenario callers (network partitions) match on it and degrade
//! gracefully.

use std::fmt;

use graphkit::NodeId;

use crate::network::{word_bits, Network, NodeCtx, Protocol};
use crate::{EngineError, RunStats};

/// The result of distributed BFS-tree construction.
#[derive(Clone, Debug)]
pub struct BfsTree {
    /// The root node.
    pub root: NodeId,
    /// Per node: the port leading to its parent (`None` at the root).
    pub parent_port: Vec<Option<u32>>,
    /// Per node: the parent node id (`None` at the root).
    pub parent: Vec<Option<NodeId>>,
    /// Per node: ports leading to its children.
    pub child_ports: Vec<Vec<u32>>,
    /// Per node: hop depth from the root.
    pub depth: Vec<u64>,
    /// Height of the tree (max depth).
    pub height: u64,
}

/// Why BFS-tree construction could not produce a spanning tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TreeError {
    /// The communication graph is disconnected: only `joined` of `total`
    /// nodes are in the root's component. `witness` is the smallest
    /// unreachable node id.
    Disconnected {
        /// Nodes that joined the tree.
        joined: usize,
        /// Nodes in the network.
        total: usize,
        /// The smallest node id the flood never reached.
        witness: NodeId,
    },
    /// The flood failed to quiesce within its round budget (an engine or
    /// protocol invariant violation, not a topology property).
    Engine(EngineError),
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::Disconnected {
                joined,
                total,
                witness,
            } => write!(
                f,
                "communication graph is disconnected: the BFS tree reached {joined} \
                 of {total} nodes and {severed} nodes are unreachable (first \
                 witness: node {witness})",
                severed = total - joined
            ),
            TreeError::Engine(e) => write!(f, "BFS tree flood did not quiesce: {e}"),
        }
    }
}

impl std::error::Error for TreeError {}

impl From<EngineError> for TreeError {
    fn from(e: EngineError) -> TreeError {
        TreeError::Engine(e)
    }
}

/// Wire format: depth is u32 (tree depth is bounded by `n - 1 <
/// u32::MAX` nodes), keeping the message at 8 bytes on the engine's
/// hot path; the declared [`word_bits`] size is unchanged.
#[derive(Clone, Copy, Debug)]
enum TreeMsg {
    /// "I am at depth d; join me."
    Join { depth: u32 },
    /// "You are my parent."
    Adopt,
}

/// One node's construction state.
#[derive(Clone)]
struct TreeNode {
    depth: Option<u32>,
    parent_port: Option<u32>,
    child_ports: Vec<u32>,
}

/// The BFS flood from `root`. Joins and adoptions happen only on
/// receipt (or at the root in round 0), so no step needs a wake.
struct TreeProtocol {
    root: NodeId,
}

impl Protocol for TreeProtocol {
    type Msg = TreeMsg;
    type Node = TreeNode;

    fn msg_bits(&self, msg: &TreeMsg) -> u64 {
        match msg {
            TreeMsg::Join { depth } => 1 + word_bits(*depth as u64),
            TreeMsg::Adopt => 1,
        }
    }

    fn step_node(&self, node: &mut TreeNode, ctx: &mut NodeCtx<'_, TreeMsg>) {
        let v = ctx.node;
        // Record adoption replies.
        for &(port, msg) in ctx.inbox() {
            if matches!(msg, TreeMsg::Adopt) {
                node.child_ports.push(port);
            }
        }
        let newly_joined = if ctx.round == 0 && v == self.root {
            node.depth = Some(0);
            true
        } else if node.depth.is_none() {
            if let Some(&(port, TreeMsg::Join { depth })) = ctx
                .inbox()
                .iter()
                .find(|(_, m)| matches!(m, TreeMsg::Join { .. }))
            {
                node.depth = Some(depth + 1);
                node.parent_port = Some(port);
                true
            } else {
                false
            }
        } else {
            false
        };
        if newly_joined {
            let my_depth = node.depth.expect("just set");
            if let Some(pp) = node.parent_port {
                ctx.send(pp, TreeMsg::Adopt);
            }
            for p in 0..ctx.ports().len() as u32 {
                if Some(p) != node.parent_port {
                    ctx.send(p, TreeMsg::Join { depth: my_depth });
                }
            }
        }
    }
}

/// Builds a BFS tree rooted at `root`, charging the rounds it takes
/// (at most `ecc(root) + O(1)`).
///
/// # Errors
///
/// Returns [`TreeError::Disconnected`] when some node is not in the
/// root's component of the communication graph — the tree would not
/// span, so downstream broadcasts/aggregations could not terminate.
/// Partition-tolerant callers match on this instead of aborting.
pub fn build_bfs_tree(
    net: &mut Network<'_>,
    root: NodeId,
) -> Result<(BfsTree, RunStats), TreeError> {
    let n = net.node_count();
    let mut nodes = vec![
        TreeNode {
            depth: None,
            parent_port: None,
            child_ports: Vec::new(),
        };
        n
    ];
    let stats = net.run_until_quiet(
        "bfs-tree",
        &TreeProtocol { root },
        &mut nodes,
        2 * n as u64 + 4,
    )?;
    let mut depth = Vec::with_capacity(n);
    let mut joined = 0usize;
    let mut witness = None;
    for (v, node) in nodes.iter().enumerate() {
        match node.depth {
            Some(d) => {
                joined += 1;
                depth.push(d as u64);
            }
            None => {
                if witness.is_none() {
                    witness = Some(v);
                }
                depth.push(0);
            }
        }
    }
    if let Some(witness) = witness {
        return Err(TreeError::Disconnected {
            joined,
            total: n,
            witness,
        });
    }
    let height = depth.iter().copied().max().unwrap_or(0);
    let parent = (0..n)
        .map(|v| nodes[v].parent_port.map(|p| net.ports(v)[p as usize].peer))
        .collect();
    let (parent_port, child_ports) = nodes
        .into_iter()
        .map(|nd| (nd.parent_port, nd.child_ports))
        .unzip();
    Ok((
        BfsTree {
            root,
            parent_port,
            parent,
            child_ports,
            depth,
            height,
        },
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::gen::random_digraph;
    use graphkit::GraphBuilder;

    #[test]
    fn line_tree_depths() {
        let mut b = GraphBuilder::new(5);
        for i in 0..4 {
            b.add_arc(i, i + 1);
        }
        let g = b.build();
        let mut net = Network::new(&g);
        let (tree, stats) = build_bfs_tree(&mut net, 2).unwrap();
        assert_eq!(tree.depth, vec![2, 1, 0, 1, 2]);
        assert_eq!(tree.height, 2);
        assert_eq!(tree.parent[2], None);
        assert_eq!(tree.parent[0], Some(1));
        assert_eq!(tree.parent[4], Some(3));
        assert!(stats.rounds <= 5);
    }

    #[test]
    fn children_are_symmetric_to_parents() {
        let g = random_digraph(40, 80, 5);
        let mut net = Network::new(&g);
        let (tree, _) = build_bfs_tree(&mut net, 0).unwrap();
        for v in 0..40 {
            for &cp in &tree.child_ports[v] {
                let child = net.ports(v)[cp as usize].peer;
                assert_eq!(tree.parent[child], Some(v));
                assert_eq!(tree.depth[child], tree.depth[v] + 1);
            }
        }
        // Every non-root node is someone's child.
        let child_count: usize = tree.child_ports.iter().map(|c| c.len()).sum();
        assert_eq!(child_count, 39);
    }

    #[test]
    fn depth_is_undirected_distance() {
        let g = random_digraph(30, 40, 9);
        let mut net = Network::new(&g);
        let (tree, _) = build_bfs_tree(&mut net, 7).unwrap();
        // Verify against a centralized undirected BFS.
        let mut dist = vec![usize::MAX; 30];
        let mut queue = std::collections::VecDeque::new();
        dist[7] = 0;
        queue.push_back(7);
        while let Some(u) = queue.pop_front() {
            for w in g.undirected_neighbors(u) {
                if dist[w] == usize::MAX {
                    dist[w] = dist[u] + 1;
                    queue.push_back(w);
                }
            }
        }
        for v in 0..30 {
            assert_eq!(tree.depth[v] as usize, dist[v], "node {v}");
        }
    }

    #[test]
    fn rounds_bounded_by_height() {
        let g = random_digraph(60, 150, 3);
        let mut net = Network::new(&g);
        let (tree, stats) = build_bfs_tree(&mut net, 0).unwrap();
        // Joins finish at round height; adopts and quiescence detection
        // add a constant.
        assert!(
            stats.rounds <= tree.height + 3,
            "rounds {} vs height {}",
            stats.rounds,
            tree.height
        );
    }

    #[test]
    fn disconnection_is_a_recoverable_error() {
        // Two components: 0-1-2 and 3-4. The flood from 0 reaches three
        // nodes; construction must report the partition, not panic.
        let mut b = GraphBuilder::new(5);
        b.add_arc(0, 1);
        b.add_arc(1, 2);
        b.add_arc(3, 4);
        let g = b.build();
        let mut net = Network::new(&g);
        let err = build_bfs_tree(&mut net, 0).unwrap_err();
        assert_eq!(
            err,
            TreeError::Disconnected {
                joined: 3,
                total: 5,
                witness: 3
            }
        );
        // The network stays usable: a root inside the other component
        // sees the mirror-image partition.
        let err = build_bfs_tree(&mut net, 3).unwrap_err();
        assert_eq!(
            err,
            TreeError::Disconnected {
                joined: 2,
                total: 5,
                witness: 0
            }
        );
    }

    #[test]
    fn disconnected_message_names_witness_and_component_sizes() {
        // Operators triage partitions from this string; keep the witness
        // node and both component sizes in it.
        let err = TreeError::Disconnected {
            joined: 3,
            total: 5,
            witness: 3,
        };
        assert_eq!(
            err.to_string(),
            "communication graph is disconnected: the BFS tree reached 3 of 5 \
             nodes and 2 nodes are unreachable (first witness: node 3)"
        );
    }

    #[test]
    fn isolated_node_is_reported() {
        let mut b = GraphBuilder::new(3);
        b.add_arc(0, 1);
        let g = b.build();
        let mut net = Network::new(&g);
        match build_bfs_tree(&mut net, 0) {
            Err(TreeError::Disconnected {
                joined,
                total,
                witness,
            }) => {
                assert_eq!((joined, total, witness), (2, 3, 2));
            }
            other => panic!("expected Disconnected, got {other:?}"),
        }
    }
}
