//! Lemma 2.4: broadcasting `M` messages to all nodes in `O(M + D)` rounds.
//!
//! Every node starts with a (possibly empty) list of `O(log n)`-bit items.
//! Items are upcast towards the BFS-tree root (one per tree link per
//! round, pipelined), the root serializes them, and the stream is downcast
//! to everyone. Every node receives every item; without faults, all nodes
//! receive them in the root's order.
//!
//! # Memory
//!
//! Only the root keeps the stream: `O(M)` items. Every other node only
//! relays it, holding its upcast queue, a FIFO of items received from its
//! parent but not yet sent to its children, and a count of the items it
//! has received. A relay forwards one item per round and, without faults,
//! receives at most one per round, so its FIFO holds `O(1)` items; under a
//! delay [`FaultPlan`](crate::FaultPlan) it holds at most the items that
//! were in flight towards it. The receive count is the delivery check: the
//! run quiesces only once every node has received all `M` items.

use std::collections::VecDeque;
use std::marker::PhantomData;

use crate::bfs_tree::BfsTree;
use crate::network::{Network, NodeCtx, Protocol};
use crate::RunStats;

#[derive(Clone, Debug)]
enum Flow<T> {
    Up(T),
    Down(T),
}

/// The downcast half of one node's pipeline state.
enum Downcast<T> {
    /// The root: the serialized stream so far, and the index of the next
    /// item to send to its children.
    Root { stream: Vec<T>, cursor: usize },
    /// Every other node: items received from the parent and not yet sent
    /// to the children (in arrival order), and how many it has received.
    Relay { queue: VecDeque<T>, received: usize },
}

/// One node's pipeline state.
struct BcastNode<T> {
    /// Items waiting to move towards the root.
    up_queue: VecDeque<T>,
    down: Downcast<T>,
}

impl<T> BcastNode<T> {
    /// Stream items this node holds but has not yet sent to its children.
    fn unsent(&self) -> usize {
        match &self.down {
            Downcast::Root { stream, cursor } => stream.len() - cursor,
            Downcast::Relay { queue, .. } => queue.len(),
        }
    }

    /// Whether this node has nothing left to send and has received (at
    /// the root: serialized) all `expected_total` items.
    fn done(&self, expected_total: usize) -> bool {
        let received = match &self.down {
            Downcast::Root { stream, .. } => stream.len(),
            Downcast::Relay { received, .. } => *received,
        };
        self.up_queue.is_empty() && self.unsent() == 0 && received == expected_total
    }
}

/// The pipeline over `tree`; every node consults the tree and the item
/// sizing.
struct BroadcastProtocol<'t, T, F> {
    tree: &'t BfsTree,
    bits: F,
    expected_total: usize,
    /// `T` appears only in the node slots and `bits`'s bound.
    item: PhantomData<fn(&T)>,
}

impl<'t, T, F> BroadcastProtocol<'t, T, F> {
    /// The protocol and its node slots, node `v` starting with `items[v]`.
    fn new(tree: &'t BfsTree, items: Vec<Vec<T>>, bits: F) -> (Self, Vec<BcastNode<T>>) {
        let expected_total = items.iter().map(|i| i.len()).sum();
        let nodes = items
            .into_iter()
            .enumerate()
            .map(|(v, i)| BcastNode {
                up_queue: VecDeque::from(i),
                down: if v == tree.root {
                    Downcast::Root {
                        stream: Vec::with_capacity(expected_total),
                        cursor: 0,
                    }
                } else {
                    Downcast::Relay {
                        queue: VecDeque::new(),
                        received: 0,
                    }
                },
            })
            .collect();
        let proto = BroadcastProtocol {
            tree,
            bits,
            expected_total,
            item: PhantomData,
        };
        (proto, nodes)
    }
}

impl<'t, T: Clone, F: Fn(&T) -> u64> Protocol for BroadcastProtocol<'t, T, F> {
    type Msg = Flow<T>;
    type Node = BcastNode<T>;

    fn msg_bits(&self, msg: &Flow<T>) -> u64 {
        match msg {
            Flow::Up(t) | Flow::Down(t) => 1 + (self.bits)(t),
        }
    }

    fn step_node(&self, node: &mut BcastNode<T>, ctx: &mut NodeCtx<'_, Flow<T>>) {
        let v = ctx.node;
        let tree = self.tree;
        let BcastNode { up_queue, down } = node;
        for (_, msg) in ctx.inbox() {
            match (msg, &mut *down) {
                // The root serializes whatever its children upcast.
                (Flow::Up(item), Downcast::Root { stream, .. }) => stream.push(item.clone()),
                (Flow::Up(item), Downcast::Relay { .. }) => up_queue.push_back(item.clone()),
                (Flow::Down(item), Downcast::Relay { queue, received }) => {
                    queue.push_back(item.clone());
                    *received += 1;
                }
                (Flow::Down(_), Downcast::Root { .. }) => unreachable!("the root has no parent"),
            }
        }
        // Move one queued item towards the root; the root's "upward" move
        // is appending to its own stream.
        if let Some(item) = up_queue.pop_front() {
            match down {
                Downcast::Root { stream, .. } => stream.push(item),
                Downcast::Relay { .. } => {
                    let pp = tree.parent_port[v].expect("a relay has a parent");
                    ctx.send(pp, Flow::Up(item));
                }
            }
        }
        // Relay the next stream item to all children. One item per round,
        // even when a delayed item arrived alongside an on-time one: the
        // queue keeps each child link at one message per round.
        let next = match down {
            Downcast::Root { stream, cursor } => {
                let item = stream.get(*cursor).cloned();
                *cursor += usize::from(item.is_some());
                item
            }
            Downcast::Relay { queue, .. } => queue.pop_front(),
        };
        if let Some(item) = next {
            for &cp in &tree.child_ports[v] {
                ctx.send(cp, Flow::Down(item.clone()));
            }
        }
        // The pipeline moves one item per round, so a node with queued
        // uploads or unsent stream items must act again next round even
        // if nothing new arrives.
        if !node.up_queue.is_empty() || node.unsent() > 0 {
            ctx.wake();
        }
    }

    fn idle(&self, nodes: &[BcastNode<T>]) -> bool {
        nodes.iter().all(|nd| nd.done(self.expected_total))
    }
}

/// Broadcasts every node's items to every node over `tree`.
///
/// Returns the root's stream — every item exactly once, in the order the
/// root serialized them — plus the run statistics. Only the root stores
/// the stream (`O(M)` items); every other node relays it through a queue
/// of `O(1)` items (`O(items in flight)` under delays) and counts what it
/// receives, and the run quiesces only once every node's count reaches
/// `M`. `bits` declares the size of one item (the engine checks it
/// against the bandwidth, so items must be `O(log n)` bits — split larger
/// payloads into multiple items).
///
/// Round complexity is `O(M + height(tree))` where `M` is the total item
/// count, matching Lemma 2.4; tests assert the constant.
///
/// # Panics
///
/// Panics if the protocol fails to quiesce within `4(M + height) + 16`
/// rounds, which would indicate an engine or tree bug, or a fault plan
/// that kept some node from receiving every item.
pub fn broadcast<T: Clone>(
    net: &mut Network<'_>,
    tree: &BfsTree,
    items: Vec<Vec<T>>,
    bits: impl Fn(&T) -> u64,
    phase: &str,
) -> (Vec<T>, RunStats) {
    assert_eq!(items.len(), net.node_count());
    let (proto, mut nodes) = BroadcastProtocol::new(tree, items, bits);
    let budget = 4 * (proto.expected_total as u64 + tree.height) + 16;
    let stats = net
        .run_until_quiet(phase, &proto, &mut nodes, budget)
        .expect("broadcast quiesces within O(M + D)");
    let Downcast::Root { stream, .. } = nodes.swap_remove(tree.root).down else {
        unreachable!("the tree root holds the stream")
    };
    (stream, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs_tree::build_bfs_tree;
    use crate::FaultPlan;
    use graphkit::gen::random_digraph;
    use std::cell::Cell;

    /// The broadcast protocol, instrumented to record the most unsent
    /// items any relay held at the end of its step.
    struct Probe<'t> {
        inner: Inner<'t>,
        max_backlog: Cell<usize>,
    }

    type Inner<'t> = BroadcastProtocol<'t, u64, fn(&u64) -> u64>;

    impl Protocol for Probe<'_> {
        type Msg = Flow<u64>;
        type Node = BcastNode<u64>;

        fn msg_bits(&self, msg: &Flow<u64>) -> u64 {
            self.inner.msg_bits(msg)
        }

        fn step_node(&self, node: &mut BcastNode<u64>, ctx: &mut NodeCtx<'_, Flow<u64>>) {
            self.inner.step_node(node, ctx);
            if let Downcast::Relay { queue, .. } = &node.down {
                self.max_backlog
                    .set(self.max_backlog.get().max(queue.len()));
            }
        }

        fn idle(&self, nodes: &[BcastNode<u64>]) -> bool {
            self.inner.idle(nodes)
        }
    }

    /// Broadcasts two items from every node under `plan` and returns the
    /// largest relay backlog seen after any step.
    fn max_relay_backlog(plan: Option<FaultPlan>) -> usize {
        let g = random_digraph(40, 80, 5);
        let mut net = Network::new(&g);
        let (tree, _) = build_bfs_tree(&mut net, 3).unwrap();
        net.set_fault_plan(plan).unwrap();
        let items: Vec<Vec<u64>> = (0..40).map(|v| vec![v, 100 + v]).collect();
        let (inner, mut nodes): (Inner<'_>, _) = BroadcastProtocol::new(&tree, items, |_| 16);
        let probe = Probe {
            inner,
            max_backlog: Cell::new(0),
        };
        net.run_until_quiet("probe", &probe, &mut nodes, 4 * (80 + tree.height) + 16)
            .expect("probe quiesces");
        probe.max_backlog.get()
    }

    #[test]
    fn relays_hold_no_backlog_without_faults() {
        // A relay receives at most one item per round from its parent and
        // forwards one in the same step.
        assert_eq!(max_relay_backlog(None), 0);
    }

    #[test]
    fn relay_backlog_is_bounded_by_the_delay() {
        // Items sent in the last `max_delay + 1` rounds can land together,
        // so a relay ends a step at most `max_delay` items behind.
        let backlog = max_relay_backlog(Some(FaultPlan::new(9).delay_messages(0.35, 3)));
        assert!((1..=3).contains(&backlog), "backlog {backlog}");
    }
}
