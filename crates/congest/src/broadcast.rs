//! Lemma 2.4: broadcasting `M` messages to the nodes that read them in
//! `O(M + D)` rounds, with a root that decides what goes down.
//!
//! Every node starts with a (possibly empty) list of `O(log n)`-bit items.
//! Items are upcast towards the BFS-tree root, one per tree link per
//! round, pipelined. Every node merges its own items with its children's
//! streams and sends the smallest item left in its subtree, so the root
//! meets the items in ascending order, one per round, and passes each to
//! a filter that decides, once and for good, whether it goes down. The
//! kept items are downcast, one per round, into every subtree that holds
//! a reader; only they cross the downcast links. A filter that keeps every
//! item and a reader set of every node make this the plain broadcast.
//!
//! # Readers
//!
//! Each node knows whether it reads the stream. Its first upcast message
//! (an item, the last item, or a bare report that its subtree is done)
//! carries one more bit: whether its subtree holds a reader, that is,
//! whether it reads or some child sent a set bit. A node therefore sends
//! nothing up before every child's bit has arrived. The root and every
//! relay send a kept item only to the children whose bit was set, so it
//! crosses the `R` tree links above the readers instead of all `n − 1`,
//! and the other subtrees hear nothing of the downcast.
//!
//! # Rounds
//!
//! The root meets one item per round, after the first has climbed to it
//! and before the last kept one has descended: without faults the run
//! takes between `M` and `M + 2·height` rounds, however the items split
//! among the root's subtrees, however many the filter keeps and wherever
//! the readers sit. Every subtree tells its parent when it is finished, so
//! even an empty broadcast takes `height + 1` rounds and sends `n − 1`
//! messages.
//!
//! # Memory
//!
//! Only the root keeps the stream: the kept items, `O(M)`. A node holds
//! the items its children sent and it has not yet merged, so all `M`
//! items sit somewhere in the tree at any time. Every other node whose
//! subtree holds a reader relays the kept stream, holding a FIFO of items
//! received from its parent but not yet sent to its children, and a count
//! of the items it has received. A relay forwards one item per round and,
//! without faults, receives at most one per round, so its FIFO holds
//! `O(1)` items; under a delay [`FaultPlan`](crate::FaultPlan) it holds at
//! most the items that were in flight towards it.
//!
//! # Budget
//!
//! The run quiesces once the root has offered all `M` items to the
//! filter and every node whose subtree holds a reader has received the
//! whole kept stream. It gets `4(M + height) + 16` rounds; a fault plan
//! that drops a message or cuts a tree link for good, or a tree whose
//! parent does not list one of its children, ends it there with
//! [`EngineError::RoundLimitExceeded`] instead of leaving it waiting.

use std::collections::VecDeque;
use std::marker::PhantomData;

use graphkit::NodeId;

use crate::bfs_tree::BfsTree;
use crate::network::{Network, NodeCtx, Protocol};
use crate::{EngineError, RunStats};

/// What travels during a [`broadcast`]. An upcast carries `Some(reach)`
/// on the sender's first upcast message, `reach` saying whether the
/// sender's subtree holds a reader, and `None` on the others.
#[derive(Clone, Debug)]
enum Sorted<T> {
    /// Upcast: the smallest item the sender had left to send.
    Up(T, Option<bool>),
    /// Upcast: as `Up`, and the sender's subtree has nothing more.
    Last(T, Option<bool>),
    /// Upcast: the sender's subtree has nothing more to send.
    Done(Option<bool>),
    /// Down the tree: an item the root kept.
    Down(T),
}

/// One child's upcast as its parent sees it.
struct Inflow<T> {
    /// The port to the child.
    port: u32,
    /// Items received and not yet merged, ascending.
    queue: VecDeque<T>,
    /// Whether the child's subtree has sent everything.
    done: bool,
    /// Whether the child's subtree holds a reader, once its first upcast
    /// has arrived.
    reach: Option<bool>,
}

/// The upcast half of one node's state: the items of its subtree that it
/// holds, merged on the way out.
struct Merge<T> {
    /// This node's own items not yet merged, ascending.
    own: VecDeque<T>,
    /// One inflow per tree child.
    inflows: Vec<Inflow<T>>,
}

impl<T: Clone + Ord> Merge<T> {
    /// Files one upcast message from the child behind `port`. An upcast
    /// from a port the tree does not list as a child is ignored: that
    /// subtree's items never reach the root, as behind a cut link.
    fn receive(&mut self, port: u32, msg: &Sorted<T>) {
        let Some(f) = self.inflows.iter_mut().find(|f| f.port == port) else {
            return;
        };
        let reach = match msg {
            Sorted::Up(t, reach) => {
                f.queue.push_back(t.clone());
                reach
            }
            Sorted::Last(t, reach) => {
                f.queue.push_back(t.clone());
                f.done = true;
                reach
            }
            Sorted::Done(reach) => {
                f.done = true;
                reach
            }
            Sorted::Down(_) => unreachable!("downcasts come from the parent"),
        };
        // A delay can reorder a child's messages, so its bit may arrive
        // after its later ones.
        f.reach = f.reach.or(*reach);
    }

    /// Whether the smallest item left in the subtree is known: every
    /// child's reach bit has arrived, and every child still sending has
    /// shown its next item.
    fn ready(&self) -> bool {
        self.inflows
            .iter()
            .all(|f| f.reach.is_some() && (f.done || !f.queue.is_empty()))
    }

    /// Whether the subtree has nothing left to send, every child's reach
    /// bit included.
    fn drained(&self) -> bool {
        self.own.is_empty()
            && self
                .inflows
                .iter()
                .all(|f| f.reach.is_some() && f.done && f.queue.is_empty())
    }

    /// The ports of the children whose subtree holds a reader.
    fn reaching(&self) -> impl Iterator<Item = u32> + '_ {
        self.inflows
            .iter()
            .filter(|f| f.reach == Some(true))
            .map(|f| f.port)
    }

    /// Removes and returns the smallest item left in the subtree, once it
    /// is known.
    fn pop_smallest(&mut self) -> Option<T> {
        if !self.ready() {
            return None;
        }
        let mut best = self.own.front().map(|t| (None, t));
        for (i, f) in self.inflows.iter().enumerate() {
            if let Some(t) = f.queue.front() {
                if best.is_none_or(|(_, b)| t < b) {
                    best = Some((Some(i), t));
                }
            }
        }
        match best?.0 {
            None => self.own.pop_front(),
            Some(i) => self.inflows[i].queue.pop_front(),
        }
    }
}

/// The downcast half of one node's state.
enum Role<T, K> {
    /// The root: the filter, how many items it has offered to it, and the
    /// kept stream so far.
    Root {
        keep: K,
        offered: usize,
        stream: Vec<T>,
    },
    /// Every other node: whether it reads the stream, the reach bit it
    /// sent up with its first upcast (once sent), kept items received from
    /// the parent and not yet sent to the children (in arrival order), how
    /// many it has received, and whether it has told its parent that its
    /// subtree is done.
    Relay {
        reader: bool,
        reach: Option<bool>,
        queue: VecDeque<T>,
        received: usize,
        reported: bool,
    },
}

/// One node's state.
struct SortedNode<T, K> {
    up: Merge<T>,
    down: Role<T, K>,
}

/// The sorted pipeline over `tree`; `K` is the root's filter.
struct SortedProtocol<'t, T, F, K> {
    tree: &'t BfsTree,
    bits: F,
    expected_total: usize,
    /// `T` and `K` appear only in the node slots and `bits`'s bound.
    item: PhantomData<fn(&T, K)>,
}

impl<'t, T: Ord, F, K> SortedProtocol<'t, T, F, K> {
    /// The protocol and its node slots: node `v` starts with `items[v]`
    /// and reads the stream if `readers(v)`, and the root holds `keep`.
    fn new(
        tree: &'t BfsTree,
        items: Vec<Vec<T>>,
        bits: F,
        keep: K,
        readers: impl Fn(NodeId) -> bool,
    ) -> (Self, Vec<SortedNode<T, K>>) {
        let expected_total = items.iter().map(Vec::len).sum();
        let mut keep = Some(keep);
        let nodes = items
            .into_iter()
            .enumerate()
            .map(|(v, mut own)| {
                own.sort_unstable();
                let up = Merge {
                    own: own.into(),
                    inflows: tree.child_ports[v]
                        .iter()
                        .map(|&port| Inflow {
                            port,
                            queue: VecDeque::new(),
                            done: false,
                            reach: None,
                        })
                        .collect(),
                };
                let down = if v == tree.root {
                    Role::Root {
                        keep: keep.take().expect("one root"),
                        offered: 0,
                        stream: Vec::new(),
                    }
                } else {
                    Role::Relay {
                        reader: readers(v),
                        reach: None,
                        queue: VecDeque::new(),
                        received: 0,
                        reported: false,
                    }
                };
                SortedNode { up, down }
            })
            .collect();
        let proto = SortedProtocol {
            tree,
            bits,
            expected_total,
            item: PhantomData,
        };
        (proto, nodes)
    }
}

impl<'t, T, F, K> Protocol for SortedProtocol<'t, T, F, K>
where
    T: Clone + Ord,
    F: Fn(&T) -> u64,
    K: FnMut(&T) -> bool,
{
    type Msg = Sorted<T>;
    type Node = SortedNode<T, K>;

    fn msg_bits(&self, msg: &Sorted<T>) -> u64 {
        // Two bits name the variant; a first upcast adds the reach bit.
        match msg {
            Sorted::Up(t, reach) | Sorted::Last(t, reach) => {
                2 + (self.bits)(t) + u64::from(reach.is_some())
            }
            Sorted::Done(reach) => 2 + u64::from(reach.is_some()),
            Sorted::Down(t) => 2 + (self.bits)(t),
        }
    }

    fn step_node(&self, node: &mut SortedNode<T, K>, ctx: &mut NodeCtx<'_, Sorted<T>>) {
        let SortedNode { up, down } = node;
        for (port, msg) in ctx.inbox() {
            match (msg, &mut *down) {
                (
                    Sorted::Down(t),
                    Role::Relay {
                        queue, received, ..
                    },
                ) => {
                    queue.push_back(t.clone());
                    *received += 1;
                }
                (Sorted::Down(_), Role::Root { .. }) => unreachable!("the root has no parent"),
                (msg, _) => up.receive(*port, msg),
            }
        }
        let next_down = match down {
            Role::Root {
                keep,
                offered,
                stream,
            } => {
                // One item per round meets the filter: the smallest left,
                // so its decision is final. A kept item goes down in the
                // same round.
                let item = up.pop_smallest();
                *offered += usize::from(item.is_some());
                let kept = item.filter(|t| keep(t));
                stream.extend(kept.clone());
                kept
            }
            Role::Relay {
                reader,
                reach,
                queue,
                reported,
                ..
            } => {
                // Move the smallest item left in the subtree up, one per
                // round; the last one (or a bare `Done`) tells the parent
                // this subtree is finished. An item a delay held back past
                // that report still goes up, out of order. The first
                // upcast carries the reach bit; `ready` and `drained` have
                // waited for every child's.
                let pp = self.tree.parent_port[ctx.node].expect("a relay has a parent");
                let item = up.pop_smallest();
                let finished = !*reported && up.drained();
                *reported |= finished;
                let bit = (reach.is_none() && (item.is_some() || finished))
                    .then(|| *reader || up.reaching().next().is_some());
                *reach = reach.or(bit);
                match (item, finished) {
                    (Some(item), true) => ctx.send(pp, Sorted::Last(item, bit)),
                    (Some(item), false) => ctx.send(pp, Sorted::Up(item, bit)),
                    (None, true) => ctx.send(pp, Sorted::Done(bit)),
                    (None, false) => {}
                }
                // One kept item per round goes on to the children, even
                // when a delayed item arrived alongside an on-time one:
                // the queue keeps each child link at one message per
                // round.
                let item = queue.pop_front();
                if !queue.is_empty() {
                    ctx.wake();
                }
                item
            }
        };
        // Kept items go only into the subtrees that hold a reader.
        if let Some(item) = next_down {
            for port in up.reaching() {
                ctx.send(port, Sorted::Down(item.clone()));
            }
        }
        // The pipeline moves one item per round each way, so a node that
        // can send more without new input acts again next round.
        if up.ready() && !up.drained() {
            ctx.wake();
        }
    }

    fn idle(&self, nodes: &[SortedNode<T, K>]) -> bool {
        let Role::Root {
            offered, stream, ..
        } = &nodes[self.tree.root].down
        else {
            unreachable!("the tree root holds the stream")
        };
        *offered == self.expected_total
            && nodes.iter().all(|nd| match &nd.down {
                Role::Root { .. }
                | Role::Relay {
                    reach: Some(false), ..
                } => true,
                Role::Relay {
                    queue, received, ..
                } => queue.is_empty() && *received == stream.len(),
            })
    }
}

/// Broadcasts the items the root keeps out of every node's items over
/// `tree` to the nodes `v` with `readers(v)`, the root meeting the items
/// in ascending order (Lemma 2.4's pipeline with a sorted upcast and a
/// filtering root).
///
/// Each node merges its own items with its children's streams and sends
/// the smallest item left in its subtree: it waits until every child has
/// sent its reach bit (whether its subtree holds a reader) and every child
/// still sending has shown its next item, and the last item (or one bare
/// message) tells the parent that the subtree is finished. The root
/// offers one item per round to `keep`, the smallest left anywhere, so
/// `keep` sees every item exactly once and in ascending order (without
/// faults; a delay can make an item arrive late). The items `keep`
/// accepts go down the tree at once, one per round, into the subtrees
/// that hold a reader, and only they cross the downcast links; `|_| true`
/// for both `keep` and `readers` broadcasts every item to every node.
///
/// Returns the root's stream — the kept items, in the order `keep`
/// accepted them — plus the run statistics. Without faults the run takes
/// between `M` and `M + 2·height(tree)` rounds, where `M` is the total
/// item count, and sends `Σ depth(v)·|items(v)| + K·R + E` messages:
/// every item crosses the tree links between its node and the root once,
/// each of the `K` kept items then crosses the tree link above each of
/// the `R` non-root nodes whose subtree holds a reader, and each of the
/// `E` non-root nodes whose subtree holds no item reports so in one bare
/// message (tests assert all three). Every non-root node's first upcast
/// message carries its reach bit, one bit more. `bits` declares the size
/// of one item (the engine checks it against the bandwidth, so items must
/// be `O(log n)` bits — split larger payloads into multiple items).
///
/// # Errors
///
/// Returns [`EngineError::RoundLimitExceeded`] if the root has not
/// offered all `M` items, or some node whose subtree holds a reader has
/// not received every kept item, within `4(M + height) + 16` rounds: a
/// fault plan that drops a message or cuts a tree link for good, or a
/// tree whose parent does not list one of its children, ends the run
/// there instead of leaving it waiting.
pub fn broadcast<T: Clone + Ord>(
    net: &mut Network<'_>,
    tree: &BfsTree,
    items: Vec<Vec<T>>,
    bits: impl Fn(&T) -> u64,
    keep: impl FnMut(&T) -> bool,
    readers: impl Fn(NodeId) -> bool,
    phase: &str,
) -> Result<(Vec<T>, RunStats), EngineError> {
    assert_eq!(items.len(), net.node_count());
    let (proto, mut nodes) = SortedProtocol::new(tree, items, bits, keep, readers);
    let budget = 4 * (proto.expected_total as u64 + tree.height) + 16;
    let stats = net.run_until_quiet(phase, &proto, &mut nodes, budget)?;
    let Role::Root { stream, .. } = nodes.swap_remove(tree.root).down else {
        unreachable!("the tree root holds the stream")
    };
    Ok((stream, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs_tree::build_bfs_tree;
    use crate::FaultPlan;
    use graphkit::gen::random_digraph;
    use std::cell::Cell;

    /// A keep-all broadcast, instrumented to record the most kept items
    /// any relay held unsent at the end of its step.
    struct Probe<'t> {
        inner: Inner<'t>,
        max_backlog: Cell<usize>,
    }

    type KeepAll = fn(&u64) -> bool;
    type Inner<'t> = SortedProtocol<'t, u64, fn(&u64) -> u64, KeepAll>;

    impl Protocol for Probe<'_> {
        type Msg = Sorted<u64>;
        type Node = SortedNode<u64, KeepAll>;

        fn msg_bits(&self, msg: &Sorted<u64>) -> u64 {
            self.inner.msg_bits(msg)
        }

        fn step_node(&self, node: &mut Self::Node, ctx: &mut NodeCtx<'_, Sorted<u64>>) {
            self.inner.step_node(node, ctx);
            if let Role::Relay { queue, .. } = &node.down {
                self.max_backlog
                    .set(self.max_backlog.get().max(queue.len()));
            }
        }

        fn idle(&self, nodes: &[Self::Node]) -> bool {
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
        let (inner, mut nodes): (Inner<'_>, _) =
            SortedProtocol::new(&tree, items, |_| 16, |_| true, |_| true);
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
        // A relay receives at most one kept item per round from its
        // parent and forwards one in the same step.
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
