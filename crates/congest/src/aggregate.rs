//! Tree aggregation: combine a per-node value with an associative,
//! commutative operator and deliver the result to every node, in
//! `O(height)` rounds.
//!
//! This is the classic convergecast + downcast pair: leaves report
//! upward, every internal node folds its subtree as reports arrive, the
//! root folds the final value and floods it back down. The paper uses
//! the `Min` instance for 2-SiSP's final aggregation (Definition 2.3)
//! and the reduction of Corollary 6.2.

use graphkit::Dist;

use crate::bfs_tree::BfsTree;
use crate::network::{word_bits, Network, NodeCtx, Protocol};

/// The supported aggregation operators over [`Dist`] values.
///
/// All are associative and commutative with an identity, which is what
/// the convergecast requires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggOp {
    /// Minimum; identity ∞.
    Min,
    /// Maximum of the *finite* values; identity 0. Infinite inputs are
    /// ignored rather than absorbing the aggregate, so the result of
    /// all-∞ inputs is the identity 0.
    Max,
    /// Saturating sum; identity 0.
    Sum,
}

impl AggOp {
    fn identity(self) -> Dist {
        match self {
            AggOp::Min => Dist::INF,
            AggOp::Max | AggOp::Sum => Dist::ZERO,
        }
    }

    fn fold(self, a: Dist, b: Dist) -> Dist {
        match self {
            AggOp::Min => a.min(b),
            // "Maximum of finite values": an ∞ operand is the absence of
            // a value, not a value larger than every other — folding it
            // in must not turn the whole aggregate infinite.
            AggOp::Max => {
                if !b.is_finite() {
                    a
                } else if !a.is_finite() {
                    b
                } else {
                    a.max(b)
                }
            }
            AggOp::Sum => a + b,
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum AggMsg {
    Up(Dist),
    Down(Dist),
}

/// One node's convergecast/downcast state.
struct AggNode {
    acc: Dist,
    waiting: usize,
    sent_up: bool,
    sent_down: bool,
    result: Option<Dist>,
}

/// The convergecast and downcast of `op` over `tree`.
///
/// Leaves fire in round 0 (stepped by the activation base case); every
/// later transition — the last child report arriving, the downcast value
/// arriving — happens in the round a message is delivered.
struct Aggregate<'t> {
    tree: &'t BfsTree,
    op: AggOp,
}

impl Protocol for Aggregate<'_> {
    type Msg = AggMsg;
    type Node = AggNode;

    fn msg_bits(&self, m: &AggMsg) -> u64 {
        let d = match m {
            AggMsg::Up(d) | AggMsg::Down(d) => *d,
        };
        2 + word_bits(d.finite().unwrap_or(0))
    }

    fn step_node(&self, node: &mut AggNode, ctx: &mut NodeCtx<'_, AggMsg>) {
        let v = ctx.node;
        for &(_, msg) in ctx.inbox() {
            match msg {
                AggMsg::Up(d) => {
                    node.acc = self.op.fold(node.acc, d);
                    node.waiting -= 1;
                }
                AggMsg::Down(d) => node.result = Some(d),
            }
        }
        if node.waiting == 0 && !node.sent_up {
            node.sent_up = true;
            match self.tree.parent_port[v] {
                Some(pp) => ctx.send(pp, AggMsg::Up(node.acc)),
                None => node.result = Some(node.acc),
            }
        }
        if let Some(d) = node.result {
            if !node.sent_down {
                node.sent_down = true;
                for &cp in &self.tree.child_ports[v] {
                    ctx.send(cp, AggMsg::Down(d));
                }
            }
        }
    }

    fn idle(&self, nodes: &[AggNode]) -> bool {
        nodes.iter().all(|nd| nd.result.is_some())
    }
}

/// Aggregates `values` with `op` over `tree`; every node learns the
/// result. `O(height)` rounds, charged to `net`.
///
/// # Panics
///
/// Panics if `values.len() != n` or the protocol fails to quiesce within
/// `8·(height + 2)` rounds (a tree inconsistency — [`BfsTree`] values
/// from a successful [`crate::bfs_tree::build_bfs_tree`] always span).
pub fn aggregate(net: &mut Network<'_>, tree: &BfsTree, op: AggOp, values: &[Dist]) -> Dist {
    let n = net.node_count();
    assert_eq!(values.len(), n);
    let mut nodes: Vec<AggNode> = (0..n)
        .map(|v| AggNode {
            acc: op.fold(op.identity(), values[v]),
            waiting: tree.child_ports[v].len(),
            sent_up: false,
            sent_down: false,
            result: None,
        })
        .collect();
    net.run_until_quiet(
        "aggregate",
        &Aggregate { tree, op },
        &mut nodes,
        8 * (tree.height + 2),
    )
    .expect("aggregation quiesces in O(height)");
    nodes[tree.root].result.expect("root folded the result")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs_tree::build_bfs_tree;
    use graphkit::gen::random_digraph;

    fn setup(n: usize, seed: u64) -> (graphkit::DiGraph, Vec<Dist>) {
        let g = random_digraph(n, 2 * n, seed);
        let values: Vec<Dist> = (0..n).map(|v| Dist::new(((v * 37) % 101) as u64)).collect();
        (g, values)
    }

    #[test]
    fn min_max_sum_match_local_folds() {
        let (g, values) = setup(40, 3);
        for (op, expect) in [
            (AggOp::Min, values.iter().copied().min().unwrap()),
            (AggOp::Max, values.iter().copied().max().unwrap()),
            (AggOp::Sum, values.iter().copied().sum()),
        ] {
            let mut net = Network::new(&g);
            let (tree, _) = build_bfs_tree(&mut net, 0).unwrap();
            assert_eq!(aggregate(&mut net, &tree, op, &values), expect, "{op:?}");
        }
    }

    #[test]
    fn min_with_infinities() {
        let (g, _) = setup(20, 5);
        let mut values = vec![Dist::INF; 20];
        values[13] = Dist::new(7);
        let mut net = Network::new(&g);
        let (tree, _) = build_bfs_tree(&mut net, 4).unwrap();
        assert_eq!(
            aggregate(&mut net, &tree, AggOp::Min, &values),
            Dist::new(7)
        );
    }

    #[test]
    fn min_of_all_infinite_is_infinity() {
        let (g, _) = setup(20, 2);
        let values = vec![Dist::INF; 20];
        let mut net = Network::new(&g);
        let (tree, _) = build_bfs_tree(&mut net, 3).unwrap();
        assert_eq!(aggregate(&mut net, &tree, AggOp::Min, &values), Dist::INF);
    }

    #[test]
    fn max_ignores_infinite_inputs() {
        // Regression: a single ∞ input used to absorb the whole Max
        // aggregate; "maximum of finite values" must skip it.
        let (g, _) = setup(20, 6);
        let mut values: Vec<Dist> = (0..20).map(|v| Dist::new(v as u64)).collect();
        values[4] = Dist::INF;
        values[17] = Dist::INF;
        let mut net = Network::new(&g);
        let (tree, _) = build_bfs_tree(&mut net, 2).unwrap();
        assert_eq!(
            aggregate(&mut net, &tree, AggOp::Max, &values),
            Dist::new(19)
        );
    }

    #[test]
    fn max_of_all_infinite_is_the_identity() {
        let (g, _) = setup(12, 8);
        let values = vec![Dist::INF; 12];
        let mut net = Network::new(&g);
        let (tree, _) = build_bfs_tree(&mut net, 0).unwrap();
        assert_eq!(aggregate(&mut net, &tree, AggOp::Max, &values), Dist::ZERO);
    }

    #[test]
    fn sum_saturates_at_infinity() {
        let (g, _) = setup(10, 7);
        let mut values = vec![Dist::new(1); 10];
        values[3] = Dist::INF;
        let mut net = Network::new(&g);
        let (tree, _) = build_bfs_tree(&mut net, 0).unwrap();
        assert_eq!(aggregate(&mut net, &tree, AggOp::Sum, &values), Dist::INF);
    }

    #[test]
    fn rounds_bounded_by_tree_height() {
        let (g, values) = setup(80, 9);
        let mut net = Network::new(&g);
        let (tree, _) = build_bfs_tree(&mut net, 0).unwrap();
        let before = net.metrics().rounds();
        let _ = aggregate(&mut net, &tree, AggOp::Min, &values);
        let used = net.metrics().rounds() - before;
        assert!(
            used <= 2 * tree.height + 6,
            "used {used} rounds for height {}",
            tree.height
        );
    }

    #[test]
    fn single_node_tree() {
        let g = graphkit::GraphBuilder::new(1).build();
        let mut net = Network::new(&g);
        let (tree, _) = build_bfs_tree(&mut net, 0).unwrap();
        assert_eq!(
            aggregate(&mut net, &tree, AggOp::Max, &[Dist::new(9)]),
            Dist::new(9)
        );
    }
}
