//! Deterministic fault injection for the round engine.
//!
//! A [`FaultPlan`] describes *when the network misbehaves*: timed link
//! failures and recoveries, node crashes and restarts, and random
//! per-message drops. The engine applies the plan at **commit time** —
//! the moment a round's staged sends become next-round inboxes — so a
//! protocol never observes *how* faults were evaluated, only which
//! messages arrived. A plan only ever removes messages: every message
//! it lets through arrives in the round after it was sent, like every
//! message of a run without a plan.
//!
//! # Fault model
//!
//! - **Link failure** ([`FaultPlan::fail_link`]): while edge `e` is down
//!   (rounds `down_at..up_at`, or forever when `up_at` is `None`), every
//!   message committed on either direction of `e` is dropped and counted
//!   in [`FaultStats::dropped_link_down`]. A link may fail and recover
//!   repeatedly (flapping) by registering multiple intervals.
//! - **Node crash** ([`FaultPlan::crash_node`]): a crashed node is
//!   *fail-silent at the network layer* — messages **to and from** it
//!   are dropped ([`FaultStats::dropped_node_down`]). The node's local
//!   step still executes (its state survives the crash, like a process
//!   whose NIC died), which keeps the active-set scheduling contract
//!   intact; protocols observe the crash purely as silence.
//! - **Random drop** ([`FaultPlan::drop_messages`]): each surviving
//!   message is dropped with probability `p`, decided by a hash of
//!   `(seed, round, link, direction)` — *message identity*, never draw
//!   order — so the decision is independent of scheduling
//!   ([`FaultPlan::drops`], [`FaultStats::dropped_random`]).
//!
//! A message is checked in that order of precedence: a crashed endpoint,
//! then a downed link, then the random drop; the first that applies
//! drops it and is the one counted.
//!
//! # Determinism contract
//!
//! For a fixed plan (seed included), the delivered messages, their
//! per-destination inbox order, the [`crate::RunStats`], and the
//! [`FaultStats`] are bit-identical under either scheduling mode. This
//! holds because every per-message decision is a pure function of
//! `(seed, round, link, direction)` and the engine evaluates the plan
//! against the same deterministic staged-send order the fault-free
//! engine guarantees. `tests/engine_equivalence.rs` (chaos matrix) and
//! the `primitives_properties.rs` proptests pin this; [`FaultStats`] is
//! *included* in [`crate::Metrics`] equality precisely so those suites
//! catch any divergence.
//!
//! # The commit hook
//!
//! The engine has one commit path. It takes the drive's fault state as
//! an optional hook: without a plan the hook is `None` and costs a
//! branch per message; with one, each send that passed the CONGEST
//! checks is handed to the plan, which delivers or drops it. A plan
//! that never fires therefore yields exactly the [`crate::Metrics`] of
//! a run without one.

use graphkit::{EdgeId, NodeId};

pub use crate::metrics::FaultStats;

/// One timed down interval for a link or a node: down from `down_at`
/// (inclusive) until `up_at` (exclusive), or forever when `up_at` is
/// `None`. "Down in round r" means messages *committed* in round r are
/// affected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct DownInterval {
    /// The failed element (an [`EdgeId`] or a [`NodeId`]).
    target: usize,
    /// First affected round.
    down_at: u64,
    /// First round the element is back up; `None` = permanent.
    up_at: Option<u64>,
}

impl DownInterval {
    #[inline]
    fn covers(&self, round: u64) -> bool {
        round >= self.down_at && self.up_at.is_none_or(|up| round < up)
    }
}

/// A deterministic, seeded schedule of network faults.
///
/// Built with a fluent API and attached to a network via
/// [`crate::Network::set_fault_plan`]; see the [module docs](self) for
/// the fault model and the determinism contract.
///
/// # Examples
///
/// ```
/// use congest::FaultPlan;
///
/// // Link 3 flaps twice, node 7 crashes for good at round 10, and 5%
/// // of all other traffic is dropped at random (seed 42).
/// let plan = FaultPlan::new(42)
///     .fail_link(3, 2, Some(6))
///     .fail_link(3, 9, Some(12))
///     .crash_node(7, 10, None)
///     .drop_messages(0.05);
/// assert!(plan.link_down(3, 2) && !plan.link_down(3, 6));
/// assert!(plan.node_down(7, 1_000_000));
/// ```
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    links: Vec<DownInterval>,
    nodes: Vec<DownInterval>,
    drop_prob: f64,
}

impl FaultPlan {
    /// A plan with no faults yet; `seed` drives the random drops.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Takes edge `link` down for rounds `down_at..up_at` (`None` =
    /// permanently). May be called repeatedly for the same link
    /// (flapping).
    pub fn fail_link(mut self, link: EdgeId, down_at: u64, up_at: Option<u64>) -> FaultPlan {
        assert!(
            up_at.is_none_or(|up| up > down_at),
            "link {link}: up_at ({up_at:?}) must exceed down_at ({down_at})"
        );
        self.links.push(DownInterval {
            target: link,
            down_at,
            up_at,
        });
        self
    }

    /// Crashes node `node` for rounds `down_at..up_at` (`None` =
    /// permanently). Crashed nodes are fail-silent: traffic to and from
    /// them is dropped.
    pub fn crash_node(mut self, node: NodeId, down_at: u64, up_at: Option<u64>) -> FaultPlan {
        assert!(
            up_at.is_none_or(|up| up > down_at),
            "node {node}: up_at ({up_at:?}) must exceed down_at ({down_at})"
        );
        self.nodes.push(DownInterval {
            target: node,
            down_at,
            up_at,
        });
        self
    }

    /// Drops each message (on a healthy link, between healthy nodes)
    /// with probability `prob`.
    pub fn drop_messages(mut self, prob: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&prob), "drop probability in [0, 1]");
        self.drop_prob = prob;
        self
    }

    /// Is edge `link` down in round `round`?
    #[inline]
    pub fn link_down(&self, link: EdgeId, round: u64) -> bool {
        self.links
            .iter()
            .any(|iv| iv.target == link && iv.covers(round))
    }

    /// Is node `node` crashed in round `round`?
    #[inline]
    pub fn node_down(&self, node: NodeId, round: u64) -> bool {
        self.nodes
            .iter()
            .any(|iv| iv.target == node && iv.covers(round))
    }

    /// All links down in round `round` (ascending, deduplicated).
    pub fn links_down_at(&self, round: u64) -> Vec<EdgeId> {
        Self::down_at(&self.links, round)
    }

    /// All nodes crashed in round `round` (ascending, deduplicated).
    pub fn nodes_down_at(&self, round: u64) -> Vec<NodeId> {
        Self::down_at(&self.nodes, round)
    }

    fn down_at(ivs: &[DownInterval], round: u64) -> Vec<usize> {
        let mut out: Vec<usize> = ivs
            .iter()
            .filter(|iv| iv.covers(round))
            .map(|iv| iv.target)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The first round from which the timed fault set no longer changes
    /// (`0` for a plan with no timed faults). From this round on,
    /// exactly the permanent (`up_at == None`) faults are active.
    pub fn horizon(&self) -> u64 {
        self.links
            .iter()
            .chain(&self.nodes)
            .map(|iv| iv.up_at.unwrap_or(iv.down_at))
            .max()
            .unwrap_or(0)
    }

    /// The plan as seen from `delta` rounds into its timeline: every
    /// interval shifted earlier by `delta` (clamped at round 0),
    /// already-expired intervals removed. Lets a caller chain several
    /// drives (each of which restarts its round counter at 0) against
    /// one logical fault timeline.
    pub fn shifted(&self, delta: u64) -> FaultPlan {
        let shift = |ivs: &[DownInterval]| {
            ivs.iter()
                .filter(|iv| iv.up_at.is_none_or(|up| up > delta))
                .map(|iv| DownInterval {
                    target: iv.target,
                    down_at: iv.down_at.saturating_sub(delta),
                    up_at: iv.up_at.map(|up| up - delta),
                })
                .collect()
        };
        FaultPlan {
            seed: self.seed,
            links: shift(&self.links),
            nodes: shift(&self.nodes),
            drop_prob: self.drop_prob,
        }
    }

    /// Whether the random drop takes a message committed in `round` on
    /// direction `outgoing` of `link`, the link and its endpoints being
    /// healthy. Pure in `(seed, round, link, outgoing)`: the CONGEST
    /// constraint makes that tuple a unique message identity, so the
    /// decision never depends on evaluation order.
    pub fn drops(&self, round: u64, link: EdgeId, outgoing: bool) -> bool {
        if self.drop_prob <= 0.0 {
            return false;
        }
        let key = ((link as u64) << 1) | u64::from(outgoing);
        let h = mix(self.seed, round, key);
        // 53 uniform mantissa bits -> u in [0, 1).
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        u < self.drop_prob
    }

    /// Checks that every fault targets an element of a graph with
    /// `edges` edges and `nodes` nodes, so a misaddressed plan is
    /// rejected instead of silently never firing.
    /// [`crate::Network::set_fault_plan`] runs this check.
    ///
    /// # Errors
    ///
    /// The [`FaultPlanError`] naming the first out-of-range fault.
    pub fn validate(&self, edges: usize, nodes: usize) -> Result<(), FaultPlanError> {
        let first_outside = |ivs: &[DownInterval], bound: usize| {
            let fault = ivs.iter().position(|iv| iv.target >= bound)?;
            Some((fault, ivs[fault].target))
        };
        if let Some((fault, link)) = first_outside(&self.links, edges) {
            return Err(FaultPlanError::UnknownLink { fault, link, edges });
        }
        if let Some((fault, node)) = first_outside(&self.nodes, nodes) {
            return Err(FaultPlanError::UnknownNode { fault, node, nodes });
        }
        Ok(())
    }
}

/// A [`FaultPlan`] names an edge or node its graph does not have.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultPlanError {
    /// Link fault number `fault` (in registration order) targets `link`,
    /// but the graph has only `edges` edges.
    UnknownLink {
        /// Index of the offending link fault.
        fault: usize,
        /// The edge it targets.
        link: EdgeId,
        /// The graph's edge count.
        edges: usize,
    },
    /// Node fault number `fault` (in registration order) targets `node`,
    /// but the graph has only `nodes` nodes.
    UnknownNode {
        /// Index of the offending node fault.
        fault: usize,
        /// The node it targets.
        node: NodeId,
        /// The graph's node count.
        nodes: usize,
    },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::UnknownLink { fault, link, edges } => write!(
                f,
                "fault plan link fault #{fault} targets edge {link} but the graph has {edges} edges"
            ),
            FaultPlanError::UnknownNode { fault, node, nodes } => write!(
                f,
                "fault plan node fault #{fault} targets node {node} but the graph has {nodes} nodes"
            ),
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// SplitMix64-style finalizer over `(seed, round, key)`. The per-message
/// luck function: high-quality 64-bit avalanche, no state, no order
/// dependence.
fn mix(seed: u64, round: u64, key: u64) -> u64 {
    let mut z = seed
        .wrapping_add(round.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(key.wrapping_mul(0xc2b2_ae3d_27d4_eb4f));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_bounds_are_half_open() {
        let plan = FaultPlan::new(0).fail_link(4, 3, Some(7));
        assert!(!plan.link_down(4, 2));
        assert!(plan.link_down(4, 3));
        assert!(plan.link_down(4, 6));
        assert!(!plan.link_down(4, 7));
        assert!(!plan.link_down(5, 4), "other links unaffected");
    }

    #[test]
    fn permanent_faults_never_recover() {
        let plan = FaultPlan::new(0).crash_node(2, 5, None);
        assert!(!plan.node_down(2, 4));
        assert!(plan.node_down(2, 5));
        assert!(plan.node_down(2, u64::MAX));
    }

    #[test]
    fn flapping_is_multiple_intervals() {
        let plan = FaultPlan::new(0)
            .fail_link(1, 0, Some(2))
            .fail_link(1, 4, Some(6));
        let down: Vec<bool> = (0..7).map(|r| plan.link_down(1, r)).collect();
        assert_eq!(down, [true, true, false, false, true, true, false]);
    }

    #[test]
    fn down_at_listings_sort_and_dedup() {
        let plan = FaultPlan::new(0)
            .fail_link(9, 0, None)
            .fail_link(2, 0, None)
            .fail_link(9, 1, Some(3));
        assert_eq!(plan.links_down_at(1), vec![2, 9]);
        assert_eq!(plan.links_down_at(5), vec![2, 9]);
    }

    #[test]
    fn drops_is_a_pure_function() {
        let plan = FaultPlan::new(123).drop_messages(0.4);
        for round in 0..50 {
            for link in 0..20 {
                for dir in [false, true] {
                    assert_eq!(plan.drops(round, link, dir), plan.drops(round, link, dir));
                }
            }
        }
    }

    #[test]
    fn drop_frequency_tracks_the_probability() {
        let plan = FaultPlan::new(7).drop_messages(0.5);
        let trials = 2000;
        let drops = (0..trials).filter(|&r| plan.drops(r, 0, true)).count();
        // 0.5 ± generous slack; the point is "roughly half", not
        // statistical rigor.
        assert!((700..1300).contains(&drops), "drops = {drops}");
    }

    #[test]
    fn different_seeds_give_different_luck() {
        let a = FaultPlan::new(1).drop_messages(0.5);
        let b = FaultPlan::new(2).drop_messages(0.5);
        let diverges = (0..200).any(|r| a.drops(r, 3, true) != b.drops(r, 3, true));
        assert!(diverges);
    }

    #[test]
    fn only_permanent_faults_outlast_the_horizon() {
        let plan = FaultPlan::new(0)
            .fail_link(1, 2, Some(8))
            .fail_link(3, 5, None)
            .crash_node(0, 1, Some(4))
            .crash_node(2, 3, None)
            .drop_messages(0.1);
        let horizon = plan.horizon();
        assert_eq!(horizon, 8);
        assert_eq!(plan.links_down_at(horizon), vec![3]);
        assert_eq!(plan.nodes_down_at(horizon), vec![2]);
        assert_eq!(FaultPlan::new(0).horizon(), 0);
    }

    #[test]
    fn shifted_advances_the_timeline() {
        let plan = FaultPlan::new(0)
            .fail_link(1, 3, Some(6))
            .fail_link(2, 0, Some(2))
            .crash_node(4, 10, None);
        let sh = plan.shifted(4);
        assert!(sh.link_down(1, 0), "mid-interval shift clamps to 0");
        assert!(sh.link_down(1, 1) && !sh.link_down(1, 2));
        assert!(!sh.link_down(2, 0), "expired interval dropped");
        assert!(sh.node_down(4, 6) && !sh.node_down(4, 5));
    }

    #[test]
    #[should_panic(expected = "up_at")]
    fn empty_interval_rejected() {
        let _ = FaultPlan::new(0).fail_link(0, 5, Some(5));
    }

    #[test]
    fn validate_names_the_bad_edge() {
        let plan = FaultPlan::new(0)
            .fail_link(1, 0, None)
            .fail_link(9, 0, None);
        assert_eq!(
            plan.validate(4, 10),
            Err(FaultPlanError::UnknownLink {
                fault: 1,
                link: 9,
                edges: 4
            })
        );
        let plan = FaultPlan::new(0).crash_node(10, 0, Some(3));
        assert_eq!(
            plan.validate(4, 10),
            Err(FaultPlanError::UnknownNode {
                fault: 0,
                node: 10,
                nodes: 10
            })
        );
        assert!(plan.validate(4, 11).is_ok());
    }
}
