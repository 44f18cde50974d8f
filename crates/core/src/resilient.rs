//! Recovering replacement paths: a fault-aware wrapper around Theorem 1.
//!
//! The solvers in this crate are all-or-nothing: a partitioned
//! communication graph or an exhausted round budget is a [`SolveError`]
//! and the caller gets no answer at all. That is the right contract for
//! reproducing the paper's theorems, but not for the fault campaigns:
//! a network that lost a link is *degraded*, not useless — the paper's
//! own object (shortest paths avoiding a failed edge) exists precisely
//! because routes survive failures.
//!
//! [`solve_with_recovery`] closes that gap in three moves:
//!
//! 1. **Detect.** The steady state of a [`FaultPlan`] is what is down
//!    at its horizon: exactly the faults that never recover. The
//!    source's surviving component is computed locally from it; no
//!    distributed probe runs, since nothing would read its result.
//! 2. **Re-plan.** The solve is restricted to the source's surviving
//!    component: crashed nodes and downed links are removed, surviving
//!    nodes are remapped in ascending order (so the sub-solve is as
//!    deterministic as the original), and the demand is re-posed there.
//! 3. **Solve once.** The re-posed instance is pristine — the faults
//!    were planned away, not injected — so Theorem 1
//!    ([`crate::unweighted::solve`]) runs on it exactly once, with the
//!    caller's [`Params`]; only its answers are kept, not its metrics.
//!    A solver error there is a real failure, returned as
//!    [`RecoveryError::Solve`]; no retry could change it.
//!
//! The result is a structured [`Recovery`]: [`Recovery::Full`] when the
//! steady state is fault-free, [`Recovery::Degraded`] — with the partial
//! answer, the surviving route, and the unreachable nodes — when it is
//! not. Only an invalid plan or demand, a crashed source, or a failed
//! solve are hard errors.

use congest::{FaultPlan, FaultPlanError};
use graphkit::alg::undirected_bfs;
use graphkit::{DiGraph, Dist, EdgeId, GraphBuilder, NodeId};

use crate::instance::check_endpoints;
use crate::{unweighted, Instance, InstanceError, Params, SolveError};

/// Outcome of a recovering solve.
#[derive(Clone, Debug)]
pub enum Recovery {
    /// The steady state is fault-free; the answer is for the instance
    /// exactly as posed.
    Full {
        /// Theorem 1's replacement lengths, one per path edge.
        output: Vec<Dist>,
    },
    /// Permanent faults changed the instance; the answer (if any) is for
    /// the demand re-posed on the source's surviving component.
    Degraded(Degraded),
}

/// A solve that survived permanent faults in degraded form.
#[derive(Clone, Debug)]
pub struct Degraded {
    /// Replacement lengths along the surviving route, or `None` when the
    /// target itself is severed from the source.
    pub answered: Option<Vec<Dist>>,
    /// The surviving shortest `s`-`t` route, in *original* node ids.
    pub path: Option<Vec<NodeId>>,
    /// Nodes outside the source's surviving component (original ids,
    /// ascending; includes crashed nodes).
    pub unreachable: Vec<NodeId>,
}

/// Why recovery itself failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveryError {
    /// The fault plan names a link or node outside the graph; nothing
    /// was solved.
    FaultPlan(FaultPlanError),
    /// The source node is crashed in the steady state: nothing can even
    /// pose the demand.
    SourceDown,
    /// The demand was invalid before any fault was applied.
    Instance(InstanceError),
    /// The solver failed on the (possibly re-posed) instance.
    Solve(SolveError),
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::FaultPlan(e) => write!(f, "invalid fault plan: {e}"),
            RecoveryError::SourceDown => write!(f, "source node is crashed in the steady state"),
            RecoveryError::Instance(e) => write!(f, "invalid demand: {e}"),
            RecoveryError::Solve(e) => write!(f, "solve failed: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// Solves the `(s, t)` replacement-paths demand on `graph` under the
/// *permanent* faults of `plan`, degrading instead of dying.
///
/// Transient faults (link flaps and crashes that recover, probabilistic
/// drop/delay) do not change the steady-state topology: the demand is
/// solved as posed and returned as [`Recovery::Full`]. Permanent faults
/// (those still active at [`FaultPlan::horizon`]) are planned away: the
/// demand is re-posed on the source's surviving component, and the
/// result comes back as [`Recovery::Degraded`]. Either way the solver
/// runs at most once.
///
/// # Errors
///
/// [`RecoveryError::FaultPlan`] when the plan targets links or nodes
/// outside `graph` (checked before any work),
/// [`RecoveryError::SourceDown`] when `s` is crashed in the steady
/// state, [`RecoveryError::Instance`] when the demand was invalid before
/// faults (an endpoint outside `graph` is checked right after the plan),
/// [`RecoveryError::Solve`] when the solver itself failed.
pub fn solve_with_recovery(
    graph: &DiGraph,
    s: NodeId,
    t: NodeId,
    plan: &FaultPlan,
    params: &Params,
) -> Result<Recovery, RecoveryError> {
    plan.validate(graph.edge_count(), graph.node_count())
        .map_err(RecoveryError::FaultPlan)?;
    check_endpoints(graph, s, t).map_err(RecoveryError::Instance)?;
    // From the horizon on, exactly the permanent faults are active.
    let horizon = plan.horizon();
    if plan.node_down(s, horizon) {
        return Err(RecoveryError::SourceDown);
    }
    let downed_links = plan.links_down_at(horizon);
    let crashed = plan.nodes_down_at(horizon);
    if downed_links.is_empty() && crashed.is_empty() {
        // Transient faults only: the steady-state graph *is* the graph.
        let inst = Instance::from_endpoints(graph, s, t).map_err(RecoveryError::Instance)?;
        let output = unweighted::solve(&inst, params)
            .map_err(RecoveryError::Solve)?
            .replacement;
        return Ok(Recovery::Full { output });
    }

    let component = surviving_component(graph, s, &downed_links, &crashed);
    let mut in_comp = vec![false; graph.node_count()];
    for &v in &component {
        in_comp[v] = true;
    }
    let unreachable: Vec<NodeId> = graph.nodes().filter(|&v| !in_comp[v]).collect();
    if !in_comp[t] {
        return Ok(Recovery::Degraded(Degraded {
            answered: None,
            path: None,
            unreachable,
        }));
    }

    // Re-pose the demand on the surviving component, nodes remapped in
    // ascending order so the sub-solve is exactly as deterministic as
    // the original.
    let mut new_id = vec![usize::MAX; graph.node_count()];
    for (i, &v) in component.iter().enumerate() {
        new_id[v] = i;
    }
    let mut b = GraphBuilder::new(component.len());
    for (id, e) in graph.edges() {
        if downed_links.binary_search(&id).is_ok() || !in_comp[e.from] || !in_comp[e.to] {
            continue;
        }
        b.add_edge(new_id[e.from], new_id[e.to], e.weight);
    }
    let sub = b.build();
    let inst = match Instance::from_endpoints(&sub, new_id[s], new_id[t]) {
        Ok(inst) => inst,
        Err(InstanceError::Unreachable { .. }) => {
            // Same undirected component, but no *directed* s-t route
            // survives the failures.
            return Ok(Recovery::Degraded(Degraded {
                answered: None,
                path: None,
                unreachable,
            }));
        }
        Err(e) => return Err(RecoveryError::Instance(e)),
    };
    let path: Vec<NodeId> = inst.path.nodes().iter().map(|&v| component[v]).collect();
    let output = unweighted::solve(&inst, params)
        .map_err(RecoveryError::Solve)?
        .replacement;
    Ok(Recovery::Degraded(Degraded {
        answered: Some(output),
        path: Some(path),
        unreachable,
    }))
}

/// The source's component in the undirected surviving graph: downed
/// links and crashed nodes removed. Ascending node order.
fn surviving_component(
    graph: &DiGraph,
    s: NodeId,
    downed_links: &[EdgeId],
    crashed: &[NodeId],
) -> Vec<NodeId> {
    let mut dead = vec![false; graph.node_count()];
    for &v in crashed {
        dead[v] = true;
    }
    let reach = undirected_bfs(graph, s, |id| {
        let e = graph.edge(id);
        downed_links.binary_search(&id).is_err() && !dead[e.from] && !dead[e.to]
    });
    graph.nodes().filter(|&v| reach[v].is_finite()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest::bfs_tree::{build_bfs_tree, TreeError};
    use congest::Network;
    use graphkit::alg::replacement_lengths;
    use graphkit::gen::metro_ring;

    fn params_for(g: &DiGraph) -> Params {
        Params::for_n(g.node_count())
    }

    #[test]
    fn transient_faults_give_a_full_answer() {
        let g = metro_ring(8);
        let plan = FaultPlan::new(3).drop_messages(0.2);
        let rec = solve_with_recovery(&g, 0, 4, &plan, &params_for(&g)).unwrap();
        let Recovery::Full { output } = rec else {
            panic!("transient faults must not degrade the instance");
        };
        let inst = Instance::from_endpoints(&g, 0, 4).unwrap();
        assert_eq!(output, replacement_lengths(&g, &inst.path));
    }

    #[test]
    fn single_span_failure_degrades_but_answers() {
        // Span 1 (nodes 1-2, edges 2 and 3) down forever: the ring stays
        // connected and the demand survives along the long way round.
        let g = metro_ring(8);
        let plan = FaultPlan::new(5)
            .fail_link(2, 0, None)
            .fail_link(3, 0, None);
        let rec = solve_with_recovery(&g, 0, 4, &plan, &params_for(&g)).unwrap();
        let Recovery::Degraded(d) = rec else {
            panic!("a permanent failure must report as degraded");
        };
        assert!(d.unreachable.is_empty());
        assert_eq!(d.path.as_deref(), Some(&[0, 7, 6, 5, 4][..]));
        let answers = d.answered.expect("ring survives one span failure");
        // The surviving route has 4 edges; ring minus a span is a path
        // graph, so no further failure is survivable.
        assert_eq!(answers.len(), 4);
        assert!(answers.iter().all(|a| !a.is_finite()));
    }

    #[test]
    fn partition_reports_the_unreachable_half() {
        // Spans 0 (edges 0, 1) and 4 (edges 8, 9) down: nodes 1..=4 are
        // severed from the source's side.
        let g = metro_ring(8);
        let plan = FaultPlan::new(7)
            .fail_link(0, 0, None)
            .fail_link(1, 0, None)
            .fail_link(8, 0, None)
            .fail_link(9, 0, None);
        let rec = solve_with_recovery(&g, 0, 4, &plan, &params_for(&g)).unwrap();
        let Recovery::Degraded(d) = rec else {
            panic!("a partition must report as degraded");
        };
        assert!(d.answered.is_none());
        assert_eq!(d.unreachable, vec![1, 2, 3, 4]);
    }

    #[test]
    fn crashed_target_is_unreachable_not_an_error() {
        let g = metro_ring(6);
        let plan = FaultPlan::new(9).crash_node(3, 0, None);
        let rec = solve_with_recovery(&g, 0, 3, &plan, &params_for(&g)).unwrap();
        let Recovery::Degraded(d) = rec else {
            panic!("a crashed target must report as degraded");
        };
        assert!(d.answered.is_none());
        assert_eq!(d.unreachable, vec![3]);
    }

    #[test]
    fn crashed_source_is_a_hard_error() {
        let g = metro_ring(6);
        let plan = FaultPlan::new(11).crash_node(0, 0, None);
        let err = solve_with_recovery(&g, 0, 3, &plan, &params_for(&g)).unwrap_err();
        assert_eq!(err, RecoveryError::SourceDown);
    }

    #[test]
    fn a_bfs_tree_under_the_permanent_faults_joins_the_survivors() {
        // The distributed view of a steady state agrees with the local
        // component recovery re-plans from: a BFS tree built under
        // permanent faults joins exactly the nodes outside `unreachable`.
        // Every fault here is down from round 0, so each plan is its own
        // steady state.
        let g = metro_ring(8);
        for (plan, t) in [
            // One span down: the ring stays connected.
            (
                FaultPlan::new(5)
                    .fail_link(2, 0, None)
                    .fail_link(3, 0, None),
                4,
            ),
            // Two spans down: nodes 1..=4 are cut off.
            (
                FaultPlan::new(7)
                    .fail_link(0, 0, None)
                    .fail_link(1, 0, None)
                    .fail_link(8, 0, None)
                    .fail_link(9, 0, None),
                4,
            ),
            // A crashed node.
            (FaultPlan::new(9).crash_node(3, 0, None), 3),
        ] {
            let Recovery::Degraded(d) = solve_with_recovery(&g, 0, t, &plan, &params_for(&g))
                .expect("a permanent fault degrades")
            else {
                panic!("a permanent fault must report as degraded");
            };
            let mut net = Network::new(&g);
            net.set_fault_plan(Some(plan)).unwrap();
            let joined = match build_bfs_tree(&mut net, 0) {
                Ok(_) => g.node_count(),
                Err(TreeError::Disconnected { joined, .. }) => joined,
                Err(e) => panic!("the tree build failed: {e}"),
            };
            assert_eq!(joined, g.node_count() - d.unreachable.len());
        }
    }

    #[test]
    fn recovered_faults_do_not_degrade() {
        // A span that fails but comes back up before the horizon leaves
        // the steady state pristine.
        let g = metro_ring(8);
        let plan = FaultPlan::new(13)
            .fail_link(2, 0, Some(10))
            .crash_node(6, 2, Some(5));
        let rec = solve_with_recovery(&g, 0, 4, &plan, &params_for(&g)).unwrap();
        let Recovery::Full { output } = rec else {
            panic!("recovered faults must not degrade the instance");
        };
        // Both ways round the ring have 4 hops: every path edge is
        // replaced by the other way round, of length 4 as well.
        assert_eq!(output, vec![Dist::new(4); 4]);
    }
}
