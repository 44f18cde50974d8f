//! Greedy delta-debugging of divergent cases.
//!
//! Given a `(graph, s, t, params, solver)` tuple whose differential
//! check fails, [`minimize_instance`] shrinks it while *preserving the
//! failure*: first whole chunks of nodes (induced subgraph, ids
//! remapped ascending), then chunks of edges, with the classic ddmin
//! halving schedule — try dropping a chunk, keep the smaller repro when
//! the check still diverges, halve the chunk size when no chunk is
//! droppable. The demand endpoints are always retained; candidates
//! whose graph disconnects or loses the `s → t` demand simply fail the
//! "still diverges" test and are rejected, so no separate validity pass
//! is needed.
//!
//! The result is the small, human-readable repro that gets minted into
//! a `tests/regressions/` fixture — divergences found on a
//! 10³-node random graph routinely shrink to a couple dozen nodes.

use graphkit::{DiGraph, GraphBuilder, NodeId};
use rpaths_core::oracle::{check_instance, FuzzSolver};
use rpaths_core::{Instance, Params};

/// Cap on differential checks one minimization may spend (each check on
/// a shrinking graph is milliseconds; the cap bounds pathological
/// plateaus).
const CHECK_BUDGET: usize = 600;

/// Does the case still fail? (Unposeable candidates count as "no".)
fn still_fails(graph: &DiGraph, s: NodeId, t: NodeId, params: &Params, solver: FuzzSolver) -> bool {
    match Instance::from_endpoints(graph, s, t) {
        Ok(inst) => inst.hops() >= 1 && check_instance(&inst, params, solver).is_err(),
        Err(_) => false,
    }
}

/// Induced subgraph on the kept nodes, ids remapped ascending. Returns
/// `None` when `s` or `t` was dropped.
fn induced(
    graph: &DiGraph,
    keep: &[bool],
    s: NodeId,
    t: NodeId,
) -> Option<(DiGraph, NodeId, NodeId)> {
    if !keep[s] || !keep[t] {
        return None;
    }
    let mut new_id = vec![usize::MAX; graph.node_count()];
    let mut count = 0;
    for (v, &k) in keep.iter().enumerate() {
        if k {
            new_id[v] = count;
            count += 1;
        }
    }
    let mut b = GraphBuilder::new(count);
    for (_, e) in graph.edges() {
        if keep[e.from] && keep[e.to] {
            b.add_edge(new_id[e.from], new_id[e.to], e.weight);
        }
    }
    Some((b.build(), new_id[s], new_id[t]))
}

/// The graph with a subset of edges dropped (same node set).
fn without_edges(graph: &DiGraph, keep_edge: &[bool]) -> DiGraph {
    let mut b = GraphBuilder::new(graph.node_count());
    for (id, e) in graph.edges() {
        if keep_edge[id] {
            b.add_edge(e.from, e.to, e.weight);
        }
    }
    b.build()
}

/// Greedily minimizes a failing single-instance case. The returned
/// `(graph, s, t)` still fails the same differential check (or, if the
/// budget ran out mid-plateau, is the smallest failing repro found).
pub fn minimize_instance(
    graph: DiGraph,
    s: NodeId,
    t: NodeId,
    params: &Params,
    solver: FuzzSolver,
) -> (DiGraph, NodeId, NodeId) {
    let mut cur = (graph, s, t);
    let mut checks = 0usize;

    // Phase 1: drop node chunks.
    let mut chunk = (cur.0.node_count() / 2).max(1);
    while chunk >= 1 && checks < CHECK_BUDGET {
        let n = cur.0.node_count();
        let mut progressed = false;
        let mut start = 0;
        while start < n && checks < CHECK_BUDGET {
            let mut keep = vec![true; n];
            for (v, k) in keep.iter_mut().enumerate() {
                *k = !(v >= start && v < (start + chunk).min(n)) || v == cur.1 || v == cur.2;
            }
            if let Some((g2, s2, t2)) = induced(&cur.0, &keep, cur.1, cur.2) {
                if g2.node_count() < cur.0.node_count() {
                    checks += 1;
                    if still_fails(&g2, s2, t2, params, solver) {
                        cur = (g2, s2, t2);
                        progressed = true;
                        // Restart the scan on the shrunken graph.
                        break;
                    }
                }
            }
            start += chunk;
        }
        if !progressed {
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        } else {
            chunk = chunk.min((cur.0.node_count() / 2).max(1));
        }
    }

    // Phase 2: drop edge chunks (node set is now minimal-ish).
    let mut chunk = (cur.0.edge_count() / 2).max(1);
    while chunk >= 1 && checks < CHECK_BUDGET {
        let m = cur.0.edge_count();
        let mut progressed = false;
        let mut start = 0;
        while start < m && checks < CHECK_BUDGET {
            let mut keep = vec![true; m];
            for e in start..(start + chunk).min(m) {
                keep[e] = false;
            }
            let g2 = without_edges(&cur.0, &keep);
            if g2.edge_count() < m {
                checks += 1;
                if still_fails(&g2, cur.1, cur.2, params, solver) {
                    cur = (g2, cur.1, cur.2);
                    progressed = true;
                    break;
                }
            }
            start += chunk;
        }
        if !progressed {
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        } else {
            chunk = chunk.min((cur.0.edge_count() / 2).max(1));
        }
    }

    // Phase 3: drop now-isolated nodes (edge removal can strand them;
    // an isolated node disconnects the graph, so `still_fails` would
    // reject it — strip them in one induced pass instead).
    let mut has_edge = vec![false; cur.0.node_count()];
    for (_, e) in cur.0.edges() {
        has_edge[e.from] = true;
        has_edge[e.to] = true;
    }
    has_edge[cur.1] = true;
    has_edge[cur.2] = true;
    if has_edge.iter().any(|&k| !k) {
        if let Some((g2, s2, t2)) = induced(&cur.0, &has_edge, cur.1, cur.2) {
            if still_fails(&g2, s2, t2, params, solver) {
                cur = (g2, s2, t2);
            }
        }
    }

    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::gen::planted_path_digraph;
    use rpaths_core::testhooks;

    #[test]
    fn minimizes_injected_bug_below_32_nodes() {
        // A medium random instance that the flipped merge breaks; the
        // minimizer must shrink it to a tiny fixture-sized repro.
        testhooks::set_flip_unweighted_merge(true);
        let mut found = None;
        for seed in 0..20 {
            let (g, s, t) = planted_path_digraph(60, 12, 150, seed);
            let mut params = Params::with_zeta(60, 4).with_seed(seed);
            params.landmark_prob = 1.0;
            if still_fails(&g, s, t, &params, FuzzSolver::Unweighted) {
                found = Some((g, s, t, params));
                break;
            }
        }
        let (g, s, t, params) = found.expect("some seed must trip the injected bug");
        let before = g.node_count();
        let (g2, s2, t2) = minimize_instance(g, s, t, &params, FuzzSolver::Unweighted);
        let still = still_fails(&g2, s2, t2, &params, FuzzSolver::Unweighted);
        testhooks::set_flip_unweighted_merge(false);
        assert!(still, "minimized repro must still fail");
        assert!(
            g2.node_count() <= 32,
            "expected ≤ 32 nodes, got {} (from {before})",
            g2.node_count()
        );
    }

    #[test]
    fn healthy_case_is_not_failing() {
        let (g, s, t) = planted_path_digraph(30, 8, 60, 1);
        let mut params = Params::with_zeta(30, 4);
        params.landmark_prob = 1.0;
        assert!(!still_fails(&g, s, t, &params, FuzzSolver::Unweighted));
    }
}
