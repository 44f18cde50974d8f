//! Problem instances: a graph plus a validated shortest path `P`.

use std::fmt;

use graphkit::alg::{shortest_st_path, undirected_diameter};
use graphkit::{DiGraph, Dist, EdgeId, NodeId, PathError, StPath};

/// Errors raised when building an [`Instance`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InstanceError {
    /// `t` is unreachable from `s`, so no path `P` exists.
    Unreachable {
        /// Requested source.
        s: NodeId,
        /// Requested target.
        t: NodeId,
    },
    /// The supplied path is invalid or not shortest.
    BadPath(PathError),
    /// The communication graph is disconnected; the CONGEST model (and
    /// the paper's `D`) requires connectivity.
    Disconnected,
    /// An endpoint of the demand is not a node of the graph.
    UnknownNode {
        /// The requested endpoint.
        node: NodeId,
        /// Nodes in the graph.
        nodes: usize,
    },
}

impl fmt::Display for InstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceError::Unreachable { s, t } => {
                write!(f, "target {t} is unreachable from source {s}")
            }
            InstanceError::BadPath(e) => write!(f, "invalid input path: {e}"),
            InstanceError::Disconnected => {
                write!(f, "underlying undirected graph must be connected")
            }
            InstanceError::UnknownNode { node, nodes } => {
                write!(f, "endpoint {node} is not a node of the {nodes}-node graph")
            }
        }
    }
}

impl std::error::Error for InstanceError {}

impl From<PathError> for InstanceError {
    fn from(e: PathError) -> InstanceError {
        InstanceError::BadPath(e)
    }
}

/// Checks that both endpoints of an `s`-`t` demand are nodes of `graph`,
/// so the shortest-path search that poses the demand cannot index past
/// the graph.
///
/// # Errors
///
/// [`InstanceError::UnknownNode`] naming the first endpoint (`s`, then
/// `t`) outside the graph.
pub(crate) fn check_endpoints(graph: &DiGraph, s: NodeId, t: NodeId) -> Result<(), InstanceError> {
    let nodes = graph.node_count();
    match [s, t].into_iter().find(|&v| v >= nodes) {
        Some(node) => Err(InstanceError::UnknownNode { node, nodes }),
        None => Ok(()),
    }
}

/// A replacement-paths problem instance: the graph `G`, the source `s`,
/// the target `t`, and the given shortest path `P` (Section 2 of the
/// paper).
///
/// The constructor validates everything the problem definition requires:
/// `P` is a shortest `s`-`t` path and the communication graph is
/// connected. Derived quantities that the algorithms repeatedly need
/// (path index of each vertex, prefix/suffix distances, the undirected
/// diameter `D`) are precomputed here; the *distributed acquisition* of
/// the per-vertex knowledge is [`crate::knowledge`] (Lemma 2.5).
#[derive(Clone, Debug)]
pub struct Instance<'g> {
    /// The input graph.
    pub graph: &'g DiGraph,
    /// The given shortest path `P`.
    pub path: StPath,
    /// `path_index[v] = Some(i)` iff `v = v_i` on `P`.
    pub path_index: Vec<Option<usize>>,
    /// `is_path_edge[e]` iff edge `e` is one of `P`'s edges.
    pub is_path_edge: Vec<bool>,
    /// `prefix[i] = |P[s, v_i]|` (equals `i` in unweighted graphs).
    pub prefix: Vec<Dist>,
    /// `suffix[i] = |P[v_i, t]|`.
    pub suffix: Vec<Dist>,
    /// Undirected diameter of the communication graph.
    pub diameter: usize,
}

impl<'g> Instance<'g> {
    /// Builds an instance from an explicit path.
    pub fn new(graph: &'g DiGraph, path: StPath) -> Result<Instance<'g>, InstanceError> {
        let diameter = undirected_diameter(graph).ok_or(InstanceError::Disconnected)?;
        Instance::with_parts(graph, path, diameter)
    }

    /// Builds an instance from parts a solver session already holds: the
    /// path is still re-validated as shortest, but the (expensive)
    /// undirected diameter is injected from the session's artifact cache
    /// instead of being recomputed per instance.
    pub(crate) fn with_parts(
        graph: &'g DiGraph,
        path: StPath,
        diameter: usize,
    ) -> Result<Instance<'g>, InstanceError> {
        path.validate_shortest(graph)?;
        debug_assert_eq!(undirected_diameter(graph), Some(diameter));
        let mut path_index = vec![None; graph.node_count()];
        for (i, &v) in path.nodes().iter().enumerate() {
            path_index[v] = Some(i);
        }
        let mut is_path_edge = vec![false; graph.edge_count()];
        for &e in path.edges() {
            is_path_edge[e] = true;
        }
        let h = path.hops();
        let prefix: Vec<Dist> = (0..=h).map(|i| path.prefix_length(graph, i)).collect();
        let suffix: Vec<Dist> = (0..=h).map(|i| path.suffix_length(graph, i)).collect();
        Ok(Instance {
            graph,
            path,
            path_index,
            is_path_edge,
            prefix,
            suffix,
            diameter,
        })
    }

    /// Builds an instance by extracting a shortest `s`-`t` path.
    ///
    /// # Errors
    ///
    /// [`InstanceError::UnknownNode`] when `s` or `t` is not a node of
    /// `graph`, [`InstanceError::Unreachable`] when no `s`-`t` path
    /// exists, [`InstanceError::Disconnected`] when the communication
    /// graph is disconnected.
    pub fn from_endpoints(
        graph: &'g DiGraph,
        s: NodeId,
        t: NodeId,
    ) -> Result<Instance<'g>, InstanceError> {
        check_endpoints(graph, s, t)?;
        let path = shortest_st_path(graph, s, t).ok_or(InstanceError::Unreachable { s, t })?;
        Instance::new(graph, path)
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of path hops `h_st`.
    #[inline]
    pub fn hops(&self) -> usize {
        self.path.hops()
    }

    /// The source `s`.
    #[inline]
    pub fn s(&self) -> NodeId {
        self.path.source()
    }

    /// The target `t`.
    #[inline]
    pub fn t(&self) -> NodeId {
        self.path.target()
    }

    /// Returns `true` when `e` may be used by detours (i.e. `e ∉ P`).
    #[inline]
    pub fn in_g_minus_p(&self, e: EdgeId) -> bool {
        !self.is_path_edge[e]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::gen::{parallel_lane, planted_path_digraph};
    use graphkit::GraphBuilder;

    #[test]
    fn from_endpoints_builds_valid_instance() {
        let (g, s, t) = parallel_lane(10, 2, 2);
        let inst = Instance::from_endpoints(&g, s, t).unwrap();
        assert_eq!(inst.hops(), 10);
        assert_eq!(inst.s(), s);
        assert_eq!(inst.t(), t);
        assert_eq!(inst.path_index[s], Some(0));
        assert_eq!(inst.path_index[t], Some(10));
        assert_eq!(inst.prefix[4], Dist::new(4));
        assert_eq!(inst.suffix[4], Dist::new(6));
    }

    #[test]
    fn path_edge_classification() {
        let (g, s, t) = planted_path_digraph(30, 8, 40, 1);
        let inst = Instance::from_endpoints(&g, s, t).unwrap();
        let on_path: usize = inst.is_path_edge.iter().filter(|&&b| b).count();
        assert_eq!(on_path, 8);
        for &e in inst.path.edges() {
            assert!(!inst.in_g_minus_p(e));
        }
    }

    #[test]
    fn unreachable_target_rejected() {
        let mut b = GraphBuilder::new(3);
        b.add_arc(0, 1);
        b.add_arc(2, 1);
        let g = b.build();
        assert!(matches!(
            Instance::from_endpoints(&g, 0, 2),
            Err(InstanceError::Unreachable { .. })
        ));
    }

    #[test]
    fn non_shortest_path_rejected() {
        let mut b = GraphBuilder::new(3);
        b.add_arc(0, 1);
        b.add_arc(1, 2);
        b.add_arc(0, 2);
        let g = b.build();
        let p = StPath::from_nodes(&g, &[0, 1, 2]).unwrap();
        assert!(matches!(
            Instance::new(&g, p),
            Err(InstanceError::BadPath(PathError::NotShortest { .. }))
        ));
    }

    #[test]
    fn disconnected_graph_rejected() {
        let mut b = GraphBuilder::new(4);
        b.add_arc(0, 1);
        b.add_arc(2, 3);
        let g = b.build();
        let p = StPath::from_nodes(&g, &[0, 1]).unwrap();
        assert!(matches!(
            Instance::new(&g, p),
            Err(InstanceError::Disconnected)
        ));
    }
}
