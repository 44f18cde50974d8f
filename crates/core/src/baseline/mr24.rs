//! The Manoharan–Ramachandran (SIROCCO 2024) baseline:
//! `eO(n^{2/3} + √(n·h_st) + D)` rounds for unweighted directed RPaths.
//!
//! This is the algorithm the paper improves on, reproduced here so the
//! Table 1 comparison can be *measured*. Its round profile differs from
//! Theorem 1 in exactly the ways the paper describes (Section 3.1):
//!
//! - The path identifiers are made global knowledge up front — justified
//!   in their setting because their round complexity already contains an
//!   `O(h_st)` term. We charge an `O(h_st + D)` broadcast for it.
//! - Short detours: a ζ'-hop BFS from **all** path vertices
//!   simultaneously (`O(h_st + ζ')` rounds; messages are per-source, not
//!   trimmed), versus the paper's `O(ζ)` furthest-origin BFS.
//! - Long detours: **both** landmarks *and path vertices* publish their
//!   landmark distances, an `O(|L|² + |L|·h_st + D)`-round broadcast,
//!   versus the paper's landmark-only `O(|L|² + D)`.
//! - The threshold is ζ' = max(n^{2/3}, √(n·h_st)) — their balance point;
//!   the √(n·h_st) term is the one Theorem 1 removes.

use congest::bfs_tree::build_bfs_tree;
use congest::broadcast::broadcast;
use congest::multi_bfs::{default_budget, multi_source_bfs, MultiBfsConfig};
use congest::{word_bits, Network};
use graphkit::Dist;

use crate::long::dists::min_plus_closure;
use crate::long::landmarks;
use crate::short::combine::pipeline_dp;
use crate::{with_network, Instance, Params, RPathsOutput, SolveError};

/// MR24's threshold: `ζ' = max(ζ, ⌈√(n·h_st)⌉)`.
pub fn mr_zeta(n: usize, h: usize, zeta: usize) -> usize {
    zeta.max(((n as f64) * (h as f64)).sqrt().ceil() as usize)
}

/// Runs the MR24 algorithm. Exact w.h.p.;
/// `eO(n^{2/3} + √(n·h_st) + D)` rounds.
///
/// # Errors
///
/// Returns [`SolveError::Partitioned`] when the communication graph is
/// disconnected, [`SolveError::Engine`] when a phase runs out of its
/// round budget (a fault plan that drops messages can cause this), and
/// [`SolveError::InvalidParams`] (before any round runs) when `params`
/// lie outside the solvers' domain.
pub fn solve(inst: &Instance<'_>, params: &Params) -> Result<RPathsOutput, SolveError> {
    let (replacement, metrics) = with_network(inst.graph, |net| solve_on(net, inst, params))?;
    Ok(RPathsOutput {
        replacement,
        metrics,
    })
}

/// Like [`solve`], but on a caller-provided network; metrics accumulate
/// on `net`.
///
/// # Errors
///
/// Returns [`SolveError::Partitioned`] when the communication graph is
/// disconnected, [`SolveError::Engine`] when a phase runs out of its
/// round budget (a fault plan that drops messages can cause this), and
/// [`SolveError::InvalidParams`] (before any round runs) when `params`
/// lie outside the solvers' domain.
pub fn solve_on(
    net: &mut Network<'_>,
    inst: &Instance<'_>,
    params: &Params,
) -> Result<Vec<Dist>, SolveError> {
    params.check().map_err(SolveError::InvalidParams)?;
    assert!(inst.graph.is_unweighted(), "mr24 baseline is unweighted");
    let n = inst.n();
    let h = inst.hops();
    let zeta = mr_zeta(n, h, params.zeta);
    let (tree, _) = build_bfs_tree(net, inst.s())?;

    // MR24's initial-knowledge assumption: everyone learns the vertex
    // sequence of P (an O(h_st + D) broadcast).
    let mut id_items: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
    for (i, &v) in inst.path.nodes().iter().enumerate() {
        id_items[v].push((i as u32, v as u32));
    }
    broadcast(
        net,
        &tree,
        id_items,
        |&(i, v)| word_bits(i as u64) + word_bits(v as u64),
        |_| true,
        |_| true,
        "mr24/path-ids",
    )
    .map_err(SolveError::Engine)?;

    // --- Short detours: ζ'-hop BFS from all of P, untrimmed. ---
    let cfg = MultiBfsConfig {
        sources: inst.path.nodes(),
        max_dist: zeta as u64,
        reverse: true, // v_i learns d(v_i -> v_j) for every j
        delays: None,
    };
    let (to_path, _) = multi_source_bfs(
        net,
        &cfg,
        |e| inst.in_g_minus_p(e),
        "mr24/path-bfs",
        default_budget(h + 1, zeta as u64) * 2 * params.budget_factor,
    )
    .map_err(SolveError::Engine)?;
    // Locally: X[i, >= i+d] tables, then the same O(ζ') pipelined DP.
    let x_ge: Vec<Vec<Dist>> = (0..=h)
        .map(|i| {
            let vi = inst.path.node(i);
            let span = zeta.min(h - i);
            let mut out = vec![Dist::INF; zeta.max(1)];
            let mut running = Dist::INF;
            for d in (1..=span).rev() {
                let j = i + d;
                if let Some(det) = to_path[j][vi].finite() {
                    running = running.min(Dist::new(h as u64 - d as u64 + det));
                }
                out[d - 1] = running;
            }
            out
        })
        .collect();
    let short_ans = pipeline_dp(net, inst, &x_ge, zeta.max(1));

    // --- Long detours: landmarks, with the fat broadcast. ---
    let mut lparams = params.clone();
    lparams.zeta = zeta;
    // MR24's density for the (possibly larger) threshold ζ'. An explicit
    // caller override below the computed density is respected (tests pin
    // it); landmark_prob = 1 forces full landmarks for exactness tests.
    lparams.landmark_prob = if params.landmark_prob >= 0.999 {
        1.0
    } else {
        (Params::LANDMARK_C * (n.max(2) as f64).ln() / zeta as f64)
            .min(params.landmark_prob)
            .min(1.0)
    };
    let lms = landmarks::sample(inst, &lparams);
    let k = lms.len();
    let long_ans: Vec<Dist> = if k == 0 {
        vec![Dist::INF; h]
    } else {
        let fwd_cfg = MultiBfsConfig {
            sources: &lms,
            max_dist: zeta as u64,
            reverse: false,
            delays: None,
        };
        let (fwd, _) = multi_source_bfs(
            net,
            &fwd_cfg,
            |e| inst.in_g_minus_p(e),
            "mr24/landmark-bfs-fwd",
            default_budget(k, zeta as u64) * 2 * params.budget_factor,
        )
        .map_err(SolveError::Engine)?;
        let bwd_cfg = MultiBfsConfig {
            sources: &lms,
            max_dist: zeta as u64,
            reverse: true,
            delays: None,
        };
        let (bwd, _) = multi_source_bfs(
            net,
            &bwd_cfg,
            |e| inst.in_g_minus_p(e),
            "mr24/landmark-bfs-bwd",
            default_budget(k, zeta as u64) * 2 * params.budget_factor,
        )
        .map_err(SolveError::Engine)?;

        // The fat broadcast: landmark-landmark pairs PLUS every path
        // vertex's distances to and from every landmark — the
        // O(|L|² + |L|·h_st) message volume of MR24.
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        enum Item {
            Pair(u32, u32, u64),
            PathTo(u32, u32, u64),   // d(v_i -> l_j)
            PathFrom(u32, u32, u64), // d(l_j -> v_i)
        }
        let bits = |it: &Item| match *it {
            Item::Pair(a, b, d) | Item::PathTo(a, b, d) | Item::PathFrom(a, b, d) => {
                2 + word_bits(a as u64) + word_bits(b as u64) + word_bits(d)
            }
        };
        let mut items: Vec<Vec<Item>> = vec![Vec::new(); n];
        for (j, row) in fwd.iter().enumerate() {
            for (kk, &lk) in lms.iter().enumerate() {
                if let Some(d) = row[lk].finite() {
                    items[lk].push(Item::Pair(j as u32, kk as u32, d));
                }
            }
        }
        for (i, &v) in inst.path.nodes().iter().enumerate() {
            for j in 0..k {
                if let Some(d) = bwd[j][v].finite() {
                    items[v].push(Item::PathTo(i as u32, j as u32, d));
                }
                if let Some(d) = fwd[j][v].finite() {
                    items[v].push(Item::PathFrom(i as u32, j as u32, d));
                }
            }
        }
        let (stream, _) = broadcast(
            net,
            &tree,
            items,
            bits,
            |_| true,
            |_| true,
            "mr24/fat-broadcast",
        )
        .map_err(SolveError::Engine)?;

        // Everything below is local at every vertex.
        let mut pairs = vec![vec![Dist::INF; k]; k];
        let mut path_to = vec![vec![Dist::INF; k]; h + 1];
        let mut path_from = vec![vec![Dist::INF; k]; h + 1];
        for it in stream {
            match it {
                Item::Pair(a, b, d) => {
                    let c = &mut pairs[a as usize][b as usize];
                    *c = (*c).min(Dist::new(d));
                }
                Item::PathTo(i, j, d) => {
                    let c = &mut path_to[i as usize][j as usize];
                    *c = (*c).min(Dist::new(d));
                }
                Item::PathFrom(i, j, d) => {
                    let c = &mut path_from[i as usize][j as usize];
                    *c = (*c).min(Dist::new(d));
                }
            }
        }
        for (j, row) in pairs.iter_mut().enumerate() {
            row[j] = Dist::ZERO;
        }
        let closure = min_plus_closure(pairs);
        // Exact (w.h.p.) |v_i -> l_j| and |l_j -> v_i| via composition.
        let mut exact_to = path_to.clone();
        let mut exact_from = path_from.clone();
        for i in 0..=h {
            for j in 0..k {
                for mid in 0..k {
                    exact_to[i][j] = exact_to[i][j].min(path_to[i][mid] + closure[mid][j]);
                    exact_from[i][j] = exact_from[i][j].min(closure[j][mid] + path_from[i][mid]);
                }
            }
        }
        // A(l, i) = min_{k <= i} (k + |v_k -> l|); B(l, i) = min_{k' >= i+1}.
        let mut a = vec![vec![Dist::INF; k]; h + 1];
        for i in 0..=h {
            for j in 0..k {
                let own = Dist::new(i as u64) + exact_to[i][j];
                a[i][j] = if i == 0 { own } else { a[i - 1][j].min(own) };
            }
        }
        let mut b = vec![vec![Dist::INF; k]; h + 2];
        for i in (1..=h).rev() {
            for j in 0..k {
                let own = exact_from[i][j] + Dist::new((h - i) as u64);
                b[i][j] = b[i + 1][j].min(own);
            }
        }
        (0..h)
            .map(|i| {
                (0..k)
                    .map(|j| a[i][j] + b[i + 1][j])
                    .min()
                    .unwrap_or(Dist::INF)
            })
            .collect()
    };

    Ok(short_ans
        .into_iter()
        .zip(long_ans)
        .map(|(x, y)| x.min(y))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::alg::replacement_lengths;
    use graphkit::gen::{parallel_lane, planted_path_digraph};

    #[test]
    fn mr24_matches_oracle_on_planted() {
        for seed in 0..5 {
            let (g, s, t) = planted_path_digraph(40, 12, 100, seed);
            let inst = Instance::from_endpoints(&g, s, t).unwrap();
            let mut params = Params::with_zeta(40, 5).with_seed(seed);
            params.landmark_prob = 1.0;
            let out = solve(&inst, &params).unwrap();
            assert_eq!(
                out.replacement,
                replacement_lengths(&g, &inst.path),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn mr24_matches_oracle_on_lane() {
        let (g, s, t) = parallel_lane(18, 6, 2);
        let inst = Instance::from_endpoints(&g, s, t).unwrap();
        let mut params = Params::with_zeta(inst.n(), 4);
        params.landmark_prob = 1.0;
        let out = solve(&inst, &params).unwrap();
        assert_eq!(out.replacement, replacement_lengths(&g, &inst.path));
    }

    #[test]
    fn mr_zeta_is_the_balance_point() {
        assert_eq!(mr_zeta(1000, 1, 100), 100); // n^{2/3} dominates
        assert!(mr_zeta(1000, 500, 100) >= 707); // √(n·h) dominates
    }

    #[test]
    fn mr24_costs_more_rounds_as_h_grows() {
        // Same n, longer path: MR24's round count must grow noticeably.
        let build = |h: usize| {
            let (g, s, t) = planted_path_digraph(160, h, 350, 7);
            let inst = Instance::from_endpoints(&g, s, t).unwrap();
            // Pin the landmark density so the comparison isolates the
            // h_st dependence (otherwise a larger ζ' lowers |L| and the
            // |L|² broadcast shrinks, masking the effect at tiny n).
            let mut params = Params::for_instance(&inst).with_seed(3);
            params.landmark_prob = 0.15;
            solve(&inst, &params).unwrap().metrics.rounds()
        };
        let short = build(8);
        let long = build(100);
        assert!(long > short, "short={short}, long={long}");
    }
}
