//! Property-based tests (proptest) for the core invariants:
//!
//! - Theorem 1 output == centralized oracle on arbitrary planted
//!   instances (with full landmarks, so randomness cannot excuse a
//!   failure).
//! - Theorem 3 output brackets the oracle within `(1+ε)`.
//! - Sending only the undominated landmark pairs keeps the min-plus
//!   closure: on random matrices, and end to end through
//!   `compose_from_tables` on random graphs, landmark sets and ζ.
//! - One more rounding scale with the last one's delays at twice its
//!   hop value leaves the rounded landmark tables unchanged (why
//!   Theorem 3's scale ladder may stop at its first all-unit scale).
//! - The short-detour stage (Proposition 4.1) stays within `3ζ + 8`
//!   rounds on planted, lane and grid-road instances.
//! - Lemma 6.8's iff-correspondence for arbitrary `(M, x)`.
//! - `Dist` arithmetic is a commutative monoid with absorbing ∞.
//! - Generator contracts (planted path is shortest; connectivity).

use congest::bfs_tree::build_bfs_tree;
use congest::multi_bfs::{default_budget, multi_source_bfs, MultiBfsConfig};
use congest::Network;
use graphkit::alg::{replacement_lengths, shortest_st_path, undirected_diameter};
use graphkit::gen::{
    grid_road, parallel_lane, planted_path_digraph, random_reachable_pair, random_weighted_digraph,
};
use graphkit::{Dist, NodeId};
use proptest::prelude::*;
use rpaths_core::long::dists::{compose_from_tables, min_plus_closure, undominated_pairs};
use rpaths_core::short::solve_short;
use rpaths_core::weighted::long::approx_hop_multi_source;
use rpaths_core::weighted::rounding::{Scale, ScaleSet};
use rpaths_core::{unweighted, weighted, Instance, Params};
use rpaths_lb::hard;
use rpaths_lb::lemma68;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn theorem1_matches_oracle_on_planted(
        h in 4usize..20,
        extra in 0usize..150,
        zeta in 2usize..12,
        seed in 0u64..1000,
    ) {
        let n = 3 * h + 8;
        let (g, s, t) = planted_path_digraph(n, h, extra, seed);
        let inst = Instance::from_endpoints(&g, s, t).unwrap();
        let mut params = Params::with_zeta(n, zeta).with_seed(seed);
        params.landmark_prob = 1.0;
        let out = unweighted::solve(&inst, &params).unwrap();
        prop_assert_eq!(out.replacement, replacement_lengths(&g, &inst.path));
    }

    #[test]
    fn theorem1_matches_oracle_on_lanes(
        h in 4usize..24,
        c in 1usize..6,
        stretch in 1usize..4,
        zeta in 2usize..10,
    ) {
        let (g, s, t) = parallel_lane(h, c, stretch);
        let inst = Instance::from_endpoints(&g, s, t).unwrap();
        let mut params = Params::with_zeta(inst.n(), zeta);
        params.landmark_prob = 1.0;
        let out = unweighted::solve(&inst, &params).unwrap();
        prop_assert_eq!(out.replacement, replacement_lengths(&g, &inst.path));
    }

    #[test]
    fn theorem3_guarantee_on_random_weighted(
        seed in 0u64..400,
        w in 1u64..20,
        zeta in 3usize..8,
    ) {
        let g = random_weighted_digraph(30, 90, w, seed);
        let Some((s, t)) = graphkit::gen::random_reachable_pair(&g, seed) else {
            return Ok(());
        };
        let Some(p) = shortest_st_path(&g, s, t) else { return Ok(()); };
        if p.hops() < 3 {
            return Ok(());
        }
        let inst = Instance::new(&g, p).unwrap();
        let mut params = Params::with_zeta(30, zeta).with_seed(seed);
        params.landmark_prob = 1.0;
        let out = weighted::solve(&inst, &params).unwrap();
        let oracle = replacement_lengths(&g, &inst.path);
        prop_assert!(out.check_guarantee(&oracle, params.eps_num, params.eps_den).is_ok());
    }

    #[test]
    fn undominated_pairs_keep_the_closure(
        k in 1usize..14,
        inf_below in 0u64..8,
        cells in proptest::collection::vec(0u64..16, 13 * 13),
    ) {
        // A zero diagonal and positive (or ∞) entries elsewhere, as the
        // landmark tables give; small values make ties common.
        let cell = |j: usize, kk: usize| match cells[j * 13 + kk] {
            _ if j == kk => Dist::ZERO,
            v if v < inf_below => Dist::INF,
            v => Dist::new(v + 1),
        };
        let mat: Vec<Vec<Dist>> = (0..k).map(|j| (0..k).map(|kk| cell(j, kk)).collect()).collect();
        let kept = undominated_pairs(&mat);
        let mut from_kept = vec![vec![Dist::INF; k]; k];
        for (j, row) in from_kept.iter_mut().enumerate() {
            row[j] = Dist::ZERO;
        }
        for &(j, kk, d) in &kept {
            let (j, kk, d) = (j as usize, kk as usize, Dist::new(d));
            prop_assert!(j != kk);
            prop_assert_eq!(mat[j][kk], d);
            for m in (0..k).filter(|&m| m != j && m != kk) {
                prop_assert!(mat[j][m] + mat[m][kk] > d, "kept ({}, {}) has witness {}", j, kk, m);
            }
            from_kept[j][kk] = d;
        }
        prop_assert_eq!(min_plus_closure(from_kept), min_plus_closure(mat));
    }

    #[test]
    fn compose_closure_equals_the_closure_of_every_hop_bounded_pair(
        n in 8usize..40,
        zeta in 1usize..8,
        share in 1usize..6,
        weighted in any::<bool>(),
        seed in 0u64..1000,
    ) {
        // Exact hop counts on a unit-weight graph, or the weighted path's
        // scaled minima over the rounding scales on a weighted one.
        let g = random_weighted_digraph(n, 3 * n, if weighted { 9 } else { 1 }, seed);
        let Some((s, t)) = random_reachable_pair(&g, seed) else { return Ok(()); };
        let Some(p) = shortest_st_path(&g, s, t) else { return Ok(()); };
        let Ok(inst) = Instance::new(&g, p) else { return Ok(()); };
        let landmarks: Vec<NodeId> = (0..n).filter(|&v| (v * 7 + seed as usize) % 6 < share).collect();
        let mut net = Network::new(&g);
        let (tree, _) = build_bfs_tree(&mut net, inst.s()).unwrap();
        let (fwd, bwd) = if weighted {
            let set = ScaleSet::build(&g, &Params::with_zeta(n, zeta), zeta as u64);
            let mut table = |reverse| {
                approx_hop_multi_source(&mut net, &inst, &set, &landmarks, reverse, "apx", 1)
            };
            (table(false), table(true))
        } else {
            let mut table = |reverse| {
                let cfg = MultiBfsConfig {
                    sources: &landmarks,
                    max_dist: zeta as u64,
                    reverse,
                    delays: None,
                };
                let budget = default_budget(landmarks.len(), zeta as u64).max(8 * n as u64);
                multi_source_bfs(&mut net, &cfg, |e| inst.in_g_minus_p(e), "bfs", budget)
                    .expect("quiesces")
                    .0
            };
            (table(false), table(true))
        };
        let all_pairs: Vec<Vec<Dist>> = fwd
            .iter()
            .enumerate()
            .map(|(j, row)| {
                landmarks
                    .iter()
                    .enumerate()
                    .map(|(kk, &l)| if j == kk { Dist::ZERO } else { row[l] })
                    .collect()
            })
            .collect();
        let ld = compose_from_tables(&mut net, &inst, &landmarks, fwd, bwd, &tree);
        prop_assert_eq!(ld.closure, min_plus_closure(all_pairs));
    }

    #[test]
    fn a_repeated_scale_at_twice_the_hop_value_changes_no_landmark_table(
        n in 8usize..40,
        zeta in 1usize..8,
        w in 1u64..12,
        reverse in any::<bool>(),
        seed in 0u64..1000,
    ) {
        // Why the ladder may stop at its first all-unit scale: every later
        // scale repeats its delays at a larger hop value, so the rounded
        // multi-source BFS finds the same hop counts and larger lengths.
        let g = random_weighted_digraph(n, 3 * n, w, seed);
        let Some((s, t)) = random_reachable_pair(&g, seed) else { return Ok(()); };
        let Some(p) = shortest_st_path(&g, s, t) else { return Ok(()); };
        let Ok(inst) = Instance::new(&g, p) else { return Ok(()); };
        let landmarks: Vec<NodeId> = (0..n).filter(|&v| (v * 5 + seed as usize).is_multiple_of(4)).collect();
        let set = ScaleSet::build(&g, &Params::with_zeta(n, zeta), zeta as u64);
        let mut longer = set.clone();
        let last = set.scales.last().expect("at least one scale");
        longer.scales.push(Scale {
            d: 2 * last.d,
            delays: last.delays.clone(),
            hop_value: 2 * last.hop_value,
        });
        let mut net = Network::new(&g);
        let mut table = |set: &ScaleSet| {
            approx_hop_multi_source(&mut net, &inst, set, &landmarks, reverse, "apx", 1)
        };
        prop_assert_eq!(table(&set), table(&longer));
    }

    #[test]
    fn short_regime_stays_within_3_zeta_plus_8_rounds(
        family in 0usize..3,
        zeta in 1usize..53,
        seed in 0u64..1000,
    ) {
        // Proposition 4.1's O(ζ) with an explicit constant: a ζ-round
        // hop-BFS, then a (ζ − 1)-round DP along P.
        let (g, s, t) = match family {
            0 => planted_path_digraph(120, 40, 240, seed),
            1 => parallel_lane(24, 1 + seed as usize % 5, 1 + seed as usize % 3),
            _ => grid_road(10, 10, 10, seed),
        };
        let inst = Instance::from_endpoints(&g, s, t).unwrap();
        let mut net = Network::new(&g);
        solve_short(&mut net, &inst, &Params::with_zeta(inst.n(), zeta));
        let rounds = net.metrics().rounds();
        prop_assert!(rounds <= 3 * zeta as u64 + 8, "ζ = {}: {} rounds", zeta, rounds);
    }

    #[test]
    fn lemma_6_8_holds_for_arbitrary_inputs(
        m_bits in proptest::collection::vec(any::<bool>(), 4),
        x_bits in proptest::collection::vec(any::<bool>(), 4),
    ) {
        let m = vec![vec![m_bits[0], m_bits[1]], vec![m_bits[2], m_bits[3]]];
        let report = lemma68::verify_instance(2, 2, 2, &m, &x_bits);
        prop_assert!(report.all_ok(), "{report:?}");
    }

    #[test]
    fn dist_addition_laws(a in 0u64..1_000_000, b in 0u64..1_000_000, c in 0u64..1_000_000) {
        let (da, db, dc) = (Dist::new(a), Dist::new(b), Dist::new(c));
        prop_assert_eq!(da + db, db + da);
        prop_assert_eq!((da + db) + dc, da + (db + dc));
        prop_assert_eq!(da + Dist::ZERO, da);
        prop_assert_eq!(da + Dist::INF, Dist::INF);
        prop_assert!(da + db >= da);
    }

    #[test]
    fn planted_generator_contract(
        h in 1usize..30,
        extra in 0usize..200,
        seed in 0u64..500,
    ) {
        let n = h + 1 + (seed as usize % 40);
        let (g, s, t) = planted_path_digraph(n, h, extra, seed);
        let p = shortest_st_path(&g, s, t).expect("t reachable");
        prop_assert_eq!(p.hops(), h);
        prop_assert!(p.validate_shortest(&g).is_ok());
        prop_assert!(undirected_diameter(&g).is_some());
    }

    #[test]
    fn hard_graph_shape_contract(k in 2usize..4, seed in 0u64..100) {
        let (m, x) = hard::random_inputs(k, seed);
        let g = hard::build(k, 2, 2, &m, &x);
        let dp = 4usize;
        let tree = 7usize;
        prop_assert_eq!(
            g.graph.node_count(),
            2 * k * dp + 2 * k * (2 * k * k + 1) + k * k + 1 + tree
        );
        let diam = undirected_diameter(&g.graph).expect("connected");
        prop_assert!(diam <= 2 * 2 + 2);
        // P* is shortest.
        let p = shortest_st_path(&g.graph, g.s, g.t).expect("reachable");
        prop_assert_eq!(p.hops(), k * k);
    }

    #[test]
    fn replacement_is_monotone_in_edge_additions(
        h in 3usize..10,
        seed in 0u64..200,
    ) {
        // Adding edges can only shorten (or keep) replacement lengths.
        let n = 3 * h;
        let (g1, s, t) = planted_path_digraph(n, h, 10, seed);
        let (g2, s2, t2) = planted_path_digraph(n, h, 60, seed);
        prop_assert_eq!((s, t), (s2, t2));
        // Same seed => g2's first edges coincide with g1's (the generator
        // appends); the planted path is identical.
        let p1 = shortest_st_path(&g1, s, t).unwrap();
        let p2 = shortest_st_path(&g2, s, t).unwrap();
        if p1.nodes() != p2.nodes() {
            return Ok(());
        }
        let r1 = replacement_lengths(&g1, &p1);
        let r2 = replacement_lengths(&g2, &p2);
        for i in 0..h {
            prop_assert!(r2[i] <= r1[i], "edge {i}: {} > {}", r2[i], r1[i]);
        }
    }
}
