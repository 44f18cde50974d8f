//! Figures 1 and 2 reproduction: the lower-bound constructions, built and
//! verified.
//!
//! - Figure 1 is `G(Γ, d, p)`: Γ paths of `dᵖ` vertices over a depth-`p`
//!   tree. We build it for several parameter settings and check
//!   Observation 6.3 (vertex count `Θ(Γ·dᵖ)`, diameter `≤ 2p + 2`).
//! - Figure 2 is `G(k, d, p, φ)` with the highlighted replacement path.
//!   We build its directed version for random `(M, x)`, check
//!   Observation 6.6, and verify Lemma 6.8 edge by edge against the
//!   centralized oracle — including reproducing the green highlighted
//!   detour route for a planted good bit.

use rpaths_bench::{args_or_exit, no_args};
use rpaths_lb::gamma;
use rpaths_lb::hard::{build, random_inputs};
use rpaths_lb::lemma68::verify;

fn main() {
    args_or_exit("figures", no_args);
    println!("== Figure 1: G(Gamma, d, p) (Observation 6.3) ==");
    println!(
        "{:>6} {:>3} {:>3} {:>8} {:>10} {:>9} {:>7}",
        "Gamma", "d", "p", "n", "expected", "diameter", "2p+2"
    );
    for (gamma_count, d, p) in [
        (4usize, 2usize, 2usize),
        (4, 2, 3),
        (8, 2, 4),
        (3, 3, 2),
        (6, 2, 5),
    ] {
        let g = gamma::build(gamma_count, d, p);
        let dp = gamma::path_len(d, p);
        let tree = (d.pow(p as u32 + 1) - 1) / (d - 1);
        let expected = gamma_count * dp + tree;
        let diam = graphkit::alg::undirected_diameter(&g.graph).expect("connected");
        println!(
            "{:>6} {:>3} {:>3} {:>8} {:>10} {:>9} {:>7}",
            gamma_count,
            d,
            p,
            g.graph.node_count(),
            expected,
            diam,
            2 * p + 2
        );
        assert_eq!(g.graph.node_count(), expected);
        assert!(diam <= 2 * p + 2);
    }

    println!();
    println!("== Figure 2: G(k, d, p, phi, M, x) (Observation 6.6 + Lemma 6.8) ==");
    println!(
        "{:>3} {:>3} {:>3} {:>8} {:>9} {:>11} {:>10} {:>8}",
        "k", "d", "p", "n", "diameter", "good_len", "sisp", "lemma6.8"
    );
    for (k, d, p, seed) in [
        (2usize, 2usize, 2usize, 1u64),
        (3, 2, 3, 2),
        (4, 2, 4, 3),
        (3, 3, 2, 4),
    ] {
        let (m, x) = random_inputs(k, seed);
        let g = build(k, d, p, &m, &x);
        let report = verify(&g, &m, &x);
        let diam = graphkit::alg::undirected_diameter(&g.graph).expect("connected");
        println!(
            "{:>3} {:>3} {:>3} {:>8} {:>9} {:>11} {:>10} {:>8}",
            k,
            d,
            p,
            g.graph.node_count(),
            diam,
            g.good_length,
            format!("{}", report.sisp),
            if report.all_ok() { "ok" } else { "FAIL" }
        );
        assert!(report.all_ok(), "Lemma 6.8 violated at k={k}, d={d}, p={p}");
        assert!(diam <= 2 * p + 2);
    }

    // The "green path" of Figure 2: plant exactly one good bit and trace
    // the canonical detour.
    println!();
    println!("== Figure 2, highlighted replacement path (planted good bit) ==");
    let k = 3;
    let i = 4; // phi(4) = (1, 1)
    let mut m = vec![vec![false; k]; k];
    m[1][1] = true;
    let mut x = vec![false; k * k];
    x[i] = true;
    let g = build(k, 2, 3, &m, &x);
    let p = graphkit::alg::shortest_st_path(&g.graph, g.s, g.t).expect("P* exists");
    let repl = graphkit::alg::replacement_lengths(&g.graph, &p);
    println!("replacement lengths along P*: {repl:?}");
    println!(
        "edge {i} has the good length {} (detour: P*[0..{i}] -> Q^2 -> v-path -> bipartite -> w-path -> R^2 -> P*[{}..])",
        g.good_length,
        i + 1
    );
    assert_eq!(repl[i].finite(), Some(g.good_length));
    println!("\nall figure checks passed");
}
