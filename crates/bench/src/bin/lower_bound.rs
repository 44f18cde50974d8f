//! Section 6 experiments: Table 1's lower-bound row, made measurable.
//!
//! 1. The set-disjointness reduction (Lemma 6.9) run end-to-end with the
//!    real distributed 2-SiSP solver: the decoded answer always matches
//!    ground truth, and the Alice/Bob cut accounting shows at least `k²`
//!    bits crossing — the information bottleneck behind eΩ(n^{2/3}).
//! 2. The implied numeric round lower bound `min((dᵖ−1)/2, k²/(2dpB))`
//!    across the family (with the paper's balance `k² = dᵖ`), growing
//!    like `n^{2/3}/(B·log n)`.
//! 3. The Ω(D) family of Theorem 2: intact vs. reversed long path, with
//!    solver rounds growing linearly in `D`.

use graphkit::Dist;
use rpaths_bench::{args_or_exit, quick_flag};
use rpaths_lb::diameter_lb::run_family;
use rpaths_lb::disjointness::{implied_round_lower_bound, run_reduction};
use rpaths_lb::hard::random_inputs;

fn main() {
    let quick = args_or_exit("lower_bound [--quick]", quick_flag);

    println!("== Lemma 6.9: disjointness via distributed 2-SiSP ==");
    println!(
        "{:>3} {:>3} {:>3} {:>7} {:>9} {:>9} {:>10} {:>10} {:>8} {:>8}",
        "k", "d", "p", "n", "k^2 bits", "rounds", "cut bits", "sisp", "decoded", "truth"
    );
    let configs: &[(usize, usize, usize)] = if quick {
        &[(2, 2, 2), (2, 2, 3)]
    } else {
        &[(2, 2, 2), (2, 2, 3), (3, 2, 3), (4, 2, 4)]
    };
    for &(k, d, p) in configs {
        for seed in 0..3u64 {
            let (m, x) = random_inputs(k, seed * 31 + 1);
            let y: Vec<bool> = m.iter().flatten().copied().collect();
            let out = run_reduction(k, d, p, &x, &y, seed);
            println!(
                "{:>3} {:>3} {:>3} {:>7} {:>9} {:>9} {:>10} {:>10} {:>8} {:>8}",
                k,
                d,
                p,
                out.n,
                out.bob_bits,
                out.rounds,
                out.cut_bits,
                sisp_cell(out.sisp),
                out.disjoint,
                out.expected_disjoint
            );
            assert_eq!(
                out.disjoint, out.expected_disjoint,
                "reduction decoded wrongly"
            );
            assert!(
                out.cut_bits >= out.bob_bits,
                "fewer bits crossed the cut than Bob encodes"
            );
        }
    }

    println!();
    println!("== Implied round lower bound, k² = dᵖ balance (B = 32 bits) ==");
    println!(
        "{:>3} {:>3} {:>3} {:>10} {:>14} {:>12}",
        "k", "d", "p", "n≈(dᵖ)^1.5", "LB rounds", "n^(2/3)"
    );
    for &(k, d, p) in &[(4usize, 2usize, 4usize), (8, 2, 6), (16, 2, 8), (32, 2, 10)] {
        let dp = d.pow(p as u32);
        let n_approx = ((dp as f64).powf(1.5)) as u64;
        let lb = implied_round_lower_bound(k, d, p, 32);
        println!(
            "{:>3} {:>3} {:>3} {:>10} {:>14.2} {:>12.1}",
            k,
            d,
            p,
            n_approx,
            lb,
            (n_approx as f64).powf(2.0 / 3.0)
        );
    }

    println!();
    println!("== Theorem 2, Ω(D) family ==");
    println!(
        "{:>5} {:>9} {:>9} {:>10} {:>9} {:>8}",
        "d", "diameter", "reversed", "sisp", "rounds", "correct"
    );
    let ds: &[usize] = if quick {
        &[8, 16]
    } else {
        &[8, 16, 32, 64, 128]
    };
    for &d in ds {
        for rev in [None, Some(d / 2)] {
            let pt = run_family(d, rev, 5);
            println!(
                "{:>5} {:>9} {:>9} {:>10} {:>9} {:>8}",
                pt.d,
                pt.diameter,
                pt.reversed,
                sisp_cell(pt.sisp),
                pt.rounds,
                pt.correct
            );
            assert!(pt.correct);
        }
    }
    println!("\nall lower-bound checks passed");
}

/// A 2-SiSP value as the tables print it: the number, or `inf`.
fn sisp_cell(d: Dist) -> String {
    d.finite()
        .map_or_else(|| "inf".to_string(), |v| v.to_string())
}
