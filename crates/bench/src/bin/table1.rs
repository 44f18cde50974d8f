//! Table 1 reproduction: measured round complexities.
//!
//! Paper's Table 1 (unweighted directed RPaths):
//!
//! | | upper bounds | lower bounds |
//! |---|---|---|
//! | prior (MR24) | eO(n^{2/3} + √(n·h_st) + D) | eΩ(√n + D) |
//! | this paper | eO(n^{2/3} + D) | eΩ(n^{2/3} + D) |
//! | weighted Apx | eO(n^{2/3} + D) | — |
//!
//! This binary measures the *upper-bound rows*: the round counts of
//! Theorem 1 vs. MR24 vs. the naive baseline, on instances sweeping `n`
//! (at proportional `h_st = n/4`) and sweeping `h_st` at fixed `n`, plus
//! Theorem 3 on weighted instances. The lower-bound row is exercised by
//! the `lower_bound` binary. Expected shapes:
//!
//! - Theorem 1 rounds grow ≈ n^{2/3} (polylog factors inflate the fit at
//!   these sizes) and are *flat in h_st*;
//! - MR24 rounds grow faster with h_st (the √(n·h_st) + |L|·h_st terms);
//! - naive rounds grow ≈ linearly in h_st with a large constant.

use rpaths_bench::{
    bench_params, growth_exponent, lane_case, measure, measure_weighted, random_case, Row,
};
use rpaths_core::baseline::{mr24, naive};
use rpaths_core::unweighted;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut all: Vec<Row> = Vec::new();

    println!("== Table 1 / sweep over n (h_st = n/4, random planted instances) ==");
    Row::header();
    let ns: &[usize] = if quick {
        &[128, 256, 512]
    } else {
        &[128, 256, 512, 1024, 2048]
    };
    let mut ours_pts = Vec::new();
    let mut mr_pts = Vec::new();
    for &n in ns {
        let case = random_case(n, n / 4, 42 + n as u64);
        let params = bench_params(n, 7);
        let r = measure("theorem1", unweighted::solve, &case, &params);
        r.print();
        ours_pts.push((n, r.rounds));
        all.push(r);
        let r = measure("mr24", mr24::solve, &case, &params);
        r.print();
        mr_pts.push((n, r.rounds));
        all.push(r);
        if n <= 512 {
            let r = measure("naive", naive::solve, &case, &params);
            r.print();
            all.push(r);
        }
    }
    println!(
        "growth exponent (rounds ~ n^e):  theorem1 e = {:.2},  mr24 e = {:.2}",
        growth_exponent(&ours_pts),
        growth_exponent(&mr_pts)
    );

    println!();
    println!("== Table 1 / sweep over h_st at FIXED n (random planted instances) ==");
    println!("   (the h_st-dependence is the term Theorem 1 eliminates)");
    Row::header();
    let n_fixed: usize = if quick { 512 } else { 1024 };
    let hs: &[usize] = if quick {
        &[16, 64, 256]
    } else {
        &[16, 64, 256, 512]
    };
    let mut ours_h = Vec::new();
    let mut mr_h = Vec::new();
    for &h in hs {
        let case = random_case(n_fixed, h, 77 + h as u64);
        let params = bench_params(n_fixed, 11);
        let r = measure("theorem1", unweighted::solve, &case, &params);
        r.print();
        ours_h.push((h, r.rounds));
        all.push(r);
        let r = measure("mr24", mr24::solve, &case, &params);
        r.print();
        mr_h.push((h, r.rounds));
        all.push(r);
        if h <= 64 {
            let r = measure("naive", naive::solve, &case, &params);
            r.print();
            all.push(r);
        }
    }
    println!(
        "growth exponent (rounds ~ h^e at fixed n):  theorem1 e = {:.2},  mr24 e = {:.2}",
        growth_exponent(&ours_h),
        growth_exponent(&mr_h)
    );

    println!();
    println!("== Table 1 / long-detour stress (lane instances) ==");
    Row::header();
    let lane_hs: &[usize] = if quick { &[64] } else { &[64, 160] };
    for &h in lane_hs {
        // Long-detour regime: switches every 8, stretch 3 => 26-hop detours.
        let case = lane_case(h, 8, 3);
        let n = case.graph.node_count();
        let params = bench_params(n, 11);
        let r = measure("theorem1", unweighted::solve, &case, &params);
        r.print();
        all.push(r);
        let r = measure("mr24", mr24::solve, &case, &params);
        r.print();
        all.push(r);
    }

    println!();
    println!("== Table 1 / weighted (1+ε)-Apx-RPaths (Theorem 3) ==");
    Row::header();
    let wns: &[usize] = if quick {
        &[64, 128]
    } else {
        &[64, 128, 256, 512]
    };
    for &n in wns {
        let mut seed = 1;
        let row = loop {
            if let Some(r) = measure_weighted(n, 32, seed) {
                break r;
            }
            seed += 1;
        };
        row.print();
        all.push(row);
    }

    let path = std::env::args()
        .skip_while(|a| a != "--json")
        .nth(1)
        .unwrap_or_else(|| "table1.json".into());
    if std::env::args().any(|a| a == "--json") {
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&all).expect("serialize"),
        )
        .expect("write json");
        println!("\nwrote {path}");
    }
    assert!(
        all.iter().all(|r| r.correct),
        "some measurement disagreed with its oracle"
    );
}
