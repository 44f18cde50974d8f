//! Why replacement paths are *hard*: the Section 6 lower bound, live.
//!
//! Alice knows a bit vector `x`, Bob knows `y`. They embed their inputs
//! into the graph `G(k, d, p, φ, M, x)` — Alice by deleting escape edges,
//! Bob by orienting a complete bipartite graph — and then any algorithm
//! that computes the second simple shortest path (2-SiSP) tells them
//! whether their sets intersect. Since set disjointness needs `k²` bits
//! of communication and the construction only offers an `O(d·p·log n)`
//! bit/round channel between the two sides, 2-SiSP needs
//! `eΩ(n^{2/3})` rounds.
//!
//! Run with: `cargo run --release -p rpaths --example lower_bound_demo`

use rpaths_lb::disjointness::{implied_round_lower_bound, run_reduction};

fn main() {
    let (k, d, p) = (3usize, 2usize, 3usize);
    // Alice's set: {0, 3, 7}; Bob's set: {1, 3, 8} — they intersect at 3.
    let mut x = vec![false; k * k];
    for i in [0, 3, 7] {
        x[i] = true;
    }
    let mut y = vec![false; k * k];
    for i in [1, 3, 8] {
        y[i] = true;
    }

    println!("Alice's x: {}", bits(&x));
    println!("Bob's   y: {}", bits(&y));

    let out = run_reduction(k, d, p, &x, &y, 1);
    println!(
        "\nconstruction: n = {} vertices; the bipartite orientations encode Bob's {} bits",
        out.n, out.bob_bits
    );
    println!(
        "distributed 2-SiSP answered {} (threshold: {} = sets intersect)",
        out.sisp, out.good_length
    );
    println!(
        "decoded disj(x, y) = {} — ground truth: {}",
        out.disjoint, out.expected_disjoint
    );
    assert_eq!(out.disjoint, out.expected_disjoint);

    println!(
        "\nthe solver needed {} rounds and moved {} bits across the Alice/Bob cut",
        out.rounds, out.cut_bits
    );
    println!(
        "(it HAD to move at least {} — Bob's whole input is decision-relevant)",
        out.bob_bits
    );
    assert!(out.cut_bits >= out.bob_bits);

    // Now the disjoint case: flip Bob's bit 3 off.
    y[3] = false;
    let out2 = run_reduction(k, d, p, &x, &y, 2);
    println!(
        "\nafter removing 3 from Bob's set: 2-SiSP = {}, decoded disjoint = {}",
        out2.sisp, out2.disjoint
    );
    assert!(out2.disjoint && out2.expected_disjoint);

    println!(
        "\nimplied round lower bound at this size (B = 32): {:.2} rounds;",
        implied_round_lower_bound(k, d, p, 32)
    );
    println!("scaling k² = dᵖ upward, this grows as n^(2/3) / (B·log n) — Theorem 2.");
}

fn bits(v: &[bool]) -> String {
    v.iter().map(|&b| if b { '1' } else { '0' }).collect()
}
