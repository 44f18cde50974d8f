//! Primer: writing your own CONGEST protocol against the `congest`
//! engine.
//!
//! The engine gives you exactly what the model gives a distributed
//! algorithm: per-round inboxes, one `O(log n)`-bit message per link
//! direction per round (enforced — overdo it and the engine panics),
//! and free local computation. This example implements *leader
//! election by id-flooding* from scratch and cross-checks the round
//! count against the graph's diameter.
//!
//! Run with: `cargo run --release -p rpaths --example congest_primer`

use congest::{Network, NodeCtx, Protocol};
use graphkit::gen::random_digraph;

/// Every node floods the largest node id it has heard; after `D` rounds
/// everyone agrees on the maximum id — the leader.
///
/// A protocol value holds what every node may read (here: nothing). The
/// per-node state — one slot per node, here the best id heard — belongs
/// to the caller, who lends the slots to the run and reads the results
/// from them afterwards. The engine hands each step `&mut` to its own
/// node's slot only, so the only way to learn anything about another
/// node is a message.
struct LeaderElection;

impl Protocol for LeaderElection {
    type Msg = u64;
    type Node = u64;

    fn msg_bits(&self, id: &u64) -> u64 {
        congest::word_bits(*id)
    }

    // The engine steps a node only in round 0, when a message arrives,
    // or after it called `ctx.wake()`. Opinions only change on receipt,
    // so no step needs a wake: simulation cost tracks the number of
    // opinion changes instead of n · rounds.
    fn step_node(&self, best: &mut u64, ctx: &mut NodeCtx<'_, u64>) {
        // Round 0: announce yourself. Later: forward improvements only —
        // that is what keeps the message count at O(m·D) worst case and
        // the protocol quiescent once opinions stabilize.
        let mut improved = ctx.round == 0;
        for &(_, id) in ctx.inbox() {
            if id > *best {
                *best = id;
                improved = true;
            }
        }
        if improved {
            for p in 0..ctx.ports().len() as u32 {
                ctx.send(p, *best);
            }
        }
    }
}

fn main() {
    let n = 200;
    let g = random_digraph(n, 3 * n, 2026);
    let mut net = Network::new(&g);
    println!("network: {net:?}");

    let mut best: Vec<u64> = (0..n as u64).collect(); // node v's id is v
    let stats = net
        .run_until_quiet("leader-election", &LeaderElection, &mut best, 10 * n as u64)
        .expect("flooding quiesces");

    let leader = best[0];
    assert!(best.iter().all(|&b| b == leader), "disagreement!");
    println!(
        "elected leader {leader} in {} rounds ({} messages, {} bits)",
        stats.rounds, stats.messages, stats.bits
    );

    let diameter = graphkit::alg::undirected_diameter(&g).expect("connected");
    println!("undirected diameter D = {diameter}; flooding needs ≥ D and ≤ D+2 rounds");
    assert!(stats.rounds as usize >= diameter);
    assert!(stats.rounds as usize <= diameter + 2);

    // The engine accounts everything; a phase log accumulates across
    // protocol runs on the same network:
    println!("\nmetrics log:\n{}", net.metrics());
}
