//! Engine-level wall-clock benchmark: active-set scheduling vs. the
//! full-sweep reference schedule on the two extremes of the traffic
//! spectrum.
//!
//! - **Idle-heavy sparse lane**: single-source BFS along an `n`-node
//!   line. The frontier is O(1) nodes per round over Θ(n) rounds, so a
//!   full sweep does Θ(n²) `step_node` calls while the active set does
//!   Θ(n) — this is the `Õ(n^{2/3} + D)`-protocol regime the paper's
//!   Table 1 lives in, where almost every node is idle almost always.
//! - **Dense broadcast**: Lemma 2.4 with `M = n` items on random graphs,
//!   where most nodes stay busy most rounds. Active-set scheduling can
//!   at best match the sweep here.
//!
//! Run it with `cargo bench -p rpaths-bench --bench engine`. It times
//! each schedule on each workload and writes `BENCH_engine.json` at the
//! repo root: rounds per second under both schedules, with the
//! measuring host's CPU count. Set `BENCH_ENGINE_SMOKE=1` for a
//! seconds-scale CI smoke run that exercises every measurement path but
//! skips the JSON write. Both schedules are *bit-exact* in simulated
//! rounds/messages (see `tests/engine_equivalence.rs`); only wall-clock
//! differs. Solver and session wall-clock (`solve_s`, `warm_query_us`)
//! are measured by the repository benchmark in `perfbench/`.

use std::time::Instant;

use congest::bfs_tree::build_bfs_tree;
use congest::broadcast::broadcast;
use congest::multi_bfs::{default_budget, multi_source_bfs, MultiBfsConfig};
use congest::Network;
use graphkit::gen::random_digraph;
use graphkit::{DiGraph, GraphBuilder};
use serde::Serialize;

fn line(n: usize) -> DiGraph {
    let mut b = GraphBuilder::new(n);
    for i in 0..n - 1 {
        b.add_arc(i, i + 1);
    }
    b.build()
}

/// One BFS sweep down the line; returns simulated rounds.
fn run_line_bfs(g: &DiGraph, full_sweep: bool) -> u64 {
    let n = g.node_count();
    let cfg = MultiBfsConfig {
        sources: &[0],
        max_dist: n as u64,
        reverse: false,
        delays: None,
    };
    let mut net = Network::new(g);
    net.set_full_sweep(full_sweep);
    let (_, stats) = multi_source_bfs(&mut net, &cfg, |_| true, "bfs", default_budget(1, n as u64))
        .expect("quiesces");
    stats.rounds
}

/// One M = n broadcast on a dense-ish random graph; returns rounds.
fn run_dense_broadcast(g: &DiGraph, full_sweep: bool) -> u64 {
    let n = g.node_count();
    let mut net = Network::new(g);
    net.set_full_sweep(full_sweep);
    let (tree, _) = build_bfs_tree(&mut net, 0).expect("connected");
    let items: Vec<Vec<u64>> = (0..n).map(|v| vec![v as u64]).collect();
    let (_, stats) = broadcast(&mut net, &tree, items, |_| 16, "bc");
    stats.rounds
}

#[derive(Debug, Serialize)]
struct WorkloadReport {
    name: String,
    n: usize,
    simulated_rounds: u64,
    full_sweep_rounds_per_sec: f64,
    active_set_rounds_per_sec: f64,
    speedup: f64,
}

#[derive(Debug, Serialize)]
struct EngineReport {
    bench: String,
    /// CPUs on the host that measured the rows.
    host_cpus: usize,
    workloads: Vec<WorkloadReport>,
}

/// CPUs available to this process.
fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// `BENCH_ENGINE_SMOKE=1` shrinks every workload to seconds-scale sizes
/// and skips the `BENCH_engine.json` write — a CI-friendly check that
/// the measurement paths actually run.
fn smoke() -> bool {
    std::env::var("BENCH_ENGINE_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Measures `f` (already bound to a schedule) and returns rounds/sec.
fn rounds_per_sec(mut f: impl FnMut() -> u64, reps: usize) -> f64 {
    f(); // warm-up
    let start = Instant::now();
    let mut rounds = 0u64;
    for _ in 0..reps {
        rounds += f();
    }
    rounds as f64 / start.elapsed().as_secs_f64()
}

fn measure(name: &str, n: usize, reps: usize, run: impl Fn(bool) -> u64) -> WorkloadReport {
    let simulated_rounds = run(true);
    let sweep = rounds_per_sec(|| run(true), reps);
    let active = rounds_per_sec(|| run(false), reps);
    let report = WorkloadReport {
        name: name.to_string(),
        n,
        simulated_rounds,
        full_sweep_rounds_per_sec: sweep,
        active_set_rounds_per_sec: active,
        speedup: active / sweep,
    };
    println!(
        "{name} (n={n}): full-sweep {sweep:.0} rounds/s, active-set {active:.0} rounds/s, \
         speedup {:.2}x",
        report.speedup
    );
    report
}

fn main() {
    let smoke = smoke();
    let mut workloads = Vec::new();

    let line_sizes: &[usize] = if smoke { &[256] } else { &[1024, 4096, 8192] };
    for &n in line_sizes {
        let g = line(n);
        workloads.push(measure("sparse_line_bfs", n, 3, |sweep| {
            run_line_bfs(&g, sweep)
        }));
    }

    let bc_sizes: &[usize] = if smoke { &[128] } else { &[512, 1024] };
    for &n in bc_sizes {
        let g = random_digraph(n, 4 * n, 7);
        workloads.push(measure("dense_broadcast", n, 3, |sweep| {
            run_dense_broadcast(&g, sweep)
        }));
    }

    if smoke {
        println!("smoke mode: skipping BENCH_engine.json write");
        return;
    }
    let report = EngineReport {
        bench: "engine".to_string(),
        host_cpus: host_cpus(),
        workloads,
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    let json = serde_json::to_string_pretty(&report).expect("serialize");
    std::fs::write(path, json).expect("write BENCH_engine.json");
    println!("wrote {path}");
}
