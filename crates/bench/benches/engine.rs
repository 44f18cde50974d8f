//! Engine-level wall-clock benchmark: active-set scheduling vs. the
//! full-sweep reference schedule on the two extremes of the traffic
//! spectrum, plus end-to-end solver and session rows.
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
//! Besides the Criterion timings, the bench writes `BENCH_engine.json`
//! at the repo root with rounds-per-second for both schedules, one
//! **end-to-end solver row** per solver (Theorem 1, 2-SiSP, and the MR24
//! baseline on one Table 1-style planted-path workload), and cold vs.
//! warm session rows; each section carries the measuring host's CPU
//! count. Set `BENCH_ENGINE_SMOKE=1` for a seconds-scale CI smoke run
//! that exercises every measurement path but skips the JSON write. Both
//! schedules are *bit-exact* in simulated rounds/messages (see
//! `tests/engine_equivalence.rs`); only wall-clock differs.

use std::time::Instant;

use congest::bfs_tree::build_bfs_tree;
use congest::broadcast::broadcast;
use congest::multi_bfs::{default_budget, multi_source_bfs, MultiBfsConfig};
use congest::Network;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphkit::gen::random_digraph;
use graphkit::{DiGraph, GraphBuilder};
use rpaths_bench::{bench_params, random_case};
use rpaths_core::{baseline, sisp, unweighted, Instance, Params, Query, SolverSession};
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

#[derive(Clone, Debug, Serialize)]
struct WorkloadReport {
    name: String,
    n: usize,
    simulated_rounds: u64,
    full_sweep_rounds_per_sec: f64,
    active_set_rounds_per_sec: f64,
    speedup: f64,
}

/// One end-to-end solve on the active-set engine.
#[derive(Clone, Debug, Serialize)]
struct SolverReport {
    name: String,
    n: usize,
    simulated_rounds: u64,
    rounds_per_sec: f64,
}

/// A group of schedule-comparison rows, stamped with the CPUs that were
/// available when *this section* was measured (sections can in
/// principle be re-recorded on different hosts, so each carries its
/// own).
#[derive(Debug, Serialize)]
struct WorkloadSection {
    host_cpus: usize,
    rows: Vec<WorkloadReport>,
}

/// One cold-vs-warm session row: the same batch of `q` failed-edge
/// queries answered by a fresh session (every artifact recomputed) and
/// by a warm one (pure cache hits).
#[derive(Clone, Debug, Serialize)]
struct BatchQueryReport {
    name: String,
    n: usize,
    q: usize,
    cold_queries_per_sec: f64,
    warm_queries_per_sec: f64,
    warm_speedup: f64,
    /// Hit rate the warm session reports in its `CacheStats` (the
    /// acceptance criterion: nonzero, and 100% on pure repeats).
    warm_cache_hit_rate: f64,
}

/// A group of batch-query rows, stamped with the measuring host's CPUs.
#[derive(Debug, Serialize)]
struct BatchSection {
    host_cpus: usize,
    rows: Vec<BatchQueryReport>,
}

/// A group of end-to-end solver rows, stamped with the measuring host's
/// CPUs.
#[derive(Debug, Serialize)]
struct SolverSection {
    host_cpus: usize,
    rows: Vec<SolverReport>,
}

#[derive(Debug, Serialize)]
struct EngineReport {
    bench: String,
    /// CPUs on the host that wrote the report (sections repeat this so
    /// they stay meaningful if re-recorded independently).
    host_cpus: usize,
    workloads: WorkloadSection,
    /// End-to-end solver runs: the Table 1 quantities, one row per
    /// solver.
    end_to_end: SolverSection,
    /// Plan/execute sessions: cold vs. warm `solve_batch` over Q
    /// same-graph failed-edge queries — the amortization the session
    /// layer exists to buy.
    batch_queries: BatchSection,
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

/// One full Theorem 1 solve; returns simulated rounds.
fn run_unweighted_solve(inst: &Instance<'_>, params: &Params) -> u64 {
    let mut net = congest::Network::new(inst.graph);
    let _ = unweighted::solve_on(&mut net, inst, params).expect("connected");
    net.metrics().rounds()
}

/// One full 2-SiSP solve (Theorem 1 + O(D) aggregation).
fn run_sisp_solve(inst: &Instance<'_>, params: &Params) -> u64 {
    let mut net = congest::Network::new(inst.graph);
    let _ = sisp::solve_on(&mut net, inst, params).expect("connected");
    net.metrics().rounds()
}

/// One full MR24 baseline solve.
fn run_mr24_solve(inst: &Instance<'_>, params: &Params) -> u64 {
    let mut net = congest::Network::new(inst.graph);
    let _ = baseline::mr24::solve_on(&mut net, inst, params).expect("connected");
    net.metrics().rounds()
}

/// Measures a batch-answering closure and returns queries answered per
/// second. `f` returns the number of answers it produced.
fn queries_per_sec(mut f: impl FnMut() -> usize, reps: usize) -> f64 {
    f(); // warm-up
    let start = Instant::now();
    let mut answered = 0usize;
    for _ in 0..reps {
        answered += f();
    }
    answered as f64 / start.elapsed().as_secs_f64()
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

/// Measures one end-to-end solver run and returns its row.
fn measure_solver(name: &str, n: usize, reps: usize, run: impl Fn() -> u64) -> SolverReport {
    let simulated_rounds = run();
    let rps = rounds_per_sec(&run, reps);
    println!("{name} (n={n}): {rps:.0} rounds/s");
    SolverReport {
        name: name.to_string(),
        n,
        simulated_rounds,
        rounds_per_sec: rps,
    }
}

fn bench_engine(c: &mut Criterion) {
    let smoke = smoke();
    let mut reports = Vec::new();

    let mut group = c.benchmark_group("engine_sparse_line_bfs");
    group.sample_size(10);
    let line_sizes: &[usize] = if smoke { &[256] } else { &[1024, 4096, 8192] };
    for &n in line_sizes {
        let g = line(n);
        group.bench_with_input(BenchmarkId::new("full_sweep", n), &n, |b, _| {
            b.iter(|| run_line_bfs(&g, true));
        });
        group.bench_with_input(BenchmarkId::new("active_set", n), &n, |b, _| {
            b.iter(|| run_line_bfs(&g, false));
        });
        reports.push(measure("sparse_line_bfs", n, 3, |sweep| {
            run_line_bfs(&g, sweep)
        }));
    }
    group.finish();

    let mut group = c.benchmark_group("engine_dense_broadcast");
    group.sample_size(10);
    let bc_sizes: &[usize] = if smoke { &[128] } else { &[512, 1024] };
    for &n in bc_sizes {
        let g = random_digraph(n, 4 * n, 7);
        group.bench_with_input(BenchmarkId::new("full_sweep", n), &n, |b, _| {
            b.iter(|| run_dense_broadcast(&g, true));
        });
        group.bench_with_input(BenchmarkId::new("active_set", n), &n, |b, _| {
            b.iter(|| run_dense_broadcast(&g, false));
        });
        reports.push(measure("dense_broadcast", n, 3, |sweep| {
            run_dense_broadcast(&g, sweep)
        }));
    }
    group.finish();

    // End-to-end solver rows on one Table 1-style workload; the MR24
    // baseline (the algorithm the paper improves on) runs on the exact
    // same instance as the paper's solvers.
    let mut end_to_end = Vec::new();
    let mut group = c.benchmark_group("engine_e2e_solvers");
    group.sample_size(2);
    let e2e_n = if smoke { 64 } else { 256 };
    {
        let case = random_case(e2e_n, e2e_n / 8, 5);
        let inst = Instance::from_endpoints(&case.graph, case.s, case.t).expect("valid");
        let params = bench_params(e2e_n, 5);
        group.bench_with_input(BenchmarkId::new("unweighted", e2e_n), &e2e_n, |b, _| {
            b.iter(|| run_unweighted_solve(&inst, &params));
        });
        end_to_end.push(measure_solver("e2e_unweighted_solve", e2e_n, 1, || {
            run_unweighted_solve(&inst, &params)
        }));
        end_to_end.push(measure_solver("e2e_sisp_solve", e2e_n, 1, || {
            run_sisp_solve(&inst, &params)
        }));
        end_to_end.push(measure_solver("e2e_mr24_solve", e2e_n, 1, || {
            run_mr24_solve(&inst, &params)
        }));
    }
    group.finish();

    // Plan/execute sessions: Q failed-edge queries against one graph,
    // cold (a fresh session recomputes every artifact) vs. warm (the
    // artifact cache answers everything). Q beyond the path length
    // cycles over its edges — exactly the repeated-query workload the
    // cache is keyed for.
    let mut batch_rows = Vec::new();
    let mut group = c.benchmark_group("engine_batch_queries");
    group.sample_size(10);
    let bq_n = if smoke { 64 } else { 256 };
    let bq_qs: &[usize] = if smoke { &[16] } else { &[16, 256] };
    {
        let case = random_case(bq_n, bq_n / 8, 5);
        let params = bench_params(bq_n, 5);
        let inst = Instance::from_endpoints(&case.graph, case.s, case.t).expect("valid");
        let edges = inst.path.edges().to_vec();
        for &q in bq_qs {
            let queries: Vec<Query> = (0..q)
                .map(|i| Query::avoiding(case.s, case.t, edges[i % edges.len()]))
                .collect();
            group.bench_with_input(BenchmarkId::new("cold", q), &q, |b, _| {
                b.iter(|| {
                    let mut session = SolverSession::new(&case.graph, params.clone());
                    session.solve_batch(&queries).expect("connected").len()
                });
            });
            let mut warm = SolverSession::new(&case.graph, params.clone());
            warm.solve_batch(&queries).expect("connected");
            group.bench_with_input(BenchmarkId::new("warm", q), &q, |b, _| {
                b.iter(|| warm.solve_batch(&queries).expect("connected").len());
            });

            let cold_qps = queries_per_sec(
                || {
                    let mut session = SolverSession::new(&case.graph, params.clone());
                    session.solve_batch(&queries).expect("connected").len()
                },
                3,
            );
            let warm_qps =
                queries_per_sec(|| warm.solve_batch(&queries).expect("connected").len(), 3);
            let row = BatchQueryReport {
                name: "session_failed_edge_batch".to_string(),
                n: bq_n,
                q,
                cold_queries_per_sec: cold_qps,
                warm_queries_per_sec: warm_qps,
                warm_speedup: warm_qps / cold_qps,
                warm_cache_hit_rate: warm.stats().cache.hit_rate(),
            };
            println!(
                "batch_queries (n={bq_n}, q={q}): cold {cold_qps:.0} q/s, warm {warm_qps:.0} q/s, \
                 {:.0}x, warm hit rate {:.0}%",
                row.warm_speedup,
                100.0 * row.warm_cache_hit_rate
            );
            batch_rows.push(row);
        }
    }
    group.finish();

    let cpus = host_cpus();
    let report = EngineReport {
        bench: "engine".to_string(),
        host_cpus: cpus,
        workloads: WorkloadSection {
            host_cpus: cpus,
            rows: reports,
        },
        end_to_end: SolverSection {
            host_cpus: cpus,
            rows: end_to_end,
        },
        batch_queries: BatchSection {
            host_cpus: cpus,
            rows: batch_rows,
        },
    };
    if smoke {
        println!("smoke mode: skipping BENCH_engine.json write");
        return;
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    let json = serde_json::to_string_pretty(&report).expect("serialize");
    std::fs::write(path, json).expect("write BENCH_engine.json");
    println!("wrote {path}");
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
