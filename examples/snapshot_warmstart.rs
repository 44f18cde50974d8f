//! Warm starts from a snapshot file: a solver session answers a batch
//! cold, saves its artifact cache with `rpaths-store`, and a fresh
//! session warm-boots from the file and replays the batch without
//! running a single CONGEST round.
//!
//! Also demonstrates the degraded-load contract: a flipped byte inside
//! one cache section drops *that entry* — the graph and every other
//! entry still load, and the colder session recomputes only what was
//! lost.
//!
//! Run with: `cargo run --release -p rpaths --example snapshot_warmstart`

use graphkit::gen::metro_ring;
use rpaths_core::{Params, Query, SolverSession};
use rpaths_store::{Loaded, Snapshot};

fn main() {
    let path = std::env::temp_dir().join("rpaths_warmstart.snap");
    let g = metro_ring(12);
    let params = Params::for_n(g.node_count());

    // --- Cold start: pay the full distributed solve -------------------
    let mut cold = SolverSession::new(&g, params.clone());
    let route = cold.shortest_path(0, 6).expect("ring is connected");
    let queries: Vec<Query> = route
        .edges()
        .iter()
        .map(|&e| Query::avoiding(0, 6, e))
        .collect();
    let answers = cold.solve_batch(&queries).expect("cold batch");
    let cold_metrics = cold.take_metrics();
    println!(
        "cold start: {} failed-edge queries on 0 -> 6 answered with {} solver run(s), \
         {} CONGEST rounds ({} messages)",
        queries.len(),
        cold.stats().solver_runs,
        cold_metrics.rounds(),
        cold_metrics.total.messages,
    );

    // Persist the graph and the whole cache in one crash-safe file.
    cold.save(&path).expect("write snapshot");
    let entries = cold.cache().len();
    let file_len = std::fs::metadata(&path).expect("stat").len();
    println!(
        "snapshot: {file_len} bytes, graph + {entries} cache entries at {}",
        path.display()
    );

    // --- Warm boot: reload, zero protocol rounds ----------------------
    let mut warm = SolverSession::new(&g, params.clone());
    let imported = warm.warm_boot(&path).expect("read snapshot");
    assert_eq!(imported, entries);
    let replay = warm.solve_batch(&queries).expect("warm replay");
    assert_eq!(replay, answers);
    assert_eq!(warm.stats().solver_runs, 0);
    assert_eq!(warm.metrics().rounds(), 0);
    println!(
        "warm boot: imported {imported} cache entries; replay answered {} queries with \
         0 solver runs in 0 CONGEST rounds",
        replay.len()
    );

    // --- Degraded load: cache corruption is survivable ----------------
    // Every cache section's key starts with "cache/"; the replacement
    // answers' key continues "/repl/". Flipping a byte of it breaks that
    // section's checksum and nothing else's.
    let mut bytes = std::fs::read(&path).expect("read back");
    let idx = bytes
        .windows(6)
        .position(|w| w == b"/repl/")
        .expect("the cache holds replacement answers");
    bytes[idx] ^= 0xff;
    std::fs::write(&path, &bytes).expect("rewrite corrupted");
    match Snapshot::read(&path).expect("read corrupted") {
        Loaded::Partial {
            recovered, dropped, ..
        } => {
            println!(
                "corrupted snapshot: graph still loads ({} nodes) with {} of {entries} cache \
                 entries; {} section(s) dropped:",
                recovered.graph.node_count(),
                recovered.artifacts.len(),
                dropped.len()
            );
            for d in &dropped {
                println!("  section {} (tag {}): {}", d.section, d.tag, d.error);
            }
        }
        other => panic!("expected a partial load, got {other:?}"),
    }

    // A colder warm boot recomputes only the dropped entry.
    let mut colder = SolverSession::new(&g, params);
    let imported = colder.warm_boot(&path).expect("partial loads still boot");
    let again = colder.solve_batch(&queries).expect("colder replay");
    assert_eq!(again, answers);
    assert_eq!(colder.stats().solver_runs, 1);
    assert_eq!(colder.stats().cache.misses, 1);
    assert_eq!(colder.take_metrics(), cold_metrics);
    println!(
        "colder warm boot: imported {imported} of {entries} entries; the replay missed only \
         the dropped one and recomputed it with 1 solver run ({} CONGEST rounds, \
         as cold)",
        cold_metrics.rounds()
    );

    let _ = std::fs::remove_file(&path);
}
