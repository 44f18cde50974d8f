//! Fault campaigns: does the replacement-paths stack survive the
//! failures it is supposed to route around?
//!
//! Sweeps three scenario families over carrier-style topologies:
//!
//! - **k-failure**: `k ∈ {1, 2, 4}` spans (antiparallel arc pairs) fail
//!   simultaneously and permanently; the metro-ring `k = 1` suite
//!   enumerates *every* span — a ring minus one span stays connected,
//!   so each of those scenarios must come back `degraded-answered`.
//!   A violation is an **invariant failure**: it is recorded in the
//!   report *and* fails the process (non-zero exit), so CI cannot
//!   silently archive a broken run.
//! - **flapping**: one span flaps down/up on a duty cycle while a
//!   distributed BFS-tree probe retries (each retry re-anchors the plan
//!   with `FaultPlan::shifted` to the rounds already consumed) until a
//!   spanning tree builds; the steady state is pristine, so the solve
//!   itself is full-fidelity.
//! - **rolling-partition**: a failure front marches span by span around
//!   the topology, the last failure permanent — transient churn the
//!   recovery wrapper must see through, plus one real degradation.
//!
//! Every scenario runs `rpaths_core::resilient::solve_with_recovery`
//! and a live detection probe; outcomes land in `CAMPAIGN_faults.json`
//! at the repository root (written via the store's temp-file +
//! atomic-rename helper, so a crash mid-write never leaves a torn
//! report). `--smoke` shrinks the sweep to seconds for CI while still
//! writing the report.
//!
//! # Checkpoint/resume (`--snapshot <path>`)
//!
//! With `--snapshot`, the runner checkpoints after every completed
//! scenario into an `rpaths-store` snapshot file: the campaign's anchor
//! topology (the metro ring) plus a `campaign/progress` blob holding
//! the completed records as JSON. Because the full scenario list is
//! generated *upfront* from a fixed seed — no RNG draws interleave with
//! execution — a killed run restarted with the same flags resumes at
//! the first unfinished scenario and produces a byte-identical final
//! report. A checkpoint that fails to load (corrupt, truncated, or
//! from a different configuration) degrades to a fresh start with a
//! warning; it never panics and never poisons the run.
//!
//! `CAMPAIGN_ABORT_AFTER=<k>` (test hook) SIGKILLs the process after
//! the `k`-th checkpoint write of this run, giving CI a deterministic
//! mid-campaign crash to resume from.

use congest::bfs_tree::build_bfs_tree;
use congest::{FaultPlan, Network};
use graphkit::gen::{metro_ring, power_law_digraph, star};
use graphkit::Dist;
use graphkit::{DiGraph, GraphBuilder, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpaths_core::resilient::{solve_with_recovery, Recovery, RecoveryError};
use rpaths_core::{Params, Query, SolverSession};
use rpaths_store::{atomic_write, Artifact, Loaded, Snapshot};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// Where the report lands: the repository root, next to the other
/// reproduction artifacts.
const REPORT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../CAMPAIGN_faults.json");

/// Artifact key of the progress blob inside a checkpoint snapshot.
const PROGRESS_KEY: &str = "campaign/progress";

/// A topology with its failure units: span `i` is the antiparallel arc
/// pair `(2i, 2i + 1)` between `endpoints[i]`.
struct Topology {
    name: String,
    graph: DiGraph,
    endpoints: Vec<(NodeId, NodeId)>,
    s: NodeId,
    t: NodeId,
}

/// Rebuilds any digraph as its bidirectionalized version: one span
/// (both arc directions) per undirected adjacency, spans in ascending
/// endpoint order. Carrier links are full-duplex; failing a span fails
/// both directions, which is the fault unit the campaigns sweep.
fn spanify(name: &str, g: &DiGraph, s: NodeId, t: NodeId) -> Topology {
    let mut pairs: Vec<(NodeId, NodeId)> = g
        .edges()
        .map(|(_, e)| (e.from.min(e.to), e.from.max(e.to)))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    let mut b = GraphBuilder::new(g.node_count());
    for &(u, v) in &pairs {
        b.add_bidirectional(u, v);
    }
    Topology {
        name: name.to_string(),
        graph: b.build(),
        endpoints: pairs,
        s,
        t,
    }
}

/// A plan failing each listed span permanently from round 0.
fn fail_spans(seed: u64, spans: &[usize]) -> FaultPlan {
    let mut plan = FaultPlan::new(seed);
    for &i in spans {
        plan = plan.fail_link(2 * i, 0, None).fail_link(2 * i + 1, 0, None);
    }
    plan
}

#[derive(Clone, Serialize, Deserialize)]
struct ScenarioRecord {
    topology: String,
    scenario: String,
    k: usize,
    /// The failed spans, as `u-v` endpoint pairs.
    spans: Vec<String>,
    /// `full`, `degraded-answered`, `partitioned`, `source-down`, or
    /// `error`.
    outcome: String,
    /// Nodes severed from the source (0 when connected).
    unreachable: usize,
    /// Detection probes until a spanning BFS tree built (live plan).
    probes: u32,
    /// Total rounds those probes consumed.
    probe_rounds: u64,
    /// Whether a probe eventually spanned the network.
    spanned: bool,
}

/// The resumable state: everything a killed run needs to pick up at the
/// first unfinished scenario. Serialized as JSON into the checkpoint
/// snapshot's `campaign/progress` blob.
#[derive(Serialize, Deserialize)]
struct Checkpoint {
    /// Which sweep size produced these records; a mismatch on resume
    /// (e.g. smoke checkpoint, full rerun) forces a fresh start.
    smoke: bool,
    /// The scenario count of the generating run, as a cheap schedule
    /// fingerprint.
    total: usize,
    records: Vec<ScenarioRecord>,
}

#[derive(Serialize)]
struct KSurvival {
    k: usize,
    scenarios: usize,
    answered: usize,
    partitioned: usize,
}

#[derive(Serialize)]
struct Summary {
    scenarios: usize,
    answered: usize,
    partitioned: usize,
    by_k: Vec<KSurvival>,
}

#[derive(Serialize)]
struct Report {
    smoke: bool,
    /// Human-readable descriptions of violated scenario invariants
    /// (empty on a healthy run). Non-empty ⇒ the process exits 1.
    invariant_failures: Vec<String>,
    records: Vec<ScenarioRecord>,
    summary: Summary,
}

/// One entry of the upfront-generated schedule. Plans are regenerated,
/// not persisted: the schedule is a pure function of the seed, so a
/// resumed run rebuilds the identical list and skips the finished
/// prefix.
struct Scenario {
    /// Index into the topology array.
    topo: usize,
    kind: &'static str,
    spans: Vec<usize>,
    plan: FaultPlan,
}

/// Retries a distributed BFS-tree build under the *live* plan until it
/// spans, re-anchoring the plan to the rounds already consumed before
/// each retry. Returns `(probes, rounds, spanned)`.
fn probe_until_spanning(
    g: &DiGraph,
    plan: &FaultPlan,
    s: NodeId,
    max_probes: u32,
) -> (u32, u64, bool) {
    let mut net = Network::new(g);
    net.set_fault_plan(Some(plan.clone()))
        .expect("campaign plans only target the topology's own spans");
    let mut probes = 0;
    loop {
        probes += 1;
        if build_bfs_tree(&mut net, s).is_ok() {
            return (probes, net.metrics().rounds(), true);
        }
        if probes >= max_probes {
            return (probes, net.metrics().rounds(), false);
        }
        net.set_fault_plan(Some(plan.shifted(net.metrics().rounds())))
            .expect("a shifted plan keeps the original's targets");
    }
}

/// Cross-checks a full-fidelity recovery against the topology's warm
/// solver session: the session's cached per-edge answers for the
/// pristine instance must agree bit-for-bit with what the recovery
/// wrapper produced. One session per topology persists across every
/// scenario of that topology, so after the first scenario this check is
/// answered entirely from the artifact cache.
fn verify_pristine(
    session: &mut SolverSession<'_>,
    topo: &Topology,
    output: &[Dist],
) -> Result<(), String> {
    let Some(path) = session.shortest_path(topo.s, topo.t) else {
        return Err(format!(
            "pristine check: {} unreachable from {}",
            topo.t, topo.s
        ));
    };
    let queries: Vec<Query> = path
        .edges()
        .iter()
        .map(|&e| Query::avoiding(topo.s, topo.t, e))
        .collect();
    let answers = session
        .solve_batch(&queries)
        .map_err(|e| format!("pristine check failed: {e}"))?;
    if answers.len() != output.len() {
        return Err(format!(
            "pristine check: session answered {} edges, recovery {}",
            answers.len(),
            output.len()
        ));
    }
    for (i, (a, &d)) in answers.iter().zip(output).enumerate() {
        if a.den != 1 || a.scaled != d {
            return Err(format!(
                "pristine mismatch at path edge {i}: session {:?}/{}, recovery {:?}",
                a.scaled, a.den, d
            ));
        }
    }
    Ok(())
}

fn run_scenario(topo: &Topology, sc: &Scenario, session: &mut SolverSession<'_>) -> ScenarioRecord {
    let params = Params::for_n(topo.graph.node_count());
    let rec = solve_with_recovery(&topo.graph, topo.s, topo.t, &sc.plan, &params);
    let (outcome, unreachable) = match &rec {
        Ok(Recovery::Full { output }) => match verify_pristine(session, topo, output) {
            Ok(()) => ("full".to_string(), 0),
            Err(e) => (format!("error: {e}"), 0),
        },
        Ok(Recovery::Degraded(d)) => (
            if d.answered.is_some() {
                "degraded-answered".to_string()
            } else {
                "partitioned".to_string()
            },
            d.unreachable.len(),
        ),
        Err(RecoveryError::SourceDown) => ("source-down".to_string(), 0),
        Err(e) => (format!("error: {e}"), 0),
    };
    let (probes, probe_rounds, spanned) = probe_until_spanning(&topo.graph, &sc.plan, topo.s, 8);
    println!(
        "  {:<16} {:<18} k={} spans=[{}] -> {} ({} probes / {} rounds)",
        topo.name,
        sc.kind,
        sc.spans.len(),
        sc.spans
            .iter()
            .map(|&i| format!("{}-{}", topo.endpoints[i].0, topo.endpoints[i].1))
            .collect::<Vec<_>>()
            .join(","),
        outcome,
        probes,
        probe_rounds,
    );
    ScenarioRecord {
        topology: topo.name.clone(),
        scenario: sc.kind.to_string(),
        k: sc.spans.len(),
        spans: sc
            .spans
            .iter()
            .map(|&i| format!("{}-{}", topo.endpoints[i].0, topo.endpoints[i].1))
            .collect(),
        outcome,
        unreachable,
        probes,
        probe_rounds,
        spanned,
    }
}

/// Draws a k-subset of `0..n` without replacement (partial
/// Fisher-Yates).
fn sample_spans(rng: &mut StdRng, n: usize, k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..k.min(n) {
        let j = rng.gen_range(i..n);
        idx.swap(i, j);
    }
    let mut picked: Vec<usize> = idx[..k.min(n)].to_vec();
    picked.sort_unstable();
    picked
}

/// Index of the metro-ring anchor topology (carries the k=1 acceptance
/// invariant and anchors checkpoint snapshots).
const RING: usize = 0;

/// Generates the complete campaign schedule upfront. Every RNG draw
/// happens here, before any scenario executes, so the schedule — and
/// hence the meaning of "scenario `i`" — is identical whether the run
/// is fresh or resumed from a checkpoint.
fn generate_scenarios(topologies: &[Topology], samples: usize, rng: &mut StdRng) -> Vec<Scenario> {
    let mut scenarios = Vec::new();

    // --- k-failure sweeps ---
    for (ti, topo) in topologies.iter().enumerate() {
        for k in [1usize, 2, 4] {
            let span_sets: Vec<Vec<usize>> = if k == 1 && ti == RING {
                // The acceptance suite: every single span of the ring.
                (0..topo.endpoints.len()).map(|i| vec![i]).collect()
            } else {
                (0..samples)
                    .map(|_| sample_spans(rng, topo.endpoints.len(), k))
                    .collect()
            };
            for spans in span_sets {
                let plan = fail_spans(span_seed(&spans), &spans);
                scenarios.push(Scenario {
                    topo: ti,
                    kind: "k-failure",
                    spans,
                    plan,
                });
            }
        }
    }

    // --- flapping links ---
    for (ti, topo) in topologies.iter().enumerate() {
        // Flap the span nearest the target: down 3, up 3, three cycles.
        let span = topo.endpoints.len() - 1;
        let mut plan = FaultPlan::new(0xf1a9).drop_messages(0.02);
        for cycle in 0..3u64 {
            let at = 6 * cycle;
            plan = plan.fail_link(2 * span, at, Some(at + 3)).fail_link(
                2 * span + 1,
                at,
                Some(at + 3),
            );
        }
        scenarios.push(Scenario {
            topo: ti,
            kind: "flapping",
            spans: vec![span],
            plan,
        });
    }

    // --- rolling partition ---
    for (ti, topo) in topologies.iter().enumerate() {
        let m = topo.endpoints.len();
        let mut plan = FaultPlan::new(0x8011);
        let mut spans = Vec::new();
        for i in 0..m {
            let at = 3 * i as u64;
            // The front marches one span at a time; the last failure
            // never recovers.
            let up = if i + 1 == m { None } else { Some(at + 4) };
            plan = plan.fail_link(2 * i, at, up).fail_link(2 * i + 1, at, up);
            spans.push(i);
        }
        scenarios.push(Scenario {
            topo: ti,
            kind: "rolling-partition",
            spans,
            plan,
        });
    }

    scenarios
}

/// Writes a checkpoint: the anchor topology's graph (a real graph
/// round-tripping through the store, not a stub) plus the progress
/// blob. Atomic via the store's temp-file + rename path.
fn write_checkpoint(path: &std::path::Path, anchor: &DiGraph, cp: &Checkpoint) {
    let json = serde_json::to_string(cp).expect("serialize checkpoint");
    let mut snap = Snapshot::new(anchor.clone());
    snap.artifacts
        .push(Artifact::blob(PROGRESS_KEY, json.into_bytes()));
    if let Err(e) = snap.write(path) {
        // A failed checkpoint write must not kill a healthy campaign:
        // resume just restarts further back.
        eprintln!("warning: checkpoint write failed: {e}");
    }
}

/// Loads the completed-record prefix from a checkpoint, or explains why
/// the run starts fresh. Corruption is *expected* input here (the file
/// is only ever read after a crash): every failure path degrades to
/// `None`, never a panic.
fn load_checkpoint(
    path: &std::path::Path,
    anchor: &DiGraph,
    smoke: bool,
    total: usize,
) -> Option<Vec<ScenarioRecord>> {
    if !path.exists() {
        return None;
    }
    let loaded = match Snapshot::read(path) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("warning: checkpoint unreadable ({e}); starting fresh");
            return None;
        }
    };
    if let Loaded::Partial { ref dropped, .. } = loaded {
        for d in dropped {
            eprintln!(
                "warning: checkpoint section {} (tag {}) corrupt: {}",
                d.section, d.tag, d.error
            );
        }
    }
    let snap = loaded.snapshot();
    if snap.graph.to_snapshot() != anchor.to_snapshot() {
        eprintln!("warning: checkpoint is for a different topology; starting fresh");
        return None;
    }
    let Some(blob) = snap.artifacts.iter().find(|a| a.key == PROGRESS_KEY) else {
        eprintln!("warning: checkpoint has no progress blob (dropped as corrupt?); starting fresh");
        return None;
    };
    let text = match std::str::from_utf8(&blob.body) {
        Ok(t) => t,
        Err(_) => {
            eprintln!("warning: checkpoint progress blob is not UTF-8; starting fresh");
            return None;
        }
    };
    let cp: Checkpoint = match serde_json::from_str(text) {
        Ok(cp) => cp,
        Err(e) => {
            eprintln!("warning: checkpoint progress blob unparsable ({e}); starting fresh");
            return None;
        }
    };
    if cp.smoke != smoke || cp.total != total || cp.records.len() > total {
        eprintln!("warning: checkpoint is from a different configuration; starting fresh");
        return None;
    }
    Some(cp.records)
}

/// Test hook: SIGKILL ourselves after the `n`-th checkpoint write, so
/// CI can provoke a deterministic mid-campaign crash. SIGKILL (not
/// exit) because the point is to prove resume needs no orderly
/// shutdown.
fn maybe_abort(checkpoints_written: u32) {
    let Ok(val) = std::env::var("CAMPAIGN_ABORT_AFTER") else {
        return;
    };
    let Ok(after) = val.parse::<u32>() else {
        return;
    };
    if checkpoints_written >= after {
        let pid = std::process::id().to_string();
        let _ = std::process::Command::new("kill")
            .args(["-KILL", &pid])
            .status();
        // If there is no `kill` binary, die abruptly anyway.
        std::process::abort();
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let snapshot_path: Option<PathBuf> = args.iter().position(|a| a == "--snapshot").map(|i| {
        args.get(i + 1)
            .unwrap_or_else(|| {
                eprintln!("--snapshot requires a path argument");
                std::process::exit(2);
            })
            .into()
    });
    let (ring_pops, star_n, pl_n, samples) = if smoke {
        (8, 8, 12, 2)
    } else {
        (12, 16, 24, 6)
    };
    let mut rng = StdRng::seed_from_u64(0xfa17);

    let topologies = [
        spanify(
            &format!("metro-ring-{ring_pops}"),
            &metro_ring(ring_pops),
            0,
            ring_pops / 2,
        ),
        spanify(&format!("star-{star_n}"), &star(star_n), 1, 2),
        spanify(
            &format!("power-law-{pl_n}"),
            &power_law_digraph(pl_n, 77),
            0,
            pl_n - 1,
        ),
    ];
    let scenarios = generate_scenarios(&topologies, samples, &mut rng);
    let total = scenarios.len();
    let anchor = &topologies[RING].graph;

    // One solver session per topology, reused across every scenario on
    // it: the pristine cross-check in `run_scenario` costs one solver
    // run per topology for the whole campaign, everything after that is
    // cache hits. Session telemetry stays out of the report — a resumed
    // run skips scenarios, and the report must be byte-identical.
    let mut sessions: Vec<SolverSession<'_>> = topologies
        .iter()
        .map(|t| SolverSession::new(&t.graph, Params::for_n(t.graph.node_count())))
        .collect();

    let mut records: Vec<ScenarioRecord> = snapshot_path
        .as_deref()
        .and_then(|p| load_checkpoint(p, anchor, smoke, total))
        .unwrap_or_default();
    if !records.is_empty() {
        println!(
            "resuming from checkpoint ({}/{} scenarios done)",
            records.len(),
            total
        );
    }

    let mut checkpoints_written = 0u32;
    let mut last_kind = records.len().checked_sub(1).map(|i| scenarios[i].kind);
    for sc in scenarios.iter().skip(records.len()) {
        if last_kind != Some(sc.kind) {
            println!("== {} campaigns ==", sc.kind);
            last_kind = Some(sc.kind);
        }
        records.push(run_scenario(
            &topologies[sc.topo],
            sc,
            &mut sessions[sc.topo],
        ));
        if let Some(path) = snapshot_path.as_deref() {
            write_checkpoint(
                path,
                anchor,
                &Checkpoint {
                    smoke,
                    total,
                    records: records.clone(),
                },
            );
            checkpoints_written += 1;
            maybe_abort(checkpoints_written);
        }
    }

    // --- invariants ------------------------------------------------------
    // A ring minus one span is still connected: every metro-ring k=1
    // scenario must have answered in degraded mode, never errored.
    let mut invariant_failures: Vec<String> = Vec::new();
    for r in records
        .iter()
        .filter(|r| r.topology == topologies[RING].name && r.scenario == "k-failure" && r.k == 1)
    {
        if r.outcome != "degraded-answered" {
            invariant_failures.push(format!(
                "metro-ring k=1 span {:?} must answer degraded, got `{}`",
                r.spans, r.outcome
            ));
        }
    }

    // --- report ----------------------------------------------------------
    let by_k = [1usize, 2, 4]
        .iter()
        .map(|&k| {
            let of_k: Vec<_> = records
                .iter()
                .filter(|r| r.scenario == "k-failure" && r.k == k)
                .collect();
            KSurvival {
                k,
                scenarios: of_k.len(),
                answered: of_k
                    .iter()
                    .filter(|r| r.outcome == "full" || r.outcome == "degraded-answered")
                    .count(),
                partitioned: of_k.iter().filter(|r| r.outcome == "partitioned").count(),
            }
        })
        .collect();
    let summary = Summary {
        scenarios: records.len(),
        answered: records
            .iter()
            .filter(|r| r.outcome == "full" || r.outcome == "degraded-answered")
            .count(),
        partitioned: records
            .iter()
            .filter(|r| r.outcome == "partitioned")
            .count(),
        by_k,
    };
    println!(
        "\n{} scenarios: {} answered, {} partitioned",
        summary.scenarios, summary.answered, summary.partitioned
    );
    // Stdout-only telemetry (resumed runs skip scenarios, so these
    // counters are not deterministic enough for the report).
    for (topo, session) in topologies.iter().zip(&sessions) {
        let st = session.stats();
        println!(
            "  session {:<16} {} queries / {} batches, {} solver runs, cache hit rate {:.0}%",
            topo.name,
            st.queries,
            st.batches,
            st.solver_runs,
            100.0 * st.cache.hit_rate(),
        );
    }
    let report = Report {
        smoke,
        invariant_failures: invariant_failures.clone(),
        records,
        summary,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    atomic_write(std::path::Path::new(REPORT_PATH), json.as_bytes())
        .expect("write CAMPAIGN_faults.json");
    println!("wrote {REPORT_PATH}");

    // The campaign finished; the checkpoint has served its purpose.
    if let Some(path) = snapshot_path.as_deref() {
        let _ = std::fs::remove_file(path);
    }

    if !invariant_failures.is_empty() {
        for f in &invariant_failures {
            eprintln!("INVARIANT FAILED: {f}");
        }
        std::process::exit(1);
    }
}

/// A deterministic seed per failed-span set, so re-running a single
/// scenario reproduces it exactly.
fn span_seed(spans: &[usize]) -> u64 {
    spans.iter().fold(0x9e3779b97f4a7c15u64, |h, &s| {
        (h ^ s as u64).wrapping_mul(0xbf58476d1ce4e5b9)
    })
}
