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
//! and a live detection probe. The probe retries a failed BFS-tree
//! build, up to 8 probes, but a failed probe that started at or after
//! the plan's horizon ends it: that probe ran on the steady state, and
//! every retry would repeat it exactly. A k-failure plan's faults are
//! all permanent from round 0, so its probe runs once.
//!
//! Outcomes land in `CAMPAIGN_faults.json`
//! in the working directory (written via the store's temp-file +
//! atomic-rename helper, so a crash mid-write never leaves a torn
//! report). Run from the repository root, that is the committed report.
//! The whole schedule is drawn upfront from a fixed seed, so a run that
//! dies part-way is simply run again: the rerun writes the same report,
//! byte for byte.
//!
//! The campaign takes no argument: any argument is a usage error (exit
//! 2), caught before any scenario runs.

use congest::bfs_tree::build_bfs_tree;
use congest::{FaultPlan, Network};
use graphkit::gen::{metro_ring, power_law_digraph, star};
use graphkit::{DiGraph, GraphBuilder, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpaths_core::resilient::{solve_with_recovery, Recovery, RecoveryError};
use rpaths_core::Params;
use rpaths_store::atomic_write;
use serde::Serialize;
use std::process::ExitCode;

/// Where the report lands: the working directory, as `rpaths-fuzz`
/// writes its fixtures under `tests/regressions` there.
const REPORT_PATH: &str = "CAMPAIGN_faults.json";

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

#[derive(Serialize)]
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
    /// Detection probes run under the live plan: until a spanning BFS
    /// tree built, a probe on the steady state failed, or 8 probes
    /// failed.
    probes: u32,
    /// Total rounds those probes consumed.
    probe_rounds: u64,
    /// Whether a probe eventually spanned the network.
    spanned: bool,
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
    /// Human-readable descriptions of violated scenario invariants
    /// (empty on a healthy run). Non-empty ⇒ the process exits 1.
    invariant_failures: Vec<String>,
    records: Vec<ScenarioRecord>,
    summary: Summary,
}

/// One entry of the schedule [`generate_scenarios`] draws upfront.
struct Scenario {
    /// Index into the topology array.
    topo: usize,
    kind: &'static str,
    spans: Vec<usize>,
    plan: FaultPlan,
}

/// Retries a distributed BFS-tree build under the *live* plan until it
/// spans, re-anchoring the plan to the rounds already consumed before
/// each retry. A probe that started at or after the plan's horizon ran
/// on the steady state (only the permanent faults, active from its
/// round 0, with the same drop fates), which every later retry would
/// repeat exactly, so a failed one ends the probing. Returns
/// `(probes, rounds, spanned)`.
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
    let mut start = 0;
    loop {
        probes += 1;
        if build_bfs_tree(&mut net, s).is_ok() {
            return (probes, net.metrics().rounds(), true);
        }
        if probes >= max_probes || start >= plan.horizon() {
            return (probes, net.metrics().rounds(), false);
        }
        start = net.metrics().rounds();
        net.set_fault_plan(Some(plan.shifted(start)))
            .expect("a shifted plan keeps the original's targets");
    }
}

fn run_scenario(topo: &Topology, sc: &Scenario) -> ScenarioRecord {
    let params = Params::for_n(topo.graph.node_count());
    let rec = solve_with_recovery(&topo.graph, topo.s, topo.t, &sc.plan, &params);
    let (outcome, unreachable) = match &rec {
        Ok(Recovery::Full { .. }) => ("full".to_string(), 0),
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
    let spans: Vec<String> = sc
        .spans
        .iter()
        .map(|&i| format!("{}-{}", topo.endpoints[i].0, topo.endpoints[i].1))
        .collect();
    println!(
        "  {:<16} {:<18} k={} spans=[{}] -> {} ({} probes / {} rounds)",
        topo.name,
        sc.kind,
        sc.spans.len(),
        spans.join(","),
        outcome,
        probes,
        probe_rounds,
    );
    ScenarioRecord {
        topology: topo.name.clone(),
        scenario: sc.kind.to_string(),
        k: sc.spans.len(),
        spans,
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

/// Index of the metro-ring topology, which carries the k=1 acceptance
/// invariant.
const RING: usize = 0;

/// Generates the complete campaign schedule upfront. Every RNG draw
/// happens here, before any scenario executes, so the schedule is a
/// pure function of the seed and the sweep size.
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

/// The campaign takes no argument.
fn parse_args(args: &[&str]) -> Result<(), String> {
    match args {
        [] => Ok(()),
        _ => Err(format!("unexpected arguments `{}`", args.join(" "))),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    if let Err(msg) = parse_args(&args) {
        eprintln!("error: {msg}\nusage: campaign");
        return ExitCode::from(2);
    }
    let mut rng = StdRng::seed_from_u64(0xfa17);

    let topologies = [
        spanify("metro-ring-12", &metro_ring(12), 0, 6),
        spanify("star-16", &star(16), 1, 2),
        spanify("power-law-24", &power_law_digraph(24, 77), 0, 23),
    ];
    // Six sampled span sets per topology and k, beyond the ring's k=1
    // enumeration.
    let scenarios = generate_scenarios(&topologies, 6, &mut rng);

    let mut records = Vec::with_capacity(scenarios.len());
    let mut last_kind = None;
    for sc in &scenarios {
        if last_kind != Some(sc.kind) {
            println!("== {} campaigns ==", sc.kind);
            last_kind = Some(sc.kind);
        }
        records.push(run_scenario(&topologies[sc.topo], sc));
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
    let report = Report {
        invariant_failures,
        records,
        summary,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    atomic_write(std::path::Path::new(REPORT_PATH), json.as_bytes())
        .expect("write CAMPAIGN_faults.json");
    println!("wrote {REPORT_PATH}");

    for f in &report.invariant_failures {
        eprintln!("INVARIANT FAILED: {f}");
    }
    if report.invariant_failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A deterministic seed per failed-span set, so re-running a single
/// scenario reproduces it exactly.
fn span_seed(spans: &[usize]) -> u64 {
    spans.iter().fold(0x9e3779b97f4a7c15u64, |h, &s| {
        (h ^ s as u64).wrapping_mul(0xbf58476d1ce4e5b9)
    })
}

#[cfg(test)]
mod tests {
    use super::parse_args;

    #[test]
    fn every_argument_is_rejected() {
        assert_eq!(parse_args(&[]), Ok(()));
        assert!(parse_args(&["--smoke"]).is_err());
        assert!(parse_args(&["--snapshot", "x"]).is_err());
        assert!(parse_args(&["--bogus"]).is_err());
    }
}
