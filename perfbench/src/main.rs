//! The repository benchmark: runs one named workload from a seed, checks
//! every answer against the centralized oracle, and prints every metric
//! by name and unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads are described in [`workloads`]; each run cycles through a
//! few seeded instances ("cases") of its workload. The run repeats cold
//! iterations until `--seconds` have passed (at least three times):
//!
//! - **Cold work**: every case once, as one cold one-shot solve per pair
//!   (or one cold `solve_batch` on a fresh session). Reported as
//!   `solve_s`, the median over iterations of the mean seconds per solve
//!   (per batch); as `peak_rss_mb`, the median over iterations of the
//!   mean over cases of the peak RSS during a case's cold work; and as
//!   the simulated
//!   `rounds`, `messages` and `bits` of one iteration, which must repeat
//!   exactly in every iteration.
//! - **Set-up**, after each cold iteration: `Instance::from_endpoints`
//!   for every pair of a case (or session construction plus the query
//!   list). Reported as `setup_s`, the median.
//! - **Save and warm replay**, after each cold iteration, cycling through
//!   the cases: a session holding the case's answers is `save`d
//!   (`save_encode_ms`, see [`Bench::save`]), then a fresh session
//!   `warm_boot`s from the snapshot and
//!   replays the batch (`warm_query_us`: per case the median time, summed
//!   over cases and divided by their summed query counts). On one-shot
//!   workloads that session's cache is seeded from the one-shot answers
//!   through the public artifact codec.
//!
//! Set-up, and save with warm replay, each take about a twentieth of the
//! time of the cold iteration they follow, so every metric samples the
//! whole run.
//!
//! Every operation runs under `catch_unwind`; an error, a panic, or an
//! answer outside the oracle's bracket counts as failed. Checking runs
//! outside every clock.
//!
//! With `--trace 1` the run instead drives the solver step by step
//! through the public functions of each layer ([`mirror`]), with a span
//! around every call ([`trace`]), next to the untraced one-shot solve of
//! the same input; answers and `Metrics` must match exactly. It prints
//! the per-layer metrics and writes the spans as a Chrome trace to
//! `perfbench/out/`.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod mirror;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use congest::{CacheStats, DispatchStats, Metrics, Network, RunStats};
use graphkit::Dist;
use rpaths_core::artifacts::cache_artifact;
use rpaths_core::long::landmarks;
use rpaths_core::session::{params_fingerprint, path_fingerprint};
use rpaths_core::weighted::{ApxOutput, ScaledAnswers};
use rpaths_core::{
    unweighted, weighted, Answer, ArtifactKind, CacheValue, Instance, Params, Query, SolverKind,
    SolverSession,
};
use serde::value::Value;

use crate::mirror::Bounds;
use crate::trace::{obj, peak_rss_mb, reset_peak_rss, Json, LayerTotal, Tracer};
use crate::workloads::{generate, Case, Workload};

/// Where snapshots and trace files go (ignored by git).
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// After each cold iteration, set-up, save and warm replay each repeat
/// for this share of the iteration's time (at least once).
const AUX_SHARE: f64 = 0.05;
/// Cold iterations an untraced run makes at least.
const MIN_ITERATIONS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: rpaths-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(Workload::from_name(&value).ok_or(format!(
                    "unknown workload {value:?}; choose one of {}",
                    names.join(", ")
                ))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // A panic inside a checked operation is counted, not fatal; keep the
    // report on stderr short.
    std::panic::set_hook(Box::new(|info| eprintln!("panic: {info}")));
    std::fs::create_dir_all(OUT_DIR).expect("create the benchmark's output directory");

    let cases = generate(args.workload, args.seed);
    let mut bench = Bench::new(&args, &cases);
    let report = bench.run(&mut Tracer::new(args.trace));
    bench.print(report);
}

/// Counts operations and the ones that failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Runs one operation; an `Err` or a panic counts it as failed.
    fn run<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => Some(v),
            Ok(Err(e)) => {
                self.fail(what, &e);
                None
            }
            Err(_) => {
                self.fail(what, "panicked");
                None
            }
        }
    }

    /// Marks an already attempted operation as failed.
    fn fail(&mut self, what: &str, why: &str) {
        self.failed += 1;
        eprintln!("FAILED {what}: {why}");
    }

    /// Fails `what` unless `check` holds.
    fn expect(&mut self, what: &str, check: Result<(), String>) {
        if let Err(e) = check {
            self.fail(what, &e);
        }
    }
}

/// A cold solve's answers and accounting, whichever solver ran.
struct Solved {
    answers: ScaledAnswers,
    metrics: Metrics,
}

fn one_shot(inst: &Instance<'_>, params: &Params) -> Result<Solved, String> {
    if inst.graph.is_unweighted() {
        let out = unweighted::solve(inst, params).map_err(|e| e.to_string())?;
        Ok(Solved {
            answers: ScaledAnswers {
                scaled: out.replacement,
                den: 1,
            },
            metrics: out.metrics,
        })
    } else {
        let out = weighted::solve(inst, params).map_err(|e| e.to_string())?;
        Ok(Solved {
            answers: ScaledAnswers {
                scaled: out.scaled,
                den: out.den,
            },
            metrics: out.metrics,
        })
    }
}

/// Checks one answer against the exact oracle value: equality for the
/// exact solver, the `(1+ε)` bracket of Theorem 3 for the weighted one.
fn check_value(scaled: Dist, den: u64, exact: Dist, approx: bool, params: &Params) -> bool {
    if approx {
        ApxOutput {
            scaled: vec![scaled],
            den,
            metrics: Metrics::default(),
        }
        .check_guarantee(&[exact], params.eps_num, params.eps_den)
        .is_ok()
    } else {
        den == 1 && scaled == exact
    }
}

fn check_all(
    got: impl IntoIterator<Item = (Dist, u64)>,
    want: &[Dist],
    approx: bool,
    params: &Params,
) -> Result<(), String> {
    let got: Vec<_> = got.into_iter().collect();
    if got.len() != want.len() {
        return Err(format!("{} answers for {} queries", got.len(), want.len()));
    }
    match (0..got.len()).find(|&i| !check_value(got[i].0, got[i].1, want[i], approx, params)) {
        None => Ok(()),
        Some(i) => Err(format!(
            "answer {i} is {}/{}, oracle says {}",
            got[i].0, got[i].1, want[i]
        )),
    }
}

/// One instance per endpoint pair of `case`.
fn instances_of(case: &Case) -> Vec<Instance<'_>> {
    case.pairs
        .iter()
        .map(|p| Instance::from_endpoints(&case.graph, p.s, p.t).expect("valid instance"))
        .collect()
}

/// `true` when `case` runs the `(1+ε)`-approximate solver.
fn approx(case: &Case) -> bool {
    !case.graph.is_unweighted()
}

fn answers_of(a: &[Answer]) -> impl Iterator<Item = (Dist, u64)> + '_ {
    a.iter().map(|a| (a.scaled, a.den))
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
    /// Smallest and largest sample, when the value is a median.
    range: Option<(f64, f64)>,
}

struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    fn new() -> Report {
        Report {
            metrics: Vec::new(),
        }
    }

    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
            range: None,
        });
    }

    fn median(&mut self, name: &str, xs: &[f64], unit: &'static str) {
        self.add(name, median(xs), unit, xs.len());
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        self.metrics.last_mut().expect("just added").range = Some((lo, hi));
    }
}

fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Runs `f` at least once, and again until `secs` have passed.
fn repeat(secs: f64, mut f: impl FnMut()) {
    let start = Instant::now();
    loop {
        f();
        if secs_since(start) >= secs {
            break;
        }
    }
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The state of one benchmark run.
struct Bench<'a> {
    workload: Workload,
    seed: u64,
    seconds: f64,
    cases: &'a [Case],
    /// Per case: the session batch and its exact answers.
    queries: Vec<Vec<Query>>,
    expected: Vec<Vec<Dist>>,
    tally: Tally,
    /// The determinism gate: the first iteration's simulated cost.
    cost: Option<RunStats>,
    snapshot: PathBuf,
    /// Where [`Bench::save`] writes its reference copy.
    reference: PathBuf,
    /// Per case, the bytes a save of its session writes (empty until
    /// the first save).
    saved_bytes: Vec<Vec<u8>>,
    /// Every case's instances, built once outside the clock.
    instances: Vec<Vec<Instance<'a>>>,
    /// Seed, host and instance facts, reported with every result.
    provenance: Value,
}

/// A session holding a case's answers, with its answers to the case's
/// batch: what the save and warm replay part works from.
type Batch<'a> = (SolverSession<'a>, Vec<Answer>);

impl<'a> Bench<'a> {
    fn new(args: &Args, cases: &'a [Case]) -> Bench<'a> {
        let mut bench = Bench {
            workload: args.workload,
            seed: args.seed,
            seconds: args.seconds,
            cases,
            queries: cases.iter().map(Case::queries).collect(),
            expected: cases.iter().map(Case::expected).collect(),
            tally: Tally::default(),
            cost: None,
            snapshot: Path::new(OUT_DIR).join(format!("session-{}.rpsnap", std::process::id())),
            reference: Path::new(OUT_DIR).join(format!("reference-{}.rpsnap", std::process::id())),
            saved_bytes: vec![Vec::new(); cases.len()],
            instances: cases.iter().map(instances_of).collect(),
            provenance: Value::Null,
        };
        bench.provenance = bench.provenance();
        bench
    }

    /// One set-up of case `c`: an instance per pair, or a session plus
    /// its queries.
    fn setup(&mut self, c: usize) -> Option<f64> {
        let case = &self.cases[c];
        let session = self.workload.is_session();
        self.tally.run("setup", || {
            let t0 = Instant::now();
            if session {
                black_box(SolverSession::new(&case.graph, case.params.clone()));
                black_box(case.queries());
            } else {
                for p in &case.pairs {
                    let inst = Instance::from_endpoints(&case.graph, p.s, p.t);
                    black_box(inst.map_err(|e| e.to_string())?);
                }
            }
            Ok(secs_since(t0))
        })
    }

    /// The determinism gate: every iteration's simulated cost must equal
    /// the first one's.
    fn gate(&mut self, cost: RunStats) {
        match self.cost {
            None => self.cost = Some(cost),
            Some(first) if first == cost => {}
            Some(first) => self.tally.fail(
                "determinism gate",
                &format!("iteration cost {cost:?} differs from the first {first:?}"),
            ),
        }
    }

    /// One cold one-shot solve of pair `i` of case `c`, checked.
    fn cold_solve(&mut self, c: usize, i: usize, inst: &Instance<'_>) -> Option<(Solved, f64)> {
        let case = &self.cases[c];
        let out = self.tally.run("solve", || {
            let t0 = Instant::now();
            let solved = one_shot(inst, &case.params)?;
            Ok((black_box(solved), secs_since(t0)))
        })?;
        let got = out.0.answers.scaled.iter().map(|&d| (d, out.0.answers.den));
        let check = check_all(got, &case.pairs[i].oracle, approx(case), &case.params);
        self.tally.expect("solve vs oracle", check);
        Some(out)
    }

    /// One cold `solve_batch` of case `c`'s queries on a fresh session,
    /// checked.
    fn cold_batch(&mut self, tr: &mut Tracer, c: usize) -> Option<(Batch<'a>, f64)> {
        let case = &self.cases[c];
        let queries = &self.queries[c];
        let out = self.tally.run("cold batch", || {
            let mut session = SolverSession::new(&case.graph, case.params.clone());
            let t0 = Instant::now();
            let answers = tr
                .span("core.session.cold_batch", |_| session.solve_batch(queries))
                .map_err(|e| e.to_string())?;
            let secs = secs_since(t0);
            tr.charge_last(session.metrics());
            Ok(((session, answers), secs))
        })?;
        let check = check_all(
            answers_of(&out.0 .1),
            &self.expected[c],
            approx(case),
            &case.params,
        );
        self.tally.expect("cold batch vs oracle", check);
        Some(out)
    }

    /// A session over case `c` whose cache holds what a cold batch would
    /// have stored (the diameter, each pair's path, and the one-shot
    /// `answers` per pair), imported through the public artifact codec:
    /// the save and warm replay part of a one-shot workload, without a
    /// second cold solve.
    fn seeded_batch(
        &mut self,
        c: usize,
        instances: &[Instance<'a>],
        answers: Vec<ScaledAnswers>,
    ) -> Option<Batch<'a>> {
        let case = &self.cases[c];
        let queries = &self.queries[c];
        let batch = self.tally.run("seed session", || {
            let mut session = SolverSession::new(&case.graph, case.params.clone());
            let fp = session.fingerprint();
            let solver = if approx(case) {
                SolverKind::Weighted
            } else {
                SolverKind::Unweighted
            };
            let mut entries = vec![(
                ArtifactKind::Diameter,
                CacheValue::Diameter(instances[0].diameter),
            )];
            for (inst, ans) in instances.iter().zip(answers) {
                let (source, target) = (inst.s(), inst.t());
                entries.push((
                    ArtifactKind::Path { source, target },
                    CacheValue::Path(Some(inst.path.clone())),
                ));
                let kind = ArtifactKind::Replacement {
                    source,
                    target,
                    solver,
                    params_fp: params_fingerprint(&case.params),
                    path_fp: path_fingerprint(&inst.path),
                };
                entries.push((kind, CacheValue::Replacement(Arc::new(ans))));
            }
            let artifacts: Vec<_> = entries
                .iter()
                .map(|(k, v)| cache_artifact(fp, k, v))
                .collect();
            if session.import_artifacts(&artifacts) != artifacts.len() {
                return Err("the session rejected a seeded cache entry".into());
            }
            let answers = session.solve_batch(queries).map_err(|e| e.to_string())?;
            if session.stats().solver_runs != 0 {
                return Err("the seeded cache did not answer the batch".into());
            }
            Ok((session, answers))
        })?;
        let check = check_all(
            answers_of(&batch.1),
            &self.expected[c],
            approx(case),
            &case.params,
        );
        self.tally.expect("seeded session vs oracle", check);
        Some(batch)
    }

    /// One timed `save` of case `c`'s session next to a timed
    /// `rpaths_store::atomic_write` of the bytes that save writes, the
    /// two in alternating order (`save_first`); returns the seconds the
    /// save took beyond that durable write: building and encoding the
    /// snapshot. Both fsync the file and its directory, and the wait a
    /// shared disk adds to an fsync drifts by a fifth from one run to the
    /// next; in the difference of two neighbouring writes it cancels.
    fn save(
        &mut self,
        tr: &mut Tracer,
        c: usize,
        session: &SolverSession<'_>,
        save_first: bool,
    ) -> Option<f64> {
        let (path, reference) = (&self.snapshot, &self.reference);
        let bytes = &mut self.saved_bytes[c];
        self.tally.run("save", || {
            let mut save = || {
                let t0 = Instant::now();
                tr.span("core.session.save", |_| session.save(path))
                    .map_err(|e| e.to_string())?;
                Ok::<_, String>(secs_since(t0))
            };
            let write = |bytes: &[u8]| {
                let t0 = Instant::now();
                rpaths_store::atomic_write(reference, bytes).map_err(|e| e.to_string())?;
                Ok::<_, String>(secs_since(t0))
            };
            if save_first || bytes.is_empty() {
                let saved = save()?;
                *bytes = std::fs::read(path).map_err(|e| e.to_string())?;
                Ok(saved - write(bytes)?)
            } else {
                let written = write(bytes)?;
                Ok(save()? - written)
            }
        })
    }

    /// A fresh session over case `c` warm-boots from the snapshot and
    /// replays the batch; the replay must reproduce `cold` exactly.
    fn warm(&mut self, tr: &mut Tracer, c: usize, cold: &[Answer]) -> Option<Warm> {
        let case = &self.cases[c];
        let (path, queries) = (&self.snapshot, &self.queries[c]);
        self.tally.run("warm replay", || {
            let mut session = SolverSession::new(&case.graph, case.params.clone());
            let t0 = Instant::now();
            let imported = tr
                .span("core.session.warm_boot", |_| session.warm_boot(path))
                .map_err(|e| e.to_string())?;
            let answers = tr
                .span("core.session.replay", |_| session.solve_batch(queries))
                .map_err(|e| e.to_string())?;
            let secs = secs_since(t0);
            if answers != cold {
                return Err("warm replay differs from the cold batch".into());
            }
            Ok(Warm {
                case: c,
                secs,
                queries: queries.len(),
                imported,
                cache: session.stats().cache,
            })
        })
    }

    /// The traced copy of case `c`'s cold work; fails the run unless its
    /// answers and `Metrics` equal the untraced `reference`.
    fn mirror(
        &mut self,
        tr: &mut Tracer,
        instances: &[Instance<'a>],
        params: &Params,
        reference: &Metrics,
        answers: &[(Dist, u64)],
    ) -> Option<(f64, Bounds)> {
        let session = self.workload.is_session();
        let t0 = Instant::now();
        let (metrics, got, bounds) = self.tally.run("traced solve", || {
            tr.span("trace.solve", |tr| {
                let mut metrics = Metrics::default();
                let mut got = Vec::new();
                let mut bounds = Bounds::default();
                for inst in instances {
                    let mut net = Network::new(inst.graph);
                    let (ans, b) = if inst.graph.is_unweighted() {
                        mirror::unweighted(tr, &mut net, inst, params)
                    } else {
                        mirror::weighted(tr, &mut net, inst, params)
                    }
                    .map_err(|e| e.to_string())?;
                    bounds = bounds.max(b);
                    metrics.merge_from(&mut net.take_metrics());
                    got.extend(ans.scaled.iter().map(|&d| (d, ans.den)));
                    if session {
                        // The batch also answers each pair's intact query.
                        got.push((inst.path.length(inst.graph), 1));
                    }
                }
                Ok((metrics, got, bounds))
            })
        })?;
        let secs = secs_since(t0);
        let same = if metrics != *reference {
            Err("traced Metrics differ from the untraced solve".to_string())
        } else if got != answers {
            Err("traced answers differ from the untraced solve".to_string())
        } else {
            Ok(())
        };
        self.tally.expect("traced solve", same);
        Some((secs, bounds))
    }

    /// Runs the workload: end-to-end metrics when `tr` is disabled,
    /// per-layer metrics when it records.
    fn run(&mut self, tr: &mut Tracer) -> Report {
        let traced = tr.enabled();
        let session = self.workload.is_session();
        let reused = std::mem::take(&mut self.instances);
        // Per case, a session holding the case's answers: the latest cold
        // batch, or a cache seeded from the first one-shot answers.
        let mut batches: Vec<Option<Batch<'a>>> = self.cases.iter().map(|_| None).collect();
        let mut tail = Tail::default();
        let mut iterations: Vec<Iteration> = Vec::new();
        let mut setup = Vec::new();
        let mut bounds = Bounds::default();
        let (mut next_setup, mut next_tail) = (0, 0);
        let start = Instant::now();
        let min_iterations = if traced { 1 } else { MIN_ITERATIONS };
        while iterations.len() < min_iterations || secs_since(start) < self.seconds {
            tr.set_iteration(iterations.len());
            let t_cold = Instant::now();
            let mut it = Iteration::default();
            for c in 0..self.cases.len() {
                let fresh = if traced {
                    self.traced_setup(tr, c)
                } else {
                    Vec::new()
                };
                let instances = if traced { &fresh } else { &reused[c] };
                // The untraced cold work: a one-shot solve per pair, or
                // the cold batch on a fresh session. Its peak RSS counts
                // from here (a traced run resets the peak per span).
                if !traced {
                    reset_peak_rss();
                }
                let mut reference = Metrics::default();
                let mut answers = Vec::new();
                if session {
                    let Some(((s, a), dt)) = self.cold_batch(tr, c) else {
                        continue;
                    };
                    reference = s.metrics().clone();
                    answers.extend(answers_of(&a));
                    it.secs += dt;
                    it.units += 1;
                    tail.solver_runs = s.stats().solver_runs;
                    batches[c] = Some((s, a));
                } else {
                    let mut per_pair = Vec::new();
                    for (i, inst) in instances.iter().enumerate() {
                        if let Some((mut solved, dt)) = self.cold_solve(c, i, inst) {
                            let den = solved.answers.den;
                            answers.extend(solved.answers.scaled.iter().map(|&d| (d, den)));
                            reference.merge_from(&mut solved.metrics);
                            it.secs += dt;
                            it.units += 1;
                            per_pair.push(solved.answers);
                        }
                    }
                    if batches[c].is_none() && per_pair.len() == instances.len() {
                        batches[c] = self.seeded_batch(c, instances, per_pair);
                    }
                }
                it.add(&reference);
                it.peak_rss_mb += peak_rss_mb();
                if traced {
                    let params = &self.cases[c].params;
                    if let Some((dt, b)) = self.mirror(tr, instances, params, &reference, &answers)
                    {
                        it.traced_secs += dt;
                        bounds = bounds.max(b);
                    }
                }
            }
            self.gate(it.cost);
            iterations.push(it);

            // Set-up, save and warm replay take their samples between
            // cold iterations, so that every metric sees the whole run;
            // save and warm replay cycle through the cases.
            let slice = secs_since(t_cold) * AUX_SHARE;
            if !traced {
                repeat(slice, || {
                    setup.extend(self.setup(next_setup % self.cases.len()));
                    next_setup += 1;
                });
            }
            repeat(slice, || {
                let c = next_tail % self.cases.len();
                next_tail += 1;
                let Some((s, answers)) = &batches[c] else {
                    return;
                };
                let save_first = tail.save.len() % 2 == 0;
                tail.save.extend(self.save(tr, c, s, save_first));
                tail.snapshot_bytes = std::fs::metadata(&self.snapshot).map_or(0, |m| m.len());
                tail.warm.extend(self.warm(tr, c, answers));
            });
        }
        let _ = std::fs::remove_file(&self.snapshot);
        let _ = std::fs::remove_file(&self.reference);

        let per_solve = |f: fn(&Iteration) -> f64| {
            median(
                &iterations
                    .iter()
                    .filter(|i| i.units > 0)
                    .map(f)
                    .collect::<Vec<_>>(),
            )
        };
        let n = iterations.len();
        let cost = self.cost.unwrap_or_default();
        let mut r = Report::new();
        if !traced {
            let save: Vec<f64> = tail.save.iter().map(|s| s * 1e3).collect();
            let solve: Vec<f64> = iterations
                .iter()
                .filter(|i| i.units > 0)
                .map(|i| i.secs / i.units as f64)
                .collect();
            let cases = self.cases.len() as f64;
            let peak: Vec<f64> = iterations.iter().map(|i| i.peak_rss_mb / cases).collect();
            r.median("solve_s", &solve, "s");
            r.median("setup_s", &setup, "s");
            r.median("peak_rss_mb", &peak, "MiB");
            r.add("rounds", cost.rounds as f64, "count", n);
            r.add("messages", cost.messages as f64, "count", n);
            r.add("bits", cost.bits as f64, "count", n);
            r.add(
                "warm_query_us",
                warm_per_query(&tail.warm) * 1e6,
                "us",
                tail.warm.len(),
            );
            r.median("save_encode_ms", &save, "ms");
            return r;
        }

        let units: Vec<f64> = iterations.iter().map(|i| i.units.max(1) as f64).collect();
        for (layer, simulated, per_call) in SPAN_LAYERS {
            // Session layers report per call; solver layers per cold solve
            // (an iteration's total over its solves), like `solve_s`.
            let totals: Vec<LayerTotal> = if per_call {
                tr.calls(layer)
            } else {
                tr.layer_totals(layer)
                    .into_iter()
                    .map(|(it, t)| t.per(units.get(it).copied().unwrap_or(1.0)))
                    .collect()
            };
            let n = totals.len();
            let col = |f: fn(&LayerTotal) -> f64| median(&totals.iter().map(f).collect::<Vec<_>>());
            r.add(format!("{layer}.s"), col(|t| t.secs), "s", n);
            if simulated {
                r.add(format!("{layer}.rounds"), col(|t| t.rounds), "count", n);
                r.add(format!("{layer}.messages"), col(|t| t.messages), "count", n);
            }
            r.add(
                format!("{layer}.peak_rss_mb"),
                col(|t| t.peak_rss_mb),
                "MiB",
                n,
            );
        }
        r.add(
            "congest.sim_rounds_per_s",
            per_solve(|i| i.cost.rounds as f64 / i.secs),
            "1/s",
            n,
        );
        r.add(
            "congest.sim_messages_per_s",
            per_solve(|i| i.cost.messages as f64 / i.secs),
            "1/s",
            n,
        );
        let d = |f: fn(&DispatchStats) -> f64| per_solve_dispatch(&iterations, f);
        r.add(
            "congest.dispatch.par_rounds",
            d(|x| x.par_rounds as f64),
            "count",
            n,
        );
        r.add(
            "congest.dispatch.seq_rounds",
            d(|x| x.seq_rounds as f64),
            "count",
            n,
        );
        r.add(
            "congest.dispatch.floor_rounds",
            d(|x| x.floor_rounds as f64),
            "count",
            n,
        );
        let ewma = |f: fn(&DispatchStats) -> f64| {
            median(
                &iterations
                    .iter()
                    .map(|i| f(&i.dispatch))
                    .collect::<Vec<_>>(),
            )
        };
        r.add(
            "congest.dispatch.ewma_seq_ns_per_unit",
            ewma(|x| x.ewma_seq_ns_per_unit),
            "ns",
            n,
        );
        r.add(
            "congest.dispatch.ewma_par_ns_per_unit",
            ewma(|x| x.ewma_par_ns_per_unit),
            "ns",
            n,
        );
        let nw = tail.warm.len();
        let w = |f: fn(&Warm) -> f64| median(&tail.warm.iter().map(f).collect::<Vec<_>>());
        r.add(
            "core.session.solver_runs",
            tail.solver_runs as f64,
            "count",
            1,
        );
        r.add("core.cache.hits", w(|x| x.cache.hits as f64), "count", nw);
        r.add(
            "core.cache.misses",
            w(|x| x.cache.misses as f64),
            "count",
            nw,
        );
        r.add(
            "core.cache.evictions",
            w(|x| x.cache.evictions as f64),
            "count",
            nw,
        );
        r.add(
            "core.cache.hit_rate",
            w(|x| x.cache.hit_rate()),
            "ratio",
            nw,
        );
        r.add("store.snapshot_bytes", tail.snapshot_bytes as f64, "B", 1);
        r.add("store.imported", w(|x| x.imported as f64), "count", nw);
        r.add(
            "core.long.dists.broadcast_bound_ratio",
            bounds.broadcast,
            "ratio",
            n,
        );
        r.add(
            "congest.multi_bfs.bound_ratio",
            bounds.multi_bfs,
            "ratio",
            n,
        );
        r.add("core.short.bound_ratio", bounds.short, "ratio", n);
        r.add(
            "trace.overhead",
            per_solve(|i| i.traced_secs / i.secs),
            "ratio",
            n,
        );

        let path = Path::new(OUT_DIR).join(format!(
            "trace-{}-seed{}.json",
            self.workload.name(),
            self.seed
        ));
        let doc = tr.chrome_json(self.workload.name(), self.provenance.clone());
        let text = serde_json::to_string(&Json(doc)).expect("trace renders");
        match std::fs::write(&path, text) {
            Ok(()) => println!("trace: {} ({} spans)", path.display(), tr.spans().len()),
            Err(e) => self.tally.fail("write trace", &e.to_string()),
        }
        if !tr.rss_reset_ok() {
            eprintln!("note: /proc/self/clear_refs refused; span peaks are process peaks");
        }
        r
    }

    /// The set-up of one traced iteration for case `c`: its instances,
    /// with the centralized steps inside `Instance::from_endpoints` also
    /// timed on their own.
    fn traced_setup(&mut self, tr: &mut Tracer, c: usize) -> Vec<Instance<'a>> {
        let g = &self.cases[c].graph;
        tr.span("graphkit.undirected_diameter", |_| {
            black_box(graphkit::alg::undirected_diameter(g))
        });
        let mut out = Vec::new();
        for p in &self.cases[c].pairs {
            tr.span("graphkit.shortest_st_path", |_| {
                black_box(graphkit::alg::shortest_st_path(g, p.s, p.t))
            });
            let inst = self.tally.run("setup", || {
                tr.span("instance.from_endpoints", |_| {
                    Instance::from_endpoints(g, p.s, p.t).map_err(|e| e.to_string())
                })
            });
            out.extend(inst);
        }
        out
    }

    /// Seed, host and instance facts of this run.
    fn provenance(&self) -> Value {
        let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cases = self
            .cases
            .iter()
            .zip(&self.queries)
            .zip(&self.instances)
            .map(|((case, queries), instances)| {
                let p = &case.params;
                let inst = &instances[0];
                let pairs = case
                    .pairs
                    .iter()
                    .map(|p| {
                        obj(vec![
                            ("s", Value::UInt(p.s as u64)),
                            ("t", Value::UInt(p.t as u64)),
                            ("h_st", Value::UInt(p.hops as u64)),
                        ])
                    })
                    .collect();
                obj(vec![
                    ("graph_seed", Value::UInt(case.graph_seed)),
                    ("n", Value::UInt(case.graph.node_count() as u64)),
                    ("m", Value::UInt(case.graph.edge_count() as u64)),
                    ("diameter", Value::UInt(inst.diameter as u64)),
                    ("pairs", Value::Seq(pairs)),
                    ("queries", Value::UInt(queries.len() as u64)),
                    ("zeta", Value::UInt(p.zeta as u64)),
                    (
                        "landmarks",
                        Value::UInt(landmarks::sample(inst, p).len() as u64),
                    ),
                    ("landmark_prob", Value::Float(p.landmark_prob)),
                    ("params_seed", Value::UInt(p.seed)),
                    ("eps", Value::Float(p.eps())),
                ])
            })
            .collect();
        obj(vec![
            ("workload", Value::Str(self.workload.name().into())),
            ("seed", Value::UInt(self.seed)),
            ("host_cpus", Value::UInt(host_cpus as u64)),
            (
                "engine_threads",
                Value::UInt(Network::new(&self.cases[0].graph).threads() as u64),
            ),
            ("cases", Value::Seq(cases)),
        ])
    }

    fn print(&self, report: Report) {
        let provenance = serde_json::to_string(&Json(self.provenance.clone())).expect("renders");
        println!("provenance: {provenance}");
        for m in &report.metrics {
            let range = m.range.map_or(String::new(), |(lo, hi)| {
                format!(", range {lo:.6}..{hi:.6}")
            });
            println!(
                "{:<44} {:>18} {:<6} (median of {}{range})",
                m.name,
                format!("{:.6}", m.value),
                m.unit,
                m.samples
            );
        }
        let t = &self.tally;
        let rate = t.failed as f64 / t.attempted.max(1) as f64;
        println!(
            "failure_rate: {rate} ({} of {} operations)",
            t.failed, t.attempted
        );
        let metrics = report
            .metrics
            .iter()
            .map(|m| {
                let entry = obj(vec![
                    ("value", Value::Float(m.value)),
                    ("unit", Value::Str(m.unit.into())),
                ]);
                (m.name.clone(), entry)
            })
            .collect();
        let line = obj(vec![
            ("correct", Value::Bool(t.failed == 0)),
            ("attempted", Value::UInt(t.attempted)),
            ("failed", Value::UInt(t.failed)),
            ("metrics", Value::Map(metrics)),
        ]);
        println!("{}", serde_json::to_string(&Json(line)).expect("renders"));
    }
}

/// One cold iteration: every case's cold work once.
#[derive(Default)]
struct Iteration {
    /// Untraced seconds, summed over the cold solves (or batches).
    secs: f64,
    /// Cold solves (or batches) that ran.
    units: usize,
    cost: RunStats,
    dispatch: DispatchStats,
    /// Seconds of the traced copies of the same work.
    traced_secs: f64,
    /// Peak RSS of each case's cold work, summed over the cases.
    peak_rss_mb: f64,
}

impl Iteration {
    fn add(&mut self, m: &Metrics) {
        self.cost.absorb(&m.total);
        self.dispatch.par_rounds += m.dispatch.par_rounds;
        self.dispatch.seq_rounds += m.dispatch.seq_rounds;
        self.dispatch.floor_rounds += m.dispatch.floor_rounds;
        self.dispatch.ewma_seq_ns_per_unit = m.dispatch.ewma_seq_ns_per_unit;
        self.dispatch.ewma_par_ns_per_unit = m.dispatch.ewma_par_ns_per_unit;
    }
}

/// Seconds per warm-replayed query, pooled over the cases: each case's
/// median `warm_boot` plus replay time, summed, over the summed query
/// counts (cases have different numbers of queries).
fn warm_per_query(warm: &[Warm]) -> f64 {
    let mut by_case: BTreeMap<usize, (usize, Vec<f64>)> = BTreeMap::new();
    for w in warm {
        let entry = by_case.entry(w.case).or_insert((w.queries, Vec::new()));
        entry.1.push(w.secs);
    }
    let secs: f64 = by_case.values().map(|(_, xs)| median(xs)).sum();
    let queries: usize = by_case.values().map(|(q, _)| q).sum();
    secs / queries.max(1) as f64
}

/// A dispatch counter per cold solve, median over iterations.
fn per_solve_dispatch(iterations: &[Iteration], f: fn(&DispatchStats) -> f64) -> f64 {
    let xs: Vec<f64> = iterations
        .iter()
        .filter(|i| i.units > 0)
        .map(|i| f(&i.dispatch) / i.units as f64)
        .collect();
    median(&xs)
}

/// The layers the traced run puts spans around: the name, whether the
/// layer runs simulated rounds (the others are local computation,
/// session or store work, and report time and memory only), and whether
/// it reports per call rather than per cold solve.
const SPAN_LAYERS: [(&str, bool, bool); 16] = [
    ("instance.from_endpoints", false, false),
    ("graphkit.undirected_diameter", false, false),
    ("graphkit.shortest_st_path", false, false),
    ("congest.bfs_tree", true, false),
    ("core.knowledge", true, false),
    ("core.short", true, false),
    ("congest.multi_bfs", true, false),
    ("core.long.landmarks", false, false),
    ("core.long.dists.compose", true, false),
    ("core.long.segments", true, false),
    ("core.weighted.short_apx", true, false),
    ("core.weighted.long_apx", true, false),
    ("core.session.cold_batch", true, true),
    ("core.session.save", false, true),
    ("core.session.warm_boot", false, true),
    ("core.session.replay", false, true),
];

struct Warm {
    case: usize,
    /// `warm_boot` plus replay, in seconds.
    secs: f64,
    /// Queries replayed.
    queries: usize,
    imported: usize,
    cache: CacheStats,
}

#[derive(Default)]
struct Tail {
    solver_runs: u64,
    snapshot_bytes: u64,
    save: Vec<f64>,
    warm: Vec<Warm>,
}
