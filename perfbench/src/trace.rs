//! Spans timed from outside the library, per-span peak RSS, and the
//! Chrome trace-event export.
//!
//! A span wraps one call into a layer's public function. It records
//! wall-clock start and end, the simulated rounds and messages that the
//! call charged to its network (the `Metrics::phases` it appended), and
//! the peak resident set size reached while it ran. Peak RSS per span
//! works by writing `5` to `/proc/self/clear_refs` (which resets the
//! kernel's high-water mark `VmHWM`) when a span opens and reading
//! `VmHWM` when it closes; an enclosing span folds its children's peaks
//! into its own, so nesting never loses a peak.

use std::collections::BTreeMap;
use std::time::Instant;

use congest::{Metrics, Network};
use serde::value::Value;

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Resets `VmHWM` to the current RSS; `false` when the kernel refuses.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// One layer's work: one call, or all its calls in one iteration.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotal {
    /// Seconds spent in the layer's spans.
    pub secs: f64,
    /// Simulated rounds charged in them.
    pub rounds: f64,
    /// Simulated messages charged in them.
    pub messages: f64,
    /// Largest peak RSS of any of them, in MiB.
    pub peak_rss_mb: f64,
}

impl LayerTotal {
    /// Time and counts divided by `units` (peak RSS is kept).
    pub fn per(self, units: f64) -> LayerTotal {
        LayerTotal {
            secs: self.secs / units,
            rounds: self.rounds / units,
            messages: self.messages / units,
            peak_rss_mb: self.peak_rss_mb,
        }
    }
}

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name, e.g. `core.long.dists.compose`.
    pub name: &'static str,
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: Option<usize>,
    /// Workload iteration the span belongs to.
    pub iteration: usize,
    /// Microseconds since the tracer started.
    pub start_us: f64,
    /// Microseconds since the tracer started.
    pub end_us: f64,
    /// Simulated rounds charged during the span.
    pub rounds: u64,
    /// Simulated messages charged during the span.
    pub messages: u64,
    /// Peak RSS while the span was open, in MiB.
    pub peak_rss_mb: f64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }
}

struct Open {
    index: usize,
    /// Largest peak seen by this span before a child reset `VmHWM`.
    peak_before_reset: f64,
}

/// Collects spans in memory; [`Tracer::chrome_json`] writes them out.
/// A disabled tracer runs every span's body and records nothing, so one
/// code path serves the untraced and the traced run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    iteration: usize,
    spans: Vec<Span>,
    stack: Vec<Open>,
    rss_reset_ok: bool,
}

impl Tracer {
    /// A tracer whose clock starts now; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            iteration: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            rss_reset_ok: true,
        }
    }

    /// `true` when spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags every span opened from now on with `iteration`.
    pub fn set_iteration(&mut self, iteration: usize) {
        self.iteration = iteration;
    }

    /// Every closed span, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// `false` if the kernel refused a `VmHWM` reset, in which case
    /// per-span peaks are process peaks.
    pub fn rss_reset_ok(&self) -> bool {
        self.rss_reset_ok
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    fn open(&mut self, name: &'static str) {
        let peak = peak_rss_mb();
        if let Some(top) = self.stack.last_mut() {
            top.peak_before_reset = top.peak_before_reset.max(peak);
        }
        self.rss_reset_ok &= reset_peak_rss();
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().map(|o| o.index),
            iteration: self.iteration,
            start_us: self.now_us(),
            end_us: 0.0,
            rounds: 0,
            messages: 0,
            peak_rss_mb: 0.0,
        });
        self.stack.push(Open {
            index,
            peak_before_reset: 0.0,
        });
    }

    fn close(&mut self) -> usize {
        let end = self.now_us();
        let open = self.stack.pop().expect("close matches an open span");
        let peak = peak_rss_mb().max(open.peak_before_reset);
        let span = &mut self.spans[open.index];
        span.end_us = end;
        span.peak_rss_mb = peak;
        if let Some(parent) = self.stack.last_mut() {
            parent.peak_before_reset = parent.peak_before_reset.max(peak);
        }
        open.index
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        self.open(name);
        let out = f(self);
        self.close();
        out
    }

    /// Runs `f` on `net` inside a span, charging the span with the rounds
    /// and messages of every phase `f` appended to `net`'s metrics.
    pub fn net_span<'g, T>(
        &mut self,
        net: &mut Network<'g>,
        name: &'static str,
        f: impl FnOnce(&mut Tracer, &mut Network<'g>) -> T,
    ) -> T {
        if !self.enabled {
            return f(self, net);
        }
        let before = net.metrics().phases.len();
        self.open(name);
        let out = f(self, net);
        let index = self.close();
        self.charge(index, net.metrics(), before);
        out
    }

    /// Charges the most recently opened span with every phase of
    /// `metrics` (for spans around calls that own their networks).
    pub fn charge_last(&mut self, metrics: &Metrics) {
        if let Some(index) = self.spans.len().checked_sub(1) {
            self.charge(index, metrics, 0);
        }
    }

    /// Charges the span at `index` with the phases of `metrics` from
    /// position `from` on.
    fn charge(&mut self, index: usize, metrics: &Metrics, from: usize) {
        let span = &mut self.spans[index];
        for p in &metrics.phases[from..] {
            span.rounds += p.stats.rounds;
            span.messages += p.stats.messages;
        }
    }

    /// Every call of one layer.
    pub fn calls(&self, name: &str) -> Vec<LayerTotal> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| LayerTotal {
                secs: s.secs(),
                rounds: s.rounds as f64,
                messages: s.messages as f64,
                peak_rss_mb: s.peak_rss_mb,
            })
            .collect()
    }

    /// Per-iteration totals of one layer, keyed by iteration: summed
    /// time, rounds and messages over its spans in the iteration, and
    /// their largest peak RSS.
    pub fn layer_totals(&self, name: &str) -> BTreeMap<usize, LayerTotal> {
        let mut out: BTreeMap<usize, LayerTotal> = BTreeMap::new();
        for (s, call) in self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .zip(self.calls(name))
        {
            let acc = out.entry(s.iteration).or_default();
            acc.secs += call.secs;
            acc.rounds += call.rounds;
            acc.messages += call.messages;
            acc.peak_rss_mb = acc.peak_rss_mb.max(call.peak_rss_mb);
        }
        out
    }

    /// The spans as a Chrome trace-event document (`"X"` complete
    /// events, microsecond timestamps), with `other` as run metadata.
    pub fn chrome_json(&self, workload: &str, other: Value) -> Value {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s
                    .parent
                    .map_or(Value::Null, |p| Value::Str(self.spans[p].name.to_string()));
                obj(vec![
                    ("name", Value::Str(s.name.to_string())),
                    ("cat", Value::Str(layer_of(s.name).to_string())),
                    ("ph", Value::Str("X".into())),
                    ("ts", Value::Float(s.start_us)),
                    ("dur", Value::Float((s.end_us - s.start_us).max(0.0))),
                    ("pid", Value::UInt(1)),
                    ("tid", Value::UInt(1)),
                    (
                        "args",
                        obj(vec![
                            ("id", Value::UInt(id as u64)),
                            ("parent", parent),
                            (
                                "parent_id",
                                s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                            ),
                            ("workload", Value::Str(workload.to_string())),
                            ("iteration", Value::UInt(s.iteration as u64)),
                            ("start_us", Value::Float(s.start_us)),
                            ("end_us", Value::Float(s.end_us)),
                            ("rounds", Value::UInt(s.rounds)),
                            ("messages", Value::UInt(s.messages)),
                            ("peak_rss_mb", Value::Float(s.peak_rss_mb)),
                        ]),
                    ),
                ])
            })
            .collect();
        obj(vec![
            ("traceEvents", Value::Seq(events)),
            ("displayTimeUnit", Value::Str("ms".into())),
            ("otherData", other),
        ])
    }
}

/// The crate a layer name belongs to (`core.long.segments` → `core`).
fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// A JSON object from `(key, value)` pairs, in order.
pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Wraps a [`Value`] so the vendored `serde_json` can render it.
pub struct Json(pub Value);

impl serde::Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}
