//! Round, message, bit, and cut accounting.

use std::fmt;

/// Statistics for one protocol run (one "phase" of an algorithm).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Synchronous rounds consumed.
    pub rounds: u64,
    /// Messages delivered.
    pub messages: u64,
    /// Total declared message bits.
    pub bits: u64,
    /// Bits that crossed the labelled Alice/Bob cut (0 when no cut is
    /// configured).
    pub cut_bits: u64,
    /// Largest declared size of any single message, in bits.
    pub max_message_bits: u64,
}

impl RunStats {
    /// Accumulates another run into this one (rounds add up; sizes max).
    pub fn absorb(&mut self, other: &RunStats) {
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.bits += other.bits;
        self.cut_bits += other.cut_bits;
        self.max_message_bits = self.max_message_bits.max(other.max_message_bits);
    }
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} rounds, {} msgs, {} bits",
            self.rounds, self.messages, self.bits
        )
    }
}

/// A named phase in an algorithm's metric log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseStats {
    /// Human-readable phase label (e.g. `"hop-bfs"`).
    pub name: String,
    /// Statistics for that phase.
    pub stats: RunStats,
}

/// Round-dispatch telemetry: always all-zero, since the engine has a
/// single sequential round driver.
///
/// Kept only because the benchmark harness (`perfbench/`) reads every
/// field; it goes with the next change to the benchmark. Excluded from
/// [`Metrics`] equality.
#[derive(Clone, Copy, Debug, Default)]
pub struct DispatchStats {
    /// Always 0.
    pub par_rounds: u64,
    /// Always 0.
    pub seq_rounds: u64,
    /// Always 0.
    pub floor_rounds: u64,
    /// Always 0.
    pub ewma_seq_ns_per_unit: f64,
    /// Always 0.
    pub ewma_par_ns_per_unit: f64,
}

/// Cumulative counters of a solver session's artifact cache (see
/// `rpaths_core::cache`), reported through `rpaths_core::SessionStats`.
///
/// Cache counters are not run accounting: a warm cache answers with
/// zero rounds where a cold one recomputes, so they stay out of
/// [`Metrics`] altogether. The type lives here rather than in
/// `rpaths_core` because the benchmark harness (`perfbench/`) imports
/// it from this crate.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing (the artifact was then recomputed).
    pub misses: u64,
    /// Artifacts inserted (fresh computations and imports).
    pub insertions: u64,
    /// Always 0: the cache never evicts. Kept only because the
    /// benchmark harness (`perfbench/`) reads it, like
    /// [`DispatchStats`]; it goes with the next change to the benchmark.
    pub evictions: u64,
}

impl CacheStats {
    /// Total lookups (hits plus misses).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups answered from the cache (`0.0` when no
    /// lookup happened).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// Telemetry from fault injection (see `congest::faults`).
///
/// This *is* part of a run's deterministic outcome: a
/// [`crate::FaultPlan`] decides every message's fate from
/// `(seed, round, link, direction)` alone, so two runs of the same plan
/// under different schedules must produce bit-identical `FaultStats` —
/// and [`Metrics`] equality deliberately includes it to pin that down.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages dropped because their link was down when they were sent.
    pub dropped_link_down: u64,
    /// Messages dropped because their sender or receiver was crashed.
    pub dropped_node_down: u64,
    /// Messages dropped by the plan's per-message drop probability.
    pub dropped_random: u64,
    /// Rounds in which the plan dropped at least one message.
    pub faulty_rounds: u64,
}

impl FaultStats {
    /// Accumulates another run's fault telemetry into this one.
    pub fn absorb(&mut self, other: &FaultStats) {
        self.dropped_link_down += other.dropped_link_down;
        self.dropped_node_down += other.dropped_node_down;
        self.dropped_random += other.dropped_random;
        self.faulty_rounds += other.faulty_rounds;
    }

    /// Total messages lost to any cause.
    pub fn total_dropped(&self) -> u64 {
        self.dropped_link_down + self.dropped_node_down + self.dropped_random
    }

    /// `true` when no fault event was recorded at all.
    pub fn is_zero(&self) -> bool {
        *self == FaultStats::default()
    }
}

/// Cumulative metrics for a [`crate::Network`] across all phases.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Aggregate over all phases.
    pub total: RunStats,
    /// Per-phase breakdown, in execution order.
    pub phases: Vec<PhaseStats>,
    /// Always all-zero (excluded from equality; see [`DispatchStats`]).
    pub dispatch: DispatchStats,
    /// Fault-injection telemetry (included in equality; see
    /// [`FaultStats`]).
    pub faults: FaultStats,
}

/// Equality covers the deterministic accounting only (`total`, `phases`,
/// and `faults`), not the dispatch telemetry.
impl PartialEq for Metrics {
    fn eq(&self, other: &Metrics) -> bool {
        self.total == other.total && self.phases == other.phases && self.faults == other.faults
    }
}

impl Eq for Metrics {}

impl Metrics {
    /// Records a finished phase.
    pub fn record(&mut self, name: impl Into<String>, stats: RunStats) {
        self.total.absorb(&stats);
        self.phases.push(PhaseStats {
            name: name.into(),
            stats,
        });
    }

    /// Accumulates fault-injection telemetry from one drive.
    pub fn record_faults(&mut self, f: FaultStats) {
        self.faults.absorb(&f);
    }

    /// Total rounds across all phases.
    pub fn rounds(&self) -> u64 {
        self.total.rounds
    }

    /// Appends every phase of `other` onto this log by draining it,
    /// preserving execution order and leaving `other` empty.
    ///
    /// This is the by-reference way to merge the accounting of two runs
    /// (e.g. a sub-solver's network into an outer solver's metrics):
    /// phase names move instead of being cloned, so merging costs
    /// `O(phases)` pointer moves rather than a deep copy of every name.
    pub fn merge_from(&mut self, other: &mut Metrics) {
        self.total.absorb(&other.total);
        other.total = RunStats::default();
        self.phases.append(&mut other.phases);
        self.faults.absorb(&other.faults);
        other.faults = FaultStats::default();
    }

    /// Looks up the accumulated stats of all phases whose name contains
    /// `needle`.
    pub fn phase_total(&self, needle: &str) -> RunStats {
        let mut acc = RunStats::default();
        for p in &self.phases {
            if p.name.contains(needle) {
                acc.absorb(&p.stats);
            }
        }
        acc
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "total: {}", self.total)?;
        for p in &self.phases {
            writeln!(f, "  {:<28} {}", p.name, p.stats)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_adds_and_maxes() {
        let mut a = RunStats {
            rounds: 3,
            messages: 10,
            bits: 100,
            cut_bits: 5,
            max_message_bits: 12,
        };
        let b = RunStats {
            rounds: 2,
            messages: 1,
            bits: 9,
            cut_bits: 0,
            max_message_bits: 30,
        };
        a.absorb(&b);
        assert_eq!(a.rounds, 5);
        assert_eq!(a.messages, 11);
        assert_eq!(a.bits, 109);
        assert_eq!(a.cut_bits, 5);
        assert_eq!(a.max_message_bits, 30);
    }

    #[test]
    fn merge_from_drains_phases_in_order() {
        let mut outer = Metrics::default();
        outer.record(
            "a",
            RunStats {
                rounds: 1,
                messages: 2,
                ..Default::default()
            },
        );
        let mut inner = Metrics::default();
        inner.record(
            "b",
            RunStats {
                rounds: 3,
                max_message_bits: 9,
                ..Default::default()
            },
        );
        inner.record(
            "c",
            RunStats {
                rounds: 4,
                ..Default::default()
            },
        );
        outer.merge_from(&mut inner);
        assert_eq!(outer.rounds(), 8);
        assert_eq!(outer.total.messages, 2);
        assert_eq!(outer.total.max_message_bits, 9);
        assert_eq!(
            outer
                .phases
                .iter()
                .map(|p| p.name.as_str())
                .collect::<Vec<_>>(),
            vec!["a", "b", "c"]
        );
        assert!(inner.phases.is_empty());
        assert_eq!(inner.total, RunStats::default());
    }

    #[test]
    fn cache_stats_rates() {
        let mut c = CacheStats::default();
        assert_eq!(c.hit_rate(), 0.0);
        c.hits = 3;
        c.misses = 1;
        c.insertions = 1;
        assert_eq!(c.lookups(), 4);
        assert_eq!(c.hit_rate(), 0.75);
    }

    #[test]
    fn metrics_record_and_query() {
        let mut m = Metrics::default();
        m.record(
            "bfs/forward",
            RunStats {
                rounds: 4,
                ..Default::default()
            },
        );
        m.record(
            "bfs/backward",
            RunStats {
                rounds: 6,
                ..Default::default()
            },
        );
        m.record(
            "broadcast",
            RunStats {
                rounds: 10,
                ..Default::default()
            },
        );
        assert_eq!(m.rounds(), 20);
        assert_eq!(m.phase_total("bfs").rounds, 10);
        assert_eq!(m.phase_total("broadcast").rounds, 10);
        assert_eq!(m.phases.len(), 3);
    }
}
