//! The traced solvers: `unweighted::solve_on` and `weighted::solve_on`
//! driven step by step through the library's public functions, with a
//! span around every call.
//!
//! Each function here repeats the call sequence of its library
//! counterpart (`unweighted::solve_on` → `long::solve_long` →
//! `long::dists::landmark_distances`, and `weighted::solve_on` →
//! `weighted::long::solve_long_apx` → `approx_hop_multi_source`). The
//! benchmark compares every traced answer and the full `Metrics` with
//! the untraced one-shot solve of the same input, so a mirror that
//! drifts from the solver fails the run instead of timing the wrong
//! thing.

use congest::bfs_tree::{build_bfs_tree, BfsTree};
use congest::multi_bfs::{default_budget, multi_source_bfs, MultiBfsConfig};
use congest::{Network, RunStats};
use graphkit::{Dist, NodeId};
use rpaths_core::long::dists::{compose_from_tables, LandmarkDistances};
use rpaths_core::long::{landmarks, segments};
use rpaths_core::weighted::intervals::solve_short_apx;
use rpaths_core::weighted::rounding::ScaleSet;
use rpaths_core::weighted::ScaledAnswers;
use rpaths_core::{knowledge, short, Instance, Params, SolveError};

use crate::trace::Tracer;

/// Measured-over-bound ratios of the phases whose lemma bound the
/// benchmark can compute from its own inputs; `0.0` when the phase did
/// not run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Bounds {
    /// Landmark-pair broadcast rounds / `4(M + height) + 16` (Lemma 2.4).
    pub broadcast: f64,
    /// Largest multi-source BFS rounds / `k + h + 8` (Lemma 5.5).
    pub multi_bfs: f64,
    /// Short-regime rounds / `3ζ + 8` (Proposition 4.1).
    pub short: f64,
}

impl Bounds {
    /// The larger of each ratio.
    pub fn max(self, other: Bounds) -> Bounds {
        Bounds {
            broadcast: self.broadcast.max(other.broadcast),
            multi_bfs: self.multi_bfs.max(other.multi_bfs),
            short: self.short.max(other.short),
        }
    }
}

const BROADCAST_PHASE: &str = "long/broadcast-landmark-pairs";

/// Traced `unweighted::solve_on`.
pub fn unweighted(
    tr: &mut Tracer,
    net: &mut Network<'_>,
    inst: &Instance<'_>,
    params: &Params,
) -> Result<(ScaledAnswers, Bounds), SolveError> {
    let mut bounds = Bounds::default();
    let (tree, _) = tr.net_span(net, "congest.bfs_tree", |_, net| {
        build_bfs_tree(net, inst.s())
    })?;
    tr.net_span(net, "core.knowledge", |_, net| {
        knowledge::acquire(net, inst, params, &tree)
    });
    let before = net.metrics().phases.len();
    let short_ans = tr.net_span(net, "core.short", |_, net| {
        short::solve_short(net, inst, params)
    });
    let short_rounds: u64 = net.metrics().phases[before..]
        .iter()
        .map(|p| p.stats.rounds)
        .sum();
    bounds.short = short_rounds as f64 / (3 * params.zeta as u64 + 8) as f64;

    let lm = tr.span("core.long.landmarks", |_| landmarks::sample(inst, params));
    let long_ans = if lm.is_empty() {
        vec![Dist::INF; inst.hops()]
    } else {
        let k = lm.len();
        let zeta = params.zeta as u64;
        let budget =
            default_budget(k, zeta).max(8 * net.node_count() as u64) * params.budget_factor;
        let mut tables = Vec::with_capacity(2);
        for (reverse, phase) in [
            (false, "long/bfs-from-landmarks"),
            (true, "long/bfs-to-landmarks"),
        ] {
            let cfg = MultiBfsConfig {
                sources: &lm,
                max_dist: zeta,
                reverse,
                delays: None,
            };
            let (table, stats) = tr
                .net_span(net, "congest.multi_bfs", |_, net| {
                    multi_source_bfs(net, &cfg, |e| inst.in_g_minus_p(e), phase, budget)
                })
                .map_err(SolveError::Engine)?;
            bounds.multi_bfs = bounds.multi_bfs.max(bfs_ratio(&stats, k, zeta));
            tables.push(table);
        }
        let bwd = tables.pop().expect("two tables");
        let fwd = tables.pop().expect("two tables");
        let (ld, ratio) = compose(tr, net, inst, &lm, fwd, bwd, &tree);
        bounds.broadcast = ratio;
        let (m_table, n_table) = segments_both(
            tr,
            net,
            inst,
            params,
            &ld,
            &tree,
            &inst.prefix,
            &inst.suffix,
        );
        combine(inst.hops(), lm.len(), &m_table, &n_table)
    };
    let scaled = short_ans
        .into_iter()
        .zip(long_ans)
        .map(|(a, b)| a.min(b))
        .collect();
    Ok((ScaledAnswers { scaled, den: 1 }, bounds))
}

/// Traced `weighted::solve_on`.
pub fn weighted(
    tr: &mut Tracer,
    net: &mut Network<'_>,
    inst: &Instance<'_>,
    params: &Params,
) -> Result<(ScaledAnswers, Bounds), SolveError> {
    let mut bounds = Bounds::default();
    let (tree, _) = tr.net_span(net, "congest.bfs_tree", |_, net| {
        build_bfs_tree(net, inst.s())
    })?;
    tr.net_span(net, "core.knowledge", |_, net| {
        knowledge::acquire(net, inst, params, &tree)
    });
    let short = tr.net_span(net, "core.weighted.short_apx", |_, net| {
        solve_short_apx(net, inst, params, &tree)
    });
    let long = tr.net_span(net, "core.weighted.long_apx", |tr, net| {
        long_apx(tr, net, inst, params, &tree, &mut bounds)
    })?;
    let den = lcm(short.den, long.den);
    let scaled = short
        .scaled
        .iter()
        .zip(&long.scaled)
        .map(|(&a, &b)| {
            a.saturating_mul(den / short.den)
                .min(b.saturating_mul(den / long.den))
        })
        .collect();
    Ok((ScaledAnswers { scaled, den }, bounds))
}

/// Traced `weighted::long::solve_long_apx`.
fn long_apx(
    tr: &mut Tracer,
    net: &mut Network<'_>,
    inst: &Instance<'_>,
    params: &Params,
    tree: &BfsTree,
    bounds: &mut Bounds,
) -> Result<ScaledAnswers, SolveError> {
    let lms = tr.span("core.long.landmarks", |_| landmarks::sample(inst, params));
    let set = ScaleSet::build(inst.graph, params, params.zeta as u64);
    if lms.is_empty() {
        return Ok(ScaledAnswers {
            scaled: vec![Dist::INF; inst.hops()],
            den: set.den,
        });
    }
    let fwd = approx_hop_multi_source(
        tr,
        net,
        inst,
        &set,
        &lms,
        false,
        "apx-long/bfs-fwd",
        params.budget_factor,
        bounds,
    )?;
    let bwd = approx_hop_multi_source(
        tr,
        net,
        inst,
        &set,
        &lms,
        true,
        "apx-long/bfs-bwd",
        params.budget_factor,
        bounds,
    )?;
    let (ld, ratio) = compose(tr, net, inst, &lms, fwd, bwd, tree);
    bounds.broadcast = ratio;
    let h = inst.hops();
    let scale = |d: Dist| Dist::new(set.scale_exact(d.finite().expect("finite path prefix")));
    let prefix: Vec<Dist> = inst.prefix.iter().map(|&d| scale(d)).collect();
    let suffix: Vec<Dist> = inst.suffix.iter().map(|&d| scale(d)).collect();
    let (m_table, n_table) = segments_both(tr, net, inst, params, &ld, tree, &prefix, &suffix);
    Ok(ScaledAnswers {
        scaled: combine(h, lms.len(), &m_table, &n_table),
        den: set.den,
    })
}

/// Traced `weighted::long::approx_hop_multi_source`: one rounded
/// multi-source BFS per scale, each in its own `congest.multi_bfs` span.
#[allow(clippy::too_many_arguments)]
fn approx_hop_multi_source(
    tr: &mut Tracer,
    net: &mut Network<'_>,
    inst: &Instance<'_>,
    set: &ScaleSet,
    sources: &[NodeId],
    reverse: bool,
    phase: &str,
    factor: u64,
    bounds: &mut Bounds,
) -> Result<Vec<Vec<Dist>>, SolveError> {
    let n = inst.n();
    let k = sources.len();
    let mut best = vec![vec![Dist::INF; n]; k];
    for scale in &set.scales {
        let cfg = MultiBfsConfig {
            sources,
            max_dist: set.hop_cap,
            reverse,
            delays: Some(&scale.delays),
        };
        let budget =
            default_budget(k, set.hop_cap).max(4 * set.hop_cap + 4 * k as u64 + 64) * factor;
        let name = format!("{phase}-d{}", scale.d);
        let (hops, stats) = tr
            .net_span(net, "congest.multi_bfs", |_, net| {
                multi_source_bfs(net, &cfg, |e| inst.in_g_minus_p(e), &name, budget)
            })
            .map_err(SolveError::Engine)?;
        bounds.multi_bfs = bounds.multi_bfs.max(bfs_ratio(&stats, k, set.hop_cap));
        for (src, row) in hops.iter().enumerate() {
            for v in 0..n {
                if let Some(hcount) = row[v].finite() {
                    let scaled = Dist::new(hcount * scale.hop_value);
                    best[src][v] = best[src][v].min(scaled);
                }
            }
        }
    }
    Ok(best)
}

/// `compose_from_tables` in a span, with its broadcast's bound ratio.
fn compose(
    tr: &mut Tracer,
    net: &mut Network<'_>,
    inst: &Instance<'_>,
    lm: &[NodeId],
    fwd: Vec<Vec<Dist>>,
    bwd: Vec<Vec<Dist>>,
    tree: &BfsTree,
) -> (LandmarkDistances, f64) {
    // M: the landmark pairs with a finite hop-bounded distance, i.e. the
    // items the broadcast carries.
    let items = fwd
        .iter()
        .map(|row| lm.iter().filter(|&&l| row[l].is_finite()).count() as u64)
        .sum::<u64>();
    let before = net.metrics().phases.len();
    let ld = tr.net_span(net, "core.long.dists.compose", |_, net| {
        compose_from_tables(net, inst, lm, fwd, bwd, tree)
    });
    let rounds: u64 = net.metrics().phases[before..]
        .iter()
        .filter(|p| p.name == BROADCAST_PHASE)
        .map(|p| p.stats.rounds)
        .sum();
    (ld, rounds as f64 / (4 * (items + tree.height) + 16) as f64)
}

/// `distances_from_s` and `distances_to_t`, each in a
/// `core.long.segments` span.
#[allow(clippy::too_many_arguments)]
fn segments_both(
    tr: &mut Tracer,
    net: &mut Network<'_>,
    inst: &Instance<'_>,
    params: &Params,
    ld: &LandmarkDistances,
    tree: &BfsTree,
    prefix: &[Dist],
    suffix: &[Dist],
) -> (Vec<Vec<Dist>>, Vec<Vec<Dist>>) {
    let m = tr.net_span(net, "core.long.segments", |_, net| {
        segments::distances_from_s(net, inst, params, ld, tree, prefix)
    });
    let n = tr.net_span(net, "core.long.segments", |_, net| {
        segments::distances_to_t(net, inst, params, ld, tree, suffix)
    });
    (m, n)
}

/// The final local combine of `long::solve_long`.
fn combine(h: usize, k: usize, m_table: &[Vec<Dist>], n_table: &[Vec<Dist>]) -> Vec<Dist> {
    (0..h)
        .map(|i| {
            (0..k)
                .map(|j| m_table[i][j] + n_table[i][j])
                .min()
                .unwrap_or(Dist::INF)
        })
        .collect()
}

fn bfs_ratio(stats: &RunStats, k: usize, h: u64) -> f64 {
    stats.rounds as f64 / (k as u64 + h + 8) as f64
}

fn lcm(a: u64, b: u64) -> u64 {
    fn gcd(a: u64, b: u64) -> u64 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    a / gcd(a, b) * b
}
