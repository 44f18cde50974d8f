//! Section 7.1: the rounding graphs `G_d`.
//!
//! For a scale `d` and unit `µ_d = ε·d/(2·hb)` (where `hb` is the hop
//! budget — ζ for short detours, also ζ for the landmark BFS), every edge
//! `e ∈ G \ P` becomes a path of `⌈w(e)/µ_d⌉` unit edges. Lengths in
//! `G_d` are integers in units of `µ_d`; we keep them as *scaled
//! numerators* over the common denominator `den = 2·hb·eps_den`, so one
//! `G_d` hop contributes `eps_num·d` to the numerator. All arithmetic is
//! exact.

use graphkit::DiGraph;

use crate::Params;

/// One rounding scale `d` with its precomputed edge delays.
#[derive(Clone, Debug)]
pub struct Scale {
    /// The scale `d` (detour lengths in `[d/2, d]` are approximated well).
    pub d: u64,
    /// Per-edge delay `⌈w(e)/µ_d⌉`, with `0` marking edges unusable at
    /// this scale (delay would exceed the hop cap, so no target detour
    /// could use them anyway).
    pub delays: Vec<u64>,
    /// Numerator contribution of one `G_d` hop: `eps_num · d`
    /// (denominator [`ScaleSet::den`]).
    pub hop_value: u64,
}

/// All scales `d = 2, 4, ..., 2^⌈log₂ min(2Σw, 2·hb·w_max/ε)⌉` for one
/// run.
///
/// The ladder climbs until `d` covers twice the total edge weight `Σw`,
/// or stops earlier at the first `d` where every edge is one `G_d` hop
/// (`w_max ≤ µ_d`). Every larger scale would repeat that delay vector
/// with a larger [`Scale::hop_value`], so its BFS tables are the same
/// and its candidates strictly larger: it never wins a minimum.
#[derive(Clone, Debug)]
pub struct ScaleSet {
    /// The scales in increasing order of `d`.
    pub scales: Vec<Scale>,
    /// Common denominator of all scaled lengths: `2·hb·eps_den`.
    pub den: u64,
    /// Hop cap `ζ* = hb·(1 + 2/ε)` (exactly: `hb + ⌈2·hb·eps_den/eps_num⌉`).
    pub hop_cap: u64,
}

impl ScaleSet {
    /// Builds the scale set for hop budget `hb` on `graph`.
    ///
    /// # Panics
    ///
    /// Panics if `hb == 0`, or if the ladder's last scale does not fit
    /// `u64` (see [`scaled_bound`], which callers check first).
    pub fn build(graph: &DiGraph, params: &Params, hb: u64) -> ScaleSet {
        assert!(hb >= 1);
        let (en, ed) = (params.eps_num, params.eps_den);
        let den = 2 * hb * ed;
        let hop_cap = hb + (2 * hb * ed).div_ceil(en);
        let last = last_scale(graph, en, den).expect("the scale ladder fits u64");
        let mut scales = Vec::new();
        let mut d = 2u64;
        loop {
            // delay(e) = ⌈w·den / (en·d)⌉ = ⌈w / µ_d⌉.
            let unit = en * d; // µ_d numerator over den
            let delays: Vec<u64> = graph
                .edges()
                .map(|(_, e)| {
                    let delay = (e.weight * den).div_ceil(unit);
                    if delay > hop_cap {
                        0 // unusable at this scale
                    } else {
                        delay
                    }
                })
                .collect();
            scales.push(Scale {
                d,
                delays,
                hop_value: unit,
            });
            if d == last {
                break;
            }
            d *= 2;
        }
        ScaleSet {
            scales,
            den,
            hop_cap,
        }
    }

    /// Scaled numerator of an exact integer length (e.g. a prefix
    /// distance along `P`).
    pub fn scale_exact(&self, len: u64) -> u64 {
        len * self.den
    }
}

/// The ladder's last scale: the first `d = 2, 4, …` with
/// `w_max·den ≤ eps_num·d` (every edge one hop) or `d ≥ 2·Σw`, or `None`
/// when a value on the way does not fit `u64`.
fn last_scale(graph: &DiGraph, en: u64, den: u64) -> Option<u64> {
    let cover = graph.total_weight()?.max(1).checked_mul(2)?;
    let one_hop = graph.max_weight().checked_mul(den)?;
    let mut d = 2u64;
    while d < cover && one_hop > en.checked_mul(d)? {
        d = d.checked_mul(2)?;
    }
    Some(d)
}

/// An upper bound on every scaled numerator the weighted solver forms
/// with hop budget `hb` on `graph`, or `None` when one may not fit `u64`
/// (or would collide with the `u64::MAX` that encodes ∞).
///
/// A scaled length is `len·den` for an exact length `len ≤ Σw` (which
/// covers every `w·den`), plus at most `hop_cap` hops of `eps_num·d`
/// for a scale `d` up to the ladder's last, so the bound is
/// `Σw·den + hop_cap·eps_num·d_last`.
pub fn scaled_bound(graph: &DiGraph, params: &Params, hb: u64) -> Option<u64> {
    let en = params.eps_num;
    let den = hb.checked_mul(params.eps_den)?.checked_mul(2)?;
    let hop_cap = hb.checked_add(den.div_ceil(en))?;
    let hops = hop_cap
        .checked_mul(en)?
        .checked_mul(last_scale(graph, en, den)?)?;
    graph
        .total_weight()?
        .checked_mul(den)?
        .checked_add(hops)
        .filter(|&bound| bound < u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::GraphBuilder;

    fn params_eps(num: u64, den: u64) -> Params {
        Params::with_zeta(100, 10).with_eps(num, den)
    }

    fn graph_with_weights(ws: &[u64]) -> DiGraph {
        let mut b = GraphBuilder::new(ws.len() + 1);
        for (i, &w) in ws.iter().enumerate() {
            b.add_edge(i, i + 1, w);
        }
        b.build()
    }

    #[test]
    fn delay_rounds_up() {
        let g = graph_with_weights(&[7]);
        let p = params_eps(1, 2); // ε = 1/2
        let hb = 10;
        let set = ScaleSet::build(&g, &p, hb);
        // den = 2·10·2 = 40; at d = 2: µ = 2/40 = 1/20; delay = ⌈7·20⌉ = 140
        // which exceeds hop_cap = 10 + 40/1... hop_cap = 10 + ⌈40/1⌉ = 50,
        // so the edge is disabled at d = 2.
        assert_eq!(set.den, 40);
        assert_eq!(set.hop_cap, 50);
        assert_eq!(set.scales[0].d, 2);
        assert_eq!(set.scales[0].delays[0], 0);
        // At d = 16: µ = 16/40 = 2/5; delay = ⌈7·5/2⌉ = ⌈17.5⌉ = 18 <= 50.
        let s16 = set.scales.iter().find(|s| s.d == 16).unwrap();
        assert_eq!(s16.delays[0], 18);
    }

    #[test]
    fn scales_cover_total_weight() {
        // Heavy edges against a small total: `d ≥ 2·Σw` ends the ladder
        // long before every edge is one hop.
        let g = graph_with_weights(&[100, 200, 300]);
        let p = params_eps(1, 2);
        let set = ScaleSet::build(&g, &p, 5);
        let max_d = set.scales.last().unwrap().d;
        assert!(
            max_d >= 600,
            "largest scale {max_d} must cover total weight"
        );
    }

    #[test]
    fn the_ladder_stops_at_the_first_all_unit_scale() {
        // No edge is unusable at two consecutive scales here, so each
        // scale's delays differ from the last one's until all reach 1.
        let cases: [(&[u64], u64); 4] = [
            (&[1; 12], 1),                              // all-unit at d = 4
            (&[3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2], 1), // all-unit at d = 16
            (&[1, 2, 1, 2], 3),                         // 2·Σw = 12 first
            (&[1, 1], 10),                              // 2·Σw = 4 first
        ];
        for (ws, hb) in cases {
            let g = graph_with_weights(ws);
            let set = ScaleSet::build(&g, &params_eps(1, 2), hb);
            for pair in set.scales.windows(2) {
                assert_ne!(pair[0].delays, pair[1].delays, "{ws:?}: d = {}", pair[1].d);
            }
            let all_unit = set
                .scales
                .iter()
                .position(|sc| sc.delays.iter().all(|&x| x == 1));
            let last = set.scales.len() - 1;
            match all_unit {
                Some(i) => assert_eq!(i, last, "{ws:?}: ladder runs past the all-unit scale"),
                None => assert!(
                    set.scales[last].d >= 2 * g.total_weight().unwrap(),
                    "{ws:?}"
                ),
            }
        }
    }

    #[test]
    fn scaled_bound_covers_the_largest_candidate() {
        // den = 40, hop_cap = 50, last scale d = 16 (2·Σw = 14):
        // Σw·den + hop_cap·eps_num·d = 280 + 800.
        let g = graph_with_weights(&[7]);
        assert_eq!(scaled_bound(&g, &params_eps(1, 2), 10), Some(1080));
        let huge = graph_with_weights(&[u64::MAX / 2, u64::MAX / 2]);
        assert_eq!(scaled_bound(&huge, &params_eps(1, 2), 10), None);
    }

    #[test]
    fn hop_distance_overestimates_but_bounded() {
        // Observation 7.3/7.4 at the arithmetic level: delay·µ >= w, and
        // delay·µ <= w + µ.
        let g = graph_with_weights(&[13, 5, 1]);
        let p = params_eps(1, 3);
        let set = ScaleSet::build(&g, &p, 7);
        for sc in &set.scales {
            for (id, e) in g.edges() {
                let delay = sc.delays[id];
                if delay == 0 {
                    continue;
                }
                let scaled_len = delay * sc.hop_value; // numerator
                let w_scaled = e.weight * set.den;
                assert!(scaled_len >= w_scaled, "no shrink");
                assert!(
                    scaled_len < w_scaled + sc.hop_value,
                    "overshoot below one unit"
                );
            }
        }
    }

    #[test]
    fn unit_weights_delay_matches_formula_at_largest_scale() {
        let g = graph_with_weights(&[1, 1]);
        let p = params_eps(1, 2);
        let set = ScaleSet::build(&g, &p, 10);
        // den = 2·10·2 = 40; largest scale d = 4 (>= 2·total = 4);
        // µ_4 = 4/40 = 1/10, so a unit edge subdivides into 10 hops.
        let last = set.scales.last().unwrap();
        assert_eq!(last.d, 4);
        assert_eq!(last.delays, vec![10, 10]);
    }
}
