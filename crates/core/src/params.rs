//! Algorithm parameters.

use crate::Instance;

/// Tunable knobs for the replacement-paths algorithms.
///
/// The paper fixes ζ = n^{2/3} and samples landmarks with probability
/// `c·log n / n^{2/3}`; both are explicit here so tests can exercise the
/// short- and long-detour regimes on small graphs (Proposition 4.1 holds
/// for any ζ) and benchmarks can sweep the trade-off.
#[derive(Clone, Debug)]
pub struct Params {
    /// The short/long detour threshold ζ (detour hops `> ζ` are "long").
    pub zeta: usize,
    /// Landmark sampling probability (Definition 5.2), normally
    /// `min(1, c·ln n / ζ)`.
    pub landmark_prob: f64,
    /// Seed for all randomness (landmark sampling, Lemma 2.5 sampling).
    pub seed: u64,
    /// Approximation slack ε for weighted graphs, as a rational
    /// `eps_num / eps_den` (e.g. `(1, 2)` for ε = 0.5). Exact rational
    /// arithmetic keeps the `(1+ε)` guarantee airtight.
    pub eps_num: u64,
    /// See [`Params::eps_num`].
    pub eps_den: u64,
    /// Multiplier on every internal round budget: always `1`.
    ///
    /// Nothing sets it since recovery solves its re-posed instance once
    /// (see `crate::resilient`). It stays only because the benchmark
    /// harness (`perfbench/`) mirrors the solver's budgets and
    /// multiplies by it; it goes, with `congest::DispatchStats`, at the
    /// next change to the benchmark.
    pub budget_factor: u64,
}

impl Params {
    /// The constant `c` in the landmark probability `c·ln n / ζ`.
    /// The paper's Lemma 5.3 needs a large enough constant for the
    /// high-probability coverage guarantee; `4` keeps small test
    /// instances reliable without flooding them with landmarks.
    pub const LANDMARK_C: f64 = 4.0;

    /// Paper defaults for an instance: `ζ = ⌈n^{2/3}⌉`,
    /// `landmark_prob = min(1, c·ln n / ζ)`, ε = 1/2.
    pub fn for_instance(inst: &Instance<'_>) -> Params {
        Params::for_n(inst.n())
    }

    /// Paper defaults for a graph of `n` vertices.
    pub fn for_n(n: usize) -> Params {
        let zeta = (n as f64).powf(2.0 / 3.0).ceil() as usize;
        Params::with_zeta(n, zeta.max(1))
    }

    /// Defaults with an explicit threshold ζ.
    ///
    /// # Panics
    ///
    /// Panics if `zeta == 0`.
    pub fn with_zeta(n: usize, zeta: usize) -> Params {
        let ln_n = (n.max(2) as f64).ln();
        Params {
            zeta,
            landmark_prob: (Self::LANDMARK_C * ln_n / zeta as f64).min(1.0),
            seed: 0x5eed,
            eps_num: 1,
            eps_den: 2,
            budget_factor: 1,
        }
        .checked()
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Params {
        self.seed = seed;
        self
    }

    /// Replaces ε (as a rational `num/den`).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < num/den < 1`, as Theorem 3 requires
    /// (`ε ∈ (0, 1)`). It checks the whole domain every solver assumes,
    /// so it also panics if another field lies outside it (ζ = 0,
    /// `landmark_prob` outside `[0, 1]` or `budget_factor` = 0, which a
    /// struct literal can set).
    pub fn with_eps(mut self, num: u64, den: u64) -> Params {
        self.eps_num = num;
        self.eps_den = den;
        self.checked()
    }

    fn checked(self) -> Params {
        self.check().unwrap_or_else(|e| panic!("{e}"));
        self
    }

    /// Checks the domain every solver assumes: ζ ≥ 1, `landmark_prob` in
    /// `[0, 1]`, `0 < eps_num < eps_den` and `budget_factor ≥ 1`. Every
    /// solver returns [`crate::SolveError::InvalidParams`] outside it.
    ///
    /// # Errors
    ///
    /// Names the first field outside it.
    pub(crate) fn check(&self) -> Result<(), String> {
        if self.zeta == 0 {
            return Err("zeta must be at least 1".into());
        }
        if !(0.0..=1.0).contains(&self.landmark_prob) {
            let p = self.landmark_prob;
            return Err(format!("landmark_prob {p} must lie in [0, 1]"));
        }
        if self.eps_num == 0 || self.eps_num >= self.eps_den {
            let (num, den) = (self.eps_num, self.eps_den);
            return Err(format!("eps_num/eps_den = {num}/{den} must lie in (0, 1)"));
        }
        if self.budget_factor == 0 {
            return Err("budget_factor must be at least 1".into());
        }
        Ok(())
    }

    /// ε as a float (for reporting).
    pub fn eps(&self) -> f64 {
        self.eps_num as f64 / self.eps_den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeta_follows_two_thirds_power() {
        let p = Params::for_n(1000);
        assert_eq!(p.zeta, 100);
        let p = Params::for_n(8);
        assert_eq!(p.zeta, 4);
    }

    #[test]
    fn landmark_probability_capped_at_one() {
        let p = Params::with_zeta(100, 1);
        assert_eq!(p.landmark_prob, 1.0);
    }

    #[test]
    fn eps_accessors() {
        let p = Params::for_n(100).with_eps(1, 4);
        assert!((p.eps() - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "(0, 1)")]
    fn eps_must_be_below_one() {
        let _ = Params::for_n(100).with_eps(3, 2);
    }
}
