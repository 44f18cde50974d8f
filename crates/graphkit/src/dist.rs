//! Extended-natural distances: `u64` values plus an unreachable sentinel.

use std::fmt;
use std::iter::Sum;
use std::ops::Add;

/// A shortest-path distance: either a finite non-negative integer or
/// infinity ("no path").
///
/// Arithmetic saturates at infinity, so min-plus computations never
/// overflow and never accidentally treat "unreachable" as a huge finite
/// value. Internally infinity is `u64::MAX`, which the constructor
/// [`Dist::new`] refuses as a finite value.
///
/// # Examples
///
/// ```
/// use graphkit::Dist;
///
/// let a = Dist::new(3);
/// let b = Dist::new(4);
/// assert_eq!(a + b, Dist::new(7));
/// assert_eq!((a + Dist::INF), Dist::INF);
/// assert!(a < Dist::INF);
/// assert_eq!(Dist::INF.min(b), b);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Dist(u64);

impl Dist {
    /// The zero distance.
    pub const ZERO: Dist = Dist(0);
    /// The unreachable sentinel; greater than every finite distance.
    pub const INF: Dist = Dist(u64::MAX);

    /// Creates a finite distance.
    ///
    /// # Panics
    ///
    /// Panics if `value == u64::MAX`, which is reserved for [`Dist::INF`].
    #[inline]
    pub fn new(value: u64) -> Dist {
        assert_ne!(value, u64::MAX, "u64::MAX is reserved for Dist::INF");
        Dist(value)
    }

    /// Returns `true` when the distance is finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0 != u64::MAX
    }

    /// Returns the finite value, or `None` for [`Dist::INF`].
    #[inline]
    pub fn finite(self) -> Option<u64> {
        if self.is_finite() {
            Some(self.0)
        } else {
            None
        }
    }

    /// Returns the underlying `u64`, with `u64::MAX` meaning infinity.
    ///
    /// Useful for wire encodings; prefer [`Dist::finite`] in algorithm
    /// logic.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Reconstructs a distance from its [`Dist::raw`] encoding.
    #[inline]
    pub fn from_raw(raw: u64) -> Dist {
        Dist(raw)
    }

    /// Saturating multiplication by a scalar (infinity stays infinity).
    #[inline]
    pub fn saturating_mul(self, k: u64) -> Dist {
        if !self.is_finite() {
            return Dist::INF;
        }
        match self.0.checked_mul(k) {
            Some(v) if v != u64::MAX => Dist(v),
            _ => Dist::INF,
        }
    }
}

impl Add for Dist {
    type Output = Dist;

    #[inline]
    fn add(self, rhs: Dist) -> Dist {
        if !self.is_finite() || !rhs.is_finite() {
            return Dist::INF;
        }
        match self.0.checked_add(rhs.0) {
            Some(v) if v != u64::MAX => Dist(v),
            _ => Dist::INF,
        }
    }
}

impl Add<u64> for Dist {
    type Output = Dist;

    #[inline]
    fn add(self, rhs: u64) -> Dist {
        self + Dist(rhs.min(u64::MAX - 1))
    }
}

impl Sum for Dist {
    fn sum<I: Iterator<Item = Dist>>(iter: I) -> Dist {
        iter.fold(Dist::ZERO, |a, b| a + b)
    }
}

impl From<u64> for Dist {
    fn from(value: u64) -> Dist {
        Dist::new(value)
    }
}

impl fmt::Debug for Dist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_finite() {
            write!(f, "{}", self.0)
        } else {
            write!(f, "∞")
        }
    }
}

impl fmt::Display for Dist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finite_addition() {
        assert_eq!(Dist::new(2) + Dist::new(3), Dist::new(5));
        assert_eq!(Dist::ZERO + Dist::new(9), Dist::new(9));
    }

    #[test]
    fn infinity_saturates() {
        assert_eq!(Dist::INF + Dist::new(1), Dist::INF);
        assert_eq!(Dist::new(1) + Dist::INF, Dist::INF);
        assert_eq!(Dist::INF + Dist::INF, Dist::INF);
    }

    #[test]
    fn near_overflow_saturates_to_inf() {
        let big = Dist::new(u64::MAX - 1);
        assert_eq!(big + Dist::new(5), Dist::INF);
        assert_eq!(big.saturating_mul(2), Dist::INF);
    }

    #[test]
    fn ordering_places_inf_last() {
        let mut v = vec![Dist::INF, Dist::new(4), Dist::ZERO, Dist::new(100)];
        v.sort();
        assert_eq!(v, vec![Dist::ZERO, Dist::new(4), Dist::new(100), Dist::INF]);
    }

    #[test]
    fn scalar_addition() {
        assert_eq!(Dist::new(7) + 3u64, Dist::new(10));
        assert_eq!(Dist::INF + 3u64, Dist::INF);
    }

    #[test]
    fn sum_of_distances() {
        let total: Dist = [1u64, 2, 3].iter().map(|&w| Dist::new(w)).sum();
        assert_eq!(total, Dist::new(6));
    }

    #[test]
    fn raw_round_trip() {
        for d in [Dist::ZERO, Dist::new(42), Dist::INF] {
            assert_eq!(Dist::from_raw(d.raw()), d);
        }
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn new_rejects_sentinel() {
        let _ = Dist::new(u64::MAX);
    }
}
