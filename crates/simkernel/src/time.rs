//! Virtual time for the simulation.
//!
//! Time is kept in integer nanoseconds. Integer time makes event ordering
//! exact and runs reproducible across platforms; nanosecond resolution is
//! fine enough that a single CPU instruction at the paper's 50 MIPS
//! (20 ns/instruction) is representable without rounding.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in virtual time, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Nanoseconds since the epoch.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch, as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`; that always indicates a
    /// kernel bug (time flows forward).
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "SimTime::since: earlier={} > now={}",
            earlier.0,
            self.0
        );
        SimDuration(self.0 - earlier.0)
    }
}

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Build a duration from (possibly fractional) seconds.
    ///
    /// Rounds to the nearest nanosecond. Negative and non-finite inputs are
    /// rejected with a panic because they always indicate a modeling bug.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> SimDuration {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimDuration::from_secs_f64: invalid seconds {secs}"
        );
        SimDuration(round_to_u64(secs * 1e9))
    }

    /// Build a duration from integer microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> SimDuration {
        SimDuration(us * 1_000)
    }

    /// Build a duration from integer milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000_000)
    }

    /// Build a duration from integer nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> SimDuration {
        SimDuration(ns)
    }

    /// Nanoseconds in this duration.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds in this duration, as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

/// `x.round() as u64`, bit for bit, without a call to `round`.
///
/// The baseline x86-64 target has no rounding instruction (SSE4.1), so
/// `f64::round` is a library call on the simulator's per-event path.
/// For `0 <= x < 2^52` the truncation `t = x as i64` is exact, and so is
/// the fraction `x - t`; adding one when the fraction is at least ½ is
/// round-half-away-from-zero. Every other input, negatives and NaN
/// included, takes `x.round() as u64`.
#[inline]
pub fn round_to_u64(x: f64) -> u64 {
    const TWO_POW_52: f64 = 4_503_599_627_370_496.0;
    if (0.0..TWO_POW_52).contains(&x) {
        let t = x as i64;
        let frac = x - t as f64;
        t as u64 + u64::from(frac >= 0.5)
    } else {
        x.round() as u64
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimDuration::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimDuration::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimDuration::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
        assert!((SimDuration::from_nanos(250).as_secs_f64() - 2.5e-7).abs() < 1e-18);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_millis(5);
        assert_eq!(t.as_nanos(), 5_000_000);
        assert_eq!(t.since(SimTime::ZERO), SimDuration::from_millis(5));
        let t2 = t + SimDuration::from_millis(5);
        assert_eq!(t2.since(t), SimDuration::from_millis(5));
    }

    #[test]
    #[should_panic(expected = "SimTime::since")]
    fn since_rejects_backwards_time() {
        let t = SimTime::ZERO + SimDuration::from_millis(1);
        let _ = SimTime::ZERO.since(t);
    }

    #[test]
    #[should_panic(expected = "invalid seconds")]
    fn from_secs_rejects_negative() {
        let _ = SimDuration::from_secs_f64(-0.1);
    }

    /// `round_to_u64` must equal `x.round() as u64` on every input, bit
    /// for bit: edge values either side of every branch, a million
    /// random non-negative bit patterns (about half of them in the fast
    /// range), and nanosecond-scale values with repeating or exactly-½
    /// fractions.
    #[test]
    fn round_to_u64_matches_round_then_cast() {
        fn check(x: f64) {
            assert_eq!(
                round_to_u64(x),
                x.round() as u64,
                "x = {x:e} ({:#x})",
                x.to_bits()
            );
        }
        let two_52 = 4_503_599_627_370_496.0_f64;
        let edges = [
            0.0,
            -0.0,
            0.5,
            0.49999999999999994,
            1.5,
            2.5,
            two_52 - 0.5,
            two_52 - 1.0,
            two_52,
            two_52 + 1.0,
            9_007_199_254_740_992.0,
            1e19,
            18_446_744_073_709_551_616.0,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -0.5,
            -1.5,
            -two_52,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
        ];
        for x in edges {
            check(x);
            check(next_up(x));
            check(next_down(x));
        }

        // SplitMix64: a fixed, dependency-free stream of bit patterns.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        for _ in 0..1_000_000 {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            check(f64::from_bits(z & !(1 << 63)));
        }

        for k in 0..200_000_u64 {
            check(k as f64 / 7.0);
            check(k as f64 + 0.5);
            check((k << 32) as f64 + 0.5);
        }
    }

    /// The adjacent representable values (`f64::next_up` and
    /// `next_down` are newer than the workspace's `rust-version`).
    fn next_up(x: f64) -> f64 {
        if x.is_nan() || x == f64::INFINITY {
            x
        } else if x == 0.0 {
            f64::from_bits(1)
        } else if x > 0.0 {
            f64::from_bits(x.to_bits() + 1)
        } else {
            f64::from_bits(x.to_bits() - 1)
        }
    }

    fn next_down(x: f64) -> f64 {
        -next_up(-x)
    }

    #[test]
    fn duration_sum_and_scale() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
        assert_eq!(SimDuration::from_millis(2) * 3, SimDuration::from_millis(6));
        assert_eq!(SimDuration::from_millis(6) / 3, SimDuration::from_millis(2));
    }
}
