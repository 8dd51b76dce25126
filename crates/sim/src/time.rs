//! Simulated time and durations.
//!
//! Time is kept in integer nanoseconds since the start of the simulation.
//! Nanosecond resolution comfortably resolves rotational positions (a
//! 5400 RPM disk revolves once every 11.11 ms) while a `u64` still spans
//! more than 580 simulated years — far beyond any trace replay.
//!
//! Conversions from floating point round to the nearest nanosecond,
//! halves away from zero, with an integer routine that returns exactly
//! what `f64::round` would. The build targets baseline x86-64, which
//! has no SSE4.1 rounding instruction, so `f64::round` and
//! `f64::floor` are calls into software routines; these conversions
//! run once or more per simulated event.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// An instant in simulated time, in nanoseconds since simulation start.
///
/// `SimTime` is totally ordered and supports the obvious arithmetic with
/// [`SimDuration`]. All arithmetic is checked in debug builds (overflow
/// panics) — a simulation that overflows 580 years of nanoseconds is a
/// bug, not a use case.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant; useful as an "infinitely far
    /// away" sentinel for timers that are not currently armed.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates an instant from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates an instant from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates an instant from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Creates an instant from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid time: {s}");
        SimTime(round_to_u64(s * 1e9))
    }

    /// Raw nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time since the epoch as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Elapsed duration since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is later than `self`.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(earlier <= self, "time went backwards: {earlier} > {self}");
        SimDuration(self.0 - earlier.0)
    }

    /// Elapsed duration since `earlier`, or zero if `earlier` is later.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Adds a duration, saturating at [`SimTime::MAX`].
    #[inline]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration: {s}");
        SimDuration(round_to_u64(s * 1e9))
    }

    /// Creates a duration from fractional milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is negative or not finite.
    #[inline]
    pub fn from_millis_f64(ms: f64) -> Self {
        Self::from_secs_f64(ms / 1e3)
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration as fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True if this is the zero duration.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked subtraction; `None` on underflow.
    #[inline]
    pub fn checked_sub(self, rhs: SimDuration) -> Option<SimDuration> {
        self.0.checked_sub(rhs.0).map(SimDuration)
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies the duration by a non-negative float, rounding to the
    /// nearest nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `k` is negative or not finite.
    #[inline]
    pub fn mul_f64(self, k: f64) -> SimDuration {
        assert!(k.is_finite() && k >= 0.0, "invalid scale: {k}");
        SimDuration(round_to_u64(self.0 as f64 * k))
    }
}

/// `x.round() as u64` — nearest integer, halves away from zero,
/// saturating at 0 and `u64::MAX`, NaN to 0 — without the software
/// `round` routine.
///
/// Truncation gives `t`; below 2^53 both `t as f64` and the fraction
/// `x - t as f64` are exact, so comparing the fraction with one half
/// is exactly the rounding decision. From 2^53 every float is an
/// integer and the fraction is zero. At or above 2^64 the cast
/// saturates to `u64::MAX` and the increment must saturate with it.
#[inline]
fn round_to_u64(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add(u64::from(x - t as f64 >= 0.5))
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

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
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
        // The human-scale `Display` form rounds to three decimals,
        // which merges values closer than its precision. Debug output
        // feeds `ArrayConfig::cache_encoding()`, so it must be
        // injective: append the raw count.
        write!(f, "SimTime({self} = {}ns)", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_nanos(self.0, f)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Same injectivity requirement as `SimTime`'s Debug: the
        // rounded Display form alone would collide in the cache key.
        write!(f, "SimDuration({self} = {}ns)", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_nanos(self.0, f)
    }
}

/// Formats a nanosecond count with a human-scale unit.
fn fmt_nanos(ns: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if ns == u64::MAX {
        write!(f, "inf")
    } else if ns >= 1_000_000_000 {
        write!(f, "{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        write!(f, "{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        write!(f, "{:.3}us", ns as f64 / 1e3)
    } else {
        write!(f, "{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1_000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1_000));
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1_000));
        assert_eq!(SimTime::from_secs_f64(1.5), SimTime::from_millis(1_500));
        assert_eq!(
            SimDuration::from_millis_f64(0.5),
            SimDuration::from_micros(500)
        );
    }

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::from_millis(10);
        let d = SimDuration::from_millis(3);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
        assert_eq!(t.since(SimTime::ZERO).as_millis_f64(), 10.0);
    }

    #[test]
    fn saturating_ops() {
        let t = SimTime::from_millis(1);
        assert_eq!(
            t.saturating_since(SimTime::from_millis(5)),
            SimDuration::ZERO
        );
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
        assert_eq!(
            SimDuration::from_nanos(5).saturating_sub(SimDuration::from_nanos(9)),
            SimDuration::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    #[cfg(debug_assertions)]
    fn since_panics_on_backwards_time() {
        let _ = SimTime::ZERO.since(SimTime::from_nanos(1));
    }

    #[test]
    fn debug_is_injective_at_one_nanosecond() {
        // Debug feeds ArrayConfig::cache_encoding(): values the rounded
        // Display form merges must still get distinct cache keys.
        let (t, d) = (SimTime::from_millis(1), SimDuration::from_millis(1));
        assert_eq!(
            format!("{t}"),
            format!("{}", t + SimDuration::from_nanos(1))
        );
        assert_ne!(
            format!("{t:?}"),
            format!("{:?}", t + SimDuration::from_nanos(1))
        );
        assert_ne!(
            format!("{d:?}"),
            format!("{:?}", d + SimDuration::from_nanos(1))
        );
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_millis(5));
        assert_eq!(d * 3, SimDuration::from_millis(30));
        assert_eq!(d / 2, SimDuration::from_millis(5));
    }

    #[test]
    fn duration_sum() {
        let parts = [
            SimDuration::from_millis(1),
            SimDuration::from_millis(2),
            SimDuration::from_millis(3),
        ];
        let total: SimDuration = parts.iter().copied().sum();
        assert_eq!(total, SimDuration::from_millis(6));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimDuration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(12)), "12.000s");
        assert_eq!(format!("{}", SimDuration::MAX), "inf");
    }

    #[test]
    fn checked_sub() {
        let a = SimDuration::from_nanos(5);
        let b = SimDuration::from_nanos(3);
        assert_eq!(a.checked_sub(b), Some(SimDuration::from_nanos(2)));
        assert_eq!(b.checked_sub(a), None);
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn negative_duration_rejected() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    /// The integer rounding is `f64::round` followed by the saturating
    /// cast, on every class of input: zero and subnormals, exact
    /// halves and their neighbours up to 2^53, the integers from 2^53
    /// to 2^64, and values past 2^64 that must saturate. Each value is
    /// checked through the helper and through both `from_secs_f64`s.
    #[test]
    fn integer_rounding_equals_f64_round() {
        let reference = |x: f64| x.round() as u64;
        let mut xs = vec![
            0.0,
            -0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE.next_down(),
            f64::MIN_POSITIVE,
            0.5,
            0.5f64.next_down(),
            0.5f64.next_up(),
            1.5,
            2.5,
            f64::INFINITY,
            f64::NAN,
            -0.5,
            -1.5,
        ];
        let mut rng = crate::rng::SplitMix64::new(0x0D0D_2026);
        for bits in 0..53 {
            let lo = 1u64 << bits;
            for n in [lo - 1, lo, lo + 1, lo + rng.next_below(lo)] {
                // n + 0.5 is exact below 2^52; above, the float is the
                // nearest representable value and still a tie or an
                // integer that `round` must leave alone.
                let half = n as f64 + 0.5;
                xs.extend([half, half.next_up(), half.next_down(), n as f64]);
            }
        }
        for bits in 53..64 {
            let lo = 1u64 << bits;
            for n in [lo, lo + rng.next_below(lo), (lo - 1) | lo] {
                let x = n as f64;
                xs.extend([x, x.next_up(), x.next_down()]);
            }
        }
        let two64 = 18_446_744_073_709_551_616.0f64;
        xs.extend([
            (u64::MAX as f64).next_down(),
            two64.next_down(),
            two64,
            two64.next_up(),
            two64 * 2.0,
            f64::MAX,
        ]);
        for &x in &xs {
            assert_eq!(round_to_u64(x), reference(x), "x = {x:e}");
            for s in [x / 1e9, x] {
                if !(s.is_finite() && s >= 0.0) {
                    continue;
                }
                let want = reference(s * 1e9);
                assert_eq!(SimDuration::from_secs_f64(s).as_nanos(), want, "s = {s:e}");
                assert_eq!(SimTime::from_secs_f64(s).as_nanos(), want, "s = {s:e}");
            }
        }
        assert_eq!(round_to_u64(two64.next_up()), u64::MAX);
        assert_eq!(SimTime::from_secs_f64(1e300), SimTime::MAX);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_millis(1) < SimTime::from_millis(2));
        assert!(SimTime::MAX > SimTime::from_secs(1_000_000));
    }
}
