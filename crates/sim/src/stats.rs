//! Measurement machinery: online moments, time-weighted integrals,
//! latency histograms, and summary helpers.
//!
//! Two measurement styles matter for the AFRAID evaluation:
//!
//! * **Per-event statistics** ([`OnlineStats`], [`Histogram`]) — e.g.
//!   response time per request, giving the mean I/O times of Table 2.
//! * **Time-weighted statistics** ([`TimeWeighted`]) — e.g. the parity
//!   lag, a step function of time whose *time integral* determines both
//!   the mean parity lag of equation (4) and the unprotected-time
//!   fraction `Tunprot/Ttotal` of equation (2a).

use serde::{Deserialize, Serialize};

use crate::time::{SimDuration, SimTime};

/// Streaming count/mean/variance/min/max via Welford's algorithm.
///
/// # Examples
///
/// ```
/// use afraid_sim::stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.record(x);
/// }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.count(), 3);
/// ```
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+inf` if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` if empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Time-weighted accumulator for a step function of simulated time.
///
/// Call [`TimeWeighted::set`] whenever the tracked value changes; the
/// accumulator integrates `value * dt` and separately the time spent
/// with the value strictly positive. Used for parity lag, dirty-stripe
/// counts, and queue lengths.
///
/// # Examples
///
/// ```
/// use afraid_sim::stats::TimeWeighted;
/// use afraid_sim::time::SimTime;
///
/// let mut w = TimeWeighted::new(SimTime::ZERO, 0.0);
/// w.set(SimTime::from_secs(2), 10.0); // value 0 for 2 s
/// w.set(SimTime::from_secs(4), 0.0);  // value 10 for 2 s
/// let (mean, frac) = (
///     w.mean(SimTime::from_secs(4)),
///     w.fraction_positive(SimTime::from_secs(4)),
/// );
/// assert_eq!(mean, 5.0);
/// assert_eq!(frac, 0.5);
/// ```
#[derive(Clone, Debug)]
pub struct TimeWeighted {
    start: SimTime,
    last_change: SimTime,
    value: f64,
    integral: f64,
    positive_time: SimDuration,
    peak: f64,
}

impl TimeWeighted {
    /// Creates an accumulator starting at `start` with `initial` value.
    pub fn new(start: SimTime, initial: f64) -> Self {
        TimeWeighted {
            start,
            last_change: start,
            value: initial,
            integral: 0.0,
            positive_time: SimDuration::ZERO,
            peak: initial,
        }
    }

    /// Updates the tracked value at time `now`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `now` precedes the previous update.
    pub fn set(&mut self, now: SimTime, value: f64) {
        self.advance(now);
        self.value = value;
        self.peak = self.peak.max(value);
    }

    /// Adds `delta` to the tracked value at time `now`.
    pub fn add(&mut self, now: SimTime, delta: f64) {
        let v = self.value;
        self.set(now, v + delta);
    }

    /// The current value of the step function.
    pub fn current(&self) -> f64 {
        self.value
    }

    /// The largest value ever set.
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Time-weighted mean over `[start, now]` (0 over an empty interval).
    pub fn mean(&self, now: SimTime) -> f64 {
        let total = now.since(self.start);
        if total.is_zero() {
            return 0.0;
        }
        let pending = self.value * now.since(self.last_change).as_secs_f64();
        (self.integral + pending) / total.as_secs_f64()
    }

    /// Total time spent with the value strictly positive, up to `now`.
    pub fn positive_time(&self, now: SimTime) -> SimDuration {
        let mut t = self.positive_time;
        if self.value > 0.0 {
            t += now.since(self.last_change);
        }
        t
    }

    /// Fraction of `[start, now]` spent with the value strictly positive.
    pub fn fraction_positive(&self, now: SimTime) -> f64 {
        let total = now.since(self.start);
        if total.is_zero() {
            return 0.0;
        }
        self.positive_time(now).as_secs_f64() / total.as_secs_f64()
    }

    fn advance(&mut self, now: SimTime) {
        let dt = now.since(self.last_change);
        self.integral += self.value * dt.as_secs_f64();
        if self.value > 0.0 {
            self.positive_time += dt;
        }
        self.last_change = now;
    }
}

/// Fixed-layout log-scaled histogram for latency-like values.
///
/// Buckets are logarithmically spaced between `min` and `max` with
/// under/overflow buckets at the ends, so the histogram never rejects a
/// sample. Quantiles are estimated by linear interpolation within the
/// containing bucket.
#[derive(Clone, Debug)]
pub struct Histogram {
    min: f64,
    max: f64,
    /// `ln(max / min)`, fixed at construction.
    span: f64,
    buckets: Vec<u64>,
    total: u64,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `n` log-spaced buckets spanning
    /// `[min, max)`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < min < max` and `n > 0`.
    pub fn new(min: f64, max: f64, n: usize) -> Self {
        assert!(min > 0.0 && min < max && n > 0, "invalid histogram layout");
        Histogram {
            min,
            max,
            span: (max / min).ln(),
            buckets: vec![0; n],
            total: 0,
            underflow: 0,
            overflow: 0,
        }
    }

    /// A default layout suitable for disk latencies in milliseconds:
    /// 10 µs to 100 s.
    pub fn for_latency_ms() -> Self {
        Histogram::new(0.01, 100_000.0, 256)
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        self.total += 1;
        if x < self.min {
            self.underflow += 1;
        } else if x >= self.max {
            self.overflow += 1;
        } else {
            let pos = (x / self.min).ln() / self.span;
            let i = ((pos * self.buckets.len() as f64) as usize).min(self.buckets.len() - 1);
            self.buckets[i] += 1;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Estimates quantile `q` in `[0, 1]`.
    ///
    /// Returns 0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.total == 0 {
            return 0.0;
        }
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = self.underflow;
        if target <= seen {
            return self.min;
        }
        let span = self.span;
        let n = self.buckets.len() as f64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if seen + c >= target {
                // Interpolate within bucket i.
                let frac = (target - seen) as f64 / c as f64;
                let lo = self.min * ((i as f64 / n) * span).exp();
                let hi = self.min * (((i + 1) as f64 / n) * span).exp();
                return lo + (hi - lo) * frac;
            }
            seen += c;
        }
        self.max
    }
}

/// Geometric mean of strictly positive values.
///
/// The paper reports cross-workload speedups as geometric means; this is
/// the exact helper the bench harness uses.
///
/// # Panics
///
/// Panics if `xs` is empty or any value is not strictly positive.
pub fn geometric_mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geometric mean of nothing");
    let log_sum: f64 = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0 && x.is_finite(), "non-positive value: {x}");
            x.ln()
        })
        .sum();
    (log_sum / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basics() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn time_weighted_step_function() {
        let mut w = TimeWeighted::new(SimTime::ZERO, 1.0);
        w.set(SimTime::from_secs(1), 3.0);
        w.set(SimTime::from_secs(3), 0.0);
        // Value 1 for 1 s, 3 for 2 s, 0 for 1 s: integral = 7 over 4 s.
        let now = SimTime::from_secs(4);
        assert!((w.mean(now) - 1.75).abs() < 1e-12);
        assert!((w.fraction_positive(now) - 0.75).abs() < 1e-12);
        assert_eq!(w.peak(), 3.0);
        assert_eq!(w.current(), 0.0);
    }

    #[test]
    fn time_weighted_add() {
        let mut w = TimeWeighted::new(SimTime::ZERO, 0.0);
        w.add(SimTime::from_secs(1), 2.0);
        w.add(SimTime::from_secs(2), -2.0);
        assert_eq!(w.current(), 0.0);
        assert!((w.mean(SimTime::from_secs(2)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_pending_interval_counts() {
        // The interval since the last change must be included in queries.
        let mut w = TimeWeighted::new(SimTime::ZERO, 5.0);
        w.set(SimTime::from_secs(1), 5.0);
        assert!((w.mean(SimTime::from_secs(2)) - 5.0).abs() < 1e-12);
        assert_eq!(
            w.positive_time(SimTime::from_secs(2)),
            SimDuration::from_secs(2)
        );
    }

    #[test]
    fn time_weighted_empty_interval() {
        let w = TimeWeighted::new(SimTime::ZERO, 7.0);
        assert_eq!(w.mean(SimTime::ZERO), 0.0);
        assert_eq!(w.fraction_positive(SimTime::ZERO), 0.0);
    }

    #[test]
    fn histogram_quantiles_roughly_right() {
        let mut h = Histogram::new(1.0, 1000.0, 300);
        for i in 1..=999 {
            h.record(i as f64);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((p50 - 500.0).abs() < 25.0, "p50 {p50}");
        assert!((p99 - 990.0).abs() < 30.0, "p99 {p99}");
        assert_eq!(h.count(), 999);
    }

    #[test]
    fn histogram_overflow_underflow() {
        let mut h = Histogram::new(1.0, 10.0, 4);
        h.record(0.5);
        h.record(100.0);
        h.record(5.0);
        assert_eq!(h.count(), 3);
        // Quantile 0 should clamp near min, 1.0 near max.
        assert!(h.quantile(0.01) <= 1.0 + 1e-9);
        assert!(h.quantile(1.0) >= 5.0);
    }

    #[test]
    fn histogram_empty_quantile_zero() {
        let h = Histogram::for_latency_ms();
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn geometric_mean_known() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[1.0, 10.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-positive")]
    fn geometric_mean_rejects_zero() {
        let _ = geometric_mean(&[1.0, 0.0]);
    }
}
