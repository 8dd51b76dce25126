//! Distribution samplers for workload synthesis.
//!
//! The synthetic trace generators in `afraid-trace` are parameterised by
//! these distributions. The menagerie follows what the storage-workload
//! literature uses to describe UNIX disk traffic (\[Ruemmler93\]):
//! exponential and hyperexponential inter-arrival and idle times (bursty
//! ON/OFF behaviour needs the heavy tail of the hyperexponential),
//! weighted request-size mixes, and Zipf spatial popularity.

use crate::rng::SplitMix64;

/// A sampler producing `f64` values from some distribution.
pub trait Sample {
    /// Draws one value, advancing `rng`.
    fn sample(&self, rng: &mut SplitMix64) -> f64;

    /// The theoretical mean of the distribution, used by generators to
    /// reason about offered load.
    fn mean(&self) -> f64;
}

/// Exponential distribution with the given rate `lambda` (mean `1/lambda`).
#[derive(Clone, Copy, Debug)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates an exponential sampler with rate `lambda`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not strictly positive and finite.
    pub fn new(lambda: f64) -> Self {
        assert!(lambda.is_finite() && lambda > 0.0, "invalid rate: {lambda}");
        Exponential { lambda }
    }

    /// Creates an exponential sampler with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive and finite.
    pub fn with_mean(mean: f64) -> Self {
        assert!(mean.is_finite() && mean > 0.0, "invalid mean: {mean}");
        Exponential { lambda: 1.0 / mean }
    }
}

impl Sample for Exponential {
    fn sample(&self, rng: &mut SplitMix64) -> f64 {
        -rng.next_f64_open().ln() / self.lambda
    }

    fn mean(&self) -> f64 {
        1.0 / self.lambda
    }
}

/// Two-phase hyperexponential: with probability `p` draw from an
/// exponential of mean `mean1`, otherwise mean `mean2`.
///
/// The workhorse for bursty inter-arrival times: a short-mean phase
/// models intra-burst spacing and a long-mean phase models the gaps
/// between bursts.
#[derive(Clone, Copy, Debug)]
pub struct Hyperexponential {
    p: f64,
    fast: Exponential,
    slow: Exponential,
}

impl Hyperexponential {
    /// Creates a hyperexponential sampler.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]` or either mean is invalid.
    pub fn new(p: f64, mean1: f64, mean2: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        Hyperexponential {
            p,
            fast: Exponential::with_mean(mean1),
            slow: Exponential::with_mean(mean2),
        }
    }
}

impl Sample for Hyperexponential {
    fn sample(&self, rng: &mut SplitMix64) -> f64 {
        if rng.chance(self.p) {
            self.fast.sample(rng)
        } else {
            self.slow.sample(rng)
        }
    }

    fn mean(&self) -> f64 {
        self.p * self.fast.mean() + (1.0 - self.p) * self.slow.mean()
    }
}

/// Zipf distribution over ranks `0..n` with exponent `s`.
///
/// Used to model skewed block popularity ("hot spots"). Sampling is by
/// binary search over the precomputed CDF: `O(log n)` per draw.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf sampler over `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `s` is negative.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(s >= 0.0, "negative exponent: {s}");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Draws a rank in `0..n` (rank 0 is the most popular).
    pub fn rank(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

impl Sample for Zipf {
    fn sample(&self, rng: &mut SplitMix64) -> f64 {
        self.rank(rng) as f64
    }

    fn mean(&self) -> f64 {
        // Mean rank; rarely needed, computed from the CDF.
        let mut mean = 0.0;
        let mut prev = 0.0;
        for (k, &c) in self.cdf.iter().enumerate() {
            mean += k as f64 * (c - prev);
            prev = c;
        }
        mean
    }
}

/// Weighted discrete distribution over arbitrary values.
///
/// Used for request-size mixes (e.g. "70 % of requests are 8 KB,
/// 20 % are 16 KB, 10 % are 64 KB").
#[derive(Clone, Debug)]
pub struct Empirical {
    values: Vec<f64>,
    cdf: Vec<f64>,
}

impl Empirical {
    /// Creates a weighted discrete sampler from `(value, weight)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` is empty, any weight is negative, or all
    /// weights are zero.
    pub fn new(pairs: &[(f64, f64)]) -> Self {
        assert!(!pairs.is_empty(), "empty empirical distribution");
        let total: f64 = pairs.iter().map(|&(_, w)| w).sum();
        assert!(
            pairs.iter().all(|&(_, w)| w >= 0.0) && total > 0.0,
            "invalid weights"
        );
        let mut cdf = Vec::with_capacity(pairs.len());
        let mut acc = 0.0;
        for &(_, w) in pairs {
            acc += w / total;
            cdf.push(acc);
        }
        Empirical {
            values: pairs.iter().map(|&(v, _)| v).collect(),
            cdf,
        }
    }
}

impl Sample for Empirical {
    fn sample(&self, rng: &mut SplitMix64) -> f64 {
        let u = rng.next_f64();
        let i = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.values.len() - 1);
        self.values[i]
    }

    fn mean(&self) -> f64 {
        let mut mean = 0.0;
        let mut prev = 0.0;
        for (v, &c) in self.values.iter().zip(&self.cdf) {
            mean += v * (c - prev);
            prev = c;
        }
        mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mean<S: Sample>(dist: &S, n: usize, seed: u64) -> f64 {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| dist.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_mean_converges() {
        let d = Exponential::with_mean(5.0);
        let m = sample_mean(&d, 200_000, 1);
        assert!((m - 5.0).abs() < 0.1, "mean {m}");
        assert!((d.mean() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn exponential_is_positive() {
        let d = Exponential::new(2.0);
        let mut rng = SplitMix64::new(2);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) > 0.0);
        }
    }

    #[test]
    fn hyperexponential_mean() {
        let d = Hyperexponential::new(0.9, 1.0, 100.0);
        let expect = 0.9 * 1.0 + 0.1 * 100.0;
        assert!((d.mean() - expect).abs() < 1e-9);
        let m = sample_mean(&d, 400_000, 9);
        assert!(
            (m - expect).abs() < expect * 0.05,
            "mean {m} expect {expect}"
        );
    }

    #[test]
    fn zipf_rank_zero_most_popular() {
        let d = Zipf::new(100, 1.0);
        let mut rng = SplitMix64::new(10);
        let mut counts = vec![0u32; 100];
        for _ in 0..100_000 {
            counts[d.rank(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[90]);
    }

    #[test]
    fn zipf_uniform_when_s_zero() {
        let d = Zipf::new(10, 0.0);
        let mut rng = SplitMix64::new(11);
        let mut counts = vec![0u32; 10];
        for _ in 0..100_000 {
            counts[d.rank(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "bucket {c}");
        }
    }

    #[test]
    fn empirical_only_emits_given_values() {
        let d = Empirical::new(&[(8.0, 0.7), (16.0, 0.2), (64.0, 0.1)]);
        let mut rng = SplitMix64::new(12);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!(x == 8.0 || x == 16.0 || x == 64.0);
        }
        let expect = 8.0 * 0.7 + 16.0 * 0.2 + 64.0 * 0.1;
        assert!((d.mean() - expect).abs() < 1e-9);
        let m = sample_mean(&d, 200_000, 13);
        assert!((m - expect).abs() < 0.2, "mean {m}");
    }

    #[test]
    #[should_panic(expected = "invalid weights")]
    fn empirical_rejects_zero_weights() {
        let _ = Empirical::new(&[(1.0, 0.0)]);
    }

    #[test]
    #[should_panic(expected = "invalid rate")]
    fn exponential_rejects_zero_rate() {
        let _ = Exponential::new(0.0);
    }
}
