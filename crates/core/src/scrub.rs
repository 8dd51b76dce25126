//! Tour-based background scrubbing of latent sector errors.
//!
//! A *tour* is one full pass over every stripe of the array — data and
//! parity units alike — reading each sector so that latent errors
//! (see [`crate::faults::LatentErrors`]) are detected while the array
//! still has the redundancy to repair them. The scrubber:
//!
//! * starts each tour at a **randomized origin** so that repeated
//!   short idle windows do not keep re-scrubbing the same low stripes
//!   while the tail of the array ages unverified;
//! * paces itself with an **IOPS budget** (token bucket, one token per
//!   disk read) so scrubbing cannot starve client work even when the
//!   idle detector is wrong;
//! * guarantees **forward progress**: every planned batch advances the
//!   tour cursor by at least one stripe, and when the bucket is empty
//!   it reports exactly when the next stripe becomes affordable.
//!
//! The scrubber is pure planning state — the controller owns the
//! actual I/O, decides *when* to ask for a batch (idle periods, after
//! parity scrubbing has drained), and reports completions back.

use afraid_sim::rng::SplitMix64;
use afraid_sim::time::{SimDuration, SimTime};

/// What the scrubber wants to do next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TourStep {
    /// Read `stripes` contiguous stripes starting at `first_stripe`
    /// (all disks, full units). The tokens are already spent.
    Batch {
        /// First stripe of the run.
        first_stripe: u64,
        /// Number of contiguous stripes.
        stripes: u64,
    },
    /// The IOPS budget is exhausted; retry at the given time.
    Wait(SimTime),
}

/// Plans scrub tours over an array of `stripes` stripes.
#[derive(Clone, Debug)]
pub struct TourScrubber {
    stripes: u64,
    batch_stripes: u64,
    /// Disk reads needed per stripe (one per disk, parity included).
    cost_per_stripe: f64,
    origin: u64,
    /// Stripes scanned so far in the current tour.
    scanned: u64,
    tours_done: u64,
    started_at: Option<SimTime>,
    bucket: TokenBucket,
    rng: SplitMix64,
}

impl TourScrubber {
    /// Creates a scrubber for an array of `stripes` stripes across
    /// `disks` disks, issuing at most `batch_stripes` stripes per
    /// batch under a budget of `iops_budget` disk reads per second.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or the budget is not positive.
    pub fn new(stripes: u64, disks: u32, batch_stripes: u64, iops_budget: f64, seed: u64) -> Self {
        assert!(stripes > 0, "array has no stripes");
        assert!(disks > 0 && batch_stripes > 0, "empty batch geometry");
        assert!(
            iops_budget.is_finite() && iops_budget > 0.0,
            "IOPS budget must be positive"
        );
        let cost = f64::from(disks);
        let mut rng = SplitMix64::new(seed ^ 0x5c_5b_5a_59);
        let origin = rng.next_below(stripes);
        TourScrubber {
            stripes,
            batch_stripes,
            cost_per_stripe: cost,
            origin,
            scanned: 0,
            tours_done: 0,
            started_at: None,
            // Cap at one batch worth of tokens (but never below one
            // stripe) so a long idle gap cannot bank an unbounded
            // burst of scrub traffic.
            bucket: TokenBucket::new(iops_budget, (cost * batch_stripes as f64).max(cost)),
            rng,
        }
    }

    /// The stripe the tour will scan next.
    pub fn position(&self) -> u64 {
        (self.origin + self.scanned) % self.stripes
    }

    /// Completed full tours so far.
    pub fn tours_done(&self) -> u64 {
        self.tours_done
    }

    /// True if the current tour has scanned at least one stripe but
    /// not yet finished.
    pub fn mid_tour(&self) -> bool {
        self.scanned > 0
    }

    /// Plans the next batch. On [`TourStep::Batch`] the caller **must**
    /// issue the reads and later call [`complete`](Self::complete);
    /// the tokens are spent here.
    pub fn plan(&mut self, now: SimTime) -> TourStep {
        let affordable = self.bucket.affordable(now, self.cost_per_stripe);
        if affordable == 0 {
            return TourStep::Wait(self.bucket.ready_at(self.cost_per_stripe));
        }
        let pos = self.position();
        // A batch never wraps: it stops at the physical end of the
        // array and at the end of the tour, so it is always one
        // contiguous LBA run on every disk.
        let run = self
            .batch_stripes
            .min(self.stripes - self.scanned)
            .min(self.stripes - pos)
            .min(affordable);
        debug_assert!(run >= 1);
        self.bucket.take(run as f64 * self.cost_per_stripe);
        if self.started_at.is_none() {
            self.started_at = Some(now);
        }
        TourStep::Batch {
            first_stripe: pos,
            stripes: run,
        }
    }

    /// Records a completed batch of `stripes` stripes. Returns the
    /// tour duration when this batch finished a full tour; the next
    /// tour then begins at a fresh random origin.
    pub fn complete(&mut self, now: SimTime, stripes: u64) -> Option<SimDuration> {
        self.scanned += stripes;
        assert!(self.scanned <= self.stripes, "tour overran the array");
        if self.scanned < self.stripes {
            return None;
        }
        self.scanned = 0;
        self.tours_done += 1;
        self.origin = self.rng.next_below(self.stripes);
        // A completing tour always has a start mark (set when its
        // first batch was handed out); `?` keeps the path panic-free.
        let started = self.started_at.take()?;
        Some(now.since(started))
    }
}

/// A token bucket: `rate` tokens per second, capped at `cap`.
#[derive(Clone, Debug)]
struct TokenBucket {
    rate_per_sec: f64,
    cap: f64,
    tokens: f64,
    refilled_at: SimTime,
}

impl TokenBucket {
    fn new(rate_per_sec: f64, cap: f64) -> Self {
        TokenBucket {
            rate_per_sec,
            cap,
            // Start full: the first batch after array creation should
            // not have to wait for the bucket to charge.
            tokens: cap,
            refilled_at: SimTime::ZERO,
        }
    }

    fn refill(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.refilled_at).as_secs_f64();
        self.tokens = (self.tokens + dt * self.rate_per_sec).min(self.cap);
        self.refilled_at = now;
    }

    /// Whole units of `cost` affordable right now.
    ///
    /// The cast truncates, which is the floor for every non-negative
    /// quotient; a balance overdrawn by rounding (down to −1e-9) gives
    /// a negative quotient, which both the cast and the floor saturate
    /// to zero. Truncation spares the software `floor` routine of the
    /// baseline x86-64 target.
    fn affordable(&mut self, now: SimTime, cost: f64) -> u64 {
        self.refill(now);
        (self.tokens / cost) as u64
    }

    fn take(&mut self, cost: f64) {
        self.tokens -= cost;
        debug_assert!(self.tokens >= -1e-9, "token bucket overdrawn");
    }

    /// Earliest time one unit of `cost` becomes affordable. Always
    /// strictly after `refilled_at` when currently unaffordable, so a
    /// waiting caller cannot spin at a single instant.
    fn ready_at(&self, cost: f64) -> SimTime {
        let missing = (cost - self.tokens).max(0.0);
        let wait = SimDuration::from_secs_f64(missing / self.rate_per_sec);
        self.refilled_at + wait.max(SimDuration::from_micros(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(secs: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(secs)
    }

    #[test]
    fn tour_visits_every_stripe_exactly_once() {
        let mut t = TourScrubber::new(100, 5, 8, 1e9, 7);
        let mut seen = vec![0u32; 100];
        let mut now = at(0.0);
        loop {
            match t.plan(now) {
                TourStep::Batch {
                    first_stripe,
                    stripes,
                } => {
                    for s in first_stripe..first_stripe + stripes {
                        seen[s as usize] += 1;
                    }
                    now += SimDuration::from_secs_f64(0.01);
                    if t.complete(now, stripes).is_some() {
                        break;
                    }
                }
                TourStep::Wait(_) => unreachable!("budget is effectively unlimited"),
            }
        }
        assert!(seen.iter().all(|&n| n == 1), "coverage: {seen:?}");
        assert_eq!(t.tours_done(), 1);
    }

    #[test]
    fn origin_is_randomized_per_tour_and_seed() {
        let a = TourScrubber::new(1000, 5, 8, 100.0, 1);
        let b = TourScrubber::new(1000, 5, 8, 100.0, 2);
        let a2 = TourScrubber::new(1000, 5, 8, 100.0, 1);
        assert_eq!(a.position(), a2.position(), "same seed, same origin");
        assert_ne!(a.position(), b.position(), "different seeds diverge");

        // Completing a tour re-randomizes the origin.
        let mut t = TourScrubber::new(1000, 5, 8, 1e9, 1);
        let before = t.position();
        let mut now = at(0.0);
        loop {
            match t.plan(now) {
                TourStep::Batch { stripes, .. } => {
                    now += SimDuration::from_secs_f64(0.001);
                    if t.complete(now, stripes).is_some() {
                        break;
                    }
                }
                TourStep::Wait(_) => unreachable!("budget is effectively unlimited"),
            }
        }
        assert_ne!(t.position(), before);
    }

    #[test]
    fn budget_throttles_and_reports_ready_time() {
        // 10 IOPS, 5 disks: one stripe costs 5 tokens = 0.5 s of
        // budget. Cap is one batch (8 stripes * 5 = 40 tokens).
        let mut t = TourScrubber::new(100, 5, 8, 10.0, 3);
        // Bucket starts full: first plan affords a full batch.
        match t.plan(at(0.0)) {
            TourStep::Batch { stripes, .. } => assert_eq!(stripes, 8),
            w => panic!("expected batch, got {w:?}"),
        }
        t.complete(at(0.1), 8);
        // Bucket now holds ~1 token (0.1 s * 10/s): next stripe not
        // affordable; ready time is when 5 tokens have accrued.
        match t.plan(at(0.1)) {
            TourStep::Wait(ready) => {
                assert!(ready > at(0.1), "must not spin");
                assert!(ready <= at(0.5 + 1e-6), "ready too late: {ready:?}");
            }
            b => panic!("expected wait, got {b:?}"),
        }
        // After the wait, at least one stripe is affordable.
        match t.plan(at(0.5)) {
            TourStep::Batch { stripes, .. } => assert!(stripes >= 1),
            w => panic!("expected batch, got {w:?}"),
        }
    }

    #[test]
    fn forward_progress_under_minimal_budget() {
        // Budget so small each batch is a single stripe.
        let mut t = TourScrubber::new(20, 4, 8, 4.0, 9);
        let mut now = at(0.0);
        let mut scanned = 0u64;
        let mut guard = 0;
        while t.tours_done() == 0 {
            guard += 1;
            assert!(guard < 10_000, "no forward progress");
            match t.plan(now) {
                TourStep::Batch { stripes, .. } => {
                    scanned += stripes;
                    t.complete(now, stripes);
                }
                TourStep::Wait(ready) => {
                    assert!(ready > now);
                    now = ready;
                }
            }
        }
        assert_eq!(scanned, 20);
    }

    #[test]
    fn batches_never_wrap_the_array_end() {
        let mut t = TourScrubber::new(50, 5, 8, 1e9, 11);
        let mut now = at(0.0);
        loop {
            match t.plan(now) {
                TourStep::Batch {
                    first_stripe,
                    stripes,
                } => {
                    assert!(first_stripe + stripes <= 50, "batch wrapped");
                    now += SimDuration::from_secs_f64(0.01);
                    if t.complete(now, stripes).is_some() {
                        break;
                    }
                }
                TourStep::Wait(_) => unreachable!(),
            }
        }
    }

    /// The truncating `affordable` answers as `floor` did for every
    /// balance the bucket can hold, from the overdraft tolerance of
    /// `take` up to the cap, including balances a hair either side of
    /// a whole number of units.
    #[test]
    fn affordable_truncation_equals_floor() {
        let mut rng = SplitMix64::new(0xF1_00_12);
        for cost in [1.0, 3.0, 5.0, 0.7, 13.0] {
            let cap = cost * 8.0;
            let mut balances = vec![-1e-9, -1e-12, -0.0, 0.0, f64::from_bits(1), cap];
            for k in 0..=8 {
                let whole = cost * f64::from(k);
                balances.extend([whole, whole.next_up(), whole.next_down()]);
            }
            balances.extend((0..10_000).map(|_| rng.next_f64() * (cap + 1e-9) - 1e-9));
            for tokens in balances.into_iter().filter(|t| (-1e-9..=cap).contains(t)) {
                let mut bucket = TokenBucket::new(1.0, cap);
                bucket.tokens = tokens;
                let want = (tokens / cost).floor() as u64;
                assert_eq!(
                    bucket.affordable(SimTime::ZERO, cost),
                    want,
                    "tokens {tokens:e}, cost {cost}"
                );
            }
        }
    }

    #[test]
    fn tour_duration_is_measured_from_first_batch() {
        // First batch is planned at t=3.0; however many batches the
        // randomized origin splits the tour into, the duration runs
        // from that first plan to the completing call at t=7.5.
        let mut t = TourScrubber::new(10, 2, 10, 1e9, 5);
        let mut planned = match t.plan(at(3.0)) {
            TourStep::Batch { stripes, .. } => stripes,
            w => panic!("expected batch, got {w:?}"),
        };
        loop {
            match t.complete(at(7.5), planned) {
                Some(dur) => {
                    assert!((dur.as_secs_f64() - 4.5).abs() < 1e-9);
                    break;
                }
                None => {
                    planned = match t.plan(at(7.5)) {
                        TourStep::Batch { stripes, .. } => stripes,
                        w => panic!("expected batch, got {w:?}"),
                    };
                }
            }
        }
    }
}
