//! Idle detection (paper §4.1 and \[Golding95\], *Idleness is not
//! sloth*).
//!
//! The baseline AFRAID uses a timer-based detector: once the array has
//! been completely idle — no active client requests and no new
//! arrivals — for 100 ms, background parity rebuilding may start.

use afraid_sim::time::{SimDuration, SimTime};

/// Timer-based idle detector.
///
/// The owner reports request activity; the detector answers "has the
/// array been idle long enough" and "when should I check again".
#[derive(Clone, Debug)]
pub struct IdleDetector {
    delay: SimDuration,
    last_activity: SimTime,
    active: u32,
}

impl IdleDetector {
    /// Creates a detector with the given quiet-time threshold
    /// (100 ms in the paper's experiments).
    pub fn new(delay: SimDuration) -> IdleDetector {
        IdleDetector {
            delay,
            last_activity: SimTime::ZERO,
            active: 0,
        }
    }

    /// The configured quiet-time threshold.
    pub fn delay(&self) -> SimDuration {
        self.delay
    }

    /// A client request arrived (admitted or queued) at `now`.
    pub fn on_arrival(&mut self, now: SimTime) {
        self.active += 1;
        self.last_activity = self.last_activity.max(now);
    }

    /// A client request completed at `now`.
    ///
    /// Saturates rather than panicking if no request is accounted
    /// active: fault paths (a disk failing with requests in flight,
    /// degraded-mode retries) can legitimately complete a request the
    /// detector never saw start, and a miscount must not take down the
    /// whole simulation.
    pub fn on_completion(&mut self, now: SimTime) {
        self.active = self.active.saturating_sub(1);
        self.last_activity = self.last_activity.max(now);
    }

    /// Number of in-flight client requests.
    pub fn active(&self) -> u32 {
        self.active
    }

    /// True if the array has been completely idle for the threshold.
    pub fn is_idle(&self, now: SimTime) -> bool {
        self.active == 0 && now.saturating_since(self.last_activity) >= self.delay
    }

    /// When the array *would* become idle if nothing else happens, or
    /// `None` while requests are in flight. The controller schedules
    /// its idle-check event at this instant.
    pub fn eligible_at(&self) -> Option<SimTime> {
        if self.active == 0 {
            Some(self.last_activity + self.delay)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D: SimDuration = SimDuration::from_millis(100);

    #[test]
    fn starts_idle_eligible_after_delay() {
        let d = IdleDetector::new(D);
        assert!(!d.is_idle(SimTime::ZERO));
        assert!(d.is_idle(SimTime::from_millis(100)));
        assert_eq!(d.eligible_at(), Some(SimTime::from_millis(100)));
    }

    #[test]
    fn active_requests_block_idleness() {
        let mut d = IdleDetector::new(D);
        d.on_arrival(SimTime::from_millis(10));
        assert!(!d.is_idle(SimTime::from_secs(10)));
        assert_eq!(d.eligible_at(), None);
        d.on_completion(SimTime::from_millis(50));
        assert!(!d.is_idle(SimTime::from_millis(149)));
        assert!(d.is_idle(SimTime::from_millis(150)));
        assert_eq!(d.eligible_at(), Some(SimTime::from_millis(150)));
    }

    #[test]
    fn arrival_resets_the_clock() {
        let mut d = IdleDetector::new(D);
        d.on_arrival(SimTime::from_millis(10));
        d.on_completion(SimTime::from_millis(20));
        d.on_arrival(SimTime::from_millis(90));
        d.on_completion(SimTime::from_millis(95));
        assert!(!d.is_idle(SimTime::from_millis(120)));
        assert!(d.is_idle(SimTime::from_millis(195)));
    }

    #[test]
    fn overlapping_requests_counted() {
        let mut d = IdleDetector::new(D);
        d.on_arrival(SimTime::from_millis(1));
        d.on_arrival(SimTime::from_millis(2));
        d.on_completion(SimTime::from_millis(3));
        assert_eq!(d.active(), 1);
        assert!(!d.is_idle(SimTime::from_secs(1)));
        d.on_completion(SimTime::from_millis(4));
        assert!(d.is_idle(SimTime::from_millis(104)));
    }

    #[test]
    fn completion_underflow_saturates() {
        let mut d = IdleDetector::new(D);
        // A completion the detector never saw start must not panic or
        // wedge the detector; it still counts as activity.
        d.on_completion(SimTime::from_millis(1));
        assert_eq!(d.active(), 0);
        assert!(!d.is_idle(SimTime::from_millis(50)));
        assert!(d.is_idle(SimTime::from_millis(101)));
        // Subsequent accounting is unharmed.
        d.on_arrival(SimTime::from_millis(200));
        assert_eq!(d.active(), 1);
        d.on_completion(SimTime::from_millis(210));
        assert_eq!(d.active(), 0);
        assert!(d.is_idle(SimTime::from_millis(310)));
    }
}
