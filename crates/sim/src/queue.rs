//! Deterministic event queue with cancellation.
//!
//! The queue is one vector sorted by descending `(time, insertion
//! sequence)`, so the next event is the last element and
//! [`EventQueue::pop`] is `Vec::pop`. Same-instant events are delivered
//! in scheduling order, which is what makes whole-simulation runs
//! reproducible.
//!
//! [`EventQueue::schedule`] finds its slot by scanning from the back:
//! a new event has the largest sequence number yet, so it lands just
//! before its equal-time peers, and the scan compares only the entries
//! due earlier, which the insert shifts anyway. [`EventQueue::cancel`]
//! removes the entry, shifting the entries due before it. The
//! simulator's queue holds a mean of 3 to 11 events at each pop, most
//! of them due soon, so a scan and a shift each touch a handful. A
//! timeline scheduled earliest-first, such as the driver's parity
//! points, shifts every earlier entry on each insert: n²/2 shifts for n
//! events, about 20 k for the longest timeline any caller passes
//! (200 points).

#![deny(clippy::indexing_slicing)]

use std::cmp::Reverse;

use crate::time::SimTime;

/// Opaque handle identifying a scheduled event, used to cancel it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId(u64);

/// A pending event and its insertion sequence number.
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    /// The sort key: the next event to fire has the smallest key and
    /// sits at the back.
    fn key(&self) -> Reverse<(SimTime, u64)> {
        Reverse((self.time, self.seq))
    }
}

/// A deterministic time-ordered event queue.
///
/// # Examples
///
/// ```
/// use afraid_sim::queue::EventQueue;
/// use afraid_sim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// let id = q.schedule(SimTime::from_millis(5), "timer");
/// q.schedule(SimTime::from_millis(1), "io");
/// q.cancel(id);
/// assert_eq!(q.pop(), Some((SimTime::from_millis(1), "io")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// Pending events, sorted by descending `(time, seq)`.
    items: Vec<Entry<E>>,
    next_seq: u64,
    /// Entries displaced so far by `schedule` and `cancel`. Exposed so
    /// tests can assert the cost model rather than wall-clock time.
    shifted: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            items: Vec::new(),
            next_seq: 0,
            shifted: 0,
        }
    }

    /// Schedules `event` to fire at `time` and returns a handle that can
    /// cancel it. Events at equal times fire in scheduling order.
    pub fn schedule(&mut self, time: SimTime, event: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        // The entries due before the new one sit at the back; the scan
        // stops at the first entry due after it.
        let at = self
            .items
            .iter()
            .rposition(|e| (e.time, e.seq) > (time, seq))
            .map_or(0, |p| p + 1);
        self.shifted += (self.items.len() - at) as u64;
        self.items.insert(at, Entry { time, seq, event });
        self.debug_assert_ordered_around(at);
        EventId(seq)
    }

    /// Checks that the entries next to slot `at` are in order (debug
    /// builds only).
    fn debug_assert_ordered_around(&self, at: usize) {
        debug_assert!(
            self.items
                .iter()
                .skip(at.saturating_sub(1))
                .take(3)
                .is_sorted_by_key(Entry::key),
            "event queue order broken around slot {at}"
        );
    }

    /// Cancels a previously scheduled event in `O(queue depth)`.
    ///
    /// Returns `true` if the event had not yet fired or been cancelled.
    /// Cancelling an already-delivered, already-cancelled, or unknown id
    /// is a no-op returning `false`.
    pub fn cancel(&mut self, id: EventId) -> bool {
        // The simulator cancels its timers, which are due soon: search
        // from the back.
        let Some(p) = self.items.iter().rposition(|e| e.seq == id.0) else {
            return false;
        };
        self.shifted += (self.items.len() - 1 - p) as u64;
        self.items.remove(p);
        true
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.items.pop().map(|e| (e.time, e.event))
    }

    /// The time of the earliest event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.items.last().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Entries displaced so far by inserts and cancellations; a measure
    /// of the work ordering has cost this queue.
    pub fn shifted(&self) -> u64 {
        self.shifted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn drain(q: &mut EventQueue<i64>) -> Vec<i64> {
        std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect()
    }

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(3), 3);
        q.schedule(SimTime::from_millis(1), 1);
        q.schedule(SimTime::from_millis(2), 2);
        assert_eq!(drain(&mut q), vec![1, 2, 3]);
    }

    #[test]
    fn same_time_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        assert_eq!(drain(&mut q), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_millis(1), 1);
        q.schedule(SimTime::from_millis(2), 2);
        assert!(q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_millis(2), 2)));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_after_pop_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_millis(1), 1);
        assert!(q.pop().is_some());
        assert!(!q.cancel(a));
        assert!(q.is_empty());
    }

    #[test]
    fn double_cancel_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_millis(1), 1);
        assert!(q.cancel(a));
        assert!(!q.cancel(a));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_unknown_id_is_noop() {
        let mut q: EventQueue<i64> = EventQueue::new();
        assert!(!q.cancel(EventId(42)));
    }

    #[test]
    fn stale_cancels_fail_after_other_cancels() {
        let mut q = EventQueue::new();
        let delivered = q.schedule(SimTime::from_millis(1), 1);
        let a = q.schedule(SimTime::from_millis(2), 2);
        let b = q.schedule(SimTime::from_millis(3), 3);
        q.schedule(SimTime::from_millis(4), 4);
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), 1)));
        assert!(q.cancel(a));
        assert!(q.cancel(b));
        // None of these ids is pending any more.
        assert!(!q.cancel(delivered));
        assert!(!q.cancel(a));
        assert!(!q.cancel(b));
        assert!(!q.cancel(EventId(99)));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_millis(4), 4)));
        // Cancelled events stay cancelled once the queue has moved past
        // their time.
        assert!(!q.cancel(a));
        assert!(!q.cancel(b));
        assert!(q.is_empty());
    }

    #[test]
    fn peek_skips_cancelled_events() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_millis(1), 1);
        q.schedule(SimTime::from_millis(2), 2);
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(2)));
    }

    #[test]
    fn peek_empty() {
        let q: EventQueue<i64> = EventQueue::new();
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn len_tracks_live_entries() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..10)
            .map(|i| q.schedule(SimTime::from_millis(i as u64), i))
            .collect();
        assert_eq!(q.len(), 10);
        q.cancel(ids[4]);
        q.cancel(ids[7]);
        assert_eq!(q.len(), 8);
        assert_eq!(drain(&mut q).len(), 8);
    }

    #[test]
    fn interleaved_schedule_pop() {
        let mut q = EventQueue::new();
        let mut now = SimTime::ZERO;
        let step = SimDuration::from_millis(1);
        q.schedule(now + step, 0);
        let mut delivered = Vec::new();
        while let Some((t, e)) = q.pop() {
            now = t;
            delivered.push(e);
            if e < 5 {
                // Each event schedules its successor, like a timer
                // chain.
                q.schedule(now + step, e + 1);
            }
        }
        assert_eq!(delivered, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(now, SimTime::from_millis(6));
    }

    /// The seed of the random-program property: `AFRAID_SEED`,
    /// default `0xAF1D_0012`, so CI can rerun it at several seeds.
    #[expect(
        clippy::disallowed_methods,
        reason = "CI reruns this property at several seeds"
    )]
    fn program_seed() -> u64 {
        std::env::var("AFRAID_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0xAF1D_0012)
    }

    /// Model check: a random 20k-op program of schedules, bursts of
    /// schedules, cancels, peeks and pops, with clustered times so
    /// same-instant ties are common, behaves exactly like a naive list
    /// that always delivers its `(time, sequence)` minimum.
    #[test]
    fn matches_a_naive_model_on_random_programs() {
        use crate::rng::SplitMix64;

        let mut q = EventQueue::new();
        let mut model: Vec<(u64, u64, i64)> = Vec::new();
        let mut ids: Vec<(EventId, u64)> = Vec::new();
        let mut rng = SplitMix64::new(program_seed());
        let (mut seq, mut now) = (0u64, 0u64);
        for i in 0..20_000i64 {
            let time = |rng: &mut SplitMix64| now + (rng.next_u64() % 8) * 250;
            match rng.next_u64() % 10 {
                0..=3 => {
                    let t = time(&mut rng);
                    ids.push((q.schedule(SimTime::from_nanos(t), i), seq));
                    model.push((t, seq, i));
                    seq += 1;
                }
                4 => {
                    for _ in 0..i % 7 {
                        let t = time(&mut rng);
                        q.schedule(SimTime::from_nanos(t), i);
                        model.push((t, seq, i));
                        seq += 1;
                    }
                }
                5 | 6 if !ids.is_empty() => {
                    let (id, s) = ids.swap_remove(rng.next_u64() as usize % ids.len());
                    let live = model.iter().position(|e| e.1 == s);
                    assert_eq!(q.cancel(id), live.is_some(), "op {i}");
                    if let Some(p) = live {
                        model.swap_remove(p);
                    }
                }
                7 => {
                    let min = model.iter().map(|e| (e.0, e.1)).min();
                    assert_eq!(q.peek_time().map(|t| t.as_nanos()), min.map(|m| m.0));
                }
                _ => {
                    let min = (0..model.len()).min_by_key(|&p| (model[p].0, model[p].1));
                    let want = min.map(|p| model.swap_remove(p));
                    assert_eq!(
                        q.pop(),
                        want.map(|(t, _, v)| (SimTime::from_nanos(t), v)),
                        "op {i}"
                    );
                    if let Some((t, _, _)) = want {
                        now = t;
                    }
                }
            }
            assert_eq!(q.len(), model.len(), "op {i}");
        }
    }

    /// The cost-model regression test. A standing timeline of 65,536
    /// far-future barriers goes in latest-first, so each lands at the
    /// back and none shifts; then 100k near-term operations —
    /// schedules, four-event bursts, cancels and pops, with a dozen or
    /// so near-term events pending — run in front of it. Every
    /// operation may displace only the near-term entries, never the
    /// timeline, so `shifted` stays O(ops × near-term depth). Asserted
    /// via the counter, not wall clock, so the test is robust on slow
    /// CI machines.
    #[test]
    fn cancel_heavy_workload_stays_cheap() {
        use crate::rng::SplitMix64;

        const BARRIERS: u64 = 65_536;
        const OPS: u64 = 100_000;
        const NEAR_DEPTH: u64 = 16;
        let far = 10_000_000u64;
        let mut q = EventQueue::new();
        for i in (1..=BARRIERS).rev() {
            q.schedule(SimTime::from_millis(far + i), -(i as i64));
        }
        assert_eq!(q.shifted(), 0);

        let mut rng = SplitMix64::new(0xAF1D_0018);
        // Pending single schedules, by payload, so every cancel hits a
        // live event the way a re-armed timer does.
        let mut near: Vec<(EventId, i64)> = Vec::new();
        let mut now = 0u64;
        for i in 0..OPS as i64 {
            let soon =
                |rng: &mut SplitMix64| SimTime::from_nanos(now + rng.next_u64() % 30_000_000);
            match rng.next_u64() % 4 {
                0 => near.push((q.schedule(soon(&mut rng), i), i)),
                1 => {
                    for _ in 0..4 {
                        q.schedule(soon(&mut rng), i);
                    }
                }
                2 if !near.is_empty() => {
                    let (id, _) = near.swap_remove(rng.next_u64() as usize % near.len());
                    assert!(q.cancel(id));
                }
                _ => {}
            }
            while q.len() as u64 > BARRIERS + NEAR_DEPTH / 2 {
                let (t, e) = q.pop().unwrap();
                assert!(e >= 0, "a barrier fired before the near-term events");
                near.retain(|&(_, v)| v != e);
                now = t.as_nanos();
            }
        }
        assert!(
            q.shifted() <= OPS * NEAR_DEPTH,
            "near-term work displaced the timeline: {} entries shifted in {} ops",
            q.shifted(),
            OPS
        );
        // Delivery is unaffected: every barrier still pops, in order.
        let barriers: Vec<i64> = drain(&mut q).into_iter().filter(|&e| e < 0).collect();
        assert_eq!(
            barriers,
            (1..=BARRIERS as i64).map(|i| -i).collect::<Vec<_>>()
        );
    }
}
