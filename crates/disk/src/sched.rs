//! Request scheduling policies.
//!
//! The AFRAID experiments use CLOOK in the host device driver (sorting
//! by array logical block address) and FCFS in the per-disk back-end
//! queues (\[Worthington94\]). SSTF and SCAN are included for
//! completeness and for the ablation bench.

#![deny(clippy::indexing_slicing)]

use serde::{Deserialize, Serialize};

/// Scheduling discipline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Policy {
    /// First come, first served.
    Fcfs,
    /// Circular LOOK: service in ascending position order, wrapping to
    /// the lowest pending position after the highest.
    Clook,
    /// Shortest seek time first: nearest position next.
    Sstf,
    /// Elevator: sweep up, then down.
    Scan,
}

/// A position-aware request queue.
///
/// Items are tagged with a one-dimensional position (cylinder or
/// logical block address); [`Scheduler::pop`] picks the next item
/// according to the policy and the position of the previous pop.
///
/// # Examples
///
/// ```
/// use afraid_disk::sched::{Policy, Scheduler};
///
/// let mut s = Scheduler::new(Policy::Clook);
/// s.push(50, "c");
/// s.push(10, "a");
/// s.push(30, "b");
/// assert_eq!(s.pop(), Some("a"));
/// assert_eq!(s.pop(), Some("b"));
/// assert_eq!(s.pop(), Some("c"));
/// ```
#[derive(Clone, Debug)]
pub struct Scheduler<T> {
    policy: Policy,
    /// Pending items: `(position, arrival sequence, item)`.
    queue: Vec<(u64, u64, T)>,
    next_seq: u64,
    head_pos: u64,
    /// SCAN sweep direction: true = ascending.
    ascending: bool,
}

impl<T> Scheduler<T> {
    /// Creates an empty queue with the given policy.
    pub fn new(policy: Policy) -> Self {
        Scheduler {
            policy,
            queue: Vec::new(),
            next_seq: 0,
            head_pos: 0,
            ascending: true,
        }
    }

    /// Enqueues an item at the given position.
    pub fn push(&mut self, pos: u64, item: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push((pos, seq, item));
    }

    /// Number of pending items.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Removes and returns the next item per the policy.
    pub fn pop(&mut self) -> Option<T> {
        if self.queue.is_empty() {
            return None;
        }
        // Every pick returns `Some` for a non-empty queue; the `?`
        // keeps the selection typed instead of panicking on the
        // (structurally impossible) miss.
        let idx = match self.policy {
            Policy::Fcfs => self.pick_fcfs(),
            Policy::Clook => self.pick_clook(),
            Policy::Sstf => self.pick_sstf(),
            Policy::Scan => self.pick_scan(),
        }?;
        let (pos, _, item) = self.queue.swap_remove(idx);
        self.head_pos = pos;
        Some(item)
    }

    /// Index of the oldest item (`None` only on an empty queue).
    fn pick_fcfs(&self) -> Option<usize> {
        self.queue
            .iter()
            .enumerate()
            .min_by_key(|(_, &(_, seq, _))| seq)
            .map(|(i, _)| i)
    }

    /// Index of the item with the smallest position `>= head_pos`,
    /// falling back to the globally smallest (the wrap). Ties broken by
    /// arrival order.
    fn pick_clook(&self) -> Option<usize> {
        let ahead = self
            .queue
            .iter()
            .enumerate()
            .filter(|(_, &(pos, _, _))| pos >= self.head_pos)
            .min_by_key(|(_, &(pos, seq, _))| (pos, seq))
            .map(|(i, _)| i);
        ahead.or_else(|| {
            self.queue
                .iter()
                .enumerate()
                .min_by_key(|(_, &(pos, seq, _))| (pos, seq))
                .map(|(i, _)| i)
        })
    }

    /// Index of the item nearest to `head_pos`. Ties broken by arrival
    /// order.
    fn pick_sstf(&self) -> Option<usize> {
        self.queue
            .iter()
            .enumerate()
            .min_by_key(|(_, &(pos, seq, _))| (pos.abs_diff(self.head_pos), seq))
            .map(|(i, _)| i)
    }

    /// SCAN: continue the sweep; reverse when nothing remains ahead.
    /// The direction flip only happens with items still queued (`pop`
    /// checked), so the sweep state never changes on an empty queue.
    fn pick_scan(&mut self) -> Option<usize> {
        let pick_dir = |queue: &[(u64, u64, T)], head: u64, asc: bool| -> Option<usize> {
            queue
                .iter()
                .enumerate()
                .filter(|(_, &(pos, _, _))| if asc { pos >= head } else { pos <= head })
                .min_by_key(|(_, &(pos, seq, _))| (pos.abs_diff(head), seq))
                .map(|(i, _)| i)
        };
        if let Some(i) = pick_dir(&self.queue, self.head_pos, self.ascending) {
            return Some(i);
        }
        self.ascending = !self.ascending;
        pick_dir(&self.queue, self.head_pos, self.ascending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(s: &mut Scheduler<u32>) -> Vec<u32> {
        std::iter::from_fn(|| s.pop()).collect()
    }

    #[test]
    fn fcfs_preserves_arrival_order() {
        let mut s = Scheduler::new(Policy::Fcfs);
        for (pos, id) in [(50, 1), (10, 2), (90, 3), (10, 4)] {
            s.push(pos, id);
        }
        assert_eq!(drain(&mut s), vec![1, 2, 3, 4]);
    }

    #[test]
    fn clook_ascends_then_wraps() {
        let mut s = Scheduler::new(Policy::Clook);
        for (pos, id) in [(50, 1), (10, 2), (90, 3)] {
            s.push(pos, id);
        }
        // Head starts at 0: ascending order 10, 50, 90.
        assert_eq!(drain(&mut s), vec![2, 1, 3]);
    }

    #[test]
    fn clook_wrap_behaviour() {
        let mut s = Scheduler::new(Policy::Clook);
        s.push(50, 1);
        assert_eq!(s.pop(), Some(1)); // head now at 50
        s.push(10, 2);
        s.push(70, 3);
        // 70 is ahead of the head; 10 requires the wrap.
        assert_eq!(s.pop(), Some(3));
        assert_eq!(s.pop(), Some(2));
    }

    #[test]
    fn clook_ties_fifo() {
        let mut s = Scheduler::new(Policy::Clook);
        s.push(10, 1);
        s.push(10, 2);
        assert_eq!(drain(&mut s), vec![1, 2]);
    }

    #[test]
    fn sstf_picks_nearest() {
        let mut s = Scheduler::new(Policy::Sstf);
        s.push(100, 1);
        s.push(5, 2);
        s.push(40, 3);
        // Head at 0: nearest is 5, then 40, then 100.
        assert_eq!(drain(&mut s), vec![2, 3, 1]);
    }

    #[test]
    fn sstf_follows_head() {
        let mut s = Scheduler::new(Policy::Sstf);
        s.push(100, 1);
        assert_eq!(s.pop(), Some(1)); // head at 100
        s.push(5, 2);
        s.push(90, 3);
        assert_eq!(s.pop(), Some(3));
    }

    #[test]
    fn scan_sweeps_and_reverses() {
        let mut s = Scheduler::new(Policy::Scan);
        for (pos, id) in [(50, 1), (10, 2), (90, 3)] {
            s.push(pos, id);
        }
        // Ascending from 0: 10, 50, 90.
        assert_eq!(s.pop(), Some(2));
        assert_eq!(s.pop(), Some(1));
        // Before reaching 90, something below arrives: SCAN must finish
        // the up-sweep first.
        s.push(20, 4);
        assert_eq!(s.pop(), Some(3));
        assert_eq!(s.pop(), Some(4)); // then reverses
    }

    #[test]
    fn empty_pop_is_none() {
        let mut s: Scheduler<u32> = Scheduler::new(Policy::Clook);
        assert_eq!(s.pop(), None);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn len_tracks_queue() {
        let mut s = Scheduler::new(Policy::Fcfs);
        s.push(1, 1);
        s.push(2, 2);
        assert_eq!(s.len(), 2);
        s.pop();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn all_policies_drain_everything() {
        for policy in [Policy::Fcfs, Policy::Clook, Policy::Sstf, Policy::Scan] {
            let mut s = Scheduler::new(policy);
            for i in 0..50u32 {
                s.push(u64::from(i * 37 % 100), i);
            }
            let mut out = drain(&mut s);
            out.sort_unstable();
            assert_eq!(out, (0..50).collect::<Vec<_>>(), "policy {policy:?}");
        }
    }
}
