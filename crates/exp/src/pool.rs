//! Scoped-thread worker pool with deterministic result ordering.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Default worker count: the `AFRAID_JOBS` environment variable if set
/// to a positive integer, otherwise the machine's available
/// parallelism, otherwise 1.
#[expect(
    clippy::disallowed_methods,
    reason = "jobs only sizes the worker pool; results are byte-identical at any count (tests/parallel_determinism.rs)"
)]
pub fn default_jobs() -> usize {
    std::env::var("AFRAID_JOBS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&j| j > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Applies `f` to every item and returns the results **in input
/// order**, computing up to `jobs` items concurrently.
///
/// Work distribution is a shared atomic cursor: each worker claims the
/// next unclaimed index, computes it, and stashes `(index, result)`
/// locally. After all workers join, results are merged by index — so
/// the output is a pure function of `(items, f)`, independent of
/// thread scheduling. `jobs <= 1` (or a single item) short-circuits to
/// a plain sequential loop with no thread machinery at all.
///
/// # Panics
///
/// Propagates panics from `f` (the pool joins all workers first).
#[expect(
    clippy::expect_used,
    reason = "re-raises a worker's panic once all workers joined; the claim cursor hands out every index exactly once"
)]
pub fn map_parallel<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    let mut done: Vec<(usize, R)> = Vec::new();
                    loop {
                        // Relaxed is sound: fetch_add is a single atomic RMW,
                        // so every index is claimed exactly once, and results
                        // are ordered by slot index, not by claim order.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        done.push((i, f(i, &items[i])));
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("experiment worker panicked") {
                debug_assert!(slots[i].is_none(), "index {i} claimed twice");
                slots[i] = Some(r);
            }
        }
    });

    slots
        .into_iter()
        .map(|s| s.expect("every index claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = map_parallel(8, &items, |i, &x| {
            // Uneven work so completion order differs from input order.
            let mut acc = x;
            for _ in 0..(x % 7) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (i as u64, x, acc)
        });
        for (i, &(idx, x, _)) in out.iter().enumerate() {
            assert_eq!(idx, i as u64);
            assert_eq!(x, i as u64);
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let items: Vec<u32> = (0..64).collect();
        let f = |i: usize, &x: &u32| (i as u32) * 1000 + x * x;
        let seq = map_parallel(1, &items, f);
        let par = map_parallel(4, &items, f);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_items() {
        let items: Vec<u32> = Vec::new();
        let out = map_parallel(4, &items, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_jobs_than_items() {
        let items = vec![1u32, 2, 3];
        let out = map_parallel(64, &items, |_, &x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn zero_jobs_is_sequential() {
        let items = vec![5u32, 6];
        assert_eq!(map_parallel(0, &items, |_, &x| x), vec![5, 6]);
    }
}
