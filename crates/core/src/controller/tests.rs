//! Unit tests of the background-batch engine's event filtering.

use super::*;
use crate::policy::ParityPolicy;

#[test]
fn batch_events_must_match_job_and_id() {
    let mut c = Controller::new(ArrayConfig::small_test(ParityPolicy::IdleOnly));
    c.mark_dirty(0, 0, 8192);
    c.start_scrub();
    let Some(id) = c.scrub.as_ref().map(|b| b.id) else {
        panic!("no scrub batch issued");
    };
    let reads = c.events.len();
    // Another batch id, or the right id under another job's name:
    // neither may count down the scrub batch.
    for (job, batch) in [(Job::Scrub, id + 1), (Job::Tour, id), (Job::Rebuild, id)] {
        c.handle(Ev::BatchIo { job, batch });
    }
    let live = |c: &Controller| c.scrub.as_ref().map(|b| (b.pending, b.write_phase));
    assert_eq!(live(&c), Some((reads as u32, false)));
    assert_eq!(c.events.len(), reads, "a stale event scheduled work");
    // The batch's own completions drive it into its write phase.
    for _ in 0..reads {
        c.handle(Ev::BatchIo {
            job: Job::Scrub,
            batch: id,
        });
    }
    assert_eq!(live(&c), Some((1, true)));
}
