//! The disk service-time state machine.
//!
//! A [`Disk`] is a sequential server: requests are serviced one at a
//! time in submission order (the AFRAID paper runs FCFS at the array
//! back end). Service time is computed mechanistically:
//!
//! ```text
//! service = command overhead
//!         + seek (two-regime curve over cylinder distance)
//!         + rotational latency (exact, from the angular position of
//!           the spindle at the moment the seek completes)
//!         + media transfer (sector times, plus head/cylinder switch
//!           costs for runs crossing track boundaries)
//! ```
//!
//! The spindle's angular position is a pure function of simulated time
//! and the disk's spin phase; giving all disks the same phase yields
//! the spin-synchronised array the paper assumes.
//!
//! The revolution time and the track-to-track seek are derived from
//! the model once, when the [`Disk`] is built, and kept on the disk in
//! integer nanoseconds. Every quotient and rounding is the one the
//! model's own accessors ([`DiskModel::revolution`],
//! [`DiskModel::sector_time`]) would produce.
//!
//! A disk also remembers the physical position just past its last
//! request, when that position lies on the same track: its address,
//! its rotational slot and the track's sector time. A request that
//! starts exactly there — every extent of a tour, rebuild or scrub
//! after the first — skips the zone search and divisions of
//! [`Geometry::locate_in_zone`](crate::geometry::Geometry::locate_in_zone)
//! and the two divisions that derive the slot and the sector time.
//! The memo is a function of the LBA alone, so no event (a failure,
//! a replacement, a fault) can make it stale. The memo is dropped,
//! not advanced, at a track end, so it never carries one zone's
//! sectors per track into the next.

use afraid_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::fault::{Fault, FaultInjector, IoOutcome};
use crate::geometry::Chs;
use crate::model::DiskModel;

/// Read or write.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Transfer from media to host.
    Read,
    /// Transfer from host to media (write-through; no immediate report).
    Write,
}

/// A request addressed to one disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiskRequest {
    /// Starting logical block address (sector number).
    pub lba: u64,
    /// Number of sectors to transfer (must be non-zero).
    pub sectors: u64,
    /// Transfer direction.
    pub op: OpKind,
}

/// Aggregate per-disk statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiskStats {
    /// Completed read commands.
    pub reads: u64,
    /// Completed write commands.
    pub writes: u64,
    /// Total sectors transferred.
    pub sectors: u64,
    /// Total time spent seeking.
    pub seek_time: SimDuration,
    /// Total rotational latency.
    pub rotation_time: SimDuration,
    /// Total media transfer time.
    pub transfer_time: SimDuration,
    /// Total busy time (all service components).
    pub busy_time: SimDuration,
    /// Commands that reported a transient media error.
    pub media_errors: u64,
    /// Commands that exceeded the command timeout.
    pub timeouts: u64,
}

/// Where one LBA lies, with the constants of its track that a service
/// time needs: what [`Disk::position`] computes for `lba`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Position {
    lba: u64,
    chs: Chs,
    /// Sectors per track in the LBA's zone.
    spt: u32,
    /// The sector's rotational slot, skew applied.
    slot: u32,
    /// Media time of one sector on this track.
    sector_time: SimDuration,
}

/// One disk drive.
pub struct Disk {
    model: DiskModel,
    /// `model.revolution()` in nanoseconds, cached at construction.
    rev_ns: u64,
    /// `model.seek.track_to_track()`, cached at construction.
    track_to_track: SimDuration,
    /// Spindle phase offset; equal phases = spin-synchronised.
    phase: SimDuration,
    /// Arm position after the last serviced request.
    cur_cyl: u32,
    /// Where the sector after the last request lies, if on the same
    /// track as that request's last sector.
    next: Option<Position>,
    /// Requests whose start position came from `next`.
    memo_hits: u64,
    /// The disk is busy until this instant.
    free_at: SimTime,
    failed: bool,
    stats: DiskStats,
    /// Transient-fault process, if fault injection is configured.
    faults: Option<FaultInjector>,
}

impl Disk {
    /// Creates a disk with the given model and spin phase.
    pub fn new(model: DiskModel, phase: SimDuration) -> Self {
        Disk {
            rev_ns: model.revolution().as_nanos(),
            track_to_track: model.seek.track_to_track(),
            model,
            phase,
            cur_cyl: 0,
            next: None,
            memo_hits: 0,
            free_at: SimTime::ZERO,
            failed: false,
            stats: DiskStats::default(),
            faults: None,
        }
    }

    /// Installs a transient-fault process. Without one the disk never
    /// faults and [`Disk::submit`] always returns [`IoOutcome::Ok`]
    /// (or [`IoOutcome::Failed`] once [`Disk::fail`] is called).
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.faults = Some(injector);
    }

    /// Mutable access to the installed fault process, if any. The
    /// array layer uses this to draw the *silent* fates of its
    /// commands — the disk itself only models the reported faults.
    pub fn fault_injector_mut(&mut self) -> Option<&mut FaultInjector> {
        self.faults.as_mut()
    }

    /// Switches patient mode: the fault process stops drawing faults
    /// and timeouts are not enforced, so commands always succeed —
    /// merely slowly, if a fail-slow window is active. Used while a
    /// condemned disk's stripes are drained before eviction. No-op
    /// without an injector.
    pub fn set_patient(&mut self, patient: bool) {
        if let Some(inj) = &mut self.faults {
            inj.set_patient(patient);
        }
    }

    /// The disk's parameter set.
    pub fn model(&self) -> &DiskModel {
        &self.model
    }

    /// Capacity in sectors.
    pub fn capacity_sectors(&self) -> u64 {
        self.model.geometry.capacity_sectors()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DiskStats {
        self.stats
    }

    /// Requests whose starting position was answered by the
    /// next-sector memo instead of a geometry lookup. A measure of the
    /// simulator's work, not of the drive: [`Disk::replace`] keeps it.
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits
    }

    /// The instant the disk next becomes idle.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Marks the disk failed; subsequent submissions return
    /// [`IoOutcome::Failed`] without any physical I/O.
    pub fn fail(&mut self) {
        self.failed = true;
    }

    /// Swaps in a spare: the fresh drive starts idle at cylinder 0
    /// with no history — statistics, the busy horizon and any
    /// fail-slow limp all belong to the unit that was pulled. The
    /// next-sector memo stays: the spare has the same geometry.
    pub fn replace(&mut self) {
        self.failed = false;
        self.cur_cyl = 0;
        self.free_at = SimTime::ZERO;
        self.stats = DiskStats::default();
        if let Some(inj) = &mut self.faults {
            inj.on_replace();
        }
    }

    /// True once [`Disk::fail`] has been called.
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Submits a request at `now`. The disk starts it when it becomes
    /// free; the returned [`IoOutcome`] carries the instant the result
    /// is reported to the controller.
    ///
    /// A failed disk returns [`IoOutcome::Failed`] with no physical
    /// I/O. A media error consumes the full service time before it is
    /// reported. A timed-out command occupies the drive until the
    /// command timeout (a hang ends with the drive's internal reset),
    /// or — for a fail-slow overrun — until its inflated service
    /// completes, while the controller hears the timeout at the
    /// deadline.
    ///
    /// # Panics
    ///
    /// Panics if the request is empty or runs past the end of the disk.
    pub fn submit(&mut self, now: SimTime, req: &DiskRequest) -> IoOutcome {
        self.submit_via(now, req, Self::service_time)
    }

    /// [`Disk::submit`] with the mechanical service-time computation
    /// passed in, so tests can drive a reference implementation
    /// through the same fault and accounting path.
    fn submit_via<F>(&mut self, now: SimTime, req: &DiskRequest, service_time: F) -> IoOutcome
    where
        F: FnOnce(&mut Self, SimTime, &DiskRequest) -> SimDuration,
    {
        if self.failed {
            return IoOutcome::Failed;
        }
        assert!(req.sectors > 0, "empty request");
        assert!(
            req.lba + req.sectors <= self.capacity_sectors(),
            "request [{}, {}) beyond capacity {}",
            req.lba,
            req.lba + req.sectors,
            self.capacity_sectors()
        );
        let start = now.max(self.free_at);
        let mut service = service_time(self, start, req);
        if let Some(inj) = &mut self.faults {
            let factor = inj.slow_factor(start);
            if factor > 1.0 {
                service = service.mul_f64(factor);
            }
            match inj.draw() {
                Fault::MediaError => {
                    self.free_at = start + service;
                    self.stats.busy_time += service;
                    self.stats.media_errors += 1;
                    return IoOutcome::MediaError(self.free_at);
                }
                Fault::Timeout => {
                    let hang = inj.command_timeout();
                    self.free_at = start + hang;
                    self.stats.busy_time += hang;
                    self.stats.timeouts += 1;
                    return IoOutcome::Timeout(self.free_at);
                }
                Fault::None => {
                    if !inj.is_patient() && service > inj.command_timeout() {
                        let report = start + inj.command_timeout();
                        self.free_at = start + service;
                        self.stats.busy_time += service;
                        self.stats.timeouts += 1;
                        return IoOutcome::Timeout(report);
                    }
                }
            }
        }
        self.free_at = start + service;
        self.stats.busy_time += service;
        self.stats.sectors += req.sectors;
        match req.op {
            OpKind::Read => self.stats.reads += 1,
            OpKind::Write => self.stats.writes += 1,
        }
        IoOutcome::Ok(self.free_at)
    }

    /// Computes the service time of `req` starting at `start`, updating
    /// the arm position.
    fn service_time(&mut self, start: SimTime, req: &DiskRequest) -> SimDuration {
        let overhead = match req.op {
            OpKind::Read => self.model.read_overhead,
            OpKind::Write => self.model.write_overhead,
        };
        let from = match self.next {
            Some(next) if next.lba == req.lba => {
                self.memo_hits += 1;
                next
            }
            _ => self.position(req.lba),
        };

        // Seek.
        let distance = self.cur_cyl.abs_diff(from.chs.cyl);
        let seek = self.model.seek.time(distance);
        self.stats.seek_time += seek;

        // Rotational latency: wait for the first target sector's
        // physical slot to rotate under the head.
        let at = start + overhead + seek;
        let rot = self.rotation_wait(at, from.slot, from.spt);
        self.stats.rotation_time += rot;

        // Media transfer, walking track boundaries. Track and cylinder
        // skew are assumed to exactly hide switch realignment, so each
        // boundary costs the switch time and transfer then continues.
        // The arm finishes at the last cylinder touched.
        let (transfer, end_cyl, next) = self.transfer_time(from, req.sectors);
        self.stats.transfer_time += transfer;
        self.cur_cyl = end_cyl;
        self.next = next;

        overhead + seek + rot + transfer
    }

    /// Where `lba` lies, found through the zone table.
    fn position(&self, lba: u64) -> Position {
        let (chs, spt) = self.model.geometry.locate_in_zone(lba);
        Position {
            lba,
            chs,
            spt,
            slot: self.physical_slot(chs, spt),
            sector_time: SimDuration::from_nanos(self.rev_ns / u64::from(spt)),
        }
    }

    /// The physical rotational slot of a logical sector, applying track
    /// and cylinder skew.
    fn physical_slot(&self, chs: Chs, spt: u32) -> u32 {
        let skew = u64::from(chs.head) * u64::from(self.model.track_skew)
            + u64::from(chs.cyl) * u64::from(self.model.cylinder_skew);
        ((u64::from(chs.sector) + skew) % u64::from(spt)) as u32
    }

    /// Time until rotational slot `slot` (of `spt` slots) is under the
    /// head, given absolute time `at` and the spin phase.
    fn rotation_wait(&self, at: SimTime, slot: u32, spt: u32) -> SimDuration {
        let rev_ns = self.rev_ns;
        let angle_ns = (at.as_nanos() + self.phase.as_nanos()) % rev_ns;
        // Start of the target slot, in nanoseconds around the track:
        // floor(slot * rev / spt). The product fits in u64 for any
        // real spindle; the u128 path keeps the quotient exact if not.
        let slot_ns = match u64::from(slot).checked_mul(rev_ns) {
            Some(p) => p / u64::from(spt),
            None => (u128::from(slot) * u128::from(rev_ns) / u128::from(spt)) as u64,
        };
        let wait = if slot_ns >= angle_ns {
            slot_ns - angle_ns
        } else {
            rev_ns - (angle_ns - slot_ns)
        };
        SimDuration::from_nanos(wait)
    }

    /// Pure media transfer time for `sectors` starting at `from`,
    /// including head/cylinder switch costs at track boundaries; the
    /// cylinder of the last sector; and the position of the sector
    /// after it, if that lies on the same track.
    fn transfer_time(&self, from: Position, sectors: u64) -> (SimDuration, u32, Option<Position>) {
        let geom = &self.model.geometry;
        let Position {
            mut chs,
            mut spt,
            mut sector_time,
            ..
        } = from;
        let mut left = sectors;
        let mut total = SimDuration::ZERO;
        loop {
            let on_track = u64::from(spt - chs.sector).min(left);
            total += sector_time * on_track;
            left -= on_track;
            if left == 0 {
                // `on_track` is at most `spt - chs.sector`, so it fits.
                chs.sector += on_track as u32;
                break;
            }
            // Cross to the next track; only a cylinder switch can enter
            // a new zone.
            chs.sector = 0;
            if chs.head + 1 < geom.heads() {
                chs.head += 1;
                total += self.model.head_switch;
            } else {
                chs.head = 0;
                chs.cyl += 1;
                total += self.track_to_track;
                spt = geom.sectors_per_track(chs.cyl);
                sector_time = SimDuration::from_nanos(self.rev_ns / u64::from(spt));
            }
        }
        let next = (chs.sector < spt).then(|| {
            let slot = if (chs.cyl, chs.head) == (from.chs.cyl, from.chs.head) {
                // Still on the first track, so fewer than `spt` sectors
                // were read: the slot advances with the sector number
                // and wraps at most once.
                let slot = from.slot + sectors as u32;
                if slot >= spt {
                    slot - spt
                } else {
                    slot
                }
            } else {
                self.physical_slot(chs, spt)
            };
            Position {
                lba: from.lba + sectors,
                chs,
                spt,
                slot,
                sector_time,
            }
        });
        (total, chs.cyl, next)
    }
}

/// The service-time computation as it stood before the per-disk
/// constants were cached: the revolution re-derived from the RPM on
/// every use, two zone lookups, a second `locate` for the end cylinder
/// and a u128 slot division. Kept as the oracle the equivalence test
/// holds the fast path to.
#[cfg(test)]
mod reference {
    use super::*;

    impl Disk {
        pub(super) fn reference_service_time(
            &mut self,
            start: SimTime,
            req: &DiskRequest,
        ) -> SimDuration {
            let overhead = match req.op {
                OpKind::Read => self.model.read_overhead,
                OpKind::Write => self.model.write_overhead,
            };
            let target = self.model.geometry.locate(req.lba);
            let distance = self.cur_cyl.abs_diff(target.cyl);
            let seek = self.model.seek.time(distance);
            self.stats.seek_time += seek;
            let at = start + overhead + seek;
            let spt = self.model.geometry.sectors_per_track(target.cyl);
            let slot = self.physical_slot(target, spt);
            let rot = self.reference_rotation_wait(at, slot, spt);
            self.stats.rotation_time += rot;
            let transfer = self.reference_transfer_time(target, req.sectors);
            self.stats.transfer_time += transfer;
            let end = self.model.geometry.locate(req.lba + req.sectors - 1);
            self.cur_cyl = end.cyl;
            overhead + seek + rot + transfer
        }

        fn reference_rotation_wait(&self, at: SimTime, slot: u32, spt: u32) -> SimDuration {
            let rev_ns = self.model.revolution().as_nanos();
            let angle_ns = (at.as_nanos() + self.phase.as_nanos()) % rev_ns;
            let slot_ns = u128::from(slot) * u128::from(rev_ns) / u128::from(spt);
            let slot_ns = slot_ns as u64;
            let wait = if slot_ns >= angle_ns {
                slot_ns - angle_ns
            } else {
                rev_ns - (angle_ns - slot_ns)
            };
            SimDuration::from_nanos(wait)
        }

        fn reference_transfer_time(&self, mut chs: Chs, mut sectors: u64) -> SimDuration {
            let geom = &self.model.geometry;
            let mut total = SimDuration::ZERO;
            loop {
                let spt = geom.sectors_per_track(chs.cyl);
                let on_track = u64::from(spt - chs.sector).min(sectors);
                total += self.model.sector_time(spt) * on_track;
                sectors -= on_track;
                if sectors == 0 {
                    return total;
                }
                chs.sector = 0;
                if chs.head + 1 < geom.heads() {
                    chs.head += 1;
                    total += self.model.head_switch;
                } else {
                    chs.head = 0;
                    chs.cyl += 1;
                    total += self.model.seek.track_to_track();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_disk() -> Disk {
        Disk::new(DiskModel::test_disk(), SimDuration::ZERO)
    }

    fn read(lba: u64, sectors: u64) -> DiskRequest {
        DiskRequest {
            lba,
            sectors,
            op: OpKind::Read,
        }
    }

    fn write(lba: u64, sectors: u64) -> DiskRequest {
        DiskRequest {
            lba,
            sectors,
            op: OpKind::Write,
        }
    }

    #[test]
    fn first_sector_at_time_zero_is_free_of_seek_and_rotation() {
        // Head starts at cylinder 0; LBA 0's slot is 0; at t=0 the
        // spindle is at angle 0. Only the transfer remains.
        let mut d = test_disk();
        let done = d.submit(SimTime::ZERO, &read(0, 1)).expect_ok();
        assert_eq!(done, SimTime::ZERO + SimDuration::from_micros(100));
        assert_eq!(d.stats().seek_time, SimDuration::ZERO);
        assert_eq!(d.stats().rotation_time, SimDuration::ZERO);
    }

    #[test]
    fn rotational_latency_waits_for_slot() {
        // Sector 50 of track 0 sits half a revolution away: 5 ms wait
        // plus 100 us transfer.
        let mut d = test_disk();
        let done = d.submit(SimTime::ZERO, &read(50, 1)).expect_ok();
        assert_eq!(
            done,
            SimTime::ZERO + SimDuration::from_millis(5) + SimDuration::from_micros(100)
        );
    }

    #[test]
    fn rotation_wraps_around() {
        // At t = 6 ms the spindle is at slot 60; targeting slot 50
        // requires waiting 9 ms (90 slots).
        let mut d = test_disk();
        let t0 = SimTime::from_millis(6);
        let done = d.submit(t0, &read(50, 1)).expect_ok();
        assert_eq!(
            done,
            t0 + SimDuration::from_millis(9) + SimDuration::from_micros(100)
        );
    }

    #[test]
    fn seek_adds_curve_time() {
        let mut d = test_disk();
        // Cylinder 10 = LBA 4000. Seek from 0 to 10 = 2.0 ms (the
        // calibration point), landing at spindle angle 2.0 ms = slot 20;
        // target slot 0 needs an 8 ms wait, then 100 us transfer.
        let done = d.submit(SimTime::ZERO, &read(4000, 1)).expect_ok();
        let expect = SimDuration::from_millis(2)
            + SimDuration::from_millis(8)
            + SimDuration::from_micros(100);
        assert_eq!(done, SimTime::ZERO + expect);
        assert_eq!(d.stats().seek_time, SimDuration::from_millis(2));
    }

    #[test]
    fn sequential_submission_is_fcfs() {
        let mut d = test_disk();
        let first = d.submit(SimTime::ZERO, &read(0, 10)).expect_ok();
        let second = d.submit(SimTime::ZERO, &read(10, 10)).expect_ok();
        assert!(second > first);
        assert_eq!(d.free_at(), second);
    }

    #[test]
    fn back_to_back_sequential_reads_stream() {
        // Reading the next sectors right where the head sits should
        // cost pure transfer time: no seek, no rotation gap.
        let mut d = test_disk();
        let t1 = d.submit(SimTime::ZERO, &read(0, 10)).expect_ok();
        let rot_before = d.stats().rotation_time;
        let t2 = d.submit(t1, &read(10, 10)).expect_ok();
        assert_eq!(t2 - t1, SimDuration::from_micros(1000));
        assert_eq!(d.stats().rotation_time, rot_before);
    }

    #[test]
    fn track_crossing_adds_head_switch() {
        let mut d = test_disk();
        // 150 sectors from LBA 0: 100 on head 0, head switch (500 us),
        // 50 on head 1. Skew is zero on the test disk, so the switch is
        // a pure cost.
        let done = d.submit(SimTime::ZERO, &read(0, 150)).expect_ok();
        let expect = SimDuration::from_micros(100) * 150 + SimDuration::from_micros(500);
        assert_eq!(done, SimTime::ZERO + expect);
    }

    #[test]
    fn cylinder_crossing_adds_track_to_track_seek() {
        let mut d = test_disk();
        // A full cylinder is 400 sectors; read 410 starting at 0:
        // 3 head switches within cylinder 0 plus one cylinder switch.
        let done = d.submit(SimTime::ZERO, &read(0, 410)).expect_ok();
        let expect = SimDuration::from_micros(100) * 410
            + SimDuration::from_micros(500) * 3
            + SimDuration::from_millis(1); // track-to-track = 1 ms calibration
        assert_eq!(done, SimTime::ZERO + expect);
    }

    #[test]
    fn writes_cost_at_least_as_much_as_reads() {
        let m = DiskModel::hp_c3325();
        let mut dr = Disk::new(m.clone(), SimDuration::ZERO);
        let mut dw = Disk::new(m, SimDuration::ZERO);
        let tr = dr.submit(SimTime::ZERO, &read(5000, 16)).expect_ok();
        let tw = dw.submit(SimTime::ZERO, &write(5000, 16)).expect_ok();
        assert!(tw >= tr, "write {tw} < read {tr}");
    }

    #[test]
    fn arm_position_persists_between_requests() {
        let mut d = test_disk();
        let t1 = d.submit(SimTime::ZERO, &read(4000, 1)).expect_ok(); // cylinder 10
        d.submit(t1, &read(4000, 1)).expect_ok(); // same cylinder: no seek
        assert_eq!(d.stats().seek_time, SimDuration::from_millis(2));
    }

    #[test]
    fn spin_phase_shifts_rotation() {
        let mut a = Disk::new(DiskModel::test_disk(), SimDuration::ZERO);
        let mut b = Disk::new(DiskModel::test_disk(), SimDuration::from_millis(5));
        let ta = a.submit(SimTime::ZERO, &read(0, 1)).expect_ok();
        let tb = b.submit(SimTime::ZERO, &read(0, 1)).expect_ok();
        assert_ne!(ta, tb);
    }

    #[test]
    fn spin_synchronised_disks_agree() {
        let mut a = Disk::new(DiskModel::test_disk(), SimDuration::ZERO);
        let mut b = Disk::new(DiskModel::test_disk(), SimDuration::ZERO);
        let ta = a.submit(SimTime::from_millis(3), &read(70, 4)).expect_ok();
        let tb = b.submit(SimTime::from_millis(3), &read(70, 4)).expect_ok();
        assert_eq!(ta, tb);
    }

    #[test]
    fn stats_accumulate() {
        let mut d = test_disk();
        let t1 = d.submit(SimTime::ZERO, &read(0, 4)).expect_ok();
        d.submit(t1, &write(4000, 4)).expect_ok();
        let s = d.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.sectors, 8);
        assert!(s.busy_time > SimDuration::ZERO);
    }

    #[test]
    fn failed_disk_reports_failed_outcome() {
        let mut d = test_disk();
        d.fail();
        assert_eq!(d.submit(SimTime::ZERO, &read(0, 1)), IoOutcome::Failed);
    }

    #[test]
    fn replace_restores_service_with_a_fresh_history() {
        let mut d = test_disk();
        let t = d.submit(SimTime::ZERO, &read(0, 4)).expect_ok();
        assert!(t > SimTime::ZERO);
        d.fail();
        assert!(d.is_failed());
        d.replace();
        assert!(!d.is_failed());
        // The spare carries none of the pulled unit's state.
        assert_eq!(d.stats().reads, 0);
        assert_eq!(d.stats().busy_time, SimDuration::ZERO);
        assert_eq!(d.free_at(), SimTime::ZERO);
        let _ = d.submit(SimTime::ZERO, &read(0, 1)).expect_ok();
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn out_of_range_request_rejected() {
        let mut d = test_disk();
        let cap = d.capacity_sectors();
        let _ = d.submit(SimTime::ZERO, &read(cap - 1, 2)).expect_ok();
    }

    #[test]
    fn c3325_small_read_service_time_plausible() {
        // A random 8 KB read on the C3325 should land in the 10-30 ms
        // band (overhead + avg seek ~10ms + avg rotation ~5.5ms +
        // ~1.5ms transfer).
        let mut d = Disk::new(DiskModel::hp_c3325(), SimDuration::ZERO);
        let mut total = SimDuration::ZERO;
        let mut t = SimTime::ZERO;
        let mut rng = afraid_sim::rng::SplitMix64::new(42);
        let cap = d.capacity_sectors();
        for _ in 0..200 {
            let lba = rng.next_below(cap - 16);
            let begin = t + SimDuration::from_millis(50); // idle gaps
            let done = d.submit(begin, &read(lba, 16)).expect_ok();
            total += done - begin;
            t = done;
        }
        let mean_ms = total.as_millis_f64() / 200.0;
        assert!((10.0..30.0).contains(&mean_ms), "mean service {mean_ms} ms");
    }

    use crate::fault::{FailSlowWindow, FaultProfile};
    use afraid_sim::rng::SplitMix64;

    fn profile(media: f64, timeout: f64) -> FaultProfile {
        FaultProfile {
            media_error_per_io: media,
            timeout_per_io: timeout,
            command_timeout: SimDuration::from_millis(500),
        }
    }

    #[test]
    fn media_error_consumes_full_service() {
        let mut faulty = test_disk();
        faulty.set_fault_injector(FaultInjector::new(profile(1.0, 0.0), SplitMix64::new(1)));
        let mut clean = test_disk();
        let ok = clean.submit(SimTime::ZERO, &read(50, 8)).expect_ok();
        match faulty.submit(SimTime::ZERO, &read(50, 8)) {
            IoOutcome::MediaError(at) => assert_eq!(at, ok),
            other => panic!("expected media error, got {other:?}"),
        }
        assert_eq!(faulty.stats().media_errors, 1);
        assert_eq!(faulty.stats().reads, 0);
        assert_eq!(faulty.free_at(), ok);
    }

    #[test]
    fn timeout_occupies_the_drive_for_the_command_timeout() {
        let mut d = test_disk();
        d.set_fault_injector(FaultInjector::new(profile(0.0, 1.0), SplitMix64::new(1)));
        match d.submit(SimTime::ZERO, &read(50, 8)) {
            IoOutcome::Timeout(at) => {
                assert_eq!(at, SimTime::ZERO + SimDuration::from_millis(500));
            }
            other => panic!("expected timeout, got {other:?}"),
        }
        assert_eq!(d.stats().timeouts, 1);
        assert_eq!(d.free_at(), SimTime::from_millis(500));
    }

    #[test]
    fn fail_slow_inflates_service_and_overruns_the_timeout() {
        // Inside the window every mechanical service is multiplied;
        // once the inflated service exceeds the command timeout the
        // controller hears a timeout at the deadline while the drive
        // keeps grinding until the inflated completion.
        let mut d = test_disk();
        d.set_fault_injector(
            FaultInjector::new(profile(0.0, 0.0), SplitMix64::new(1)).with_fail_slow(
                FailSlowWindow {
                    start: SimTime::ZERO,
                    until: SimTime::from_secs(100),
                    factor: 200.0,
                },
            ),
        );
        let mut clean = test_disk();
        let ok = clean.submit(SimTime::ZERO, &read(50, 8)).expect_ok();
        let service = ok.since(SimTime::ZERO);
        match d.submit(SimTime::ZERO, &read(50, 8)) {
            IoOutcome::Timeout(at) => {
                assert_eq!(at, SimTime::ZERO + SimDuration::from_millis(500));
            }
            other => panic!("expected overrun timeout, got {other:?}"),
        }
        assert_eq!(d.free_at(), SimTime::ZERO + service.mul_f64(200.0));
    }

    #[test]
    fn patient_mode_serves_slow_commands_without_timeouts() {
        let mut d = test_disk();
        d.set_fault_injector(
            FaultInjector::new(profile(1.0, 0.0), SplitMix64::new(1)).with_fail_slow(
                FailSlowWindow {
                    start: SimTime::ZERO,
                    until: SimTime::from_secs(100),
                    factor: 200.0,
                },
            ),
        );
        d.set_patient(true);
        let mut clean = test_disk();
        let ok = clean.submit(SimTime::ZERO, &read(50, 8)).expect_ok();
        let done = d.submit(SimTime::ZERO, &read(50, 8)).expect_ok();
        assert_eq!(done, SimTime::ZERO + ok.since(SimTime::ZERO).mul_f64(200.0));
        assert_eq!(d.stats().media_errors, 0);
        assert_eq!(d.stats().timeouts, 0);
    }

    /// The seed of the equivalence stream: `AFRAID_SEED`, default
    /// `0xD15C_0013`, so CI can rerun it at several seeds.
    #[expect(
        clippy::disallowed_methods,
        reason = "CI reruns this property at several seeds"
    )]
    fn stream_seed() -> u64 {
        std::env::var("AFRAID_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0xD15C_0013)
    }

    /// The cached-constant, memoised service-time path is bit-identical
    /// to the reference computation: outcome, statistics, busy horizon
    /// and arm cylinder after every one of a seeded stream of reads and
    /// writes that cross track, cylinder and zone boundaries, with
    /// transient faults drawn and a fail-slow window covering part of
    /// the stream. A third of the stream continues where the previous
    /// request ended, and those runs are steered to end exactly at a
    /// track end, a cylinder end, a zone edge and the last sector, so
    /// the next continuation starts where the next-sector memo must
    /// not answer. Halfway through, the drive fails and is replaced,
    /// and the first request on the spare continues the last one.
    #[test]
    fn service_time_matches_the_reference_computation() {
        const REQUESTS: usize = 12_000;
        let seed = stream_seed();
        for (model, phase) in [
            (DiskModel::hp_c3325(), SimDuration::from_micros(3_217)),
            (DiskModel::test_disk(), SimDuration::ZERO),
        ] {
            let geom = model.geometry.clone();
            let cap = geom.capacity_sectors();
            let heads = u64::from(geom.heads());
            let per_cyl_max = heads * u64::from(geom.zones()[0].sectors_per_track);
            let zone_edges: Vec<u64> = geom
                .zones()
                .iter()
                .scan(0u64, |lba, z| {
                    *lba += u64::from(z.cylinders) * heads * u64::from(z.sectors_per_track);
                    Some(*lba)
                })
                .filter(|&edge| edge < cap)
                .collect();
            let build = || {
                let mut d = Disk::new(model.clone(), phase);
                d.set_fault_injector(
                    FaultInjector::new(profile(0.01, 0.005), SplitMix64::new(77)).with_fail_slow(
                        FailSlowWindow {
                            start: SimTime::from_secs(20),
                            until: SimTime::from_secs(60),
                            factor: 7.5,
                        },
                    ),
                );
                d
            };
            let (mut fast, mut reference) = (build(), build());
            let mut rng = SplitMix64::new(seed);
            let mut now = SimTime::ZERO;
            let mut last_lba = 0u64;
            // End of the previous request: where a continuation starts.
            let mut end = 0u64;
            let (mut track_x, mut cyl_x, mut zone_x) = (0, 0, 0);
            // Continuations served from the memo, and continuations
            // that landed on each kind of boundary.
            let mut memo_hits = 0usize;
            let [mut at_track, mut at_cyl, mut at_zone, mut at_last] = [0usize; 4];
            let mut after_replace = false;
            for i in 0..REQUESTS {
                if i == REQUESTS / 2 {
                    for d in [&mut fast, &mut reference] {
                        d.fail();
                        d.replace();
                    }
                    after_replace = end < cap;
                }
                let continues = after_replace || (end < cap && rng.next_below(3) == 0);
                let (lba, sectors) = if continues {
                    let (chs, spt) = geom.locate_in_zone(end);
                    let spt = u64::from(spt);
                    let track_end = end - u64::from(chs.sector) + spt;
                    let cyl_end = track_end + (heads - 1 - u64::from(chs.head)) * spt;
                    let zone_end = zone_edges.iter().copied().find(|&e| e > end).unwrap_or(cap);
                    let goal = match rng.next_below(6) {
                        0 => track_end,
                        1 => cyl_end,
                        2 => zone_end,
                        3 => cap,
                        _ => (end + 1 + rng.next_below(2 * spt)).min(cap),
                    };
                    let sectors = goal - end;
                    if (1..=3 * per_cyl_max).contains(&sectors) {
                        (end, sectors)
                    } else {
                        (end, (1 + rng.next_below(64)).min(cap - end))
                    }
                } else {
                    let sectors = match rng.next_below(10) {
                        0..=5 => 1 + rng.next_below(64),
                        6..=8 => 1 + rng.next_below(per_cyl_max),
                        _ => 1 + rng.next_below(3 * per_cyl_max),
                    };
                    let lba = match rng.next_below(8) {
                        // Straddle a zone boundary.
                        0 if !zone_edges.is_empty() => {
                            let edge = zone_edges[rng.next_below(zone_edges.len() as u64) as usize];
                            edge.saturating_sub(rng.next_below(sectors + 1))
                        }
                        // Approach a zone edge or the last sector, so
                        // that continuations can land on it.
                        1 => {
                            let goal = match rng.next_below(1 + zone_edges.len() as u64) {
                                0 => cap,
                                k => zone_edges[k as usize - 1],
                            };
                            goal.saturating_sub(sectors + rng.next_below(2 * per_cyl_max))
                        }
                        // Re-read recent data: a zero-distance seek.
                        2 => last_lba,
                        _ => rng.next_below(cap),
                    }
                    .min(cap - sectors);
                    (lba, sectors)
                };
                last_lba = lba;
                end = lba + sectors;
                let op = if rng.next_below(3) == 0 {
                    OpKind::Write
                } else {
                    OpKind::Read
                };
                let req = DiskRequest { lba, sectors, op };
                let (first, spt) = geom.locate_in_zone(lba);
                let (last, last_spt) = geom.locate_in_zone(end - 1);
                track_x += usize::from(u64::from(first.sector) + sectors > u64::from(spt));
                cyl_x += usize::from(last.cyl != first.cyl);
                zone_x += usize::from(last_spt != spt);
                let hit = fast.next.is_some_and(|next| next.lba == lba);
                memo_hits += usize::from(hit);
                if let Some(next) = fast.next {
                    assert_eq!(next, fast.position(next.lba), "{} request {i}", model.name);
                }
                assert!(
                    hit || !continues || after_replace || first.sector == 0,
                    "{} request {i}: a continuation inside a track missed the memo",
                    model.name
                );
                if after_replace {
                    assert!(hit || first.sector == 0, "memo lost across replace()");
                    after_replace = false;
                }
                if continues && last.sector + 1 == last_spt {
                    if end == cap {
                        at_last += 1;
                    } else if zone_edges.contains(&end) {
                        at_zone += 1;
                    } else if last.head + 1 == geom.heads() {
                        at_cyl += 1;
                    } else {
                        at_track += 1;
                    }
                }

                let got = fast.submit(now, &req);
                let want = reference.submit_via(now, &req, Disk::reference_service_time);
                assert_eq!(got, want, "{} request {i}: {req:?}", model.name);
                assert_eq!(
                    fast.stats(),
                    reference.stats(),
                    "{} request {i}",
                    model.name
                );
                assert_eq!(
                    fast.cur_cyl, reference.cur_cyl,
                    "{} request {i}",
                    model.name
                );
                assert_eq!(
                    fast.free_at(),
                    reference.free_at(),
                    "{} request {i}",
                    model.name
                );
                // Sometimes queue behind the drive, sometimes idle.
                now = match rng.next_below(3) {
                    0 => now,
                    _ => {
                        now.max(fast.free_at()) + SimDuration::from_nanos(rng.next_below(5_000_000))
                    }
                };
            }
            let s = fast.stats();
            assert!(
                track_x > 0 && cyl_x > 0,
                "{}: no track/cylinder crossings",
                model.name
            );
            assert!(
                zone_x > 0 || geom.zones().len() == 1,
                "{}: no zone crossings",
                model.name
            );
            assert!(
                at_track > 0 && at_cyl > 0 && at_last > 0,
                "{}: continuations landed at {at_track} track ends, {at_cyl} cylinder ends, \
                 {at_last} last sectors",
                model.name
            );
            assert!(
                at_zone > 0 || geom.zones().len() == 1,
                "{}: no continuation landed on a zone edge",
                model.name
            );
            assert_eq!(fast.memo_hits(), memo_hits as u64, "{}", model.name);
            assert!(
                memo_hits > REQUESTS / 5,
                "{}: the memo answered only {memo_hits} of {REQUESTS} requests",
                model.name
            );
            assert!(s.media_errors > 0 && s.timeouts > 0, "{s:?}");
            assert!(
                now > SimTime::from_secs(60),
                "stream ends inside the fail-slow window"
            );
        }
    }

    #[test]
    fn inert_injector_leaves_completions_bit_identical() {
        let mut with = test_disk();
        with.set_fault_injector(FaultInjector::new(profile(0.0, 0.0), SplitMix64::new(9)));
        let mut without = test_disk();
        let mut t_with = SimTime::ZERO;
        let mut t_without = SimTime::ZERO;
        for lba in [0u64, 4000, 50, 123, 9000] {
            t_with = with.submit(t_with, &read(lba, 8)).expect_ok();
            t_without = without.submit(t_without, &read(lba, 8)).expect_ok();
            assert_eq!(t_with, t_without);
        }
    }
}
