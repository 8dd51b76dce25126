//! Trace records and containers.

use afraid_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Read or write, from the host's point of view.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReqKind {
    /// Host read.
    Read,
    /// Host write.
    Write,
}

/// One host I/O request against the array's logical address space.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct IoRecord {
    /// Arrival time (open queueing: arrivals do not depend on service).
    pub time: SimTime,
    /// Byte offset into the array's logical space; sector-aligned.
    pub offset: u64,
    /// Length in bytes; a positive multiple of the sector size.
    pub bytes: u64,
    /// Read or write.
    pub kind: ReqKind,
}

/// An ordered sequence of I/O requests plus identifying metadata.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Trace {
    /// Workload name, e.g. `"cello-news"`.
    pub name: String,
    /// Logical capacity the offsets were generated against (bytes).
    pub capacity: u64,
    /// Requests in non-decreasing time order.
    pub records: Vec<IoRecord>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new(name: impl Into<String>, capacity: u64) -> Self {
        Trace {
            name: name.into(),
            capacity,
            records: Vec::new(),
        }
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the trace has no requests.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Time of the last request (zero for an empty trace).
    pub fn end_time(&self) -> SimTime {
        self.records.last().map_or(SimTime::ZERO, |r| r.time)
    }

    /// Span from first to last request.
    pub fn span(&self) -> SimDuration {
        match (self.records.first(), self.records.last()) {
            (Some(a), Some(b)) => b.time.since(a.time),
            _ => SimDuration::ZERO,
        }
    }

    /// Appends a record, enforcing time order and alignment.
    ///
    /// # Panics
    ///
    /// Panics if the record is out of time order, unaligned, empty, or
    /// extends beyond the capacity.
    pub fn push(&mut self, rec: IoRecord) {
        assert!(
            self.records.last().is_none_or(|l| l.time <= rec.time),
            "records must be time-ordered"
        );
        assert!(
            rec.bytes > 0 && rec.bytes.is_multiple_of(512),
            "unaligned length {}",
            rec.bytes
        );
        assert!(
            rec.offset.is_multiple_of(512),
            "unaligned offset {}",
            rec.offset
        );
        assert!(
            rec.offset + rec.bytes <= self.capacity,
            "record [{}, {}) beyond capacity {}",
            rec.offset,
            rec.offset + rec.bytes,
            self.capacity
        );
        self.records.push(rec);
    }

    /// Fraction of requests that are writes (0 for an empty trace).
    pub fn write_fraction(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let writes = self
            .records
            .iter()
            .filter(|r| r.kind == ReqKind::Write)
            .count();
        writes as f64 / self.records.len() as f64
    }

    /// Total bytes transferred.
    pub fn total_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ms: u64, offset: u64, bytes: u64, kind: ReqKind) -> IoRecord {
        IoRecord {
            time: SimTime::from_millis(ms),
            offset,
            bytes,
            kind,
        }
    }

    #[test]
    fn push_and_query() {
        let mut t = Trace::new("t", 1 << 20);
        t.push(rec(1, 0, 512, ReqKind::Read));
        t.push(rec(2, 512, 1024, ReqKind::Write));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.end_time(), SimTime::from_millis(2));
        assert_eq!(t.span(), SimDuration::from_millis(1));
        assert_eq!(t.write_fraction(), 0.5);
        assert_eq!(t.total_bytes(), 1536);
    }

    #[test]
    fn empty_trace_defaults() {
        let t = Trace::new("e", 1024);
        assert!(t.is_empty());
        assert_eq!(t.end_time(), SimTime::ZERO);
        assert_eq!(t.span(), SimDuration::ZERO);
        assert_eq!(t.write_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn rejects_time_regression() {
        let mut t = Trace::new("t", 1 << 20);
        t.push(rec(2, 0, 512, ReqKind::Read));
        t.push(rec(1, 0, 512, ReqKind::Read));
    }

    #[test]
    fn equal_times_allowed() {
        let mut t = Trace::new("t", 1 << 20);
        t.push(rec(1, 0, 512, ReqKind::Read));
        t.push(rec(1, 512, 512, ReqKind::Read));
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "unaligned length")]
    fn rejects_unaligned_length() {
        let mut t = Trace::new("t", 1 << 20);
        t.push(rec(1, 0, 100, ReqKind::Read));
    }

    #[test]
    #[should_panic(expected = "unaligned offset")]
    fn rejects_unaligned_offset() {
        let mut t = Trace::new("t", 1 << 20);
        t.push(rec(1, 7, 512, ReqKind::Read));
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn rejects_overflow() {
        let mut t = Trace::new("t", 1024);
        t.push(rec(1, 512, 1024, ReqKind::Read));
    }
}
