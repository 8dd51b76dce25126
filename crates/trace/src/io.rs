//! Trace serialisation: a compact line-oriented text format, one
//! request per line — human-inspectable and diff-friendly, used by the
//! examples:
//!
//! ```text
//! # afraid-trace v1
//! name cello-news
//! capacity 8589934592
//! 1500000 4096 8192 W
//! ```
//!
//! (columns: arrival time in ns, byte offset, length, R/W).

use afraid_sim::time::SimTime;
use std::fmt;
use std::io::{BufRead, Write};

use crate::record::{IoRecord, ReqKind, Trace};

/// Errors arising while reading a serialised trace.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structurally invalid input, with a line number and message.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "I/O error: {e}"),
            TraceIoError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::Parse { .. } => None,
        }
    }
}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

/// Writes a trace in the v1 text format.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_text<W: Write>(trace: &Trace, mut w: W) -> Result<(), TraceIoError> {
    writeln!(w, "# afraid-trace v1")?;
    writeln!(w, "name {}", trace.name)?;
    writeln!(w, "capacity {}", trace.capacity)?;
    for r in &trace.records {
        let k = match r.kind {
            ReqKind::Read => 'R',
            ReqKind::Write => 'W',
        };
        writeln!(w, "{} {} {} {k}", r.time.as_nanos(), r.offset, r.bytes)?;
    }
    Ok(())
}

/// Reads a trace in the v1 text format.
///
/// # Errors
///
/// Returns [`TraceIoError::Parse`] on malformed input and
/// [`TraceIoError::Io`] on read failures.
pub fn read_text<R: BufRead>(r: R) -> Result<Trace, TraceIoError> {
    let mut lines = r.lines().enumerate();
    let mut expect = |want: &str| -> Result<(usize, String), TraceIoError> {
        match lines.next() {
            Some((i, Ok(l))) => Ok((i + 1, l)),
            Some((i, Err(e))) => {
                let _ = i;
                Err(TraceIoError::Io(e))
            }
            None => Err(TraceIoError::Parse {
                line: 0,
                message: format!("missing {want}"),
            }),
        }
    };

    let (line, header) = expect("header")?;
    if header.trim() != "# afraid-trace v1" {
        return Err(TraceIoError::Parse {
            line,
            message: "bad header".into(),
        });
    }
    let (line, name_line) = expect("name")?;
    let name = name_line
        .strip_prefix("name ")
        .ok_or(TraceIoError::Parse {
            line,
            message: "expected `name <s>`".into(),
        })?
        .to_string();
    let (line, cap_line) = expect("capacity")?;
    let capacity: u64 = cap_line
        .strip_prefix("capacity ")
        .and_then(|s| s.trim().parse().ok())
        .ok_or(TraceIoError::Parse {
            line,
            message: "expected `capacity <n>`".into(),
        })?;

    let mut trace = Trace::new(name, capacity);
    for (i, l) in lines {
        let line = i + 1;
        let l = l?;
        if l.trim().is_empty() {
            continue;
        }
        let mut parts = l.split_whitespace();
        let parse_field = |s: Option<&str>, what: &str| -> Result<u64, TraceIoError> {
            s.and_then(|v| v.parse().ok())
                .ok_or_else(|| TraceIoError::Parse {
                    line,
                    message: format!("bad {what}"),
                })
        };
        let t = parse_field(parts.next(), "time")?;
        let offset = parse_field(parts.next(), "offset")?;
        let bytes = parse_field(parts.next(), "length")?;
        let kind = match parts.next() {
            Some("R") => ReqKind::Read,
            Some("W") => ReqKind::Write,
            other => {
                return Err(TraceIoError::Parse {
                    line,
                    message: format!("bad kind {other:?}"),
                })
            }
        };
        if parts.next().is_some() {
            return Err(TraceIoError::Parse {
                line,
                message: "trailing fields".into(),
            });
        }
        // Validate through Trace::push's invariants, but convert the
        // panic conditions into errors for untrusted input.
        if bytes == 0 || bytes % 512 != 0 || offset % 512 != 0 || offset + bytes > capacity {
            return Err(TraceIoError::Parse {
                line,
                message: "invalid record".into(),
            });
        }
        if trace
            .records
            .last()
            .is_some_and(|prev| prev.time.as_nanos() > t)
        {
            return Err(TraceIoError::Parse {
                line,
                message: "time regression".into(),
            });
        }
        trace.push(IoRecord {
            time: SimTime::from_nanos(t),
            offset,
            bytes,
            kind,
        });
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{WorkloadKind, WorkloadSpec};
    use afraid_sim::time::SimDuration;

    fn sample() -> Trace {
        WorkloadSpec::preset(WorkloadKind::Snake).generate(1 << 30, SimDuration::from_secs(10), 1)
    }

    #[test]
    fn text_roundtrip() {
        let t = sample();
        let mut buf = Vec::new();
        write_text(&t, &mut buf).unwrap();
        let back = read_text(buf.as_slice()).unwrap();
        assert_eq!(back.name, t.name);
        assert_eq!(back.capacity, t.capacity);
        assert_eq!(back.records, t.records);
    }

    #[test]
    fn rejects_bad_header() {
        let err = read_text("nonsense\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TraceIoError::Parse { line: 1, .. }), "{err}");
    }

    #[test]
    fn rejects_bad_kind() {
        let input = "# afraid-trace v1\nname x\ncapacity 4096\n0 0 512 Q\n";
        let err = read_text(input.as_bytes()).unwrap_err();
        assert!(matches!(err, TraceIoError::Parse { line: 4, .. }), "{err}");
    }

    #[test]
    fn rejects_unaligned_record() {
        let input = "# afraid-trace v1\nname x\ncapacity 4096\n0 0 100 R\n";
        assert!(read_text(input.as_bytes()).is_err());
    }

    #[test]
    fn rejects_time_regression() {
        let input = "# afraid-trace v1\nname x\ncapacity 4096\n5 0 512 R\n1 0 512 R\n";
        let err = read_text(input.as_bytes()).unwrap_err();
        assert!(matches!(err, TraceIoError::Parse { line: 5, .. }), "{err}");
    }

    #[test]
    fn rejects_record_beyond_capacity() {
        let input = "# afraid-trace v1\nname x\ncapacity 1024\n0 512 1024 R\n";
        assert!(read_text(input.as_bytes()).is_err());
    }

    #[test]
    fn skips_blank_lines() {
        let input = "# afraid-trace v1\nname x\ncapacity 4096\n\n0 0 512 R\n\n";
        let t = read_text(input.as_bytes()).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn error_display_is_informative() {
        let err = TraceIoError::Parse {
            line: 3,
            message: "bad kind".into(),
        };
        assert_eq!(format!("{err}"), "parse error at line 3: bad kind");
    }
}
