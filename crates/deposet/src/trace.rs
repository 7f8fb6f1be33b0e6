//! Serializable trace format for deposets.
//!
//! A debugging session records a computation once and replays it many times
//! (possibly in a different process or on a different machine), so the trace
//! format is a stable, human-inspectable JSON document. Vector clocks are
//! *not* stored: they are derived data, recomputed (and thereby
//! re-validated) on load.

use crate::event::{EventKind, Message};
use crate::model::{Deposet, DeposetError};
use crate::state::LocalState;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{Read, Write};

/// On-disk mirror of a [`Deposet`] (states + events + messages, no clocks).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Trace {
    /// Format version for forward compatibility.
    pub version: u32,
    /// Per-process local state sequences.
    #[serde(deserialize_with = "serde::nested_vec")]
    pub states: Vec<Vec<LocalState>>,
    /// Per-process event sequences (`events[p].len() == states[p].len()-1`).
    #[serde(deserialize_with = "serde::nested_vec")]
    pub events: Vec<Vec<EventKind>>,
    /// Delivered messages.
    pub messages: Vec<Message>,
}

/// Current trace format version.
pub const TRACE_VERSION: u32 = 1;

/// Errors loading a trace.
#[derive(Debug)]
pub enum TraceError {
    /// Unsupported `version` field.
    Version(u32),
    /// JSON (de)serialization failed.
    Json(serde_json::Error),
    /// The trace decodes but is not a valid deposet.
    Invalid(DeposetError),
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Version(v) => write!(f, "unsupported trace version {v}"),
            TraceError::Json(e) => write!(f, "trace JSON error: {e}"),
            TraceError::Invalid(e) => write!(f, "trace is not a valid deposet: {e}"),
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<serde_json::Error> for TraceError {
    fn from(e: serde_json::Error) -> Self {
        TraceError::Json(e)
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

impl Trace {
    /// Snapshot a deposet into its trace form.
    pub fn from_deposet(dep: &Deposet) -> Self {
        let (states, events, messages) = dep.parts();
        Trace {
            version: TRACE_VERSION,
            states: states.to_vec(),
            events: events.to_vec(),
            messages: messages.to_vec(),
        }
    }

    /// Rebuild (and re-validate) the deposet.
    pub fn into_deposet(self) -> Result<Deposet, TraceError> {
        if self.version != TRACE_VERSION {
            return Err(TraceError::Version(self.version));
        }
        Deposet::from_parts(self.states, self.events, self.messages).map_err(TraceError::Invalid)
    }
}

/// Serialize a deposet to pretty JSON. The text holds no spare capacity:
/// the writer's buffer grows by doubling, and callers keep the text (a
/// corpus in memory, a file about to be written).
pub fn to_json(dep: &Deposet) -> String {
    let mut json = serde_json::to_string_pretty(&Trace::from_deposet(dep))
        .expect("trace is always serializable");
    json.shrink_to_fit();
    json
}

/// Parse a deposet from trace JSON.
pub fn from_json(json: &str) -> Result<Deposet, TraceError> {
    let t: Trace = serde_json::from_str(json)?;
    t.into_deposet()
}

/// Write a trace to any writer.
pub fn write_trace<W: Write>(dep: &Deposet, mut w: W) -> Result<(), TraceError> {
    let s = to_json(dep);
    w.write_all(s.as_bytes())?;
    Ok(())
}

/// Read a trace from any reader.
pub fn read_trace<R: Read>(mut r: R) -> Result<Deposet, TraceError> {
    let mut s = String::new();
    r.read_to_string(&mut s)?;
    from_json(&s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DeposetBuilder;
    use pctl_causality::{ProcessId, StateId};

    fn sample() -> Deposet {
        let mut b = DeposetBuilder::new(2);
        b.init_vars(0, &[("avail", 1)]);
        b.init_vars(1, &[("avail", 1)]);
        let t = b.send_with(0, "ping", &[("avail", 0)]);
        b.recv(1, t, &[("avail", 0)]);
        b.internal(1, &[("avail", 1)]);
        b.finish().unwrap()
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let d = sample();
        let json = to_json(&d);
        let back = from_json(&json).unwrap();
        assert_eq!(back.process_count(), d.process_count());
        for p in d.processes() {
            assert_eq!(back.states_of(p), d.states_of(p));
            assert_eq!(back.events_of(p), d.events_of(p));
        }
        assert_eq!(back.messages(), d.messages());
        // Clocks are recomputed identically.
        for s in d.state_ids() {
            assert_eq!(back.clock(s), d.clock(s));
        }
    }

    #[test]
    fn rejects_wrong_version() {
        let d = sample();
        let mut t = Trace::from_deposet(&d);
        t.version = 99;
        assert!(matches!(t.into_deposet(), Err(TraceError::Version(99))));
    }

    #[test]
    fn rejects_corrupted_trace() {
        let d = sample();
        let mut t = Trace::from_deposet(&d);
        // Corrupt a message endpoint.
        t.messages[0].to = StateId::new(ProcessId(1), 0);
        assert!(matches!(t.into_deposet(), Err(TraceError::Invalid(_))));
    }

    #[test]
    fn rejects_garbage_json() {
        assert!(matches!(from_json("not json"), Err(TraceError::Json(_))));
    }

    #[test]
    fn reader_writer_roundtrip() {
        let d = sample();
        let mut buf = Vec::new();
        write_trace(&d, &mut buf).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back.total_states(), d.total_states());
    }
}
