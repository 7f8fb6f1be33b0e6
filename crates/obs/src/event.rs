//! The structured event record.

use serde::{Deserialize, Serialize};

/// What an [`Event`] marks on its lane.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// A point-in-time occurrence (fault injection, handoff, watchdog…).
    Instant,
    /// Start of a named span (critical section, blocked wait, engine
    /// phase). Spans of the same name nest per lane.
    SpanBegin,
    /// End of the innermost open span with this name on this lane.
    SpanEnd,
    /// A sampled value (traced variable update, queue depth, latency).
    /// Rendered as a counter track in Chrome trace viewers — predicate
    /// truth intervals come from counters on the predicate variable.
    Counter {
        /// The sampled value.
        value: i64,
    },
    /// A message left this lane. `id` pairs it with the matching
    /// [`EventKind::MsgRecv`]; renders as an arrow in trace viewers.
    MsgSend {
        /// Flow id, unique per simulated message copy.
        id: u64,
        /// Destination lane.
        to: u32,
    },
    /// A message arrived on this lane.
    MsgRecv {
        /// Flow id of the matching send.
        id: u64,
        /// Source lane.
        from: u32,
    },
}

/// One record of the structured event log.
///
/// `ts` is monotonic per lane (simulated ticks for simulator events,
/// microseconds for wall-clock engine phases). A simulator or deposet event
/// names the `state` it annotates on its lane's process, and its `clock` is
/// that state's Fidge–Mattern clock, read from the deposet
/// ([`timeline::stamp_clocks`](crate::timeline::stamp_clocks)): one clock
/// store, so the telemetry orders exactly the events the computation's `→`
/// orders — the property the trace-export tests assert.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Event {
    /// Monotonic timestamp.
    pub ts: u64,
    /// Emitting lane: a process index, or a synthetic lane (e.g. the
    /// offline engine) past the last process.
    pub lane: u32,
    /// Event name (span name, counter name, message tag…).
    pub name: String,
    /// What this record marks.
    pub kind: EventKind,
    /// The clock of the named state, once read from the deposet.
    pub clock: Option<Vec<u32>>,
    /// Index of the state this event annotates on its lane's process: a
    /// receive names the state after it, a send its source state (the one
    /// before it), a variable update the new state, anything else the
    /// current state. `None` for events outside a computation.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub state: Option<u32>,
}

impl Event {
    /// Shorthand for an instant event without a clock.
    pub fn instant(ts: u64, lane: u32, name: &str) -> Self {
        Event {
            ts,
            lane,
            name: name.to_owned(),
            kind: EventKind::Instant,
            clock: None,
            state: None,
        }
    }

    /// Shorthand for a counter sample without a clock.
    pub fn counter(ts: u64, lane: u32, name: &str, value: i64) -> Self {
        Event {
            ts,
            lane,
            name: name.to_owned(),
            kind: EventKind::Counter { value },
            clock: None,
            state: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_serde_roundtrip() {
        let ev = Event {
            ts: 42,
            lane: 3,
            name: "req".into(),
            kind: EventKind::MsgSend { id: 7, to: 1 },
            clock: Some(vec![1, 0, 2]),
            state: Some(4),
        };
        let json = serde_json::to_string(&ev).unwrap();
        let back: Event = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ev);
    }

    #[test]
    fn clockless_event_omits_clock_field() {
        let ev = Event::instant(0, 0, "x");
        let json = serde_json::to_string(&ev).unwrap();
        assert!(!json.contains("clock"), "{json}");
        assert!(!json.contains("state"), "{json}");
        let back: Event = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ev);
    }
}
