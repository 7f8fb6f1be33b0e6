//! Recorder sinks for the structured event log.

use crate::event::Event;
use std::io::Write;

/// A sink for [`Event`]s.
///
/// Instrumented code MUST check [`enabled`](Recorder::enabled) before
/// building an event (names are `String`s; the check keeps the disabled
/// path allocation-free), and MUST NOT branch its own behavior on what it
/// records — recording is strictly observational, so a run with a
/// [`NullRecorder`] is bit-identical to an uninstrumented one.
///
/// Recorders are `Send` so that a simulation result, which owns its sink,
/// stays `Send`: a run made on one thread can hand its result to another.
/// Every sink here owns plain data, so the bound costs nothing.
///
/// Sinks receive events as they happen, before the run's deposet exists:
/// a simulator event names its `state` but carries no `clock` yet.
/// [`snapshot`](Recorder::snapshot) returns them so; a simulation result's
/// `events()` reads each named state's clock from the finished deposet
/// ([`timeline::stamp_clocks`](crate::timeline::stamp_clocks)).
pub trait Recorder: Send {
    /// Whether this sink wants events at all. Fixed for the sink's
    /// lifetime: a simulation reads it once, when it is built.
    fn enabled(&self) -> bool {
        true
    }

    /// Accept one event.
    fn record(&mut self, ev: Event);

    /// The events recorded so far, oldest first (empty for streaming or
    /// disabled sinks).
    fn snapshot(&self) -> Vec<Event> {
        Vec::new()
    }

    /// Events dropped by a bounded sink.
    fn dropped(&self) -> u64 {
        0
    }

    /// Flush any buffered output.
    fn flush(&mut self) {}
}

/// The no-op sink: zero events, zero allocation, one branch per call site.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }
    fn record(&mut self, _ev: Event) {}
}

/// Bounded in-memory sink; when full, the oldest events are dropped (and
/// counted), so the tail of a long run is always retained.
///
/// # Drop-oldest contract
///
/// With capacity `cap` and `n > cap` recorded events, the ring holds
/// exactly the **last `cap` events in arrival order** and
/// [`dropped`](Recorder::dropped) returns `n - cap`. Both
/// [`take`](RingRecorder::take) and [`snapshot`](Recorder::snapshot)
/// return the surviving events **oldest first** — i.e. after any number
/// of wraparounds the output is a contiguous, in-order suffix of the
/// recorded stream, never rotated or interleaved.
#[derive(Clone, Debug)]
pub struct RingRecorder {
    buf: std::collections::VecDeque<Event>,
    cap: usize,
    dropped: u64,
}

impl RingRecorder {
    /// A ring holding at most `cap` events (`cap ≥ 1`).
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1);
        RingRecorder {
            buf: std::collections::VecDeque::with_capacity(cap.min(4096)),
            cap,
            dropped: 0,
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been recorded (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Drain the buffer, oldest first (see the type-level drop-oldest
    /// contract: after wraparound this is the in-order tail of the run).
    pub fn take(&mut self) -> Vec<Event> {
        self.buf.drain(..).collect()
    }
}

impl Recorder for RingRecorder {
    fn record(&mut self, ev: Event) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }

    fn snapshot(&self) -> Vec<Event> {
        self.buf.iter().cloned().collect()
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Streams one JSON object per line to a writer (see [`crate::jsonl`]).
///
/// Lines are written as events happen, so a simulator event's line has its
/// `state` but no `clock`: the clock store is the deposet, finished only
/// when the run ends. Stamp the clocks from it
/// ([`timeline::stamp_clocks`](crate::timeline::stamp_clocks)) after
/// reading the log back, or record into a [`RingRecorder`] instead.
pub struct JsonlRecorder<W: Write> {
    out: W,
    written: u64,
    /// First I/O or serialization error, if any (recording is
    /// observational, so errors are latched rather than propagated).
    error: Option<String>,
}

impl<W: Write> JsonlRecorder<W> {
    /// Wrap a writer.
    pub fn new(out: W) -> Self {
        JsonlRecorder {
            out,
            written: 0,
            error: None,
        }
    }

    /// Number of events successfully written.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// The first write error, if one occurred.
    pub fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }

    /// Flush and return the underlying writer.
    pub fn into_inner(mut self) -> W {
        let _ = self.out.flush();
        self.out
    }
}

impl<W: Write + Send> Recorder for JsonlRecorder<W> {
    fn record(&mut self, ev: Event) {
        if self.error.is_some() {
            return;
        }
        match serde_json::to_string(&ev) {
            Ok(line) => match writeln!(self.out, "{line}") {
                Ok(()) => self.written += 1,
                Err(e) => self.error = Some(e.to_string()),
            },
            Err(e) => self.error = Some(e.to_string()),
        }
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn null_recorder_is_disabled_and_empty() {
        let mut r = NullRecorder;
        assert!(!r.enabled());
        r.record(Event::instant(0, 0, "x"));
        assert!(r.snapshot().is_empty());
    }

    #[test]
    fn ring_recorder_drops_oldest() {
        let mut r = RingRecorder::new(2);
        for i in 0..5u64 {
            r.record(Event::instant(i, 0, "e"));
        }
        assert_eq!(r.dropped(), 3);
        let evs = r.snapshot();
        assert_eq!(
            evs.iter().map(|e| e.ts).collect::<Vec<_>>(),
            vec![3, 4],
            "tail retained"
        );
        assert_eq!(r.take().len(), 2);
        assert!(r.is_empty());
    }

    #[test]
    fn ring_recorder_take_is_oldest_first_after_wraparound() {
        // Capacity 4, 11 events: the buffer wraps nearly three times.
        let mut r = RingRecorder::new(4);
        for i in 0..11u64 {
            r.record(Event::instant(i, 0, "e"));
        }
        assert_eq!(r.dropped(), 7, "n - cap events dropped");
        let taken = r.take();
        assert_eq!(
            taken.iter().map(|e| e.ts).collect::<Vec<_>>(),
            vec![7, 8, 9, 10],
            "take() is the in-order tail, oldest first, never rotated"
        );
        assert!(r.is_empty(), "take() drains");

        // Refill after the drain: the contract holds across reuse too.
        for i in 100..103u64 {
            r.record(Event::instant(i, 0, "e"));
        }
        assert_eq!(
            r.take().iter().map(|e| e.ts).collect::<Vec<_>>(),
            vec![100, 101, 102]
        );
    }

    #[test]
    fn jsonl_recorder_streams_parseable_lines() {
        let mut r = JsonlRecorder::new(Vec::new());
        r.record(Event::counter(1, 0, "cs", 1));
        r.record(Event {
            ts: 2,
            lane: 1,
            name: "m".into(),
            kind: EventKind::MsgRecv { id: 9, from: 0 },
            clock: Some(vec![1, 1]),
            state: None,
        });
        assert_eq!(r.written(), 2);
        assert!(r.error().is_none());
        let text = String::from_utf8(r.into_inner()).unwrap();
        let parsed = crate::jsonl::parse(&text).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[1].clock, Some(vec![1, 1]));
    }
}
