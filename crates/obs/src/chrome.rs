//! Chrome `trace_event` JSON export.
//!
//! [`chrome_trace`] renders an event log as the JSON object format of the
//! Chrome trace-event profiling spec: load the output in `chrome://tracing`
//! or [Perfetto](https://ui.perfetto.dev). Each lane becomes a named thread
//! track; spans become `B`/`E` duration slices, instants become `i` marks,
//! counters become `C` tracks (one per lane — this is how predicate truth
//! intervals render as step functions), and send/recv pairs become `s`/`f`
//! flow arrows (application messages and `C→` control arrows alike).
//!
//! [`validate_chrome_trace`] checks the structural schema the export
//! promises; the trace-export tests run every recorded run through it.

use crate::event::{Event, EventKind};
use serde_json::Value;

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

fn s(v: &str) -> Value {
    Value::String(v.to_owned())
}

fn meta(name: &str, pid: u64, tid: u64, arg: &str) -> Value {
    obj(vec![
        ("name", s(name)),
        ("ph", s("M")),
        ("pid", Value::UInt(pid)),
        ("tid", Value::UInt(tid)),
        ("args", obj(vec![("name", s(arg))])),
    ])
}

/// Render an event log as Chrome trace JSON.
///
/// `lane_names[i]` labels lane `i`; lanes past the end of the slice get a
/// generic `p{i}` label. Timestamps are emitted as microseconds verbatim
/// (simulated ticks are treated as 1 µs each).
pub fn chrome_trace(events: &[Event], lane_names: &[String]) -> String {
    let mut out: Vec<Value> = Vec::with_capacity(events.len() + lane_names.len() + 2);
    out.push(meta("process_name", 0, 0, "pctl"));
    let max_lane = events.iter().map(|e| e.lane).max().unwrap_or(0) as usize;
    let lanes = lane_names.len().max(max_lane + 1);
    for lane in 0..lanes {
        let name = lane_names
            .get(lane)
            .cloned()
            .unwrap_or_else(|| format!("p{lane}"));
        out.push(meta("thread_name", 0, lane as u64, &name));
    }
    for ev in events {
        let lane = ev.lane as u64;
        let base = |ph: &str| {
            vec![
                ("name", s(&ev.name)),
                ("ph", s(ph)),
                ("ts", Value::UInt(ev.ts)),
                ("pid", Value::UInt(0)),
                ("tid", Value::UInt(lane)),
            ]
        };
        let clock_args = |mut entries: Vec<(&'static str, Value)>| {
            if let Some(clock) = &ev.clock {
                entries.push((
                    "clock",
                    Value::Array(clock.iter().map(|&c| Value::UInt(c as u64)).collect()),
                ));
            }
            entries
        };
        match &ev.kind {
            EventKind::Instant => {
                let mut e = base("i");
                e.push(("s", s("t")));
                e.push(("args", obj(clock_args(vec![]))));
                out.push(obj(e));
            }
            EventKind::SpanBegin => {
                let mut e = base("B");
                e.push(("args", obj(clock_args(vec![]))));
                out.push(obj(e));
            }
            EventKind::SpanEnd => {
                out.push(obj(base("E")));
            }
            EventKind::Counter { value } => {
                // One counter track per lane: counters merge by (pid, name)
                // in trace viewers, so the lane goes into the name.
                let mut e = base("C");
                e[0].1 = s(&format!("{}·{lane}", ev.name));
                e.push(("args", obj(vec![(ev.name.as_str(), Value::Int(*value))])));
                out.push(obj(e));
            }
            EventKind::MsgSend { id, to } => {
                let mut flow = base("s");
                flow.push(("cat", s("flow")));
                flow.push(("id", Value::UInt(*id)));
                out.push(obj(flow));
                let mut mark = base("i");
                mark.push(("s", s("t")));
                mark.push((
                    "args",
                    obj(clock_args(vec![("to", Value::UInt(*to as u64))])),
                ));
                out.push(obj(mark));
            }
            EventKind::MsgRecv { id, from } => {
                let mut flow = base("f");
                flow.push(("cat", s("flow")));
                flow.push(("id", Value::UInt(*id)));
                flow.push(("bp", s("e")));
                out.push(obj(flow));
                let mut mark = base("i");
                mark.push(("s", s("t")));
                mark.push((
                    "args",
                    obj(clock_args(vec![("from", Value::UInt(*from as u64))])),
                ));
                out.push(obj(mark));
            }
        }
    }
    let trace = obj(vec![
        ("traceEvents", Value::Array(out)),
        ("displayTimeUnit", s("ms")),
    ]);
    serde_json::to_string(&trace).expect("trace serializes")
}

/// Drop `MsgRecv` events whose matching `MsgSend` (same flow id) is not
/// present in `events`.
///
/// Bounded rings drop their oldest entries, so the retained tail of a long
/// run can hold a receive whose send was already evicted; a Chrome flow
/// finish without a start fails [`validate_chrome_trace`], so ring
/// snapshots must be pruned before export.
pub fn prune_orphan_flows(events: &mut Vec<Event>) {
    let sends: std::collections::BTreeSet<u64> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::MsgSend { id, .. } => Some(id),
            _ => None,
        })
        .collect();
    events.retain(|e| match e.kind {
        EventKind::MsgRecv { id, .. } => sends.contains(&id),
        _ => true,
    });
}

fn get<'a>(fields: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn is_number(v: &Value) -> bool {
    matches!(v, Value::Int(_) | Value::UInt(_) | Value::Float(_))
}

/// Validate the structural schema of [`chrome_trace`] output.
///
/// Checks: top-level object with a `traceEvents` array; every entry is an
/// object with a one-letter known `ph`, a string `name`, and integer
/// `pid`/`tid`; non-metadata entries carry a numeric `ts`; `B`/`E` slices
/// nest properly per lane; counters carry a numeric sample; flow events
/// carry an `id` and every flow finish has a matching start somewhere in
/// the trace (starts need not precede finishes in array order: logical
/// per-lane timestamps are not a global clock).
pub fn validate_chrome_trace(json: &str) -> Result<(), String> {
    let root: Value = serde_json::from_str(json).map_err(|e| format!("not JSON: {e:?}"))?;
    let root = root.as_object().ok_or("top level is not an object")?;
    let events = get(root, "traceEvents")
        .and_then(Value::as_array)
        .ok_or("missing traceEvents array")?;
    let mut span_stack: std::collections::BTreeMap<u64, Vec<String>> = Default::default();
    let flow_starts: std::collections::BTreeSet<u64> = events
        .iter()
        .filter_map(Value::as_object)
        .filter(|ev| get(ev, "ph").and_then(Value::as_str) == Some("s"))
        .filter_map(|ev| match get(ev, "id") {
            Some(Value::UInt(id)) => Some(*id),
            _ => None,
        })
        .collect();
    for (i, ev) in events.iter().enumerate() {
        let at = |msg: &str| format!("traceEvents[{i}]: {msg}");
        let ev = ev.as_object().ok_or_else(|| at("not an object"))?;
        let ph = get(ev, "ph")
            .and_then(Value::as_str)
            .ok_or_else(|| at("missing ph"))?;
        if !matches!(ph, "M" | "B" | "E" | "i" | "C" | "s" | "f" | "X") {
            return Err(at(&format!("unknown ph {ph:?}")));
        }
        let name = get(ev, "name")
            .and_then(Value::as_str)
            .ok_or_else(|| at("missing name"))?;
        let tid = match get(ev, "tid") {
            Some(Value::UInt(t)) => *t,
            Some(Value::Int(t)) if *t >= 0 => *t as u64,
            _ => return Err(at("missing integer tid")),
        };
        if !get(ev, "pid").is_some_and(is_number) {
            return Err(at("missing integer pid"));
        }
        if ph == "M" {
            continue;
        }
        if !get(ev, "ts").is_some_and(is_number) {
            return Err(at("missing numeric ts"));
        }
        match ph {
            "B" => span_stack.entry(tid).or_default().push(name.to_owned()),
            "E" => {
                let top = span_stack.entry(tid).or_default().pop();
                if top.as_deref() != Some(name) {
                    return Err(at(&format!(
                        "span end {name:?} does not match open span {top:?} on tid {tid}"
                    )));
                }
            }
            "C" => {
                let args = get(ev, "args")
                    .and_then(Value::as_object)
                    .ok_or_else(|| at("counter without args"))?;
                if !args.iter().any(|(_, v)| is_number(v)) {
                    return Err(at("counter args carry no numeric sample"));
                }
            }
            "s" | "f" => {
                let id = match get(ev, "id") {
                    Some(Value::UInt(id)) => *id,
                    _ => return Err(at("flow event without id")),
                };
                if ph == "f" && !flow_starts.contains(&id) {
                    return Err(at(&format!("flow finish {id} without a start")));
                }
            }
            _ => {}
        }
    }
    for (tid, stack) in span_stack {
        if let Some(open) = stack.last() {
            return Err(format!("span {open:?} left open on tid {tid}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                ts: 0,
                lane: 0,
                name: "cs".into(),
                kind: EventKind::SpanBegin,
                clock: Some(vec![1, 0]),
                state: None,
            },
            Event {
                ts: 2,
                lane: 0,
                name: "req".into(),
                kind: EventKind::MsgSend { id: 0, to: 1 },
                clock: Some(vec![2, 0]),
                state: None,
            },
            Event {
                ts: 5,
                lane: 1,
                name: "req".into(),
                kind: EventKind::MsgRecv { id: 0, from: 0 },
                clock: Some(vec![2, 1]),
                state: None,
            },
            Event::counter(5, 1, "ok", 1),
            Event {
                ts: 6,
                lane: 0,
                name: "cs".into(),
                kind: EventKind::SpanEnd,
                clock: None,
                state: None,
            },
            Event::instant(7, 1, "watchdog"),
        ]
    }

    #[test]
    fn export_validates() {
        let json = chrome_trace(&sample_events(), &["p0".into(), "p1".into()]);
        validate_chrome_trace(&json).unwrap();
    }

    #[test]
    fn unbalanced_span_rejected() {
        let events = vec![Event {
            ts: 0,
            lane: 0,
            name: "cs".into(),
            kind: EventKind::SpanBegin,
            clock: None,
            state: None,
        }];
        let json = chrome_trace(&events, &[]);
        let err = validate_chrome_trace(&json).unwrap_err();
        assert!(err.contains("left open"), "{err}");
    }

    #[test]
    fn flow_finish_without_start_rejected() {
        let events = vec![Event {
            ts: 0,
            lane: 0,
            name: "req".into(),
            kind: EventKind::MsgRecv { id: 3, from: 1 },
            clock: None,
            state: None,
        }];
        let json = chrome_trace(&events, &[]);
        let err = validate_chrome_trace(&json).unwrap_err();
        assert!(err.contains("without a start"), "{err}");
    }

    #[test]
    fn pruning_orphan_flows_makes_a_ring_tail_exportable() {
        let mut events = vec![
            // Orphan: the matching send (id 3) was dropped by the ring.
            Event {
                ts: 0,
                lane: 0,
                name: "req".into(),
                kind: EventKind::MsgRecv { id: 3, from: 1 },
                clock: None,
                state: None,
            },
            Event {
                ts: 1,
                lane: 0,
                name: "req".into(),
                kind: EventKind::MsgSend { id: 4, to: 1 },
                clock: None,
                state: None,
            },
            Event {
                ts: 2,
                lane: 1,
                name: "req".into(),
                kind: EventKind::MsgRecv { id: 4, from: 0 },
                clock: None,
                state: None,
            },
            Event::instant(3, 0, "mark"),
        ];
        assert!(validate_chrome_trace(&chrome_trace(&events, &[])).is_err());
        prune_orphan_flows(&mut events);
        assert_eq!(events.len(), 3, "only the orphan recv is dropped");
        validate_chrome_trace(&chrome_trace(&events, &[])).unwrap();
    }

    #[test]
    fn garbage_rejected() {
        assert!(validate_chrome_trace("[]").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\": 3}").is_err());
        assert!(validate_chrome_trace("nope").is_err());
    }
}
