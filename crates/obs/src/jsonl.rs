//! JSON-lines serialization of event logs.
//!
//! One [`Event`] per line, in recording order. This is the on-disk format
//! written by [`crate::JsonlRecorder`] and consumed by `pctl trace` /
//! `pctl stats`.

use crate::event::Event;

/// Serialize events to JSONL text (one object per line, trailing newline).
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for ev in events {
        // Event serialization cannot fail: no maps with non-string keys,
        // no floats.
        out.push_str(&serde_json::to_string(ev).expect("event serializes"));
        out.push('\n');
    }
    out
}

/// Parse JSONL text back into events. Blank lines are skipped; the first
/// malformed line aborts with its 1-based line number.
pub fn parse(text: &str) -> Result<Vec<Event>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ev: Event = serde_json::from_str(line).map_err(|e| format!("line {}: {e:?}", i + 1))?;
        events.push(ev);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn jsonl_roundtrip() {
        let events = vec![
            Event {
                clock: Some(vec![2, 0]),
                state: Some(1),
                ..Event::instant(1, 0, "crash")
            },
            Event {
                ts: 3,
                lane: 1,
                name: "req".into(),
                kind: EventKind::MsgSend { id: 0, to: 0 },
                clock: None,
                state: None,
            },
            Event::counter(4, 0, "cs", 1),
        ];
        let text = to_jsonl(&events);
        assert_eq!(text.lines().count(), 3);
        assert_eq!(parse(&text).unwrap(), events);
    }

    #[test]
    fn parse_skips_blank_lines_and_reports_bad_ones() {
        let good = to_jsonl(&[Event::instant(0, 0, "a")]);
        let text = format!("\n{good}\n   \n");
        assert_eq!(parse(&text).unwrap().len(), 1);
        let err = parse("{\"nope\":true}").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
    }
}
