//! Render a finished deposet (plus an optional control relation) as an
//! event log, so `pctl trace` can export any saved trace — recorded live or
//! not — to Chrome trace JSON.
//!
//! The mapping follows the paper's model directly: lane = process, logical
//! timestamp = state index, a variable's value over its process's state
//! sequence = a counter track (a boolean predicate variable renders as a
//! truth interval), message `m.from ; m.to` = a flow arrow, and a forced-
//! before pair `x C→ y` = a flow arrow named `C→`. Every event names the
//! state it annotates and carries that state's Fidge–Mattern clock, read
//! from the deposet by [`stamp_clocks`].

use crate::event::{Event, EventKind};
use pctl_deposet::{Deposet, ProcessId, StateId};

/// Lane names for a deposet timeline: one per process.
pub fn lane_names(dep: &Deposet) -> Vec<String> {
    (0..dep.process_count()).map(|p| format!("p{p}")).collect()
}

/// Set each event's `clock` to the deposet's clock of the state it names
/// (lane = process, [`Event::state`] = index); events naming no state are
/// left as they are. This is the one place telemetry clocks come from.
pub fn stamp_clocks(dep: &Deposet, events: &mut [Event]) {
    for ev in events {
        if let Some(k) = ev.state {
            let clock = dep.clock(StateId::new(ProcessId(ev.lane), k));
            ev.clock = Some(clock.entries().to_vec());
        }
    }
}

/// Convert a deposet to an event log.
///
/// `control` is a slice of forced-before pairs to overlay as `C→` arrows
/// (pass `ControlRelation::pairs()`; empty for an uncontrolled trace).
pub fn deposet_events(dep: &Deposet, control: &[(StateId, StateId)]) -> Vec<Event> {
    // An event of `kind` at state `s`, whose index is also its timestamp.
    let at = |s: StateId, name: &str, kind: EventKind| Event {
        ts: u64::from(s.index),
        lane: s.process.0,
        name: name.to_owned(),
        kind,
        clock: None,
        state: Some(s.index),
    };
    let mut events = Vec::new();
    for p in dep.processes() {
        let states = dep.states_of(p);
        for (k, st) in states.iter().enumerate() {
            let id = StateId::new(p, k as u32);
            if let Some(label) = &st.label {
                events.push(at(id, &format!("state {label}"), EventKind::Instant));
            }
            // Emit a counter sample only when the variable changes (or on
            // the initial state), so constant variables cost one event.
            for (name, value) in st.vars.iter() {
                let changed = k == 0 || states[k - 1].vars.get(name) != Some(value);
                if changed {
                    events.push(at(id, name, EventKind::Counter { value }));
                }
            }
        }
    }
    let arrows = (dep.messages().iter())
        .map(|m| (m.from, m.to, &*m.tag))
        .chain(control.iter().map(|&(x, y)| (x, y, "C→")));
    for (flow, (x, y, name)) in arrows.enumerate() {
        let id = flow as u64;
        let to = y.process.0;
        events.push(at(x, name, EventKind::MsgSend { id, to }));
        let from = x.process.0;
        events.push(at(y, name, EventKind::MsgRecv { id, from }));
    }
    events.sort_by_key(|e| e.ts);
    stamp_clocks(dep, &mut events);
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome;
    use pctl_deposet::scenarios;

    #[test]
    fn figure4_timeline_exports_and_validates() {
        let dep = scenarios::replicated_servers().deposet;
        let events = deposet_events(&dep, &[]);
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, EventKind::MsgSend { .. })),
            "figure 4 has messages"
        );
        assert!(events.iter().all(|e| e.clock.is_some()));
        let json = chrome::chrome_trace(&events, &lane_names(&dep));
        chrome::validate_chrome_trace(&json).unwrap();
    }

    #[test]
    fn control_pairs_become_flow_arrows() {
        let dep = scenarios::replicated_servers().deposet;
        let x = StateId::new(ProcessId(0), 1);
        let y = StateId::new(ProcessId(1), 1);
        let events = deposet_events(&dep, &[(x, y)]);
        let arrows: Vec<_> = events.iter().filter(|e| e.name == "C→").collect();
        assert_eq!(arrows.len(), 2);
        let json = chrome::chrome_trace(&events, &lane_names(&dep));
        chrome::validate_chrome_trace(&json).unwrap();
    }
}
