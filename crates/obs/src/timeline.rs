//! Render a finished deposet (plus an optional control relation) as an
//! event log, so `pctl trace` can export any saved trace — recorded live or
//! not — to Chrome trace JSON.
//!
//! The mapping follows the paper's model directly: lane = process, logical
//! timestamp = state index, a variable's value over its process's state
//! sequence = a counter track (a boolean predicate variable renders as a
//! truth interval), message `m.from ; m.to` = a flow arrow, and a forced-
//! before pair `x C→ y` = a flow arrow named `C→`. Every event carries the
//! Fidge–Mattern clock of the state it annotates.

use crate::event::{Event, EventKind};
use pctl_causality::StateId;
use pctl_deposet::Deposet;

/// Lane names for a deposet timeline: one per process.
pub fn lane_names(dep: &Deposet) -> Vec<String> {
    (0..dep.process_count()).map(|p| format!("p{p}")).collect()
}

/// Convert a deposet to an event log.
///
/// `control` is a slice of forced-before pairs to overlay as `C→` arrows
/// (pass `ControlRelation::pairs()`; empty for an uncontrolled trace).
pub fn deposet_events(dep: &Deposet, control: &[(StateId, StateId)]) -> Vec<Event> {
    let mut events = Vec::new();
    for p in dep.processes() {
        let lane = p.index() as u32;
        let states = dep.states_of(p);
        for (k, st) in states.iter().enumerate() {
            let id = StateId::new(p, k as u32);
            let clock = dep.clock(id).entries().to_vec();
            if let Some(label) = &st.label {
                events.push(
                    Event::instant(k as u64, lane, &format!("state {label}"))
                        .with_clock(clock.clone()),
                );
            }
            // Emit a counter sample only when the variable changes (or on
            // the initial state), so constant variables cost one event.
            for (name, value) in st.vars.iter() {
                let changed = k == 0 || states[k - 1].vars.get(name) != Some(value);
                if changed {
                    events.push(
                        Event::counter(k as u64, lane, name, value).with_clock(clock.clone()),
                    );
                }
            }
        }
    }
    for m in dep.messages() {
        let flow = m.id.index() as u64;
        events.push(Event {
            ts: m.from.idx() as u64,
            lane: m.from.process.index() as u32,
            name: m.tag.to_string(),
            kind: EventKind::MsgSend {
                id: flow,
                to: m.to.process.index() as u32,
            },
            clock: Some(dep.clock(m.from).entries().to_vec()),
        });
        events.push(Event {
            ts: m.to.idx() as u64,
            lane: m.to.process.index() as u32,
            name: m.tag.to_string(),
            kind: EventKind::MsgRecv {
                id: flow,
                from: m.from.process.index() as u32,
            },
            clock: Some(dep.clock(m.to).entries().to_vec()),
        });
    }
    let flow_base = dep.messages().len() as u64;
    for (i, (x, y)) in control.iter().enumerate() {
        let flow = flow_base + i as u64;
        events.push(Event {
            ts: x.idx() as u64,
            lane: x.process.index() as u32,
            name: "C→".into(),
            kind: EventKind::MsgSend {
                id: flow,
                to: y.process.index() as u32,
            },
            clock: Some(dep.clock(*x).entries().to_vec()),
        });
        events.push(Event {
            ts: y.idx() as u64,
            lane: y.process.index() as u32,
            name: "C→".into(),
            kind: EventKind::MsgRecv {
                id: flow,
                from: x.process.index() as u32,
            },
            clock: Some(dep.clock(*y).entries().to_vec()),
        });
    }
    events.sort_by_key(|e| e.ts);
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
        let x = StateId::new(pctl_causality::ProcessId(0), 1);
        let y = StateId::new(pctl_causality::ProcessId(1), 1);
        let events = deposet_events(&dep, &[(x, y)]);
        let arrows: Vec<_> = events.iter().filter(|e| e.name == "C→").collect();
        assert_eq!(arrows.len(), 2);
        let json = chrome::chrome_trace(&events, &lane_names(&dep));
        chrome::validate_chrome_trace(&json).unwrap();
    }
}
