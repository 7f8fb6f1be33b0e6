//! Incremental construction of deposets.
//!
//! The builder guarantees the deposet constraints by construction:
//!
//! * **D1** — a receive event always produces a state with index ≥ 1, so no
//!   message is received "before" the initial state;
//! * **D2** — a send event always originates from an existing state that
//!   gains a successor, so no message is sent "after" the final state;
//! * **D3** — [`crate::event::EventKind`] is an enum: an event is
//!   internal, a send, or a receive, never a send *and* a receive.
//!
//! [`MsgToken`] is an affine handle: sending produces it, receiving consumes
//! it, so each message is received exactly once and only after being sent
//! (which also keeps `im ∪ ;` acyclic for builder-produced traces — a fact
//! `finish()` re-checks anyway when computing clocks).

use crate::event::{EventKind, Message};
use crate::model::{Deposet, DeposetError};
use crate::state::{LocalState, Variables};
use pctl_causality::{MsgId, ProcessId, StateId};
use std::fmt;
use std::sync::Arc;

/// Handle to an in-flight message: returned by a `send`, consumed by the
/// matching `recv`.
#[derive(Debug)]
#[must_use = "an unreceived message makes `finish()` fail unless allow_in_flight() is set"]
pub struct MsgToken {
    id: MsgId,
}

impl MsgToken {
    /// The message this token stands for.
    pub fn id(&self) -> MsgId {
        self.id
    }
}

/// Errors raised by builder misuse at `finish()` time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// Some messages were sent but never received and in-flight messages
    /// were not explicitly allowed.
    InFlightMessages(Vec<MsgId>),
    /// Structural validation failed (should be unreachable for
    /// builder-constructed traces; kept for defence in depth).
    Invalid(DeposetError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::InFlightMessages(ms) => {
                write!(
                    f,
                    "messages never received: {ms:?} (call allow_in_flight() if intended)"
                )
            }
            BuildError::Invalid(e) => write!(f, "invalid deposet: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Builder for [`Deposet`]s. See module docs.
///
/// Events are recorded into one log in recording order, each with the
/// state it leaves; only the latest state of each process is kept apart.
/// [`finish`](Self::finish) then lays every process's states and events
/// out once, at their exact length. So recording allocates only to grow
/// the log and the message list, and a run of `n` processes allocates
/// `O(n)` times however its states fall on the processes.
#[derive(Debug)]
pub struct DeposetBuilder {
    chains: Vec<Chain>,
    log: Vec<Step>,
    messages: Vec<PendingMessage>,
    /// One shared copy of each distinct message tag and variable name, so
    /// recording a send or a new variable allocates nothing once the name
    /// has been seen.
    names: serde::Interner,
    allow_in_flight: bool,
}

/// The recording position of one process.
#[derive(Debug)]
struct Chain {
    /// The latest state.
    current: LocalState,
    /// The assignment held before the latest change (see
    /// [`Variables::stepped`]).
    previous: Variables,
    /// Events recorded so far: the index of `current`.
    events: usize,
}

/// One recorded event and the state it leaves.
#[derive(Debug)]
struct Step {
    process: ProcessId,
    event: EventKind,
    before: LocalState,
}

#[derive(Debug)]
struct PendingMessage {
    tag: Arc<str>,
    from: StateId,
    to: Option<StateId>,
}

impl DeposetBuilder {
    /// Room made at the start for each process's steps and sends, so a
    /// short recording does not grow the log from one element; longer ones
    /// grow it by doubling.
    const STEPS_PER_PROCESS: usize = 16;
    const MESSAGES_PER_PROCESS: usize = 8;

    /// A builder for `n` processes, each starting at an initial state `⊥ᵢ`
    /// with no variables set.
    pub fn new(n: usize) -> Self {
        DeposetBuilder {
            chains: (0..n)
                .map(|_| Chain {
                    current: LocalState::default(),
                    previous: Variables::new(),
                    events: 0,
                })
                .collect(),
            log: Vec::with_capacity(Self::STEPS_PER_PROCESS * n),
            messages: Vec::with_capacity(Self::MESSAGES_PER_PROCESS * n),
            names: serde::Interner::default(),
            allow_in_flight: false,
        }
    }

    /// A builder whose initial states carry the given variable assignments.
    pub fn with_initial(initial: Vec<Variables>) -> Self {
        let n = initial.len();
        let mut b = DeposetBuilder::new(n);
        for (chain, vars) in b.chains.iter_mut().zip(initial) {
            chain.current = LocalState::new(vars);
        }
        b
    }

    /// Permit `finish()` to succeed with sent-but-unreceived messages.
    /// In-flight messages are dropped from the deposet (the `;` relation is
    /// only defined for delivered messages), matching the paper's model.
    pub fn allow_in_flight(&mut self) -> &mut Self {
        self.allow_in_flight = true;
        self
    }

    /// Number of processes.
    pub fn process_count(&self) -> usize {
        self.chains.len()
    }

    /// The id of the current (latest) state of process `p`.
    pub fn current(&self, p: impl Into<ProcessId>) -> StateId {
        let p = p.into();
        StateId::new(p, self.chains[p.index()].events as u32)
    }

    /// Read a variable in the current state of `p` (unset = `None`).
    pub fn var(&self, p: impl Into<ProcessId>, name: &str) -> Option<i64> {
        let p = p.into();
        self.chains[p.index()].current.vars.get(name)
    }

    /// Set variables on the *initial* state of `p`. Panics if `p` already
    /// has events (the initial assignment would then be ambiguous).
    pub fn init_vars(&mut self, p: impl Into<ProcessId>, updates: &[(&str, i64)]) -> &mut Self {
        let p = p.into();
        let chain = &mut self.chains[p.index()];
        assert!(
            chain.events == 0,
            "init_vars must be called before any event on {p}"
        );
        let vars = &mut chain.current.vars;
        *vars = vars.stepped(updates, &mut Variables::new(), &mut self.names);
        self
    }

    /// Attach a label to the current state of `p` (used to name states like
    /// the paper's `a` … `f` in Figure 4).
    pub fn label(&mut self, p: impl Into<ProcessId>, label: impl Into<Box<str>>) -> &mut Self {
        let p = p.into();
        self.chains[p.index()].current.label = Some(label.into());
        self
    }

    fn push_state(&mut self, p: ProcessId, ev: EventKind, updates: &[(&str, i64)]) -> StateId {
        let chain = &mut self.chains[p.index()];
        let vars = chain
            .current
            .vars
            .stepped(updates, &mut chain.previous, &mut self.names);
        let before = std::mem::replace(&mut chain.current, LocalState::new(vars));
        chain.events += 1;
        self.log.push(Step {
            process: p,
            event: ev,
            before,
        });
        StateId::new(p, chain.events as u32)
    }

    /// Append an internal event on `p`; the new state inherits the previous
    /// variables with `updates` applied. Returns the new state's id.
    pub fn internal(&mut self, p: impl Into<ProcessId>, updates: &[(&str, i64)]) -> StateId {
        self.push_state(p.into(), EventKind::Internal, updates)
    }

    /// Append a send event on `p`. The message is in flight until a matching
    /// [`recv`](Self::recv) consumes the returned token.
    pub fn send(&mut self, p: impl Into<ProcessId>, tag: &str) -> MsgToken {
        self.send_with(p, tag, &[])
    }

    /// [`send`](Self::send) that also updates variables on the post-send
    /// state.
    pub fn send_with(
        &mut self,
        p: impl Into<ProcessId>,
        tag: &str,
        updates: &[(&str, i64)],
    ) -> MsgToken {
        let p = p.into();
        let from = self.current(p);
        let id = MsgId(self.messages.len() as u32);
        self.messages.push(PendingMessage {
            tag: self.names.intern(tag),
            from,
            to: None,
        });
        self.push_state(p, EventKind::Send(id), updates);
        MsgToken { id }
    }

    /// Append a receive event on `p` consuming `token`; the new state
    /// inherits previous variables with `updates` applied.
    ///
    /// # Panics
    /// Panics if the receiving process is the sender *and* the send has not
    /// happened yet — impossible by token flow, so no check is needed; and
    /// if the token was forged (out of range).
    pub fn recv(
        &mut self,
        p: impl Into<ProcessId>,
        token: MsgToken,
        updates: &[(&str, i64)],
    ) -> StateId {
        let p = p.into();
        let to = self.push_state(p, EventKind::Recv(token.id), updates);
        let pm = &mut self.messages[token.id.index()];
        debug_assert!(
            pm.to.is_none(),
            "token is affine; double receive impossible"
        );
        pm.to = Some(to);
        to
    }

    /// Finalize: validate, compute vector clocks, and return the deposet.
    ///
    /// Each process's states and events are allocated once, at their
    /// exact length, and filled from the log in recording order.
    pub fn finish(self) -> Result<Deposet, BuildError> {
        let delivered = self.messages.iter().filter(|m| m.to.is_some()).count();
        if delivered < self.messages.len() && !self.allow_in_flight {
            let in_flight = (self.messages.iter().enumerate())
                .filter(|(_, m)| m.to.is_none())
                .map(|(i, _)| MsgId(i as u32))
                .collect();
            return Err(BuildError::InFlightMessages(in_flight));
        }
        // Drop in-flight messages: their send events become Internal, and
        // the rest are renumbered densely.
        let dropping = delivered < self.messages.len();
        let mut remap = Vec::with_capacity(if dropping { self.messages.len() } else { 0 });
        let mut messages = Vec::with_capacity(delivered);
        for m in self.messages {
            let id = MsgId(messages.len() as u32);
            if dropping {
                remap.push(m.to.map(|_| id));
            }
            if let Some(to) = m.to {
                messages.push(Message {
                    id,
                    tag: m.tag,
                    from: m.from,
                    to,
                });
            }
        }
        let renumber = |e: EventKind| match e {
            _ if !dropping => e,
            EventKind::Internal => e,
            EventKind::Send(m) => remap[m.index()].map_or(EventKind::Internal, EventKind::Send),
            EventKind::Recv(m) => EventKind::Recv(remap[m.index()].expect("received")),
        };
        let mut states: Vec<Vec<LocalState>> = (self.chains.iter())
            .map(|c| Vec::with_capacity(c.events + 1))
            .collect();
        let mut events: Vec<Vec<EventKind>> = (self.chains.iter())
            .map(|c| Vec::with_capacity(c.events))
            .collect();
        for step in self.log {
            let p = step.process.index();
            states[p].push(step.before);
            events[p].push(renumber(step.event));
        }
        for (chain, states) in self.chains.into_iter().zip(&mut states) {
            states.push(chain.current);
        }
        Deposet::from_parts(states, events, messages).map_err(BuildError::Invalid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_builder_yields_single_state_processes() {
        let d = DeposetBuilder::new(3).finish().unwrap();
        assert_eq!(d.process_count(), 3);
        for p in d.processes() {
            assert_eq!(d.len_of(p), 1);
            assert_eq!(d.bottom(p), d.top(p));
        }
    }

    #[test]
    fn internal_event_inherits_and_updates_vars() {
        let mut b = DeposetBuilder::new(1);
        b.init_vars(0, &[("x", 1), ("y", 2)]);
        let s = b.internal(0, &[("y", 3)]);
        let d = b.finish().unwrap();
        assert_eq!(d.state(s).vars.get("x"), Some(1), "inherited");
        assert_eq!(d.state(s).vars.get("y"), Some(3), "updated");
        let bottom = d.bottom(ProcessId(0));
        assert_eq!(
            d.state(bottom).vars.get("y"),
            Some(2),
            "old state untouched"
        );
    }

    #[test]
    #[should_panic(expected = "init_vars must be called before any event")]
    fn init_vars_after_event_panics() {
        let mut b = DeposetBuilder::new(1);
        b.internal(0, &[]);
        b.init_vars(0, &[("x", 1)]);
    }

    #[test]
    fn unreceived_message_is_an_error_by_default() {
        let mut b = DeposetBuilder::new(2);
        let _tok = b.send(0, "lost");
        let err = b.finish().unwrap_err();
        assert_eq!(err, BuildError::InFlightMessages(vec![MsgId(0)]));
    }

    #[test]
    fn allow_in_flight_drops_lost_messages() {
        let mut b = DeposetBuilder::new(2);
        let _lost = b.send(0, "lost");
        let kept = b.send(0, "kept");
        b.recv(1, kept, &[]);
        b.allow_in_flight();
        let d = b.finish().unwrap();
        assert_eq!(d.messages().len(), 1);
        assert_eq!(&*d.messages()[0].tag, "kept");
        // The lost send became an internal event; the kept one is renumbered
        // to MsgId(0) and endpoints still validate (finish() succeeded).
        assert_eq!(d.event(ProcessId(0), 0), EventKind::Internal);
        assert_eq!(d.event(ProcessId(0), 1), EventKind::Send(MsgId(0)));
    }

    #[test]
    fn self_message_is_valid_and_causal() {
        let mut b = DeposetBuilder::new(1);
        let tok = b.send(0, "self");
        b.internal(0, &[]);
        let to = b.recv(0, tok, &[]);
        let d = b.finish().unwrap();
        assert!(d.remotely_precedes(StateId::new(0usize, 0), to));
        assert!(d.precedes(StateId::new(0usize, 0), to));
    }

    #[test]
    fn labels_attach_to_current_state() {
        let mut b = DeposetBuilder::new(1);
        b.internal(0, &[]);
        b.label(0, "e");
        let d = b.finish().unwrap();
        assert_eq!(d.state(StateId::new(0usize, 1)).label.as_deref(), Some("e"));
        assert_eq!(d.state(StateId::new(0usize, 0)).label, None);
    }

    #[test]
    fn current_and_var_track_latest_state() {
        let mut b = DeposetBuilder::new(2);
        assert_eq!(b.current(0), StateId::new(0usize, 0));
        b.internal(0, &[("x", 9)]);
        assert_eq!(b.current(0), StateId::new(0usize, 1));
        assert_eq!(b.var(0, "x"), Some(9));
        assert_eq!(b.var(1, "x"), None);
    }

    #[test]
    fn a_flag_toggled_beside_another_variable_keeps_every_value() {
        // A crashed process carries `down` next to `cs`; the builder hands
        // a toggled assignment back its earlier slice.
        let mut b = DeposetBuilder::new(1);
        b.init_vars(0, &[("cs", 0), ("down", 1)]);
        let script: [&[(&str, i64)]; 6] = [
            &[("down", 0)],
            &[("cs", 1)],
            &[],
            &[("cs", 0)],
            &[("cs", 1)],
            &[("cs", 0), ("cs", 1)],
        ];
        for updates in script {
            b.internal(0, updates);
        }
        let d = b.finish().unwrap();
        let got: Vec<Vec<(&str, i64)>> = (d.states_of(ProcessId(0)).iter())
            .map(|s| s.vars.iter().collect())
            .collect();
        let (cs, down) = (|v| ("cs", v), |v| ("down", v));
        assert_eq!(
            got,
            [
                [cs(0), down(1)],
                [cs(0), down(0)],
                [cs(1), down(0)],
                [cs(1), down(0)],
                [cs(0), down(0)],
                [cs(1), down(0)],
                [cs(1), down(0)],
            ]
        );
    }

    #[test]
    fn builder_chain_matches_figure_style_computation() {
        // P0: ⊥ —send→ s1 —internal→ s2
        // P1: ⊥ —recv→ s1
        let mut b = DeposetBuilder::new(2);
        let t = b.send(0, "m");
        b.internal(0, &[]);
        b.recv(1, t, &[]);
        let d = b.finish().unwrap();
        assert_eq!(d.len_of(ProcessId(0)), 3);
        assert_eq!(d.len_of(ProcessId(1)), 2);
        assert!(d.precedes(StateId::new(0usize, 0), StateId::new(1usize, 1)));
        assert!(d.concurrent(StateId::new(0usize, 1), StateId::new(1usize, 1)));
    }
}
