//! The deposet: a distributed computation as a decomposed partially ordered
//! set (paper Section 3).
//!
//! A deposet `(S₁, …, Sₙ; ⇝; →)` consists of the per-process local state
//! sequences `Sᵢ`, the *remotely precedes* relation `;` induced by messages,
//! and the *causally precedes* (happened-before) relation `→` — the
//! transitive closure of `im ∪ ;`. The constraints D1–D3 hold by
//! construction when a deposet is produced by the
//! [builder](crate::builder::DeposetBuilder), and are re-validated when a
//! deposet is reconstructed from a serialized trace.
//!
//! Causality queries are answered in O(1) with precomputed Fidge–Mattern
//! vector clocks: for states `s`, `t`,
//! `s → t ⇔ s ≠ t ∧ V(s)[proc(s)] ≤ V(t)[proc(s)]`.

use crate::event::{EventKind, Message};
use crate::state::LocalState;
use pctl_causality::arena::{fill_clocks, MAX_ROWS};
use pctl_causality::{Causality, ClockArena, ClockRef, MsgId, ProcessId, StateId};
use std::fmt;

/// A distributed computation (see module docs).
///
/// Immutable once constructed; construct via
/// [`DeposetBuilder`](crate::builder::DeposetBuilder) or
/// [`Deposet::from_parts`].
///
/// Clocks live in one columnar [`ClockArena`] of exactly `n · S` words (`n`
/// processes, `S` states total), with state `(p, k)` at row
/// `offsets[p] + k`. Construction fills the arena in place and never
/// allocates per state.
#[derive(Clone, Debug)]
pub struct Deposet {
    states: Vec<Vec<LocalState>>,
    events: Vec<Vec<EventKind>>,
    messages: Vec<Message>,
    /// Flat row offsets: state `(p, k)` is row `offsets[p] + k`;
    /// `offsets[n]` is the total state count.
    offsets: Vec<usize>,
    clocks: ClockArena,
}

/// Errors detected while validating deposet structure (D1–D3 and message
/// endpoint sanity) or computing causality.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeposetError {
    /// A process has no states at all (it must at least have `⊥ᵢ = ⊤ᵢ`).
    EmptyProcess(ProcessId),
    /// Event sequence length must be one less than the state sequence length.
    EventCountMismatch {
        /// Offending process.
        process: ProcessId,
        /// Number of states on the process.
        states: usize,
        /// Number of events on the process.
        events: usize,
    },
    /// A message id is referenced by no / multiple send or receive events,
    /// or its recorded endpoints disagree with the event sequences.
    BadMessageEndpoints(MsgId),
    /// A state id refers outside the computation.
    BadStateId(StateId),
    /// The relation `im ∪ ;` has a cycle: the trace is not a valid
    /// computation (its `→` would not be irreflexive).
    CausalityCycle,
    /// The computation has more states than the 32-bit row addressing
    /// supports; `as u32` casts downstream would silently truncate.
    TooManyStates {
        /// Total number of local states.
        states: usize,
    },
}

/// Guard for the flat-row `u32` addressing: everything downstream (edge
/// endpoints, interval bounds, CSR offsets) stores row indices as `u32`, so
/// construction fails cleanly instead of truncating. Kept as a standalone
/// check so the guard is unit-testable without allocating huge chains.
pub(crate) fn ensure_addressable(total_states: usize) -> Result<(), DeposetError> {
    if total_states > MAX_ROWS {
        return Err(DeposetError::TooManyStates {
            states: total_states,
        });
    }
    Ok(())
}

impl fmt::Display for DeposetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeposetError::EmptyProcess(p) => write!(f, "process {p} has no states"),
            DeposetError::EventCountMismatch {
                process,
                states,
                events,
            } => write!(
                f,
                "process {process} has {states} states but {events} events (want states-1)"
            ),
            DeposetError::BadMessageEndpoints(m) => {
                write!(f, "message {m:?} has inconsistent endpoints")
            }
            DeposetError::BadStateId(s) => write!(f, "state {s} out of range"),
            DeposetError::CausalityCycle => {
                write!(f, "im ∪ ; contains a cycle; → is not irreflexive")
            }
            DeposetError::TooManyStates { states } => write!(
                f,
                "{states} states exceed the 32-bit row addressing (max {MAX_ROWS})"
            ),
        }
    }
}

impl std::error::Error for DeposetError {}

impl Deposet {
    /// Build and validate a deposet from raw parts, computing vector clocks.
    ///
    /// `events[p]` is the event sequence of process `p` and must satisfy
    /// `events[p].len() + 1 == states[p].len()`. D3 holds structurally
    /// (an [`EventKind`] is never both send and receive); D1/D2 hold because
    /// receives/sends are events, which by construction lie strictly between
    /// `⊥` and `⊤`.
    pub fn from_parts(
        states: Vec<Vec<LocalState>>,
        events: Vec<Vec<EventKind>>,
        messages: Vec<Message>,
    ) -> Result<Self, DeposetError> {
        let _prof = pctl_prof::span("deposet_from_parts");
        let n = states.len();
        if events.len() != n {
            return Err(DeposetError::EventCountMismatch {
                process: ProcessId(events.len().min(n) as u32),
                states: n,
                events: events.len(),
            });
        }
        for (p, (st, ev)) in states.iter().zip(&events).enumerate() {
            let p = ProcessId(p as u32);
            if st.is_empty() {
                return Err(DeposetError::EmptyProcess(p));
            }
            if ev.len() + 1 != st.len() {
                return Err(DeposetError::EventCountMismatch {
                    process: p,
                    states: st.len(),
                    events: ev.len(),
                });
            }
        }
        // Message endpoint validation: message m must be sent by exactly the
        // event after `from` and received by exactly the event before `to`.
        for (mi, m) in messages.iter().enumerate() {
            if m.id.index() != mi {
                return Err(DeposetError::BadMessageEndpoints(m.id));
            }
            let fp = m.from.process.index();
            let tp = m.to.process.index();
            if fp >= n || m.from.idx() >= states[fp].len() {
                return Err(DeposetError::BadStateId(m.from));
            }
            if tp >= n || m.to.idx() >= states[tp].len() {
                return Err(DeposetError::BadStateId(m.to));
            }
            if events[fp].get(m.from.idx()) != Some(&EventKind::Send(m.id)) {
                return Err(DeposetError::BadMessageEndpoints(m.id));
            }
            let ri =
                m.to.idx()
                    .checked_sub(1)
                    .ok_or(DeposetError::BadMessageEndpoints(m.id))?;
            if events[tp].get(ri) != Some(&EventKind::Recv(m.id)) {
                return Err(DeposetError::BadMessageEndpoints(m.id));
            }
        }
        // Each send/recv event must reference a declared message (no
        // dangling ids), and each message exactly once in each role —
        // guaranteed by the endpoint check plus a count check.
        let mut sends = 0usize;
        let mut recvs = 0usize;
        for ev in &events {
            for e in ev {
                match e {
                    EventKind::Send(m) | EventKind::Recv(m) => {
                        if m.index() >= messages.len() {
                            return Err(DeposetError::BadMessageEndpoints(*m));
                        }
                        match e {
                            EventKind::Send(_) => sends += 1,
                            _ => recvs += 1,
                        }
                    }
                    EventKind::Internal => {}
                }
            }
        }
        if sends != messages.len() || recvs != messages.len() {
            return Err(DeposetError::BadMessageEndpoints(MsgId(
                messages.len() as u32
            )));
        }

        // Flat row offsets, fixed for the lifetime of the deposet.
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        for s in &states {
            offsets.push(acc);
            acc += s.len();
        }
        offsets.push(acc);
        let total = acc;
        // Fail construction (instead of truncating `as u32` row casts
        // downstream) when the computation exceeds 32-bit addressing.
        ensure_addressable(total)?;

        // One topological sort (a cycle ⇒ invalid) and one clock DP. The
        // local chains stay implicit in `offsets` and the message edges are
        // flat `(dst, src)` pairs, so no per-state adjacency list is ever
        // built — construction is the hot path of every multi-seed sweep.
        let row = |s: StateId| offsets[s.process.index()] + s.idx();
        let edges: Vec<(u32, u32)> = messages
            .iter()
            .map(|m| (row(m.to) as u32, row(m.from) as u32))
            .collect();
        let clocks = fill_clocks(&offsets, &edges).ok_or(DeposetError::CausalityCycle)?;
        // The O(n·S)-words storage bound the columnar layout exists for.
        assert_eq!(clocks.allocated_words(), n * total);
        pctl_prof::set_gauge("arena_allocated_words", clocks.allocated_words() as u64);

        Ok(Deposet {
            states,
            events,
            messages,
            offsets,
            clocks,
        })
    }

    /// Flattened node offsets per process (for graph algorithms): state
    /// `(p, k)` is node `offsets[p] + k`; `offsets[n]` is the total count.
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Flat row index of state `id` in [`offsets`](Self::offsets) order.
    #[inline]
    pub fn row_of(&self, id: StateId) -> usize {
        self.offsets[id.process.index()] + id.idx()
    }

    /// Number of processes `n`.
    #[inline]
    pub fn process_count(&self) -> usize {
        self.states.len()
    }

    /// Process ids `P₀ … Pₙ₋₁`.
    pub fn processes(&self) -> impl Iterator<Item = ProcessId> {
        (0..self.states.len() as u32).map(ProcessId)
    }

    /// Number of local states of process `p`.
    #[inline]
    pub fn len_of(&self, p: ProcessId) -> usize {
        self.states[p.index()].len()
    }

    /// Total number of local states.
    pub fn total_states(&self) -> usize {
        self.states.iter().map(Vec::len).sum()
    }

    /// The local state payload for `id`.
    #[inline]
    pub fn state(&self, id: StateId) -> &LocalState {
        &self.states[id.process.index()][id.idx()]
    }

    /// All states of process `p`, in `≺` order.
    pub fn states_of(&self, p: ProcessId) -> &[LocalState] {
        &self.states[p.index()]
    }

    /// The event between states `k` and `k + 1` of process `p`.
    pub fn event(&self, p: ProcessId, k: usize) -> EventKind {
        self.events[p.index()][k]
    }

    /// Event sequence of process `p`.
    pub fn events_of(&self, p: ProcessId) -> &[EventKind] {
        &self.events[p.index()]
    }

    /// All messages.
    pub fn messages(&self) -> &[Message] {
        &self.messages
    }

    /// Look up a message by id.
    pub fn message(&self, m: MsgId) -> &Message {
        &self.messages[m.index()]
    }

    /// Initial state `⊥ᵢ` of process `p`.
    pub fn bottom(&self, p: ProcessId) -> StateId {
        StateId::new(p, 0)
    }

    /// Final state `⊤ᵢ` of process `p`.
    pub fn top(&self, p: ProcessId) -> StateId {
        StateId::new(p, (self.states[p.index()].len() - 1) as u32)
    }

    /// Whether `id` names a state of this computation.
    pub fn contains(&self, id: StateId) -> bool {
        id.process.index() < self.states.len() && id.idx() < self.states[id.process.index()].len()
    }

    /// The vector clock of state `id` (a borrowed row of the arena).
    #[inline]
    pub fn clock(&self, id: StateId) -> ClockRef<'_> {
        self.clocks.row(self.row_of(id))
    }

    /// `s ≺ t`: same process and s strictly earlier (transitive closure of
    /// `im`).
    pub fn locally_precedes(&self, s: StateId, t: StateId) -> bool {
        s.process == t.process && s.index < t.index
    }

    /// `s ; t`: the message sent in the event after `s` is received in the
    /// event before `t` (the *remotely precedes* relation).
    pub fn remotely_precedes(&self, s: StateId, t: StateId) -> bool {
        self.messages.iter().any(|m| m.from == s && m.to == t)
    }

    /// `s → t`: causally precedes (happened-before). O(1): two word reads
    /// from the clock arena (`V(s)[proc(s)] ≤ V(t)[proc(s)]`).
    #[inline]
    pub fn precedes(&self, s: StateId, t: StateId) -> bool {
        s != t
            && self.clocks.word(self.row_of(s), s.process)
                <= self.clocks.word(self.row_of(t), s.process)
    }

    /// `s →̲ t`: causally precedes or equal.
    #[inline]
    pub fn precedes_eq(&self, s: StateId, t: StateId) -> bool {
        s == t || self.precedes(s, t)
    }

    /// `s ∥ t`: concurrent (neither causally precedes the other, `s ≠ t`).
    #[inline]
    pub fn concurrent(&self, s: StateId, t: StateId) -> bool {
        s != t && !self.precedes(s, t) && !self.precedes(t, s)
    }

    /// Full four-way comparison of two states.
    pub fn causality(&self, s: StateId, t: StateId) -> Causality {
        if s == t {
            Causality::Equal
        } else if self.precedes(s, t) {
            Causality::Before
        } else if self.precedes(t, s) {
            Causality::After
        } else {
            Causality::Concurrent
        }
    }

    /// Iterate over every state id in process-major order.
    pub fn state_ids(&self) -> impl Iterator<Item = StateId> + '_ {
        self.states.iter().enumerate().flat_map(|(p, sts)| {
            (0..sts.len() as u32).map(move |k| StateId::new(ProcessId(p as u32), k))
        })
    }

    /// Destructure into raw parts (states, events, messages) — used by the
    /// trace serializer.
    pub fn into_parts(self) -> (Vec<Vec<LocalState>>, Vec<Vec<EventKind>>, Vec<Message>) {
        (self.states, self.events, self.messages)
    }

    /// Borrowing accessors for serialization.
    pub(crate) fn parts(&self) -> (&[Vec<LocalState>], &[Vec<EventKind>], &[Message]) {
        (&self.states, &self.events, &self.messages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DeposetBuilder;

    /// Two processes, one message from P0 (after state 0) to P1 (producing
    /// state 1 on P1).
    fn two_proc_one_msg() -> Deposet {
        let mut b = DeposetBuilder::new(2);
        let tok = b.send(0, "m");
        b.recv(1, tok, &[]);
        b.finish().unwrap()
    }

    #[test]
    fn bottoms_and_tops() {
        let d = two_proc_one_msg();
        assert_eq!(d.bottom(ProcessId(0)), StateId::new(0u32 as usize, 0));
        assert_eq!(d.top(ProcessId(0)), StateId::new(0usize, 1));
        assert_eq!(d.len_of(ProcessId(1)), 2);
        assert_eq!(d.total_states(), 4);
    }

    #[test]
    fn message_edge_induces_causality() {
        let d = two_proc_one_msg();
        let s00 = StateId::new(0usize, 0);
        let s01 = StateId::new(0usize, 1);
        let s10 = StateId::new(1usize, 0);
        let s11 = StateId::new(1usize, 1);
        assert!(d.remotely_precedes(s00, s11));
        assert!(d.precedes(s00, s11));
        assert!(d.precedes(s00, s01), "im edge");
        assert!(d.concurrent(s01, s11), "send-successor ∥ receive-successor");
        assert!(d.concurrent(s00, s10));
        assert!(!d.precedes(s11, s00));
        assert_eq!(d.causality(s00, s11), Causality::Before);
        assert_eq!(d.causality(s11, s00), Causality::After);
        assert_eq!(d.causality(s00, s00), Causality::Equal);
    }

    #[test]
    fn precedes_eq_includes_identity() {
        let d = two_proc_one_msg();
        let s = StateId::new(0usize, 0);
        assert!(d.precedes_eq(s, s));
        assert!(!d.precedes(s, s));
    }

    #[test]
    fn clocks_match_fidge_mattern() {
        let d = two_proc_one_msg();
        assert_eq!(d.clock(StateId::new(0usize, 0)).entries(), &[1, 0]);
        assert_eq!(d.clock(StateId::new(0usize, 1)).entries(), &[2, 0]);
        assert_eq!(d.clock(StateId::new(1usize, 0)).entries(), &[0, 1]);
        assert_eq!(d.clock(StateId::new(1usize, 1)).entries(), &[1, 2]);
    }

    #[test]
    fn from_parts_rejects_empty_process() {
        let err = Deposet::from_parts(vec![vec![]], vec![vec![]], vec![]).unwrap_err();
        assert_eq!(err, DeposetError::EmptyProcess(ProcessId(0)));
    }

    #[test]
    fn from_parts_rejects_event_count_mismatch() {
        let err = Deposet::from_parts(
            vec![vec![LocalState::default(), LocalState::default()]],
            vec![vec![]],
            vec![],
        )
        .unwrap_err();
        assert!(matches!(err, DeposetError::EventCountMismatch { .. }));
    }

    #[test]
    fn from_parts_rejects_bad_message_endpoints() {
        // Declares a message but the send event is Internal.
        let m = Message {
            id: MsgId(0),
            tag: "".into(),
            from: StateId::new(0usize, 0),
            to: StateId::new(1usize, 1),
        };
        let err = Deposet::from_parts(
            vec![
                vec![LocalState::default(), LocalState::default()],
                vec![LocalState::default(), LocalState::default()],
            ],
            vec![vec![EventKind::Internal], vec![EventKind::Recv(MsgId(0))]],
            vec![m],
        )
        .unwrap_err();
        assert_eq!(err, DeposetError::BadMessageEndpoints(MsgId(0)));
    }

    #[test]
    fn from_parts_rejects_causal_cycle() {
        // P0: s0 -send m0-> s1 -recv m1-> s2
        // P1: s0 -send m1-> s1 -recv m0-> s2
        // m0: from (0,0) to (1,2); m1: from (1,0) to (0,2). This is FINE
        // (crossing messages). Build a genuine cycle instead:
        // m0: from (0,1) to (1,1); m1: from (1,1) to (0,1) is impossible via
        // endpoints (recv before send on same state pair) — so craft:
        // P0: s0 -recv m1-> s1 -send m0-> s2
        // P1: s0 -recv m0-> s1 -send m1-> s2
        // m0 sent after (0,1) received producing (1,1): (0,1) ; (1,1)
        // m1 sent after (1,1) received producing (0,1): (1,1) ; (0,1) — cycle.
        let st = || {
            vec![
                LocalState::default(),
                LocalState::default(),
                LocalState::default(),
            ]
        };
        let m0 = Message {
            id: MsgId(0),
            tag: "".into(),
            from: StateId::new(0usize, 1),
            to: StateId::new(1usize, 1),
        };
        let m1 = Message {
            id: MsgId(1),
            tag: "".into(),
            from: StateId::new(1usize, 1),
            to: StateId::new(0usize, 1),
        };
        let err = Deposet::from_parts(
            vec![st(), st()],
            vec![
                vec![EventKind::Recv(MsgId(1)), EventKind::Send(MsgId(0))],
                vec![EventKind::Recv(MsgId(0)), EventKind::Send(MsgId(1))],
            ],
            vec![m0, m1],
        )
        .unwrap_err();
        assert_eq!(err, DeposetError::CausalityCycle);
    }

    #[test]
    fn addressability_guard_fires_without_allocating() {
        // The guard is a pure size check — exercised directly so the test
        // does not materialise a 4-billion-state chain.
        assert!(crate::model::ensure_addressable(u32::MAX as usize).is_ok());
        let err = crate::model::ensure_addressable(u32::MAX as usize + 1).unwrap_err();
        assert_eq!(
            err,
            DeposetError::TooManyStates {
                states: u32::MAX as usize + 1
            }
        );
        assert!(err.to_string().contains("32-bit row addressing"), "{err}");
    }

    #[test]
    fn crossing_messages_are_valid() {
        let mut b = DeposetBuilder::new(2);
        let m0 = b.send(0, "a");
        let m1 = b.send(1, "b");
        b.recv(0, m1, &[]);
        b.recv(1, m0, &[]);
        let d = b.finish().unwrap();
        // send states concurrent, receive states concurrent... actually
        // (0,2) has received m1 sent after (1,0): (1,0) → (0,2).
        assert!(d.precedes(StateId::new(1usize, 0), StateId::new(0usize, 2)));
        assert!(d.precedes(StateId::new(0usize, 0), StateId::new(1usize, 2)));
        assert!(d.concurrent(StateId::new(0usize, 2), StateId::new(1usize, 2)));
    }
}
