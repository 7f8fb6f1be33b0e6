//! The incremental per-session store behind the streaming daemon.
//!
//! A batch [`Deposet`] is immutable: adding one state means rebuilding the
//! whole computation (topological sort, clock DP, truth/interval scan). A
//! [`SessionStore`] instead grows **append-only**: a new state only ever
//! extends one process's chain, so everything derived from it can grow in
//! place in amortized O(1) per appended state (times the clock width `n`):
//!
//! * **clocks** — one [`ClockArena`] per process; an append pushes one row,
//!   copies the local predecessor, merges the send-side clock for receives
//!   (incremental Fidge–Mattern), and ticks its own component;
//! * **truth columns** — the registered local predicate is evaluated once
//!   on the new state and pushed onto the process's column;
//! * **false intervals** — the new truth bit either extends the trailing
//!   false run or opens a new one ([`FalseIntervals`] grows in place).
//!
//! Appends arrive in *causal delivery order* by construction: a receive is
//! only accepted after its send was appended (unknown message keys are
//! rejected), so every clock row the append reads is already final and the
//! computation stays acyclic without any global re-validation. The
//! prefix-equivalence proptest in `tests/` pins the central invariant:
//! after every single append, clocks, `precedes`, truth columns and
//! intervals are **bit-identical** to a fresh batch [`Deposet`] +
//! `IntervalIndex` built from the same prefix.
//!
//! Queries run over the store through the [`CausalStore`] trait — the same
//! monomorphised Lemma 2 / control / detection code paths as the batch
//! engine. `verify`, which needs full event/message structure, goes through
//! [`SessionStore::snapshot`] (an honest batch rebuild; verification is
//! lattice-exhaustive anyway).

use crate::causal::CausalStore;
use crate::event::{EventKind, Message};
use crate::intervals::FalseIntervals;
use crate::model::{Deposet, DeposetError};
use crate::predicate::LocalPredicate;
use crate::state::LocalState;
use pctl_causality::arena::{ClockArena, MAX_ROWS};
use pctl_causality::{ClockRef, MsgId, ProcessId, StateId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// One append: the event taking a process from its current last state to a
/// new one, plus the variable updates in effect afterwards.
///
/// Message identity on the wire is a *client-chosen* `u64` key (`msg`),
/// mapped to dense [`MsgId`]s internally — a streaming client cannot know
/// the final dense numbering while messages are still in flight.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum AppendOp {
    /// A local computation step on `process`.
    Internal {
        /// Appending process.
        process: u32,
        /// Variable updates applied on top of the predecessor state.
        updates: Vec<(String, i64)>,
    },
    /// `process` sends message `msg` (a fresh client-chosen key).
    Send {
        /// Appending process.
        process: u32,
        /// Client-chosen message key; must be fresh for this session.
        msg: u64,
        /// Free-form message tag.
        tag: String,
        /// Variable updates applied on top of the predecessor state.
        updates: Vec<(String, i64)>,
    },
    /// `process` receives message `msg` (a key previously sent).
    Recv {
        /// Appending process.
        process: u32,
        /// Key of a message previously appended with [`AppendOp::Send`].
        msg: u64,
        /// Variable updates applied on top of the predecessor state.
        updates: Vec<(String, i64)>,
    },
}

impl AppendOp {
    /// The process this op appends to.
    pub fn process(&self) -> u32 {
        match self {
            AppendOp::Internal { process, .. }
            | AppendOp::Send { process, .. }
            | AppendOp::Recv { process, .. } => *process,
        }
    }
}

/// Errors rejecting an [`AppendOp`] (the store is unchanged on error).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SessionError {
    /// The op names a process outside `0..process_count`.
    UnknownProcess {
        /// Offending process index.
        process: u32,
        /// Number of processes in the session.
        count: usize,
    },
    /// A send reuses a message key already used in this session.
    DuplicateMessage {
        /// Offending message key.
        msg: u64,
    },
    /// A receive names a message key never sent.
    UnknownMessage {
        /// Offending message key.
        msg: u64,
    },
    /// A receive names a message that was already delivered.
    AlreadyDelivered {
        /// Offending message key.
        msg: u64,
    },
    /// The computation grew past the 32-bit row addressing.
    TooManyStates {
        /// Total states the append would have produced.
        states: usize,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::UnknownProcess { process, count } => {
                write!(f, "process {process} out of range (session has {count})")
            }
            SessionError::DuplicateMessage { msg } => {
                write!(f, "message key {msg} already used by an earlier send")
            }
            SessionError::UnknownMessage { msg } => {
                write!(f, "message key {msg} was never sent")
            }
            SessionError::AlreadyDelivered { msg } => {
                write!(f, "message key {msg} was already received")
            }
            SessionError::TooManyStates { states } => {
                write!(f, "{states} states exceed the 32-bit row addressing")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// A sent message awaiting (or having completed) delivery.
#[derive(Clone, Debug)]
struct TrackedMessage {
    tag: Arc<str>,
    from: StateId,
    to: Option<StateId>,
}

/// Append-only growing computation for one streaming session (module docs).
#[derive(Clone, Debug)]
pub struct SessionStore {
    locals: Vec<LocalPredicate>,
    states: Vec<Vec<LocalState>>,
    events: Vec<Vec<EventKind>>,
    /// Dense by send order; `to` is filled in on delivery.
    messages: Vec<TrackedMessage>,
    /// Client-chosen wire keys → dense send-order ids.
    wire_ids: HashMap<u64, MsgId>,
    /// One arena per process (width `n`, rows = chain length): rows append
    /// without disturbing other processes' storage.
    clocks: Vec<ClockArena>,
    truth: Vec<Vec<bool>>,
    intervals: FalseIntervals,
    /// Scratch row for cross-arena clock merges (avoids per-recv allocs).
    scratch: Vec<u32>,
    total: usize,
    delivered: usize,
    appended_ops: u64,
    approx_bytes: usize,
}

/// Rough per-state bookkeeping overhead (vectors, clock row headers) used
/// by the memory estimate; deliberately coarse but monotone in growth.
const STATE_OVERHEAD: usize = 48;

impl SessionStore {
    /// Open a session: one local predicate per process, every process at
    /// its initial state `⊥ᵢ` with an empty variable assignment.
    pub fn new(locals: Vec<LocalPredicate>) -> Self {
        Self::with_init(locals.len(), locals, |_| LocalState::default())
    }

    /// Open a session with explicit initial variable assignments
    /// (`init[p]` seeds `⊥ₚ`; missing entries default to empty).
    pub fn new_with_init(locals: Vec<LocalPredicate>, init: &[Vec<(String, i64)>]) -> Self {
        Self::with_init(locals.len(), locals, |p| {
            let vars = init
                .get(p)
                .map(|pairs| pairs.iter().map(|(k, v)| (k.as_str(), *v)).collect())
                .unwrap_or_default();
            LocalState::new(vars)
        })
    }

    fn with_init(
        n: usize,
        locals: Vec<LocalPredicate>,
        mut bottom: impl FnMut(usize) -> LocalState,
    ) -> Self {
        assert!(n > 0, "a session needs at least one process");
        assert_eq!(locals.len(), n);
        let mut store = SessionStore {
            locals,
            states: Vec::with_capacity(n),
            events: vec![Vec::new(); n],
            messages: Vec::new(),
            wire_ids: HashMap::new(),
            clocks: Vec::with_capacity(n),
            truth: vec![Vec::new(); n],
            intervals: FalseIntervals::empty(n),
            scratch: vec![0; n],
            total: 0,
            delivered: 0,
            appended_ops: 0,
            approx_bytes: 0,
        };
        for p in 0..n {
            let s = bottom(p);
            store.approx_bytes += state_cost(&s, n);
            let mut arena = ClockArena::zeroed(n, 0);
            arena.push_zero_row();
            arena.tick(0, ProcessId(p as u32));
            store.clocks.push(arena);
            let t = store.locals[p].eval(&s);
            store.truth[p].push(t);
            store.intervals.extend_for_append(ProcessId(p as u32), 0, t);
            store.states.push(vec![s]);
            store.total += 1;
        }
        store
    }

    /// Apply one append. On error the store is unchanged.
    pub fn apply(&mut self, op: &AppendOp) -> Result<(), SessionError> {
        let n = self.states.len();
        let p = op.process() as usize;
        if p >= n {
            return Err(SessionError::UnknownProcess {
                process: op.process(),
                count: n,
            });
        }
        if self.total >= MAX_ROWS || self.states[p].len() >= MAX_ROWS {
            return Err(SessionError::TooManyStates {
                states: self.total + 1,
            });
        }
        // Validate + record the event first (all fallible steps precede any
        // mutation of the derived stores).
        let k = self.states[p].len();
        let pid = ProcessId(p as u32);
        let (event, updates, recv_src) = match op {
            AppendOp::Internal { updates, .. } => (EventKind::Internal, updates, None),
            AppendOp::Send {
                msg, tag, updates, ..
            } => {
                if self.wire_ids.contains_key(msg) {
                    return Err(SessionError::DuplicateMessage { msg: *msg });
                }
                let id = MsgId(self.messages.len() as u32);
                self.wire_ids.insert(*msg, id);
                self.messages.push(TrackedMessage {
                    tag: Arc::from(tag.as_str()),
                    from: StateId::new(pid, (k - 1) as u32),
                    to: None,
                });
                self.approx_bytes += tag.len() + STATE_OVERHEAD;
                (EventKind::Send(id), updates, None)
            }
            AppendOp::Recv { msg, updates, .. } => {
                let id = *self
                    .wire_ids
                    .get(msg)
                    .ok_or(SessionError::UnknownMessage { msg: *msg })?;
                let m = &mut self.messages[id.index()];
                if m.to.is_some() {
                    return Err(SessionError::AlreadyDelivered { msg: *msg });
                }
                m.to = Some(StateId::new(pid, k as u32));
                self.delivered += 1;
                (EventKind::Recv(id), updates, Some(m.from))
            }
        };

        // New state payload: predecessor's assignment plus updates.
        let mut state = self.states[p][k - 1].clone();
        state.label = None;
        for (name, v) in updates {
            state.vars.set(name, *v);
        }

        // Incremental Fidge–Mattern: copy the local predecessor, merge the
        // send-side clock for receives, tick own component. Every row read
        // here is already final (causal delivery order, see module docs).
        let r = self.clocks[p].push_zero_row();
        debug_assert_eq!(r, k);
        let mut intra: &[u32] = &[];
        let mut same_proc_src = [0u32; 1];
        let mut external: &[u32] = &[];
        if let Some(from) = recv_src {
            let q = from.process.index();
            if q == p {
                same_proc_src[0] = from.idx() as u32;
                intra = &same_proc_src;
            } else {
                self.scratch
                    .copy_from_slice(self.clocks[q].row(from.idx()).entries());
                external = &self.scratch;
            }
        }
        // `external` borrows `self.scratch` while `fm_row` borrows
        // `self.clocks[p]` — disjoint fields, so this compiles without a
        // copy of the merge logic.
        self.clocks[p].fm_row(k, false, intra, external, pid);

        // Truth column + false intervals grow in place.
        let t = self.locals[p].eval(&state);
        self.truth[p].push(t);
        self.intervals.extend_for_append(pid, k as u32, t);

        self.approx_bytes += state_cost(&state, n);
        self.states[p].push(state);
        self.events[p].push(event);
        self.total += 1;
        self.appended_ops += 1;
        Ok(())
    }

    /// The registered per-process local predicates.
    pub fn locals(&self) -> &[LocalPredicate] {
        &self.locals
    }

    /// The local state payload for `id`.
    pub fn state(&self, id: StateId) -> &LocalState {
        &self.states[id.process.index()][id.idx()]
    }

    /// The vector clock of state `id`.
    pub fn clock(&self, id: StateId) -> ClockRef<'_> {
        self.clocks[id.process.index()].row(id.idx())
    }

    /// The truth value of the session predicate's local at state `s`.
    pub fn truth(&self, s: StateId) -> bool {
        self.truth[s.process.index()][s.idx()]
    }

    /// The truth column of process `p`.
    pub fn truths_of(&self, p: ProcessId) -> &[bool] {
        &self.truth[p.index()]
    }

    /// The incrementally maintained false-interval lists.
    pub fn intervals(&self) -> &FalseIntervals {
        &self.intervals
    }

    /// Total number of local states (including the `n` initial states).
    pub fn total_states(&self) -> usize {
        self.total
    }

    /// Number of ops successfully applied since the session opened.
    pub fn appended_ops(&self) -> u64 {
        self.appended_ops
    }

    /// Messages sent but not yet received.
    pub fn in_flight(&self) -> usize {
        self.messages.len() - self.delivered
    }

    /// Every tracked message's endpoints, in send order: the state before
    /// the send and, when delivered, the state after the receive (`None`
    /// while the message is still in flight). The slicing engine's channel
    /// rules consume exactly this view.
    pub fn message_endpoints(&self) -> impl Iterator<Item = (StateId, Option<StateId>)> + '_ {
        self.messages.iter().map(|m| (m.from, m.to))
    }

    /// Rough, monotone estimate of the heap footprint in bytes — the unit
    /// the daemon's global memory budget is accounted in. Counts clock
    /// words, truth bits, state payloads and message tags; deliberately an
    /// estimate (an exact measurement would cost more than it saves).
    pub fn approx_bytes(&self) -> usize {
        let clock_words: usize = self.clocks.iter().map(ClockArena::allocated_words).sum();
        self.approx_bytes + clock_words * 4 + self.total
    }

    /// Materialise the current prefix as a batch [`Deposet`].
    ///
    /// In-flight sends become `Internal` events (exactly the builder's
    /// `allow_in_flight` semantics — clocks are unaffected, since a send
    /// ticks its sender either way) and delivered messages are renumbered
    /// densely. The result re-validates from scratch, making the snapshot
    /// an independent audit of the incremental construction.
    pub fn snapshot(&self) -> Result<Deposet, DeposetError> {
        let mut remap: Vec<Option<MsgId>> = vec![None; self.messages.len()];
        let mut messages = Vec::with_capacity(self.delivered);
        for (i, m) in self.messages.iter().enumerate() {
            if let Some(to) = m.to {
                let id = MsgId(messages.len() as u32);
                remap[i] = Some(id);
                messages.push(Message {
                    id,
                    tag: m.tag.clone(),
                    from: m.from,
                    to,
                });
            }
        }
        let events: Vec<Vec<EventKind>> = self
            .events
            .iter()
            .map(|evs| {
                evs.iter()
                    .map(|e| match e {
                        EventKind::Send(m) => match remap[m.index()] {
                            Some(id) => EventKind::Send(id),
                            None => EventKind::Internal,
                        },
                        EventKind::Recv(m) => {
                            EventKind::Recv(remap[m.index()].expect("recv implies delivered"))
                        }
                        EventKind::Internal => EventKind::Internal,
                    })
                    .collect()
            })
            .collect();
        Deposet::from_parts(self.states.clone(), events, messages)
    }
}

fn state_cost(s: &LocalState, _n: usize) -> usize {
    STATE_OVERHEAD + s.vars.len() * 24
}

/// Linearize a batch [`Deposet`] into a causally-valid append stream: the
/// per-process initial assignments (seeding [`SessionStore::new_with_init`])
/// plus one [`AppendOp`] per event, in an order where every receive comes
/// after its send (round-robin over the processes, skipping blocked
/// receives). Wire message keys are the dense [`MsgId`] indices.
///
/// Replaying the stream through a [`SessionStore`] with the same predicate
/// reconstructs the computation exactly (variable *removals* between
/// adjacent states cannot be expressed as updates, but no builder-produced
/// computation contains any).
pub fn linearize(dep: &Deposet) -> (Vec<Vec<(String, i64)>>, Vec<AppendOp>) {
    let n = dep.process_count();
    let init: Vec<Vec<(String, i64)>> = (0..n)
        .map(|p| {
            dep.state(StateId::new(ProcessId(p as u32), 0))
                .vars
                .iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect()
        })
        .collect();
    let mut cursor = vec![0usize; n];
    let mut sent = vec![false; dep.messages().len()];
    let total_events: usize = (0..n)
        .map(|p| dep.events_of(ProcessId(p as u32)).len())
        .sum();
    let mut ops = Vec::with_capacity(total_events);
    while ops.len() < total_events {
        let mut progressed = false;
        for (p, cur) in cursor.iter_mut().enumerate() {
            let pid = ProcessId(p as u32);
            let events = dep.events_of(pid);
            while *cur < events.len() {
                let k = *cur;
                let ev = events[k];
                if let EventKind::Recv(m) = ev {
                    if !sent[m.index()] {
                        break; // blocked until the send is emitted
                    }
                }
                let prev = &dep.states_of(pid)[k];
                let next = &dep.states_of(pid)[k + 1];
                let updates: Vec<(String, i64)> = next
                    .vars
                    .iter()
                    .filter(|&(name, v)| prev.vars.get(name) != Some(v))
                    .map(|(name, v)| (name.to_string(), v))
                    .collect();
                ops.push(match ev {
                    EventKind::Internal => AppendOp::Internal {
                        process: p as u32,
                        updates,
                    },
                    EventKind::Send(m) => {
                        sent[m.index()] = true;
                        AppendOp::Send {
                            process: p as u32,
                            msg: m.index() as u64,
                            tag: dep.message(m).tag.to_string(),
                            updates,
                        }
                    }
                    EventKind::Recv(m) => AppendOp::Recv {
                        process: p as u32,
                        msg: m.index() as u64,
                        updates,
                    },
                });
                *cur += 1;
                progressed = true;
            }
        }
        assert!(progressed, "valid deposets always have a ready event");
    }
    (init, ops)
}

impl CausalStore for SessionStore {
    #[inline]
    fn process_count(&self) -> usize {
        self.states.len()
    }

    #[inline]
    fn len_of(&self, p: ProcessId) -> usize {
        self.states[p.index()].len()
    }

    /// O(1), same two-word-read form as the batch deposet:
    /// `s → t ⇔ s ≠ t ∧ V(s)[proc(s)] ≤ V(t)[proc(s)]`.
    #[inline]
    fn precedes(&self, s: StateId, t: StateId) -> bool {
        s != t
            && self.clocks[s.process.index()].word(s.idx(), s.process)
                <= self.clocks[t.process.index()].word(t.idx(), s.process)
    }

    /// O(1): one word read from the per-process arena row.
    #[inline]
    fn clock_entry(&self, s: StateId, q: ProcessId) -> u32 {
        self.clocks[s.process.index()].word(s.idx(), q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::DisjunctivePredicate;

    fn two_proc_session() -> SessionStore {
        let pred = DisjunctivePredicate::at_least_one(2, "ok");
        SessionStore::new_with_init(
            pred.locals().to_vec(),
            &[vec![("ok".into(), 1)], vec![("ok".into(), 0)]],
        )
    }

    #[test]
    fn initial_states_have_ticked_clocks() {
        let s = two_proc_session();
        assert_eq!(s.total_states(), 2);
        assert_eq!(s.clock(StateId::new(0usize, 0)).entries(), &[1, 0]);
        assert_eq!(s.clock(StateId::new(1usize, 0)).entries(), &[0, 1]);
        assert!(s.truth(StateId::new(0usize, 0)));
        assert!(!s.truth(StateId::new(1usize, 0)));
        assert_eq!(s.intervals().of(ProcessId(1)).len(), 1);
    }

    #[test]
    fn send_recv_merges_clocks_like_batch() {
        let mut s = two_proc_session();
        s.apply(&AppendOp::Send {
            process: 0,
            msg: 7,
            tag: "m".into(),
            updates: vec![],
        })
        .unwrap();
        s.apply(&AppendOp::Recv {
            process: 1,
            msg: 7,
            updates: vec![("ok".into(), 1)],
        })
        .unwrap();
        // Same shape as model.rs::clocks_match_fidge_mattern.
        assert_eq!(s.clock(StateId::new(0usize, 1)).entries(), &[2, 0]);
        assert_eq!(s.clock(StateId::new(1usize, 1)).entries(), &[1, 2]);
        assert!(s.precedes(StateId::new(0usize, 0), StateId::new(1usize, 1)));
        assert!(s.concurrent(StateId::new(0usize, 1), StateId::new(1usize, 1)));
        assert_eq!(s.in_flight(), 0);
        let dep = s.snapshot().unwrap();
        assert_eq!(dep.messages().len(), 1);
    }

    #[test]
    fn rejects_bad_ops_without_mutating() {
        let mut s = two_proc_session();
        let before = s.total_states();
        assert_eq!(
            s.apply(&AppendOp::Internal {
                process: 9,
                updates: vec![]
            }),
            Err(SessionError::UnknownProcess {
                process: 9,
                count: 2
            })
        );
        assert_eq!(
            s.apply(&AppendOp::Recv {
                process: 0,
                msg: 1,
                updates: vec![]
            }),
            Err(SessionError::UnknownMessage { msg: 1 })
        );
        s.apply(&AppendOp::Send {
            process: 0,
            msg: 1,
            tag: "t".into(),
            updates: vec![],
        })
        .unwrap();
        assert_eq!(
            s.apply(&AppendOp::Send {
                process: 0,
                msg: 1,
                tag: "t".into(),
                updates: vec![]
            }),
            Err(SessionError::DuplicateMessage { msg: 1 })
        );
        s.apply(&AppendOp::Recv {
            process: 1,
            msg: 1,
            updates: vec![],
        })
        .unwrap();
        assert_eq!(
            s.apply(&AppendOp::Recv {
                process: 1,
                msg: 1,
                updates: vec![]
            }),
            Err(SessionError::AlreadyDelivered { msg: 1 })
        );
        assert_eq!(s.total_states(), before + 2);
    }

    #[test]
    fn in_flight_sends_snapshot_as_internal() {
        let mut s = two_proc_session();
        s.apply(&AppendOp::Send {
            process: 0,
            msg: 1,
            tag: "t".into(),
            updates: vec![],
        })
        .unwrap();
        assert_eq!(s.in_flight(), 1);
        let dep = s.snapshot().unwrap();
        assert!(dep.messages().is_empty());
        assert_eq!(dep.events_of(ProcessId(0)), &[EventKind::Internal]);
        // Clocks agree even with the in-flight send rewritten.
        assert_eq!(
            dep.clock(StateId::new(0usize, 1)).entries(),
            s.clock(StateId::new(0usize, 1)).entries()
        );
    }

    #[test]
    fn memory_estimate_grows_with_appends() {
        let mut s = two_proc_session();
        let b0 = s.approx_bytes();
        for i in 0..100 {
            s.apply(&AppendOp::Internal {
                process: (i % 2) as u32,
                updates: vec![("ok".into(), i)],
            })
            .unwrap();
        }
        assert!(s.approx_bytes() > b0);
        assert_eq!(s.appended_ops(), 100);
    }

    #[test]
    fn self_message_is_valid() {
        let mut s = two_proc_session();
        s.apply(&AppendOp::Send {
            process: 0,
            msg: 1,
            tag: "loop".into(),
            updates: vec![],
        })
        .unwrap();
        s.apply(&AppendOp::Recv {
            process: 0,
            msg: 1,
            updates: vec![],
        })
        .unwrap();
        let dep = s.snapshot().unwrap();
        assert_eq!(dep.messages().len(), 1);
        for st in dep.state_ids() {
            assert_eq!(dep.clock(st).entries(), s.clock(st).entries());
        }
    }
}
