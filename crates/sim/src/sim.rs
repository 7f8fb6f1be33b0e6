//! The discrete-event simulator: an actor-model engine.
//!
//! An asynchronous message-passing system in the paper's model: `n`
//! sequential processes, reliable channels, no shared memory, no message
//! ordering guarantees (delays are sampled per message). The simulator is
//! single-threaded and fully deterministic for a given seed — a property
//! the whole experiment harness leans on.
//!
//! Every send / receive / variable update is recorded into a
//! [`DeposetBuilder`], so a finished run yields the deposet of the traced
//! computation, ready for predicate detection and off-line control. This is
//! the "substitution" substrate described in DESIGN.md: the paper's
//! (unspecified) runtime becomes a simulator with parameterized message
//! delay `T`, which makes the paper's analytic overhead claims measurable.
//!
//! ## Engine shape (see DESIGN.md §15)
//!
//! Each process is a mailbox actor: in-flight payloads live in a
//! generation-checked [`PayloadArena`], scheduling moves only `Copy` events
//! through a hierarchical [`TimingWheel`], and execution proceeds in
//! *timestep batches* — the wheel yields every event due at the earliest
//! occupied time, deliveries are staged into per-process inboxes in global
//! `(time, seq)` order, and the run queue then executes them in exactly
//! that order. The end of a timestep is the paper's "controlled deadlock":
//! nothing at time `t` remains runnable, so the wheel advances.
//!
//! The batch structure is an implementation detail, not a semantic change:
//! dispatch order, RNG draw order, trace construction and metrics are
//! bit-for-bit identical to the original global-heap dispatcher (pinned by
//! golden fingerprints in `pctl-mutex` and the determinism proptests).

use crate::arena::{MsgHandle, PayloadArena};
use crate::faults::{CrashPhase, FaultPlan};
use crate::metrics::Metrics;
use crate::time::SimTime;
use crate::wheel::{TimingWheel, WheelEntry};
use pctl_causality::VectorClock;
use pctl_deposet::{Deposet, DeposetBuilder, MsgToken, ProcessId};
use pctl_obs::{Event, EventKind, NullRecorder, Recorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::collections::VecDeque;

/// Messages exchanged by simulated processes.
pub trait Payload: Clone + std::fmt::Debug + 'static {
    /// Short tag recorded in the trace (protocol step name).
    fn tag(&self) -> &'static str {
        "msg"
    }
    /// Control-plane messages are counted separately in the metrics
    /// (`msgs_ctrl` vs `msgs_app`).
    fn is_control(&self) -> bool {
        false
    }
}

/// Identifier of a pending timer, unique per simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TimerId(pub u64);

/// A simulated process: a reactive state machine.
///
/// Handlers receive a [`Ctx`] granting access to sends, timers, traced
/// variable updates, randomness and metrics.
pub trait Process<M: Payload> {
    /// Invoked once at time zero, in process-id order.
    fn on_start(&mut self, _ctx: &mut Ctx<'_, M>) {}
    /// Invoked when a message is delivered.
    fn on_message(&mut self, from: ProcessId, msg: M, ctx: &mut Ctx<'_, M>);
    /// Invoked when a timer set through [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, _timer: TimerId, _ctx: &mut Ctx<'_, M>) {}
    /// Invoked when the process restarts after a scheduled crash (see
    /// [`crate::faults::Crash`]). In-memory state survives, but all timers
    /// set before the crash are stale — re-arm them here.
    fn on_restart(&mut self, _ctx: &mut Ctx<'_, M>) {}
}

/// Message delay distribution.
#[derive(Clone, Copy, Debug)]
pub enum DelayModel {
    /// Every message takes exactly this long.
    Fixed(u64),
    /// Uniform in `[min, max]`.
    Uniform {
        /// Minimum delay.
        min: u64,
        /// Maximum delay (inclusive).
        max: u64,
    },
}

impl DelayModel {
    fn sample(&self, rng: &mut StdRng) -> u64 {
        match *self {
            DelayModel::Fixed(d) => d,
            DelayModel::Uniform { min, max } => rng.gen_range(min..=max),
        }
    }

    /// Mean delay `T` (used when checking the paper's response-time bounds).
    pub fn mean(&self) -> f64 {
        match *self {
            DelayModel::Fixed(d) => d as f64,
            // Widened per addend: `min + max` can overflow u64.
            DelayModel::Uniform { min, max } => (min as f64 + max as f64) / 2.0,
        }
    }
}

/// Hard cap on the number of processes, so lane indices always fit the
/// `u32` lanes used by trace events and `ProcessId` (the `MAX_ROWS`-style
/// guard used across the workspace).
pub const MAX_PROCESSES: usize = u32::MAX as usize;

/// Checked lane cast: every `ProcessId → u32` conversion in the engine
/// funnels through here instead of a bare `as` cast.
fn lane(p: ProcessId) -> u32 {
    u32::try_from(p.index()).expect("process lane exceeds u32 range")
}

/// Simulation parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// RNG seed; equal seeds give identical runs.
    pub seed: u64,
    /// Message delay model (the paper's `T` is its mean).
    pub delay: DelayModel,
    /// Hard stop after this simulated time.
    pub max_time: SimTime,
    /// Hard stop after this many dispatched events.
    pub max_events: usize,
    /// Fault schedule. The default (empty) plan keeps the run bit-for-bit
    /// identical to the original fault-free simulator.
    pub faults: FaultPlan,
    /// Soft bound on a process's inbox depth. The simulator models
    /// *reliable* channels, so staging beyond the bound never drops a
    /// message — it increments [`CoreStats::inbox_overflows`] and shows up
    /// in [`CoreStats::inbox_high_water`], making runaway mailboxes
    /// observable without perturbing the run.
    pub inbox_capacity: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            delay: DelayModel::Fixed(10),
            max_time: SimTime(u64::MAX),
            max_events: 1_000_000,
            faults: FaultPlan::default(),
            inbox_capacity: 4096,
        }
    }
}

/// Why the run stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// Event queue drained: the system is quiescent. If processes report
    /// themselves unfinished this is a *deadlock* in the modeled protocol.
    Quiescent,
    /// `max_events` dispatched.
    MaxEvents,
    /// Simulated clock passed `max_time`.
    MaxTime,
}

/// Engine-level accounting for one run: how big the machinery itself got.
///
/// Deliberately kept *out* of [`Metrics`] — the metrics registry is part of
/// the bit-identity surface (fingerprinted against pre-refactor goldens),
/// while these gauges describe the engine, not the modeled system. The
/// arena/inbox/wheel high-water marks are the "memory proportional to live
/// state" evidence: they track peak in-flight messages and pending events,
/// not total traffic.
#[derive(Clone, Debug, Default, Serialize)]
pub struct CoreStats {
    /// Events dispatched (deliveries, timer fires, crashes, restarts).
    pub events_dispatched: u64,
    /// Distinct simulated times at which at least one event ran.
    pub timesteps: u64,
    /// Largest single timestep batch.
    pub max_batch: u64,
    /// Peak simultaneous in-flight message payloads.
    pub arena_high_water: u64,
    /// Arena slots ever allocated (its real footprint; `≥ high_water` only
    /// by free-list fragmentation, in practice equal).
    pub arena_slots: u64,
    /// Payloads still in flight when the run stopped (0 for quiescent runs).
    pub arena_live_at_end: u64,
    /// Peak depth of any single process inbox within a timestep.
    pub inbox_high_water: u64,
    /// Times a staged delivery found its inbox past
    /// [`SimConfig::inbox_capacity`] (soft bound: counted, never dropped).
    pub inbox_overflows: u64,
    /// Peak pending events in the scheduler (wheel + overflow heap).
    pub wheel_high_water: u64,
    /// Entries the timing wheel moved between levels while advancing.
    pub wheel_cascades: u64,
}

/// How one process ended the run — the refinement behind
/// [`SimResult::deadlocked`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcessOutcome {
    /// Called [`Ctx::set_done`].
    Done,
    /// Crashed and still down at the end of the run.
    Down,
    /// Took part in the protocol (sent, received, or armed a timer) but
    /// never finished — starved waiting on messages that never came. This
    /// is the *protocol deadlock* predicate control exists to catch.
    Blocked,
    /// Never interacted with the protocol at all: a script that simply
    /// never calls `set_done` (or never ran). Not a protocol deadlock.
    Inert,
}

/// Result of a completed run.
pub struct SimResult {
    /// The traced computation.
    pub deposet: Deposet,
    /// Counters and samples accumulated via [`Ctx`].
    pub metrics: Metrics,
    /// Final simulated time.
    pub end_time: SimTime,
    /// Per-process "done" flags (set by [`Ctx::set_done`]).
    pub done: Vec<bool>,
    /// Why the run stopped.
    pub stopped: StopReason,
    /// The telemetry sink the run recorded into (a [`NullRecorder`] unless
    /// the simulation was built with [`Simulation::with_recorder`]).
    pub recorder: Box<dyn Recorder>,
    /// Engine accounting (arena/inbox/wheel gauges, batch shape).
    pub core: CoreStats,
    /// Per-process down flags at the end of the run.
    down: Vec<bool>,
    /// Per-process "took part in the protocol" flags.
    engaged: Vec<bool>,
}

impl SimResult {
    /// Quiescent but some process never reported done — a protocol-level
    /// deadlock *or* a process that simply never finishes its script. Use
    /// [`SimResult::outcomes`] / [`SimResult::protocol_deadlock`] /
    /// [`SimResult::never_finished`] to tell the two apart.
    pub fn deadlocked(&self) -> bool {
        self.stopped == StopReason::Quiescent && !self.done.iter().all(|&d| d)
    }

    /// Per-process end-of-run classification, in process-id order.
    pub fn outcomes(&self) -> Vec<ProcessOutcome> {
        (0..self.done.len())
            .map(|i| {
                if self.done[i] {
                    ProcessOutcome::Done
                } else if self.down[i] {
                    ProcessOutcome::Down
                } else if self.engaged[i] {
                    ProcessOutcome::Blocked
                } else {
                    ProcessOutcome::Inert
                }
            })
            .collect()
    }

    /// Quiescent with at least one *engaged* process starved mid-protocol —
    /// the genuine deadlock case (distinct from a script that never calls
    /// `set_done`; see [`SimResult::never_finished`]).
    pub fn protocol_deadlock(&self) -> bool {
        self.stopped == StopReason::Quiescent && self.outcomes().contains(&ProcessOutcome::Blocked)
    }

    /// Processes that ended unfinished without ever engaging the protocol
    /// (no send, no receive, no timer): scripts that never finish, not
    /// deadlock victims.
    pub fn never_finished(&self) -> Vec<ProcessId> {
        self.outcomes()
            .iter()
            .enumerate()
            .filter(|(_, o)| **o == ProcessOutcome::Inert)
            .map(|(i, _)| ProcessId(u32::try_from(i).expect("process lane exceeds u32 range")))
            .collect()
    }

    /// Snapshot of the recorded telemetry (empty for null/streaming sinks).
    pub fn events(&self) -> Vec<Event> {
        self.recorder.snapshot()
    }
}

/// A scheduler event: `Copy`, payload-free (payloads stay in the arena).
/// These are what flow through the timing wheel and the run queue.
#[derive(Clone, Copy, Debug)]
enum Ev {
    /// Deliver the in-flight payload behind `handle` to `dst`.
    Deliver {
        dst: ProcessId,
        handle: MsgHandle,
    },
    /// Fire a timer. `inc` pins the timer to the incarnation that set it,
    /// so timers armed before a crash never fire into the restarted
    /// incarnation.
    Timer {
        dst: ProcessId,
        id: TimerId,
        inc: u32,
    },
    Crash {
        dst: ProcessId,
    },
    Restart {
        dst: ProcessId,
    },
}

/// A run-queue token: one event of the current timestep batch, executed in
/// `seq` order.
#[derive(Clone, Copy, Debug)]
struct Tok {
    seq: u64,
    ev: Ev,
}

/// Everything a message carries besides its scheduling key: the payload,
/// its trace token, and telemetry baggage. Lives in the arena from send to
/// delivery.
struct InFlight<M> {
    src: ProcessId,
    msg: M,
    token: MsgToken,
    // Telemetry-only fields: the flow id pairing this delivery with its
    // send event, and the sender's vector clock at the send (present only
    // when recording).
    flow: u64,
    clock: Option<VectorClock>,
}

struct Inner<M> {
    wheel: TimingWheel<Ev>,
    arena: PayloadArena<InFlight<M>>,
    /// Per-process mailbox of staged (routed, not yet executed) deliveries.
    inboxes: Vec<VecDeque<MsgHandle>>,
    /// The current timestep's run queue. Zero-delay sends made *during*
    /// the batch append here (their seq is necessarily the largest yet, so
    /// appending preserves seq order).
    run_queue: Vec<Tok>,
    run_pos: usize,
    /// True while the run queue of the current timestep is executing.
    in_batch: bool,
    inbox_capacity: usize,
    stats: CoreStats,
    builder: DeposetBuilder,
    metrics: Metrics,
    rng: StdRng,
    delay: DelayModel,
    now: SimTime,
    seq: u64,
    next_timer: u64,
    done: Vec<bool>,
    /// Set when a process sends, receives, or arms a timer — the signal
    /// separating [`ProcessOutcome::Blocked`] from [`ProcessOutcome::Inert`].
    engaged: Vec<bool>,
    faults: FaultPlan,
    // Dedicated fault-decision stream: fault sampling must not perturb the
    // main `rng` stream handlers draw from, or a fault plan would change
    // the base behavior it is supposed to perturb.
    frng: StdRng,
    faulty: bool,
    down: Vec<bool>,
    incarnation: Vec<u32>,
    // Telemetry. `rec` is a NullRecorder unless the run asked for tracing;
    // `clocks` (live Fidge–Mattern clocks, one per process) and `next_flow`
    // are only advanced while recording, so a disabled recorder leaves the
    // run bit-identical — none of this ever touches `rng`/`frng`.
    rec: Box<dyn Recorder>,
    clocks: Vec<VectorClock>,
    next_flow: u64,
}

/// Seed offset separating the fault stream from the main stream.
const FAULT_STREAM_SALT: u64 = 0xFA_17_5E_ED_00_00_00_01;

impl<M: Payload> Inner<M> {
    /// Assign the next global sequence number and either enqueue the event
    /// in the wheel or, for zero-delay events scheduled mid-batch, append
    /// it to the live run queue (its seq is the largest so far, so the
    /// batch stays seq-sorted).
    fn schedule(&mut self, time: SimTime, ev: Ev) {
        let seq = self.seq;
        self.seq = self
            .seq
            .checked_add(1)
            .expect("scheduling sequence overflowed u64");
        debug_assert!(time >= self.now, "scheduling into the past");
        if self.in_batch && time == self.now {
            self.route(Tok { seq, ev });
        } else {
            self.wheel.push(time.0, seq, ev);
        }
    }

    /// Stage one event of the current timestep: deliveries go into the
    /// destination mailbox (bounded-inbox accounting happens here), and the
    /// token joins the run queue.
    fn route(&mut self, tok: Tok) {
        if let Ev::Deliver { dst, handle } = tok.ev {
            let inbox = &mut self.inboxes[dst.index()];
            inbox.push_back(handle);
            let depth = inbox.len() as u64;
            self.stats.inbox_high_water = self.stats.inbox_high_water.max(depth);
            if inbox.len() > self.inbox_capacity {
                self.stats.inbox_overflows += 1;
            }
        }
        self.run_queue.push(tok);
    }

    /// Record an instant event on `p`'s lane, stamped with its live clock.
    fn rec_instant(&mut self, p: ProcessId, name: &str) {
        if self.rec.enabled() {
            let clock = self.clocks[p.index()].entries().to_vec();
            self.rec
                .record(Event::instant(self.now.0, lane(p), name).with_clock(clock));
        }
    }

    /// Telemetry for one message copy leaving `src`: advance the sender's
    /// clock, allocate a flow id, and emit the send event. Returns the
    /// `(flow, clock)` pair the matching [`Ev::Deliver`] must carry;
    /// `(0, None)` when recording is off.
    fn rec_send(
        &mut self,
        src: ProcessId,
        dst: ProcessId,
        tag: &str,
    ) -> (u64, Option<VectorClock>) {
        if !self.rec.enabled() {
            return (0, None);
        }
        self.clocks[src.index()].tick(src);
        let flow = self.next_flow;
        self.next_flow = self
            .next_flow
            .checked_add(1)
            .expect("flow id overflowed u64");
        let clock = self.clocks[src.index()].clone();
        self.rec.record(Event {
            ts: self.now.0,
            lane: lane(src),
            name: tag.to_owned(),
            kind: EventKind::MsgSend {
                id: flow,
                to: lane(dst),
            },
            clock: Some(clock.entries().to_vec()),
        });
        (flow, Some(clock))
    }

    /// Park an in-flight payload in the arena and schedule its delivery.
    #[allow(clippy::too_many_arguments)]
    fn schedule_delivery(
        &mut self,
        src: ProcessId,
        dst: ProcessId,
        msg: M,
        token: MsgToken,
        at: SimTime,
        flow: u64,
        clock: Option<VectorClock>,
    ) {
        let handle = self.arena.alloc(InFlight {
            src,
            msg,
            token,
            flow,
            clock,
        });
        self.stats.arena_high_water = self
            .stats
            .arena_high_water
            .max(self.arena.high_water() as u64);
        self.schedule(at, Ev::Deliver { dst, handle });
    }

    /// Faulty-path continuation of [`Ctx::send`]: the send event is already
    /// traced and counted; decide the message's fate in the network.
    #[allow(clippy::too_many_arguments)]
    fn send_faulty(
        &mut self,
        src: ProcessId,
        dst: ProcessId,
        msg: M,
        token: MsgToken,
        at: SimTime,
        flow: u64,
        clock: Option<VectorClock>,
    ) {
        if self.faults.severed(src, dst, self.now) {
            self.metrics.add("msgs_dropped", 1);
            self.rec_instant(src, "msg_severed");
            // Dropping the token leaves the send in-flight; the builder
            // rewrites it to an internal event at finish().
            drop(token);
            return;
        }
        let link = self.faults.link(src, dst).clone();
        if link.drop_p > 0.0 && self.frng.gen_bool(link.drop_p) {
            self.metrics.add("msgs_dropped", 1);
            self.rec_instant(src, "msg_dropped");
            return;
        }
        let mut at = at;
        if link.extra_delay_max > 0 {
            at += self.frng.gen_range(0..=link.extra_delay_max);
        }
        if link.dup_p > 0.0 && self.frng.gen_bool(link.dup_p) {
            // A duplicate needs its own send event: the trace model requires
            // every received message to have a matching send, so channel
            // duplication appears in the deposet as a second send by `src`.
            let token2 = self.builder.send_with(src, msg.tag(), &[]);
            let (flow2, clock2) = self.rec_send(src, dst, msg.tag());
            let mut at2 = self.now + self.delay.sample(&mut self.frng);
            if link.extra_delay_max > 0 {
                at2 += self.frng.gen_range(0..=link.extra_delay_max);
            }
            self.metrics.add("msgs_duplicated", 1);
            self.rec_instant(src, "msg_duplicated");
            let msg2 = msg.clone();
            self.schedule_delivery(src, dst, msg2, token2, at2, flow2, clock2);
        }
        self.schedule_delivery(src, dst, msg, token, at, flow, clock);
    }
}

/// Handler-side capability to the simulation world.
pub struct Ctx<'a, M: Payload> {
    me: ProcessId,
    inner: &'a mut Inner<M>,
}

impl<M: Payload> Ctx<'_, M> {
    /// This process's id.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.inner.now
    }

    /// Send `msg` to `to`; the delivery delay is sampled from the
    /// configured model. The send is recorded in the trace.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        let delay = self.inner.delay.sample(&mut self.inner.rng);
        let token = self.inner.builder.send_with(self.me, msg.tag(), &[]);
        self.inner.engaged[self.me.index()] = true;
        self.inner.metrics.add("msgs_total", 1);
        if msg.is_control() {
            self.inner.metrics.add("msgs_ctrl", 1);
        } else {
            self.inner.metrics.add("msgs_app", 1);
        }
        let (flow, clock) = self.inner.rec_send(self.me, to, msg.tag());
        let at = self.inner.now + delay;
        if !self.inner.faulty {
            self.inner
                .schedule_delivery(self.me, to, msg, token, at, flow, clock);
            return;
        }
        self.inner
            .send_faulty(self.me, to, msg, token, at, flow, clock);
    }

    /// Set a timer `delay` ticks from now.
    pub fn set_timer(&mut self, delay: u64) -> TimerId {
        let id = TimerId(self.inner.next_timer);
        self.inner.next_timer = self
            .inner
            .next_timer
            .checked_add(1)
            .expect("timer id overflowed u64");
        self.inner.engaged[self.me.index()] = true;
        let at = self.inner.now + delay;
        let inc = self.inner.incarnation[self.me.index()];
        self.inner.schedule(
            at,
            Ev::Timer {
                dst: self.me,
                id,
                inc,
            },
        );
        id
    }

    /// Update traced variables: records one internal event whose new state
    /// has `updates` applied (one local step in the paper's model). When
    /// recording, each update also emits a counter sample, so traced
    /// variables (and so predicate truth intervals) render as step
    /// functions in the exported timeline.
    pub fn step(&mut self, updates: &[(&str, i64)]) {
        self.inner.builder.internal(self.me, updates);
        if self.inner.rec.enabled() {
            self.inner.clocks[self.me.index()].tick(self.me);
            let clock = self.inner.clocks[self.me.index()].entries().to_vec();
            for (name, value) in updates {
                self.inner.rec.record(
                    Event::counter(self.inner.now.0, lane(self.me), name, *value)
                        .with_clock(clock.clone()),
                );
            }
        }
    }

    /// Set variables on this process's *initial* state. Only valid before
    /// the process has taken any traced step (typically from `on_start`).
    pub fn init_var(&mut self, name: &str, value: i64) {
        self.inner.builder.init_vars(self.me, &[(name, value)]);
    }

    /// Label the process's current state (for figure-style traces).
    pub fn label(&mut self, label: &str) {
        self.inner.builder.label(self.me, label);
    }

    /// Read back a traced variable of this process.
    pub fn var(&self, name: &str) -> Option<i64> {
        self.inner.builder.var(self.me, name)
    }

    /// Id of this process's current traced state (e.g. to remember where a
    /// snapshot was taken).
    pub fn current_state(&self) -> pctl_deposet::StateId {
        self.inner.builder.current(self.me)
    }

    /// Mark this process as finished with its script.
    pub fn set_done(&mut self) {
        self.inner.done[self.me.index()] = true;
    }

    /// Increment a metric counter.
    pub fn count(&mut self, name: &str, by: u64) {
        self.inner.metrics.add(name, by);
    }

    /// Record a metric sample (e.g. a response time).
    pub fn record(&mut self, name: &str, value: u64) {
        self.inner.metrics.record(name, value);
    }

    /// Uniform random integer in `[0, bound)`.
    pub fn rand_below(&mut self, bound: u64) -> u64 {
        self.inner.rng.gen_range(0..bound)
    }

    /// Uniform random integer in `[lo, hi]`.
    pub fn rand_range(&mut self, lo: u64, hi: u64) -> u64 {
        self.inner.rng.gen_range(lo..=hi)
    }

    /// Bernoulli sample.
    pub fn rand_bool(&mut self, p: f64) -> bool {
        self.inner.rng.gen_bool(p)
    }

    // ---- telemetry ----
    //
    // All trace_* calls are no-ops under a disabled recorder. They annotate
    // the run (protocol decisions, blocked windows, custom samples) without
    // advancing the process's clock — annotations are not model events.

    /// Whether a live recorder is attached. Use to skip building expensive
    /// event names on the fast path.
    pub fn recording(&self) -> bool {
        self.inner.rec.enabled()
    }

    /// Record a point-in-time occurrence on this process's lane.
    pub fn trace_instant(&mut self, name: &str) {
        self.inner.rec_instant(self.me, name);
    }

    /// Open a named span on this process's lane (e.g. a blocked wait or a
    /// critical section). Close it with [`Ctx::trace_end`]; same-name spans
    /// nest.
    pub fn trace_begin(&mut self, name: &str) {
        if self.inner.rec.enabled() {
            let clock = self.inner.clocks[self.me.index()].entries().to_vec();
            self.inner.rec.record(Event {
                ts: self.inner.now.0,
                lane: lane(self.me),
                name: name.to_owned(),
                kind: EventKind::SpanBegin,
                clock: Some(clock),
            });
        }
    }

    /// Close the innermost open span with this name on this process's lane.
    pub fn trace_end(&mut self, name: &str) {
        if self.inner.rec.enabled() {
            let clock = self.inner.clocks[self.me.index()].entries().to_vec();
            self.inner.rec.record(Event {
                ts: self.inner.now.0,
                lane: lane(self.me),
                name: name.to_owned(),
                kind: EventKind::SpanEnd,
                clock: Some(clock),
            });
        }
    }

    /// Record a sampled value on this process's lane (renders as a counter
    /// track).
    pub fn trace_counter(&mut self, name: &str, value: i64) {
        if self.inner.rec.enabled() {
            let clock = self.inner.clocks[self.me.index()].entries().to_vec();
            self.inner.rec.record(
                Event::counter(self.inner.now.0, lane(self.me), name, value).with_clock(clock),
            );
        }
    }
}

/// A deterministic discrete-event simulation over processes exchanging `M`.
pub struct Simulation<M: Payload> {
    procs: Vec<Option<Box<dyn Process<M>>>>,
    inner: Inner<M>,
    config: SimConfig,
    /// `(cell, every)` — publish the metrics registry into `cell` every
    /// `every` dispatched events (and once at the end of the run).
    live: Option<(crate::metrics::LiveMetrics, u64)>,
}

impl<M: Payload> Simulation<M> {
    /// Create a simulation over the given processes (process `i` gets id
    /// `Pᵢ`).
    pub fn new(config: SimConfig, processes: Vec<Box<dyn Process<M>>>) -> Self {
        Simulation::with_recorder(config, processes, Box::new(NullRecorder))
    }

    /// Like [`Simulation::new`], but with a telemetry sink. Recording is
    /// strictly observational: it never touches the simulation's RNG
    /// streams, so a traced run is bit-identical to an untraced one.
    pub fn with_recorder(
        config: SimConfig,
        processes: Vec<Box<dyn Process<M>>>,
        recorder: Box<dyn Recorder>,
    ) -> Self {
        let n = processes.len();
        assert!(n <= MAX_PROCESSES, "process count exceeds u32 lane range");
        let mut builder = DeposetBuilder::new(n);
        builder.allow_in_flight();
        let faulty = !config.faults.is_empty();
        Simulation {
            procs: processes.into_iter().map(Some).collect(),
            inner: Inner {
                wheel: TimingWheel::new(0),
                arena: PayloadArena::new(),
                inboxes: (0..n).map(|_| VecDeque::new()).collect(),
                run_queue: Vec::new(),
                run_pos: 0,
                in_batch: false,
                inbox_capacity: config.inbox_capacity,
                stats: CoreStats::default(),
                builder,
                metrics: Metrics::default(),
                rng: StdRng::seed_from_u64(config.seed),
                delay: config.delay,
                now: SimTime::ZERO,
                seq: 0,
                next_timer: 0,
                done: vec![false; n],
                engaged: vec![false; n],
                faults: config.faults.clone(),
                frng: StdRng::seed_from_u64(config.seed ^ FAULT_STREAM_SALT),
                faulty,
                down: vec![false; n],
                incarnation: vec![0; n],
                rec: recorder,
                clocks: vec![VectorClock::zero(n); n],
                next_flow: 0,
            },
            config,
            live: None,
        }
    }

    /// Publish live metrics: every `every_events` dispatched events (and
    /// once when the run ends) the metrics registry is rendered as
    /// Prometheus text into `cell`, where a `/metrics` endpoint can read
    /// it. Publishing is strictly observational — it never perturbs the
    /// run.
    pub fn publish_live(&mut self, cell: crate::metrics::LiveMetrics, every_events: u64) {
        self.live = Some((cell, every_events.max(1)));
    }

    /// Number of processes.
    pub fn process_count(&self) -> usize {
        self.procs.len()
    }

    fn dispatch<F>(&mut self, p: ProcessId, f: F)
    where
        F: FnOnce(&mut dyn Process<M>, &mut Ctx<'_, M>),
    {
        let mut proc = self.procs[p.index()].take().expect("no reentrant dispatch");
        {
            let mut ctx = Ctx {
                me: p,
                inner: &mut self.inner,
            };
            f(proc.as_mut(), &mut ctx);
        }
        self.procs[p.index()] = Some(proc);
    }

    /// Run to quiescence (or a configured limit) and return the traced
    /// computation plus metrics.
    ///
    /// The loop alternates two phases per timestep: *route* — the wheel's
    /// batch of same-time events is staged into per-process mailboxes in
    /// global `(time, seq)` order — and *run* — the staged tokens execute
    /// in exactly that order, with zero-delay follow-ups appended to the
    /// live batch. When the batch drains the timestep is over (the paper's
    /// controlled deadlock) and the wheel advances. Dispatch order is
    /// therefore identical to the old single-heap loop, which the golden
    /// fingerprints and determinism proptests pin down.
    pub fn run(mut self) -> SimResult {
        let n = self.procs.len();
        // Schedule the crash plan before anything else so crash/restart
        // order among same-time events is fixed (and independent of what
        // the processes do): plan entries take the lowest seq numbers, so
        // at equal times a crash always dispatches before deliveries.
        let plan: Vec<_> = self.inner.faults.crash_schedule(n).collect();
        for (at, p, phase) in plan {
            let ev = match phase {
                CrashPhase::Down => Ev::Crash { dst: p },
                CrashPhase::Up => Ev::Restart { dst: p },
            };
            self.inner.schedule(at, ev);
        }
        for i in 0..n {
            let p = ProcessId(u32::try_from(i).expect("process lane exceeds u32 range"));
            self.dispatch(p, |p, ctx| p.on_start(ctx));
        }
        let mut dispatched = 0usize;
        let mut batch: Vec<WheelEntry<Ev>> = Vec::new();
        let stopped = 'outer: loop {
            let Some(t) = self.inner.wheel.pop_batch(&mut batch) else {
                break StopReason::Quiescent;
            };
            let t = SimTime(t);
            debug_assert!(t >= self.inner.now, "timesteps advance monotonically");
            self.inner.stats.timesteps += 1;
            self.inner.stats.max_batch = self.inner.stats.max_batch.max(batch.len() as u64);
            // Route phase: stage the batch in seq order.
            self.inner.run_queue.clear();
            self.inner.run_pos = 0;
            for e in batch.drain(..) {
                self.inner.route(Tok {
                    seq: e.seq,
                    ev: e.item,
                });
            }
            // Run phase.
            self.inner.in_batch = true;
            let mut prev_seq: Option<u64> = None;
            while self.inner.run_pos < self.inner.run_queue.len() {
                let tok = self.inner.run_queue[self.inner.run_pos];
                self.inner.run_pos += 1;
                if t > self.config.max_time {
                    self.inner.in_batch = false;
                    break 'outer StopReason::MaxTime;
                }
                if dispatched >= self.config.max_events {
                    self.inner.in_batch = false;
                    break 'outer StopReason::MaxEvents;
                }
                dispatched += 1;
                if let Some((cell, every)) = &self.live {
                    if (dispatched as u64).is_multiple_of(*every) {
                        cell.publish(self.inner.metrics.to_prometheus("pctl_sim_"));
                    }
                }
                // Equal-time events — including Crash/Restart interleaved
                // with deliveries to the same process — must dispatch in
                // seq order; this is the engine's core ordering invariant.
                debug_assert!(
                    prev_seq.is_none_or(|p| tok.seq > p),
                    "same-time dispatch out of seq order"
                );
                prev_seq = Some(tok.seq);
                self.inner.now = t;
                match tok.ev {
                    Ev::Deliver { dst, handle } => {
                        let staged = self.inner.inboxes[dst.index()]
                            .pop_front()
                            .expect("mailbox drained out of sync with run queue");
                        debug_assert_eq!(staged, handle, "mailbox/run-queue coherence");
                        let InFlight {
                            src,
                            msg,
                            token,
                            flow,
                            clock,
                        } = self.inner.arena.take(staged);
                        if self.inner.down[dst.index()] {
                            // Lost at a dead receiver; the unreceived token
                            // is rewritten to an internal event at finish().
                            self.inner.metrics.add("msgs_dropped", 1);
                            self.inner.rec_instant(dst, "msg_lost_receiver_down");
                            drop(token);
                        } else {
                            self.inner.engaged[dst.index()] = true;
                            self.inner.builder.recv(dst, token, &[]);
                            if self.inner.rec.enabled() {
                                if let Some(sender_clock) = &clock {
                                    self.inner.clocks[dst.index()].merge(sender_clock);
                                }
                                self.inner.clocks[dst.index()].tick(dst);
                                let entries = self.inner.clocks[dst.index()].entries().to_vec();
                                self.inner.rec.record(Event {
                                    ts: self.inner.now.0,
                                    lane: lane(dst),
                                    name: msg.tag().to_owned(),
                                    kind: EventKind::MsgRecv {
                                        id: flow,
                                        from: lane(src),
                                    },
                                    clock: Some(entries),
                                });
                            }
                            self.dispatch(dst, |p, ctx| p.on_message(src, msg, ctx));
                        }
                    }
                    Ev::Timer { dst, id, inc } => {
                        // Stale timers (armed by a dead or pre-crash
                        // incarnation) are discarded silently.
                        if !self.inner.down[dst.index()]
                            && inc == self.inner.incarnation[dst.index()]
                        {
                            self.inner.engaged[dst.index()] = true;
                            self.dispatch(dst, |p, ctx| p.on_timer(id, ctx));
                        }
                    }
                    Ev::Crash { dst } => {
                        if !self.inner.down[dst.index()] {
                            self.inner.down[dst.index()] = true;
                            self.inner.metrics.add("crashes", 1);
                            self.inner.builder.internal(dst, &[("down", 1)]);
                            self.inner.rec_instant(dst, "crash");
                        }
                    }
                    Ev::Restart { dst } => {
                        if self.inner.down[dst.index()] {
                            self.inner.down[dst.index()] = false;
                            self.inner.incarnation[dst.index()] += 1;
                            self.inner.metrics.add("restarts", 1);
                            self.inner.builder.internal(dst, &[("down", 0)]);
                            self.inner.rec_instant(dst, "restart");
                            self.dispatch(dst, |p, ctx| p.on_restart(ctx));
                        }
                    }
                }
            }
            self.inner.in_batch = false;
        };
        self.inner.in_batch = false;
        let Inner {
            builder,
            metrics,
            now,
            done,
            mut rec,
            mut stats,
            arena,
            wheel,
            down,
            engaged,
            ..
        } = self.inner;
        stats.events_dispatched = dispatched as u64;
        stats.arena_high_water = arena.high_water() as u64;
        stats.arena_slots = arena.capacity() as u64;
        stats.arena_live_at_end = arena.live() as u64;
        stats.wheel_high_water = wheel.high_water() as u64;
        stats.wheel_cascades = wheel.cascades();
        rec.flush();
        if let Some((cell, _)) = &self.live {
            // Final publish so short runs still expose their end state.
            cell.publish(metrics.to_prometheus("pctl_sim_"));
        }
        let deposet = builder
            .finish()
            .expect("simulator traces are valid deposets");
        SimResult {
            deposet,
            metrics,
            end_time: now,
            done,
            stopped,
            recorder: rec,
            core: stats,
            down,
            engaged,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pctl_deposet::trace;

    #[derive(Clone, Debug)]
    enum Ping {
        Ping(u32),
        Pong(u32),
    }

    impl Payload for Ping {
        fn tag(&self) -> &'static str {
            match self {
                Ping::Ping(_) => "ping",
                Ping::Pong(_) => "pong",
            }
        }
    }

    /// P0 pings P1 `rounds` times; P1 pongs back.
    struct Pinger {
        rounds: u32,
        sent_at: SimTime,
    }
    struct Ponger;

    impl Process<Ping> for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Ping>) {
            ctx.init_var("round", 0);
            self.sent_at = ctx.now();
            ctx.send(ProcessId(1), Ping::Ping(0));
        }
        fn on_message(&mut self, _from: ProcessId, msg: Ping, ctx: &mut Ctx<'_, Ping>) {
            let Ping::Pong(r) = msg else {
                panic!("pinger only gets pongs")
            };
            ctx.record("rtt", ctx.now().since(self.sent_at));
            ctx.step(&[("round", i64::from(r) + 1)]);
            if r + 1 < self.rounds {
                self.sent_at = ctx.now();
                ctx.send(ProcessId(1), Ping::Ping(r + 1));
            } else {
                ctx.set_done();
            }
        }
    }

    impl Process<Ping> for Ponger {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Ping>) {
            ctx.set_done();
        }
        fn on_message(&mut self, from: ProcessId, msg: Ping, ctx: &mut Ctx<'_, Ping>) {
            let Ping::Ping(r) = msg else {
                panic!("ponger only gets pings")
            };
            ctx.send(from, Ping::Pong(r));
            ctx.count("pongs", 1);
        }
    }

    fn ping_sim(seed: u64, rounds: u32) -> SimResult {
        let config = SimConfig {
            seed,
            delay: DelayModel::Uniform { min: 5, max: 15 },
            ..SimConfig::default()
        };
        Simulation::new(
            config,
            vec![
                Box::new(Pinger {
                    rounds,
                    sent_at: SimTime::ZERO,
                }),
                Box::new(Ponger),
            ],
        )
        .run()
    }

    #[test]
    fn ping_pong_runs_to_quiescence() {
        let r = ping_sim(1, 3);
        assert_eq!(r.stopped, StopReason::Quiescent);
        assert!(!r.deadlocked());
        assert_eq!(r.metrics.counter("pongs"), 3);
        assert_eq!(r.metrics.counter("msgs_total"), 6);
        assert_eq!(r.metrics.summary("rtt").unwrap().count, 3);
        // RTT within [2*min, 2*max] of the delay model.
        let s = r.metrics.summary("rtt").unwrap();
        assert!(s.min >= 10 && s.max <= 30);
    }

    #[test]
    fn trace_is_a_valid_deposet_with_expected_causality() {
        let r = ping_sim(2, 2);
        let d = r.deposet;
        assert_eq!(d.process_count(), 2);
        assert_eq!(d.messages().len(), 4);
        // Round counter var steps appear on P0.
        let p0 = ProcessId(0);
        let last = d.top(p0);
        assert_eq!(d.state(last).vars.get("round"), Some(2));
        // Every message's endpoints causally ordered.
        for m in d.messages() {
            assert!(d.precedes(m.from, m.to));
        }
        // Round-trips serialize.
        let json = trace::to_json(&d);
        assert!(trace::from_json(&json).is_ok());
    }

    #[test]
    fn same_seed_same_trace_different_seed_differs() {
        let a = ping_sim(7, 3);
        let b = ping_sim(7, 3);
        assert_eq!(trace::to_json(&a.deposet), trace::to_json(&b.deposet));
        assert_eq!(a.end_time, b.end_time);
        let c = ping_sim(8, 3);
        // Delays differ with overwhelming probability.
        assert!(
            a.end_time != c.end_time || trace::to_json(&a.deposet) != trace::to_json(&c.deposet)
        );
    }

    #[test]
    fn timers_fire_in_order() {
        struct T {
            fired: Vec<u64>,
        }
        #[derive(Clone, Debug)]
        struct NoMsg;
        impl Payload for NoMsg {}
        impl Process<NoMsg> for T {
            fn on_start(&mut self, ctx: &mut Ctx<'_, NoMsg>) {
                ctx.set_timer(30);
                ctx.set_timer(10);
                ctx.set_timer(20);
            }
            fn on_message(&mut self, _: ProcessId, _: NoMsg, _: &mut Ctx<'_, NoMsg>) {}
            fn on_timer(&mut self, _t: TimerId, ctx: &mut Ctx<'_, NoMsg>) {
                self.fired.push(ctx.now().0);
                ctx.step(&[("fired", self.fired.len() as i64)]);
                if self.fired.len() == 3 {
                    ctx.set_done();
                }
            }
        }
        let r = Simulation::new(
            SimConfig::default(),
            vec![Box::new(T { fired: vec![] }) as Box<dyn Process<NoMsg>>],
        )
        .run();
        assert!(!r.deadlocked());
        assert_eq!(r.end_time, SimTime(30));
        let d = r.deposet;
        assert_eq!(d.state(d.top(ProcessId(0))).vars.get("fired"), Some(3));
    }

    #[test]
    fn uniform_delays_can_reorder_messages() {
        // The paper's model places no constraints on message ordering; the
        // Uniform delay model realizes reordering on a single channel.
        struct Sender;
        struct Receiver {
            got: Vec<u32>,
        }
        #[derive(Clone, Debug)]
        struct Seq(u32);
        impl Payload for Seq {}
        impl Process<Seq> for Sender {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Seq>) {
                for i in 0..20 {
                    ctx.send(ProcessId(1), Seq(i));
                }
                ctx.set_done();
            }
            fn on_message(&mut self, _: ProcessId, _: Seq, _: &mut Ctx<'_, Seq>) {}
        }
        impl Process<Seq> for Receiver {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Seq>) {
                ctx.set_done();
            }
            fn on_message(&mut self, _: ProcessId, m: Seq, ctx: &mut Ctx<'_, Seq>) {
                self.got.push(m.0);
                ctx.step(&[("received", m.0 as i64)]);
            }
        }
        // Shared cell to read the order back out.
        use std::cell::RefCell;
        use std::rc::Rc;
        struct Capture {
            inner: Receiver,
            slot: Rc<RefCell<Vec<u32>>>,
        }
        impl Process<Seq> for Capture {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Seq>) {
                self.inner.on_start(ctx);
            }
            fn on_message(&mut self, f: ProcessId, m: Seq, ctx: &mut Ctx<'_, Seq>) {
                self.inner.on_message(f, m, ctx);
                *self.slot.borrow_mut() = self.inner.got.clone();
            }
        }
        let slot = Rc::new(RefCell::new(Vec::new()));
        let cfg = SimConfig {
            seed: 5,
            delay: DelayModel::Uniform { min: 1, max: 50 },
            ..SimConfig::default()
        };
        let r = Simulation::new(
            cfg,
            vec![
                Box::new(Sender) as Box<dyn Process<Seq>>,
                Box::new(Capture {
                    inner: Receiver { got: vec![] },
                    slot: Rc::clone(&slot),
                }),
            ],
        )
        .run();
        assert_eq!(r.stopped, StopReason::Quiescent);
        let got = slot.borrow().clone();
        assert_eq!(got.len(), 20, "reliable channels deliver everything");
        assert!(
            got.windows(2).any(|w| w[0] > w[1]),
            "uniform delays should reorder at least one pair: {got:?}"
        );
        // And the trace is still a valid deposet.
        assert_eq!(r.deposet.messages().len(), 20);
    }

    #[test]
    fn fixed_delays_preserve_fifo() {
        // `DelayModel::Fixed` is the FIFO-channel model: equal delays never
        // reorder two sends on one link.
        struct Sender;
        #[derive(Clone, Debug)]
        struct Seq(u32);
        impl Payload for Seq {}
        impl Process<Seq> for Sender {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Seq>) {
                for i in 0..20 {
                    ctx.send(ProcessId(1), Seq(i));
                }
                ctx.set_done();
            }
            fn on_message(&mut self, _: ProcessId, _: Seq, _: &mut Ctx<'_, Seq>) {}
        }
        struct InOrder {
            next: u32,
        }
        impl Process<Seq> for InOrder {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Seq>) {
                ctx.set_done();
            }
            fn on_message(&mut self, _: ProcessId, m: Seq, _: &mut Ctx<'_, Seq>) {
                assert_eq!(m.0, self.next, "FIFO violated");
                self.next += 1;
            }
        }
        let cfg = SimConfig {
            seed: 9,
            delay: DelayModel::Fixed(7),
            ..SimConfig::default()
        };
        let r = Simulation::new(
            cfg,
            vec![
                Box::new(Sender) as Box<dyn Process<Seq>>,
                Box::new(InOrder { next: 0 }),
            ],
        )
        .run();
        assert_eq!(r.stopped, StopReason::Quiescent);
    }

    #[test]
    fn deadlock_detection_via_done_flags() {
        // A process that never sends and never finishes.
        struct Stuck;
        #[derive(Clone, Debug)]
        struct NoMsg;
        impl Payload for NoMsg {}
        impl Process<NoMsg> for Stuck {
            fn on_message(&mut self, _: ProcessId, _: NoMsg, _: &mut Ctx<'_, NoMsg>) {}
        }
        let r = Simulation::new(SimConfig::default(), vec![Box::new(Stuck) as _]).run();
        assert_eq!(r.stopped, StopReason::Quiescent);
        assert!(r.deadlocked());
        // Refinement: Stuck never engaged the protocol — it is inert, not
        // deadlocked mid-protocol.
        assert_eq!(r.outcomes(), vec![ProcessOutcome::Inert]);
        assert!(!r.protocol_deadlock());
        assert_eq!(r.never_finished(), vec![ProcessId(0)]);
    }

    #[test]
    fn blocked_waiters_report_protocol_deadlock() {
        // Both processes send one request and then wait forever for a
        // response that never comes: engaged but starved.
        struct Waiter;
        #[derive(Clone, Debug)]
        struct Req;
        impl Payload for Req {}
        impl Process<Req> for Waiter {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Req>) {
                let other = ProcessId(1 - ctx.me().0);
                ctx.send(other, Req);
            }
            fn on_message(&mut self, _: ProcessId, _: Req, _: &mut Ctx<'_, Req>) {
                // Swallow the request; never answer, never finish.
            }
        }
        let r = Simulation::new(
            SimConfig::default(),
            vec![Box::new(Waiter) as _, Box::new(Waiter) as _],
        )
        .run();
        assert!(r.deadlocked(), "legacy predicate still holds");
        assert!(r.protocol_deadlock(), "both engaged and starved");
        assert_eq!(
            r.outcomes(),
            vec![ProcessOutcome::Blocked, ProcessOutcome::Blocked]
        );
        assert!(r.never_finished().is_empty());
    }

    #[test]
    fn explicit_empty_fault_plan_is_bit_identical_to_default() {
        let a = ping_sim(11, 3);
        let cfg = SimConfig {
            seed: 11,
            delay: DelayModel::Uniform { min: 5, max: 15 },
            faults: crate::faults::FaultPlan::none(),
            ..SimConfig::default()
        };
        let b = Simulation::new(
            cfg,
            vec![
                Box::new(Pinger {
                    rounds: 3,
                    sent_at: SimTime::ZERO,
                }) as Box<dyn Process<Ping>>,
                Box::new(Ponger),
            ],
        )
        .run();
        assert_eq!(trace::to_json(&a.deposet), trace::to_json(&b.deposet));
        assert_eq!(a.end_time, b.end_time);
        assert_eq!(
            serde_json::to_string(&a.metrics).unwrap(),
            serde_json::to_string(&b.metrics).unwrap()
        );
    }

    #[test]
    fn message_loss_drops_and_counts() {
        // Sender fires 200 one-way messages through a 30%-lossy network.
        struct Blast;
        #[derive(Clone, Debug)]
        struct B;
        impl Payload for B {}
        impl Process<B> for Blast {
            fn on_start(&mut self, ctx: &mut Ctx<'_, B>) {
                if ctx.me() == ProcessId(0) {
                    for _ in 0..200 {
                        ctx.send(ProcessId(1), B);
                    }
                }
                ctx.set_done();
            }
            fn on_message(&mut self, _: ProcessId, _: B, ctx: &mut Ctx<'_, B>) {
                ctx.count("delivered", 1);
            }
        }
        let cfg = SimConfig {
            seed: 3,
            faults: crate::faults::FaultPlan::uniform_loss(0.3),
            ..SimConfig::default()
        };
        let r = Simulation::new(cfg, vec![Box::new(Blast) as _, Box::new(Blast) as _]).run();
        let dropped = r.metrics.counter("msgs_dropped");
        let delivered = r.metrics.counter("delivered");
        assert_eq!(dropped + delivered, 200);
        assert!(
            (30..90).contains(&dropped),
            "≈30% of 200 should drop, got {dropped}"
        );
        // Dropped sends are rewritten to internal events: the deposet only
        // keeps delivered messages.
        assert_eq!(r.deposet.messages().len() as u64, delivered);
    }

    #[test]
    fn duplication_delivers_twice_and_counts() {
        struct Blast;
        #[derive(Clone, Debug)]
        struct B;
        impl Payload for B {}
        impl Process<B> for Blast {
            fn on_start(&mut self, ctx: &mut Ctx<'_, B>) {
                if ctx.me() == ProcessId(0) {
                    for _ in 0..100 {
                        ctx.send(ProcessId(1), B);
                    }
                }
                ctx.set_done();
            }
            fn on_message(&mut self, _: ProcessId, _: B, ctx: &mut Ctx<'_, B>) {
                ctx.count("delivered", 1);
            }
        }
        let faults = crate::faults::FaultPlan {
            default_link: crate::faults::LinkFaults {
                dup_p: 0.5,
                ..Default::default()
            },
            ..Default::default()
        };
        let cfg = SimConfig {
            seed: 4,
            faults,
            ..SimConfig::default()
        };
        let r = Simulation::new(cfg, vec![Box::new(Blast) as _, Box::new(Blast) as _]).run();
        let dup = r.metrics.counter("msgs_duplicated");
        assert!(
            (25..75).contains(&dup),
            "≈50% of 100 should duplicate, got {dup}"
        );
        assert_eq!(r.metrics.counter("delivered"), 100 + dup);
        assert_eq!(r.deposet.messages().len() as u64, 100 + dup);
    }

    #[test]
    fn extra_delay_reorders_fixed_delay_channel() {
        struct Sender;
        #[derive(Clone, Debug)]
        struct Seq(u32);
        impl Payload for Seq {}
        impl Process<Seq> for Sender {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Seq>) {
                if ctx.me() == ProcessId(0) {
                    for i in 0..20 {
                        ctx.send(ProcessId(1), Seq(i));
                    }
                }
                ctx.set_done();
            }
            fn on_message(&mut self, _: ProcessId, _: Seq, _: &mut Ctx<'_, Seq>) {}
        }
        use std::cell::RefCell;
        use std::rc::Rc;
        struct Capture(Rc<RefCell<Vec<u32>>>);
        impl Process<Seq> for Capture {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Seq>) {
                ctx.set_done();
            }
            fn on_message(&mut self, _: ProcessId, m: Seq, _: &mut Ctx<'_, Seq>) {
                self.0.borrow_mut().push(m.0);
            }
        }
        let slot = Rc::new(RefCell::new(Vec::new()));
        let faults = crate::faults::FaultPlan {
            default_link: crate::faults::LinkFaults {
                extra_delay_max: 40,
                ..Default::default()
            },
            ..Default::default()
        };
        let cfg = SimConfig {
            seed: 6,
            delay: DelayModel::Fixed(7),
            faults,
            ..SimConfig::default()
        };
        let r = Simulation::new(
            cfg,
            vec![
                Box::new(Sender) as _,
                Box::new(Capture(Rc::clone(&slot))) as _,
            ],
        )
        .run();
        assert_eq!(r.stopped, StopReason::Quiescent);
        let got = slot.borrow().clone();
        assert_eq!(got.len(), 20, "extra delay never loses messages");
        assert!(
            got.windows(2).any(|w| w[0] > w[1]),
            "extra delay should reorder: {got:?}"
        );
    }

    #[test]
    fn partition_window_cuts_cross_side_traffic_only() {
        // P0 sends to P1 at t=0 (through, delay 10) and during the
        // partition window (cut); after the window traffic flows again.
        struct Script;
        #[derive(Clone, Debug)]
        struct B;
        impl Payload for B {}
        impl Process<B> for Script {
            fn on_start(&mut self, ctx: &mut Ctx<'_, B>) {
                if ctx.me() == ProcessId(0) {
                    ctx.send(ProcessId(1), B); // before window: delivered
                    ctx.set_timer(50); // inside window [40, 80)
                    ctx.set_timer(100); // after window
                }
                ctx.set_done();
            }
            fn on_timer(&mut self, _t: TimerId, ctx: &mut Ctx<'_, B>) {
                ctx.send(ProcessId(1), B);
            }
            fn on_message(&mut self, _: ProcessId, _: B, ctx: &mut Ctx<'_, B>) {
                ctx.count("delivered", 1);
            }
        }
        let faults = crate::faults::FaultPlan::none().with_partition(
            SimTime(40),
            SimTime(80),
            vec![ProcessId(0)],
        );
        let cfg = SimConfig {
            seed: 0,
            faults,
            ..SimConfig::default()
        };
        let r = Simulation::new(cfg, vec![Box::new(Script) as _, Box::new(Script) as _]).run();
        assert_eq!(
            r.metrics.counter("delivered"),
            2,
            "send inside the window is cut"
        );
        assert_eq!(r.metrics.counter("msgs_dropped"), 1);
    }

    #[test]
    fn crash_drops_deliveries_and_restart_rearms_via_hook() {
        // P1 crashes at t=20 and restarts at t=60. P0 sends one message
        // arriving during downtime (lost) and one after restart (delivered).
        struct Sender;
        #[derive(Clone, Debug)]
        struct B;
        impl Payload for B {}
        impl Process<B> for Sender {
            fn on_start(&mut self, ctx: &mut Ctx<'_, B>) {
                ctx.set_timer(25); // arrives ~35: P1 down
                ctx.set_timer(70); // arrives ~80: P1 back up
                ctx.set_done();
            }
            fn on_timer(&mut self, _t: TimerId, ctx: &mut Ctx<'_, B>) {
                ctx.send(ProcessId(1), B);
            }
            fn on_message(&mut self, _: ProcessId, _: B, _: &mut Ctx<'_, B>) {}
        }
        struct Victim {
            restarted: bool,
        }
        impl Process<B> for Victim {
            fn on_start(&mut self, ctx: &mut Ctx<'_, B>) {
                // A pre-crash timer that must NOT fire after restart.
                ctx.set_timer(45);
                ctx.set_done();
            }
            fn on_timer(&mut self, _t: TimerId, ctx: &mut Ctx<'_, B>) {
                if self.restarted {
                    ctx.count("post_restart_timer", 1);
                } else {
                    ctx.count("stale_timer_fired", 1);
                }
            }
            fn on_message(&mut self, _: ProcessId, _: B, ctx: &mut Ctx<'_, B>) {
                ctx.count("delivered", 1);
            }
            fn on_restart(&mut self, ctx: &mut Ctx<'_, B>) {
                self.restarted = true;
                ctx.set_timer(5);
            }
        }
        let faults =
            crate::faults::FaultPlan::none().with_crash(ProcessId(1), SimTime(20), Some(40));
        let cfg = SimConfig {
            seed: 0,
            faults,
            ..SimConfig::default()
        };
        let r = Simulation::new(
            cfg,
            vec![
                Box::new(Sender) as _,
                Box::new(Victim { restarted: false }) as _,
            ],
        )
        .run();
        assert_eq!(r.metrics.counter("crashes"), 1);
        assert_eq!(r.metrics.counter("restarts"), 1);
        assert_eq!(
            r.metrics.counter("delivered"),
            1,
            "message during downtime is lost"
        );
        assert_eq!(r.metrics.counter("msgs_dropped"), 1);
        assert_eq!(
            r.metrics.counter("stale_timer_fired"),
            0,
            "pre-crash timer must stay dead"
        );
        assert_eq!(
            r.metrics.counter("post_restart_timer"),
            1,
            "on_restart re-armed a timer"
        );
        // Crash windows are visible in the trace via the reserved "down" var.
        let downs: Vec<i64> = r
            .deposet
            .states_of(ProcessId(1))
            .iter()
            .filter_map(|s| s.vars.get("down"))
            .collect();
        assert!(
            downs.contains(&1) && downs.ends_with(&[0]),
            "down=1 then down=0: {downs:?}"
        );
    }

    #[test]
    fn crash_at_delivery_time_orders_deterministically() {
        // Regression for the batch dispatcher: a crash scheduled at the
        // exact SimTime an in-flight delivery lands must dispatch first —
        // the crash plan is scheduled before any process runs, so its seq
        // is lower, and equal-time events dispatch in seq order. The
        // delivery then finds the receiver down and is dropped.
        struct Sender;
        #[derive(Clone, Debug)]
        struct B;
        impl Payload for B {}
        impl Process<B> for Sender {
            fn on_start(&mut self, ctx: &mut Ctx<'_, B>) {
                if ctx.me() == ProcessId(0) {
                    ctx.send(ProcessId(1), B); // Fixed(10) ⇒ lands exactly at t=10
                    ctx.set_done();
                }
                // P1 stays unfinished so its crash shows up as Down.
            }
            fn on_message(&mut self, _: ProcessId, _: B, ctx: &mut Ctx<'_, B>) {
                ctx.count("delivered", 1);
            }
        }
        let run = || {
            let faults =
                crate::faults::FaultPlan::none().with_crash(ProcessId(1), SimTime(10), None);
            let cfg = SimConfig {
                seed: 1,
                delay: DelayModel::Fixed(10),
                faults,
                ..SimConfig::default()
            };
            Simulation::new(cfg, vec![Box::new(Sender) as _, Box::new(Sender) as _]).run()
        };
        let a = run();
        assert_eq!(a.metrics.counter("delivered"), 0, "crash wins the tie");
        assert_eq!(a.metrics.counter("msgs_dropped"), 1);
        assert_eq!(a.outcomes()[1], ProcessOutcome::Down);
        // And deterministically so.
        let b = run();
        assert_eq!(
            serde_json::to_string(&a.metrics).unwrap(),
            serde_json::to_string(&b.metrics).unwrap()
        );
        assert_eq!(trace::to_json(&a.deposet), trace::to_json(&b.deposet));
    }

    #[test]
    fn zero_delay_sends_dispatch_within_the_same_timestep() {
        // A zero-delay chain scheduled mid-batch joins the live batch and
        // dispatches at the same simulated time, in causal (seq) order.
        struct Chain;
        #[derive(Clone, Debug)]
        struct Hop(u32);
        impl Payload for Hop {}
        impl Process<Hop> for Chain {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Hop>) {
                if ctx.me() == ProcessId(0) {
                    ctx.send(ProcessId(1), Hop(4));
                }
                ctx.set_done();
            }
            fn on_message(&mut self, from: ProcessId, m: Hop, ctx: &mut Ctx<'_, Hop>) {
                ctx.count("hops", 1);
                ctx.step(&[("at", ctx.now().0 as i64)]);
                if m.0 > 0 {
                    ctx.send(from, Hop(m.0 - 1));
                }
            }
        }
        let cfg = SimConfig {
            seed: 0,
            delay: DelayModel::Fixed(0),
            ..SimConfig::default()
        };
        let r = Simulation::new(cfg, vec![Box::new(Chain) as _, Box::new(Chain) as _]).run();
        assert_eq!(r.stopped, StopReason::Quiescent);
        assert_eq!(r.metrics.counter("hops"), 5);
        assert_eq!(r.end_time, SimTime(0), "whole chain ran inside t=0");
        assert_eq!(r.core.timesteps, 1);
    }

    #[test]
    fn same_seed_and_plan_give_identical_faulty_runs() {
        let run = |seed: u64| {
            let faults = crate::faults::FaultPlan {
                default_link: crate::faults::LinkFaults {
                    drop_p: 0.15,
                    dup_p: 0.1,
                    extra_delay_max: 20,
                },
                ..Default::default()
            }
            .with_crash(ProcessId(1), SimTime(40), Some(30));
            let cfg = SimConfig {
                seed,
                delay: DelayModel::Uniform { min: 5, max: 15 },
                faults,
                max_time: SimTime(500),
                ..SimConfig::default()
            };
            Simulation::new(
                cfg,
                vec![
                    Box::new(Pinger {
                        rounds: 30,
                        sent_at: SimTime::ZERO,
                    }) as Box<dyn Process<Ping>>,
                    Box::new(Ponger),
                ],
            )
            .run()
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(trace::to_json(&a.deposet), trace::to_json(&b.deposet));
        assert_eq!(
            serde_json::to_string(&a.metrics).unwrap(),
            serde_json::to_string(&b.metrics).unwrap()
        );
        assert_eq!(a.end_time, b.end_time);
    }

    #[test]
    fn max_events_limit_stops_runaway_protocols() {
        // Two processes bouncing a message forever.
        struct Bouncer;
        #[derive(Clone, Debug)]
        struct B;
        impl Payload for B {}
        impl Process<B> for Bouncer {
            fn on_start(&mut self, ctx: &mut Ctx<'_, B>) {
                if ctx.me() == ProcessId(0) {
                    ctx.send(ProcessId(1), B);
                }
            }
            fn on_message(&mut self, from: ProcessId, _m: B, ctx: &mut Ctx<'_, B>) {
                ctx.send(from, B);
            }
        }
        let cfg = SimConfig {
            max_events: 100,
            ..SimConfig::default()
        };
        let r = Simulation::new(cfg, vec![Box::new(Bouncer) as _, Box::new(Bouncer) as _]).run();
        assert_eq!(r.stopped, StopReason::MaxEvents);
        // In-flight message at cutoff is tolerated (allow_in_flight).
        assert!(r.deposet.total_states() > 0);
    }

    #[test]
    fn core_stats_track_live_state_not_total_traffic() {
        // One message in flight at a time: the arena must stay at one slot
        // no matter how many messages the run sends in total.
        let r = ping_sim(13, 50);
        assert_eq!(r.metrics.counter("msgs_total"), 100);
        assert_eq!(r.core.events_dispatched, 100);
        assert_eq!(r.core.arena_high_water, 1, "ping-pong has 1 msg in flight");
        assert_eq!(r.core.arena_slots, 1, "slab reuses the freed slot");
        assert_eq!(r.core.arena_live_at_end, 0, "quiescent runs drain fully");
        assert_eq!(r.core.inbox_high_water, 1);
        assert_eq!(r.core.inbox_overflows, 0);
        assert!(r.core.timesteps > 0 && r.core.timesteps <= 100);
    }

    #[test]
    fn inbox_soft_bound_counts_overflow_without_dropping() {
        // 200 same-tick deliveries against a capacity-8 inbox: everything
        // still arrives (reliable channels), but the pressure is counted.
        struct Blast;
        #[derive(Clone, Debug)]
        struct B;
        impl Payload for B {}
        impl Process<B> for Blast {
            fn on_start(&mut self, ctx: &mut Ctx<'_, B>) {
                if ctx.me() == ProcessId(0) {
                    for _ in 0..200 {
                        ctx.send(ProcessId(1), B);
                    }
                }
                ctx.set_done();
            }
            fn on_message(&mut self, _: ProcessId, _: B, ctx: &mut Ctx<'_, B>) {
                ctx.count("delivered", 1);
            }
        }
        let cfg = SimConfig {
            seed: 2,
            delay: DelayModel::Fixed(5),
            inbox_capacity: 8,
            ..SimConfig::default()
        };
        let r = Simulation::new(cfg, vec![Box::new(Blast) as _, Box::new(Blast) as _]).run();
        assert_eq!(
            r.metrics.counter("delivered"),
            200,
            "soft bound never drops"
        );
        assert_eq!(r.core.inbox_high_water, 200);
        assert_eq!(r.core.inbox_overflows, 192);
    }
}
