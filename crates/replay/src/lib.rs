//! Controlled replay of traced distributed computations.
//!
//! This is the *active* half of the paper's debugging cycle (Section 1):
//! after off-line control synthesizes a relation `C→` for a traced
//! computation, the computation is **re-executed** with the control
//! enforced by real (simulated) control messages — the observable
//! behaviour of a control system built from the relation.
//!
//! Each process replays its original event sequence (variable steps, sends,
//! receives, in the original per-process order). Enforcement of a tuple
//! `x C→ y` follows the paper's definition ("the first underlying state
//! before its send and the next underlying state after its receive"):
//!
//! * the owner of `x` sends a control message when it executes the event
//!   *leaving* `x` (so a cut with `x` and `y` both current is impossible,
//!   matching the controlled deposet's extended causality);
//! * the owner of `y` blocks before executing the event leading into `y`
//!   until that message has arrived — the paper's "blocking receive",
//!   transparent to the replayed process (indistinguishable from slow
//!   execution).
//!
//! Application messages are replayed as actual messages and consumed in the
//! original order (arrivals are buffered, so channel reordering cannot
//! corrupt the replay — cf. Netzer & Miller \[9] on replaying traced
//! message-passing programs).
//!
//! A non-interfering control relation can never deadlock a replay: the
//! extended causality is a partial order, so some minimal unexecuted event
//! is always enabled. [`ReplayOutcome::fidelity`] checks the result against
//! the original trace.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod reduction;

use pctl_core::{ControlRelation, ControlledDeposet};
use pctl_deposet::{Deposet, EventKind, LocalState, ProcessId, Variables};
use pctl_sim::{Ctx, DelayModel, Payload, Process, SimConfig, SimResult, Simulation, TimerId};
use std::collections::{BTreeMap, HashSet};

/// Messages exchanged during replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayMsg {
    /// A replayed application message (original message id).
    App {
        /// Original [`pctl_deposet::MsgId`] index.
        msg: u32,
        /// Original tag, for trace readability.
        tag: String,
    },
    /// A control message enforcing one `C→` tuple.
    Ctrl {
        /// Index of the tuple in the control relation.
        pair: u32,
    },
}

impl Payload for ReplayMsg {
    fn tag(&self) -> &'static str {
        match self {
            ReplayMsg::App { .. } => "replay_app",
            ReplayMsg::Ctrl { .. } => "ctrl",
        }
    }
    fn is_control(&self) -> bool {
        matches!(self, ReplayMsg::Ctrl { .. })
    }
}

/// Replay tuning.
#[derive(Clone, Copy, Debug)]
pub struct ReplayConfig {
    /// Simulated delay between consecutive replayed events of one process.
    pub step_delay: u64,
    /// Message delay model.
    pub delay: DelayModel,
    /// RNG seed (affects nothing unless delays are random).
    pub seed: u64,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            step_delay: 3,
            delay: DelayModel::Fixed(5),
            seed: 0,
        }
    }
}

/// One process's replay script, derived from the original deposet.
struct Script {
    /// Original event sequence.
    events: Vec<EventKind>,
    /// Original state payloads (index 0 = ⊥).
    states: Vec<LocalState>,
    /// Message destination per original send (by event index).
    send_dest: BTreeMap<usize, ProcessId>,
    /// Control messages to emit while executing the event that leaves
    /// state `k`: `(pair index, destination)`.
    ctrl_out: BTreeMap<u32, Vec<(u32, ProcessId)>>,
    /// Control pairs required before entering state `k`.
    ctrl_in: BTreeMap<u32, Vec<u32>>,
}

struct ReplayProcess {
    script: Script,
    /// Next event index to execute.
    pos: usize,
    /// Buffered application messages not yet consumed.
    app_buf: HashSet<u32>,
    /// Control tuples already received.
    ctrl_got: HashSet<u32>,
    /// Whether a step timer is outstanding.
    timer_armed: bool,
    step_delay: u64,
}

impl ReplayProcess {
    /// Variable updates turning state `k`'s payload into state `k+1`'s.
    fn delta(&self, k: usize) -> Vec<(String, i64)> {
        let old = &self.script.states[k].vars;
        let new = &self.script.states[k + 1].vars;
        let mut out = Vec::new();
        for (name, v) in new.iter() {
            if old.get(name) != Some(v) {
                out.push((name.to_owned(), v));
            }
        }
        // Variables cannot be unset in our model (set-only maps), so a
        // disappearing key would be a corrupt trace; assert in debug.
        debug_assert!(old.iter().all(|(n, _)| new.get(n).is_some()));
        out
    }

    fn emit_ctrl_for_state(&mut self, k: u32, ctx: &mut Ctx<'_, ReplayMsg>) {
        if let Some(outs) = self.script.ctrl_out.get(&k) {
            for &(pair, dest) in outs.clone().iter() {
                ctx.send(dest, ReplayMsg::Ctrl { pair });
            }
        }
    }

    /// Whether the event producing state `pos + 1` may execute now.
    fn enabled(&self) -> bool {
        if self.pos >= self.script.events.len() {
            return false;
        }
        let target = (self.pos + 1) as u32;
        if let Some(req) = self.script.ctrl_in.get(&target) {
            if !req.iter().all(|p| self.ctrl_got.contains(p)) {
                return false;
            }
        }
        if let EventKind::Recv(m) = self.script.events[self.pos] {
            if !self.app_buf.contains(&m.0) {
                return false;
            }
        }
        true
    }

    /// Execute exactly one event if enabled; returns whether progress was
    /// made.
    fn step_once(&mut self, ctx: &mut Ctx<'_, ReplayMsg>) -> bool {
        if !self.enabled() {
            return false;
        }
        let k = self.pos;
        let deltas = self.delta(k);
        let updates: Vec<(&str, i64)> = deltas.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        match self.script.events[k] {
            EventKind::Internal => {
                ctx.step(&updates);
            }
            EventKind::Send(m) => {
                // Apply the post-send variable assignment, then emit the
                // replayed message (order keeps the projection equal modulo
                // stutter).
                ctx.step(&updates);
                let dest = self.script.send_dest[&k];
                let tag = format!("re:{}", m.0);
                ctx.send(dest, ReplayMsg::App { msg: m.0, tag });
            }
            EventKind::Recv(m) => {
                let present = self.app_buf.remove(&m.0);
                debug_assert!(present, "enabled() guaranteed the message");
                ctx.step(&updates);
            }
        }
        if let Some(label) = self.script.states[k + 1].label.clone() {
            ctx.label(&label);
        }
        // `x C→ y` messages travel in the event leaving `x`: emit them as
        // the final part of that event, so they causally carry its
        // completion (the receiver may only pass `y` once the source
        // process has fully left `x`).
        self.emit_ctrl_for_state(k as u32, ctx);
        self.pos += 1;
        if self.pos == self.script.events.len() {
            ctx.set_done();
        }
        true
    }

    fn arm_or_continue(&mut self, ctx: &mut Ctx<'_, ReplayMsg>) {
        if self.pos >= self.script.events.len() || self.timer_armed {
            return;
        }
        if self.enabled() {
            self.timer_armed = true;
            ctx.set_timer(self.step_delay);
        } else {
            ctx.count("replay_stalls", 1);
            ctx.trace_instant("replay_stall");
        }
    }
}

impl Process<ReplayMsg> for ReplayProcess {
    fn on_start(&mut self, ctx: &mut Ctx<'_, ReplayMsg>) {
        // Initial variable assignment mirrors ⊥.
        let init: Vec<(String, i64)> = self.script.states[0]
            .vars
            .iter()
            .map(|(n, v)| (n.to_owned(), v))
            .collect();
        for (n, v) in &init {
            ctx.init_var(n, *v);
        }
        if let Some(label) = self.script.states[0].label.clone() {
            ctx.label(&label);
        }
        if self.script.events.is_empty() {
            ctx.set_done();
        } else {
            self.arm_or_continue(ctx);
        }
    }

    fn on_timer(&mut self, _t: TimerId, ctx: &mut Ctx<'_, ReplayMsg>) {
        self.timer_armed = false;
        self.step_once(ctx);
        self.arm_or_continue(ctx);
    }

    fn on_message(&mut self, _from: ProcessId, msg: ReplayMsg, ctx: &mut Ctx<'_, ReplayMsg>) {
        match msg {
            ReplayMsg::App { msg, .. } => {
                self.app_buf.insert(msg);
            }
            ReplayMsg::Ctrl { pair } => {
                self.ctrl_got.insert(pair);
            }
        }
        self.arm_or_continue(ctx);
    }
}

/// Result of a controlled replay.
pub struct ReplayOutcome {
    /// The simulation result; its deposet is the replayed computation's
    /// trace (original events + control messages).
    pub sim: SimResult,
    /// Number of control tuples enforced.
    pub enforced_tuples: usize,
}

impl ReplayOutcome {
    /// The replayed trace.
    pub fn deposet(&self) -> &Deposet {
        &self.sim.deposet
    }

    /// Whether the replay completed every process's script.
    pub fn completed(&self) -> bool {
        !self.sim.deadlocked() && self.sim.done.iter().all(|&d| d)
    }

    /// Fidelity check: per process, the stutter-removed sequence of
    /// variable assignments in the replayed trace equals the original's.
    pub fn fidelity(&self, original: &Deposet) -> bool {
        fn assignments(dep: &Deposet, p: ProcessId) -> Vec<Variables> {
            let mut out: Vec<Variables> = Vec::new();
            for s in dep.states_of(p) {
                if out.last() != Some(&s.vars) {
                    out.push(s.vars.clone());
                }
            }
            out
        }
        original
            .processes()
            .all(|p| assignments(original, p) == assignments(&self.sim.deposet, p))
    }
}

/// Re-execute `original` under `control` on the simulator.
///
/// # Panics
/// Panics, with the [`pctl_core::ControlError`] text, if
/// [`ControlledDeposet::new`] refuses `control` over `original`: a pair
/// out of range, out of a final state or into an initial state, or a
/// relation that interferes with causality or orders events in a cycle.
/// Every relation it accepts replays to the end.
pub fn replay(original: &Deposet, control: &ControlRelation, cfg: &ReplayConfig) -> ReplayOutcome {
    replay_recorded(original, control, cfg, Box::new(pctl_sim::NullRecorder))
}

/// [`replay`] with a telemetry recorder attached: every replayed message,
/// variable step, and stall is recorded, and the recorder comes back in
/// [`SimResult::recorder`] (snapshot it or flush to its sink).
///
/// # Panics
/// As [`replay`].
pub fn replay_recorded(
    original: &Deposet,
    control: &ControlRelation,
    cfg: &ReplayConfig,
    recorder: Box<dyn pctl_sim::Recorder>,
) -> ReplayOutcome {
    let mut scripts: Vec<Script> = original
        .processes()
        .map(|p| Script {
            events: original.events_of(p).to_vec(),
            states: original.states_of(p).to_vec(),
            send_dest: original
                .events_of(p)
                .iter()
                .enumerate()
                .filter_map(|(k, e)| e.sent().map(|m| (k, original.message(m).to.process)))
                .collect(),
            ctrl_out: BTreeMap::new(),
            ctrl_in: BTreeMap::new(),
        })
        .collect();
    // Enforceability: the replay realizes exactly the relations a
    // controlled deposet accepts. Enforcement orders the event entering
    // `y` after the event leaving `x`, so a pair out of a final state or
    // into an initial one, a cycle through `→`, or events ordered in a
    // cycle would leave the replay short of its end.
    if let Err(e) = ControlledDeposet::new(original, control.clone()) {
        panic!("control relation is not enforceable: {e}");
    }
    for (idx, &(x, y)) in control.pairs().iter().enumerate() {
        scripts[x.process.index()]
            .ctrl_out
            .entry(x.index)
            .or_default()
            .push((idx as u32, y.process));
        scripts[y.process.index()]
            .ctrl_in
            .entry(y.index)
            .or_default()
            .push(idx as u32);
    }
    let procs: Vec<Box<dyn Process<ReplayMsg>>> = scripts
        .into_iter()
        .map(|script| {
            Box::new(ReplayProcess {
                script,
                pos: 0,
                app_buf: HashSet::new(),
                ctrl_got: HashSet::new(),
                timer_armed: false,
                step_delay: cfg.step_delay,
            }) as Box<dyn Process<ReplayMsg>>
        })
        .collect();
    let sim_cfg = SimConfig {
        seed: cfg.seed,
        delay: cfg.delay,
        max_events: 10_000_000,
        ..SimConfig::default()
    };
    let sim = Simulation::with_recorder(sim_cfg, procs, recorder).run();
    ReplayOutcome {
        sim,
        enforced_tuples: control.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pctl_core::{control_disjunctive, ControlRelation, OfflineOptions};
    use pctl_deposet::lattice::consistent_global_states;
    use pctl_deposet::{DeposetBuilder, DisjunctivePredicate};

    fn mutex_trace() -> (Deposet, DisjunctivePredicate) {
        let mut b = DeposetBuilder::new(2);
        for p in 0..2 {
            b.init_vars(p, &[("cs", 0)]);
            b.internal(p, &[("cs", 1)]);
            b.internal(p, &[("cs", 0)]);
        }
        (
            b.finish().unwrap(),
            DisjunctivePredicate::at_least_one_not(2, "cs"),
        )
    }

    #[test]
    fn uncontrolled_replay_reproduces_the_computation() {
        let (dep, _) = mutex_trace();
        let out = replay(&dep, &ControlRelation::empty(), &ReplayConfig::default());
        assert!(out.completed());
        assert!(out.fidelity(&dep));
        assert_eq!(out.sim.metrics.counter("msgs_ctrl"), 0);
    }

    #[test]
    fn replay_with_messages_preserves_order() {
        let mut b = DeposetBuilder::new(3);
        b.init_vars(0, &[("x", 0)]);
        let t1 = b.send_with(0, "a", &[("x", 1)]);
        let t2 = b.send(2, "b");
        b.recv(1, t1, &[("got_a", 1)]);
        b.recv(1, t2, &[("got_b", 1)]);
        b.internal(1, &[("done", 1)]);
        let dep = b.finish().unwrap();
        let out = replay(&dep, &ControlRelation::empty(), &ReplayConfig::default());
        assert!(out.completed());
        assert!(out.fidelity(&dep));
        // App messages replayed 1:1.
        assert_eq!(out.sim.metrics.counter("msgs_app"), 2);
    }

    #[test]
    fn controlled_replay_enforces_safety() {
        let (dep, pred) = mutex_trace();
        let rel = control_disjunctive(&dep, &pred, OfflineOptions::default()).unwrap();
        let out = replay(&dep, &rel, &ReplayConfig::default());
        assert!(
            out.completed(),
            "non-interfering control cannot deadlock the replay"
        );
        assert!(out.fidelity(&dep));
        assert_eq!(out.sim.metrics.counter("msgs_ctrl") as usize, rel.len());
        // The replayed computation itself satisfies B on every consistent
        // cut — the bug cannot recur in the controlled re-execution.
        let re = out.deposet();
        for g in consistent_global_states(re, 1_000_000).unwrap() {
            assert!(
                pred.eval(re, &g),
                "replayed cut {g:?} violates the predicate"
            );
        }
    }

    #[test]
    fn replay_stalls_are_observable() {
        let (dep, pred) = mutex_trace();
        let rel = control_disjunctive(&dep, &pred, OfflineOptions::default()).unwrap();
        let out = replay(
            &dep,
            &rel,
            &ReplayConfig {
                step_delay: 1,
                ..Default::default()
            },
        );
        assert!(out.completed());
        // With a tuple to wait for and fast local steps, some process
        // observably blocked at least once.
        assert!(out.sim.metrics.counter("replay_stalls") >= 1);
    }

    #[test]
    fn replays_are_deterministic() {
        let (dep, pred) = mutex_trace();
        let rel = control_disjunctive(&dep, &pred, OfflineOptions::default()).unwrap();
        let a = replay(&dep, &rel, &ReplayConfig::default());
        let b = replay(&dep, &rel, &ReplayConfig::default());
        assert_eq!(
            pctl_deposet::trace::to_json(a.deposet()),
            pctl_deposet::trace::to_json(b.deposet())
        );
    }

    #[test]
    fn random_workload_replay_roundtrip() {
        use pctl_deposet::generator::{random_deposet, RandomConfig};
        for seed in 0..6 {
            let dep = random_deposet(
                &RandomConfig {
                    processes: 3,
                    events: 25,
                    ..RandomConfig::default()
                },
                seed,
            );
            let out = replay(&dep, &ControlRelation::empty(), &ReplayConfig::default());
            assert!(out.completed(), "seed {seed}");
            assert!(out.fidelity(&dep), "seed {seed}");
            assert_eq!(
                out.sim.metrics.counter("msgs_app") as usize,
                dep.messages().len()
            );
        }
    }

    /// The control relation `P1[1] C→ P0[2]`, `P0[2] C→ P3[1]` over the
    /// message `P3[0] ; P1[1]` is acyclic on states but orders events in
    /// a cycle, so no replay realizes it: the replay refuses it, as
    /// `ControlledDeposet::new` does.
    #[test]
    #[should_panic(expected = "not enforceable: control relation orders events in a cycle")]
    fn a_relation_ordering_events_in_a_cycle_is_refused() {
        use pctl_causality::StateId;
        let mut b = DeposetBuilder::new(4);
        for _ in 0..3 {
            b.internal(0, &[]);
        }
        let t = b.send(3, "m");
        b.recv(1, t, &[]);
        b.internal(1, &[]);
        let dep = b.finish().unwrap();
        let rel = ControlRelation::from_pairs([
            (StateId::new(1usize, 1), StateId::new(0usize, 2)),
            (StateId::new(0usize, 2), StateId::new(3usize, 1)),
        ]);
        replay(&dep, &rel, &ReplayConfig::default());
    }

    #[test]
    #[should_panic(expected = "not enforceable: control pair P0[2] C→ P1[1] leaves a final state")]
    fn a_pair_out_of_a_final_state_is_refused() {
        use pctl_causality::StateId;
        let (dep, _) = mutex_trace();
        let rel = ControlRelation::from_pairs([(StateId::new(0usize, 2), StateId::new(1usize, 1))]);
        replay(&dep, &rel, &ReplayConfig::default());
    }
}
