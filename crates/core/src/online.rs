//! The on-line control strategy for disjunctive predicates (paper
//! Figure 3).
//!
//! On-line predicate control is impossible in general for `n ≥ 2`
//! (Theorem 3 — demonstrated executably in the tests and the
//! `impossibility` integration scenario). Under the paper's assumptions
//!
//! * **A1** — no process blocks in states where its local predicate `lᵢ`
//!   is false, and
//! * **A2** — `lᵢ(⊤ᵢ)` holds (every process ends true),
//!
//! the *scapegoat* protocol solves it: at any time some process is the
//! scapegoat and must remain `lᵢ`-true until another process takes over.
//! Before making `lᵢ` false, the scapegoat sends `req` to some other
//! controller and blocks until an `ack`; a controller receiving `req`
//! answers immediately if currently true (becoming the new scapegoat) or
//! defers the answer until it next turns true. The scapegoat is an
//! *anti-token*: a liability rather than a privilege, which is why the
//! protocol costs only 2 control messages per `n` predicate falsifications
//! (Section 6, Evaluation).
//!
//! [`ScapegoatController`] is a sans-I/O state machine — unit-testable
//! without a network and reusable outside the simulator.
//! [`PhasedProcess`] couples it with a scripted application (alternating
//! true/false phases of the traced variable `ok`) on the discrete-event
//! simulator, measuring entries and response times.
//!
//! This baseline protocol assumes the paper's reliable channels and
//! immortal processes. The [`ft`] submodule hardens it against message
//! loss, duplication, reordering, and crash/restart faults injected by
//! `pctl_sim::FaultPlan`.

pub mod ft;

use pctl_deposet::ProcessId;
use pctl_sim::{Ctx, Payload, Process, SimTime, TimerId};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Control-plane messages of the scapegoat protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CtrlMsg {
    /// "Take the scapegoat role from me."
    Req {
        /// The requesting controller.
        from: ProcessId,
    },
    /// "Role accepted; you may turn false."
    Ack,
    /// "I cannot take the role right now; ask someone else." Used only by
    /// the m-anti-token generalization (`pctl-mutex::multi`); the paper's
    /// single-token protocol never sends it.
    Busy,
}

impl Payload for CtrlMsg {
    fn tag(&self) -> &'static str {
        match self {
            CtrlMsg::Req { .. } => "req",
            CtrlMsg::Ack => "ack",
            CtrlMsg::Busy => "busy",
        }
    }
    fn is_control(&self) -> bool {
        true
    }
}

/// Effects requested by the controller state machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CtrlAction {
    /// Send a control message.
    Send {
        /// Destination controller.
        to: ProcessId,
        /// The message.
        msg: CtrlMsg,
    },
    /// The blocked falsification may proceed.
    Grant,
}

/// Outcome of [`ScapegoatController::request_false`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FalsifyDecision {
    /// Not the scapegoat: go false immediately.
    Granted,
    /// Scapegoat: blocked until an `ack`; send these first.
    Blocked(Vec<CtrlAction>),
}

/// The per-process controller `Cᵢ` of Figure 3, as a pure state machine.
#[derive(Clone, Debug)]
pub struct ScapegoatController {
    me: ProcessId,
    scapegoat: bool,
    waiting_ack: bool,
    local_true: bool,
    pending: VecDeque<ProcessId>,
}

impl ScapegoatController {
    /// A controller; exactly one process in the system must start with
    /// `init_scapegoat = true` (the paper's `init(i)`).
    pub fn new(me: ProcessId, init_scapegoat: bool) -> Self {
        ScapegoatController {
            me,
            scapegoat: init_scapegoat,
            waiting_ack: false,
            local_true: true,
            pending: VecDeque::new(),
        }
    }

    /// Whether this controller currently holds the anti-token.
    pub fn is_scapegoat(&self) -> bool {
        self.scapegoat
    }

    /// Whether the underlying process is blocked awaiting an `ack`.
    pub fn is_blocked(&self) -> bool {
        self.waiting_ack
    }

    /// The underlying process asks to make `lᵢ` false. `peers` is where to
    /// send `req` (one controller for the paper's protocol; all others for
    /// the broadcast variant).
    ///
    /// # Panics
    /// Panics on protocol misuse: requesting while already blocked or while
    /// already false.
    pub fn request_false(&mut self, peers: &[ProcessId]) -> FalsifyDecision {
        assert!(!self.waiting_ack, "already blocked on an ack");
        assert!(self.local_true, "already false");
        if !self.scapegoat {
            self.local_true = false;
            return FalsifyDecision::Granted;
        }
        assert!(!peers.is_empty(), "scapegoat needs at least one peer");
        self.waiting_ack = true;
        FalsifyDecision::Blocked(
            peers
                .iter()
                .map(|&p| {
                    assert_ne!(p, self.me, "cannot hand the scapegoat role to oneself");
                    CtrlAction::Send {
                        to: p,
                        msg: CtrlMsg::Req { from: self.me },
                    }
                })
                .collect(),
        )
    }

    /// A control message arrived.
    pub fn on_message(&mut self, msg: CtrlMsg) -> Vec<CtrlAction> {
        match msg {
            CtrlMsg::Req { from } => {
                // Figure 3's requester performs a *blocking* `receive(ack)`,
                // so a controller that is itself waiting for an ack must
                // defer incoming requests even though it is still true —
                // answering here would let two waiting scapegoats hand
                // their roles to each other and both turn false (a safety
                // violation on a consistent cut). Deferral keeps the
                // invariant #scapegoats = 1 + #acks-in-flight, which is
                // also what rules out circular waits (Theorem 4).
                if self.local_true && !self.waiting_ack {
                    self.scapegoat = true;
                    vec![CtrlAction::Send {
                        to: from,
                        msg: CtrlMsg::Ack,
                    }]
                } else {
                    self.pending.push_back(from);
                    vec![]
                }
            }
            CtrlMsg::Ack => {
                if self.waiting_ack {
                    // First ack wins (broadcast variant may deliver more).
                    self.waiting_ack = false;
                    self.scapegoat = false;
                    self.local_true = false;
                    vec![CtrlAction::Grant]
                } else {
                    vec![]
                }
            }
            // The single-token protocol never emits Busy; tolerate it for
            // forward compatibility with the m-token generalization.
            CtrlMsg::Busy => vec![],
        }
    }

    /// The underlying process turned `lᵢ` true again: answer deferred
    /// requests (taking the scapegoat role).
    pub fn notify_true(&mut self) -> Vec<CtrlAction> {
        self.local_true = true;
        let mut actions = Vec::new();
        while let Some(j) = self.pending.pop_front() {
            self.scapegoat = true;
            actions.push(CtrlAction::Send {
                to: j,
                msg: CtrlMsg::Ack,
            });
        }
        actions
    }
}

/// How a blocked scapegoat picks the peer(s) for its `req`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PeerSelect {
    /// Always the next process in ring order (deterministic).
    NextInRing,
    /// Seeded-uniform among the other processes.
    Random,
    /// The broadcast variant from Section 6's evaluation: ask everyone,
    /// first true controller answers — lower response time, `n − 1`
    /// messages per handover.
    Broadcast,
}

/// One application phase: stay true for `true_len` ticks, then false for
/// `false_len` ticks (`None` = stay false forever — used to violate A1 in
/// the impossibility scenario).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Phase {
    /// Duration of the predicate-true span before requesting falsification.
    pub true_len: u64,
    /// Duration of the false span; `None` never recovers (violates A1).
    pub false_len: Option<u64>,
}

/// Scripted application + controller, traced through the simulator.
///
/// The traced boolean variable `ok` is the local predicate `lᵢ`; false
/// phases model critical sections / unavailability windows.
pub struct PhasedProcess {
    ctrl: ScapegoatController,
    script: VecDeque<Phase>,
    select: PeerSelect,
    n: usize,
    requested_at: Option<SimTime>,
    current_false_len: Option<u64>,
}

impl PhasedProcess {
    /// Build a process for a system of `n` processes.
    pub fn new(
        me: ProcessId,
        n: usize,
        init_scapegoat: bool,
        select: PeerSelect,
        script: Vec<Phase>,
    ) -> Self {
        PhasedProcess {
            ctrl: ScapegoatController::new(me, init_scapegoat),
            script: script.into(),
            select,
            n,
            requested_at: None,
            current_false_len: None,
        }
    }

    fn peers(&self, ctx: &mut Ctx<'_, CtrlMsg>) -> Vec<ProcessId> {
        let me = ctx.me().index();
        let others: Vec<ProcessId> = (0..self.n)
            .filter(|&i| i != me)
            .map(|i| ProcessId(i as u32))
            .collect();
        match self.select {
            PeerSelect::Broadcast => others,
            PeerSelect::NextInRing => vec![ProcessId(((me + 1) % self.n) as u32)],
            PeerSelect::Random => {
                let k = ctx.rand_below(others.len() as u64) as usize;
                vec![others[k]]
            }
        }
    }

    fn apply(&mut self, actions: Vec<CtrlAction>, ctx: &mut Ctx<'_, CtrlMsg>) {
        for a in actions {
            match a {
                CtrlAction::Send { to, msg } => ctx.send(to, msg),
                CtrlAction::Grant => {
                    ctx.trace_end("blocked");
                    self.enter_false(ctx);
                }
            }
        }
    }

    fn enter_false(&mut self, ctx: &mut Ctx<'_, CtrlMsg>) {
        if let Some(at) = self.requested_at.take() {
            ctx.record("response", ctx.now().since(at));
        }
        ctx.count("entries", 1);
        ctx.step(&[("ok", 0)]);
        match self.current_false_len {
            Some(len) => {
                ctx.set_timer(len);
            }
            None => {
                // A1 violated: never recover; never finish.
            }
        }
    }

    fn begin_next_phase(&mut self, ctx: &mut Ctx<'_, CtrlMsg>) {
        match self.script.pop_front() {
            Some(ph) => {
                self.current_false_len = ph.false_len;
                ctx.set_timer(ph.true_len);
            }
            None => ctx.set_done(),
        }
    }
}

impl Process<CtrlMsg> for PhasedProcess {
    fn on_start(&mut self, ctx: &mut Ctx<'_, CtrlMsg>) {
        ctx.init_var("ok", 1);
        self.begin_next_phase(ctx);
    }

    fn on_message(&mut self, _from: ProcessId, msg: CtrlMsg, ctx: &mut Ctx<'_, CtrlMsg>) {
        let had_role = self.ctrl.is_scapegoat();
        let actions = self.ctrl.on_message(msg);
        if ctx.recording() && self.ctrl.is_scapegoat() != had_role {
            ctx.trace_instant(if self.ctrl.is_scapegoat() {
                "scapegoat_acquired"
            } else {
                "scapegoat_released"
            });
        }
        self.apply(actions, ctx);
    }

    fn on_timer(&mut self, _t: TimerId, ctx: &mut Ctx<'_, CtrlMsg>) {
        if ctx.var("ok") == Some(1) {
            if self.ctrl.is_blocked() {
                // Spurious timer while blocked cannot happen: timers are
                // only set when entering a phase.
                unreachable!("timer while blocked");
            }
            // End of a true phase: ask to go false.
            self.requested_at = Some(ctx.now());
            let peers = self.peers(ctx);
            match self.ctrl.request_false(&peers) {
                FalsifyDecision::Granted => self.enter_false(ctx),
                FalsifyDecision::Blocked(actions) => {
                    ctx.trace_begin("blocked");
                    self.apply(actions, ctx);
                }
            }
        } else {
            // End of a false phase: recover.
            ctx.step(&[("ok", 1)]);
            let had_role = self.ctrl.is_scapegoat();
            let actions = self.ctrl.notify_true();
            if ctx.recording() && !had_role && self.ctrl.is_scapegoat() {
                ctx.trace_instant("scapegoat_acquired");
            }
            self.apply(actions, ctx);
            self.begin_next_phase(ctx);
        }
    }
}

/// Build a ready-to-run process vector for an `n`-process phased workload;
/// process 0 starts as scapegoat.
pub fn phased_system(
    n: usize,
    scripts: Vec<Vec<Phase>>,
    select: PeerSelect,
) -> Vec<Box<dyn Process<CtrlMsg>>> {
    assert_eq!(scripts.len(), n);
    scripts
        .into_iter()
        .enumerate()
        .map(|(i, script)| {
            Box::new(PhasedProcess::new(
                ProcessId(i as u32),
                n,
                i == 0,
                select,
                script,
            )) as Box<dyn Process<CtrlMsg>>
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pctl_deposet::lattice::consistent_global_states;
    use pctl_deposet::DisjunctivePredicate;
    use pctl_sim::{DelayModel, SimConfig, Simulation};

    fn uniform_scripts(n: usize, phases: usize, true_len: u64, false_len: u64) -> Vec<Vec<Phase>> {
        (0..n)
            .map(|i| {
                (0..phases)
                    .map(|k| Phase {
                        // Staggered so processes collide in interesting ways.
                        true_len: true_len + (i as u64) * 3 + (k as u64 % 2),
                        false_len: Some(false_len),
                    })
                    .collect()
            })
            .collect()
    }

    fn run(n: usize, phases: usize, select: PeerSelect, seed: u64) -> pctl_sim::SimResult {
        let procs = phased_system(n, uniform_scripts(n, phases, 20, 10), select);
        let config = SimConfig {
            seed,
            delay: DelayModel::Fixed(5),
            ..SimConfig::default()
        };
        Simulation::new(config, procs).run()
    }

    #[test]
    fn controller_state_machine_handover() {
        let mut c0 = ScapegoatController::new(ProcessId(0), true);
        let mut c1 = ScapegoatController::new(ProcessId(1), false);
        // Non-scapegoat may falsify freely.
        assert_eq!(c1.request_false(&[ProcessId(0)]), FalsifyDecision::Granted);
        assert!(!c1.is_scapegoat());
        c1.notify_true();
        // Scapegoat must ask.
        let FalsifyDecision::Blocked(actions) = c0.request_false(&[ProcessId(1)]) else {
            panic!("scapegoat must block");
        };
        assert_eq!(
            actions,
            vec![CtrlAction::Send {
                to: ProcessId(1),
                msg: CtrlMsg::Req { from: ProcessId(0) }
            }]
        );
        assert!(c0.is_blocked());
        // P1 is true: accepts role, acks.
        let a1 = c1.on_message(CtrlMsg::Req { from: ProcessId(0) });
        assert!(c1.is_scapegoat());
        assert_eq!(
            a1,
            vec![CtrlAction::Send {
                to: ProcessId(0),
                msg: CtrlMsg::Ack
            }]
        );
        // Ack unblocks P0 and strips its role.
        let a0 = c0.on_message(CtrlMsg::Ack);
        assert_eq!(a0, vec![CtrlAction::Grant]);
        assert!(!c0.is_scapegoat());
        assert!(!c0.is_blocked());
    }

    #[test]
    fn controller_defers_req_while_false() {
        let mut c1 = ScapegoatController::new(ProcessId(1), false);
        assert_eq!(c1.request_false(&[ProcessId(0)]), FalsifyDecision::Granted);
        // Req arrives while false: deferred.
        assert!(c1
            .on_message(CtrlMsg::Req { from: ProcessId(0) })
            .is_empty());
        assert!(!c1.is_scapegoat());
        // Recovery answers it.
        let a = c1.notify_true();
        assert_eq!(
            a,
            vec![CtrlAction::Send {
                to: ProcessId(0),
                msg: CtrlMsg::Ack
            }]
        );
        assert!(c1.is_scapegoat());
    }

    #[test]
    fn waiting_scapegoat_defers_requests() {
        // Two scapegoats requesting each other must NOT trade acks — that
        // would let both go false simultaneously.
        let mut c0 = ScapegoatController::new(ProcessId(0), true);
        let _ = c0.request_false(&[ProcessId(1)]);
        assert!(c0.is_blocked());
        // Req arrives while c0 is blocked (and still true): deferred.
        assert!(c0
            .on_message(CtrlMsg::Req { from: ProcessId(1) })
            .is_empty());
        // Once c0's own handover completes and it recovers, the pending
        // request is answered.
        assert_eq!(c0.on_message(CtrlMsg::Ack), vec![CtrlAction::Grant]);
        let a = c0.notify_true();
        assert_eq!(
            a,
            vec![CtrlAction::Send {
                to: ProcessId(1),
                msg: CtrlMsg::Ack
            }]
        );
        assert!(c0.is_scapegoat());
    }

    #[test]
    fn duplicate_acks_are_ignored() {
        let mut c0 = ScapegoatController::new(ProcessId(0), true);
        let _ = c0.request_false(&[ProcessId(1), ProcessId(2)]);
        assert_eq!(c0.on_message(CtrlMsg::Ack), vec![CtrlAction::Grant]);
        assert_eq!(c0.on_message(CtrlMsg::Ack), vec![]);
    }

    #[test]
    #[should_panic(expected = "already false")]
    fn double_falsify_is_a_protocol_error() {
        let mut c = ScapegoatController::new(ProcessId(0), false);
        let _ = c.request_false(&[ProcessId(1)]);
        let _ = c.request_false(&[ProcessId(1)]);
    }

    #[test]
    fn simulation_satisfies_predicate_on_every_consistent_cut() {
        for seed in 0..5 {
            let r = run(3, 3, PeerSelect::NextInRing, seed);
            assert!(!r.deadlocked(), "strategy must not deadlock under A1/A2");
            let pred = DisjunctivePredicate::at_least_one(3, "ok");
            // The control messages are part of the trace, so EVERY
            // consistent cut of the controlled computation must satisfy B.
            let cuts = consistent_global_states(&r.deposet, 2_000_000).unwrap();
            for g in cuts {
                assert!(
                    pred.eval(&r.deposet, &g),
                    "seed {seed}: consistent cut {g:?} violates B"
                );
            }
        }
    }

    #[test]
    fn broadcast_variant_also_safe() {
        let r = run(4, 2, PeerSelect::Broadcast, 3);
        assert!(!r.deadlocked());
        let pred = DisjunctivePredicate::at_least_one(4, "ok");
        for g in consistent_global_states(&r.deposet, 2_000_000).unwrap() {
            assert!(pred.eval(&r.deposet, &g));
        }
    }

    #[test]
    fn random_peer_selection_safe() {
        let r = run(3, 3, PeerSelect::Random, 9);
        assert!(!r.deadlocked());
        let pred = DisjunctivePredicate::at_least_one(3, "ok");
        for g in consistent_global_states(&r.deposet, 2_000_000).unwrap() {
            assert!(pred.eval(&r.deposet, &g));
        }
    }

    #[test]
    fn message_cost_is_two_per_handover() {
        // n processes each falsifying once: only scapegoat handovers cost
        // messages — 2 per handover, and ≤ entries handovers.
        let r = run(4, 4, PeerSelect::NextInRing, 1);
        let entries = r.metrics.counter("entries");
        let ctrl = r.metrics.counter("msgs_ctrl");
        assert!(entries > 0);
        // Only the scapegoat's own falsifications cost anything: one req +
        // one ack per handover, and at most one handover per entry.
        assert!(ctrl <= 2 * entries);
        assert_eq!(ctrl % 2, 0, "every req is eventually acked");
    }

    #[test]
    fn no_consistent_cut_violation_at_scale() {
        // Polynomial consistent-cut check (GW detection of the all-false
        // conjunction) on systems too large for lattice enumeration.
        use pctl_deposet::LocalPredicate;
        for n in [4usize, 6, 8] {
            for select in [
                PeerSelect::NextInRing,
                PeerSelect::Random,
                PeerSelect::Broadcast,
            ] {
                for seed in 0..4 {
                    let procs = phased_system(n, uniform_scripts(n, 5, 15, 8), select);
                    let config = SimConfig {
                        seed,
                        delay: DelayModel::Fixed(5),
                        ..SimConfig::default()
                    };
                    let r = Simulation::new(config, procs).run();
                    assert!(!r.deadlocked(), "n={n} {select:?} seed={seed}");
                    let all_false: Vec<LocalPredicate> =
                        (0..n).map(|_| LocalPredicate::not_var("ok")).collect();
                    assert_eq!(
                        pctl_deposet::store::possibly_conjunction(&r.deposet, &all_false),
                        None,
                        "n={n} {select:?} seed={seed}: all-false consistent cut"
                    );
                }
            }
        }
    }

    #[test]
    fn a2_violation_can_strand_the_final_scapegoat() {
        // A2 requires lᵢ(⊤ᵢ). If every peer *ends* false (scripts finish
        // inside a false phase... our driver always recovers, so model it
        // with peers that stop participating while the scapegoat still
        // wants a handover close to the end: the run must never violate
        // safety even if it cannot finish cleanly).
        let scripts = vec![
            // P0 wants one very late falsification.
            vec![Phase {
                true_len: 200,
                false_len: Some(5),
            }],
            // P1 does all its work early then is done (true forever — A2
            // holds, so this run completes; the assertion is liveness).
            vec![Phase {
                true_len: 10,
                false_len: Some(5),
            }],
        ];
        let procs = phased_system(2, scripts, PeerSelect::NextInRing);
        let config = SimConfig {
            seed: 0,
            delay: DelayModel::Fixed(5),
            ..SimConfig::default()
        };
        let r = Simulation::new(config, procs).run();
        assert!(!r.deadlocked(), "A2 holds ⇒ the late handover is answered");
        let pred = DisjunctivePredicate::at_least_one(2, "ok");
        for g in consistent_global_states(&r.deposet, 200_000).unwrap() {
            assert!(pred.eval(&r.deposet, &g));
        }
    }

    #[test]
    fn impossibility_scenario_deadlocks_without_a1() {
        // P1 goes false forever (violating A1); scapegoat P0 then requests
        // P1 and blocks for good: the run is a deadlock.
        let scripts = vec![
            vec![Phase {
                true_len: 50,
                false_len: Some(10),
            }],
            vec![Phase {
                true_len: 10,
                false_len: None,
            }],
        ];
        let procs = phased_system(2, scripts, PeerSelect::NextInRing);
        let config = SimConfig {
            seed: 0,
            delay: DelayModel::Fixed(5),
            ..SimConfig::default()
        };
        let r = Simulation::new(config, procs).run();
        assert!(r.deadlocked(), "violating A1 must deadlock the strategy");
        assert!(
            r.protocol_deadlock(),
            "the A1-violation deadlock is a genuine protocol deadlock \
             (engaged processes starved), not an inert script: {:?}",
            r.outcomes()
        );
        // Safety is still never violated — the strategy blocks rather than
        // let B break.
        let pred = DisjunctivePredicate::at_least_one(2, "ok");
        for g in consistent_global_states(&r.deposet, 100_000).unwrap() {
            assert!(pred.eval(&r.deposet, &g));
        }
    }
}
