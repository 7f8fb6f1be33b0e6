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
//! without a network and reusable outside the simulator. It implements
//! [`Controller`], so the one generic [`Host`] runs it on the
//! discrete-event simulator; [`phased_system`] pairs it there with a
//! [`PhaseScript`] (alternating true/false phases of the traced variable
//! `ok`), measuring entries and response times. The mutex workloads of
//! `pctl-mutex` reuse the same host with their own [`Workload`].
//!
//! This baseline protocol assumes the paper's reliable channels and
//! immortal processes. The [`ft`] submodule hardens it against message
//! loss, duplication, reordering, and crash/restart faults injected by
//! `pctl_sim::FaultPlan`.

pub mod ft;
mod host;

pub use host::{Action, Controller, Due, Host, Workload};

use pctl_deposet::ProcessId;
use pctl_sim::{Ctx, Payload, Process, SimTime};
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
}

impl Controller for ScapegoatController {
    type Msg = CtrlMsg;

    fn is_scapegoat(&self) -> bool {
        self.scapegoat
    }

    fn is_blocked(&self) -> bool {
        self.waiting_ack
    }

    /// `peers` is one controller for the paper's protocol, and all others
    /// for the broadcast variant.
    fn request_false(&mut self, peers: &[ProcessId], out: &mut Vec<Action<CtrlMsg>>) {
        assert!(!self.waiting_ack, "already blocked on an ack");
        assert!(self.local_true, "already false");
        if !self.scapegoat {
            self.local_true = false;
            return;
        }
        assert!(!peers.is_empty(), "scapegoat needs at least one peer");
        self.waiting_ack = true;
        for &p in peers {
            assert_ne!(p, self.me, "cannot hand the scapegoat role to oneself");
            out.push(Action::Send {
                to: p,
                msg: CtrlMsg::Req { from: self.me },
            });
        }
    }

    fn on_message(&mut self, msg: CtrlMsg, out: &mut Vec<Action<CtrlMsg>>) {
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
                    out.push(Action::Send {
                        to: from,
                        msg: CtrlMsg::Ack,
                    });
                } else {
                    self.pending.push_back(from);
                }
            }
            CtrlMsg::Ack => {
                if self.waiting_ack {
                    // First ack wins (broadcast variant may deliver more).
                    self.waiting_ack = false;
                    self.scapegoat = false;
                    self.local_true = false;
                    out.push(Action::Grant);
                }
            }
            // The single-token protocol never emits Busy; tolerate it for
            // forward compatibility with the m-token generalization.
            CtrlMsg::Busy => {}
        }
    }

    /// Answering deferred requests takes the scapegoat role.
    fn notify_true(&mut self, out: &mut Vec<Action<CtrlMsg>>) {
        self.local_true = true;
        while let Some(j) = self.pending.pop_front() {
            self.scapegoat = true;
            out.push(Action::Send {
                to: j,
                msg: CtrlMsg::Ack,
            });
        }
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

impl PeerSelect {
    /// Append the peers process `ctx.me()` of `n` asks to `out`. `Random`
    /// draws one number from the run's RNG, uniform over the other `n − 1`
    /// processes.
    pub fn fill<M: Payload>(self, n: usize, ctx: &mut Ctx<'_, M>, out: &mut Vec<ProcessId>) {
        match self {
            PeerSelect::Broadcast => {
                let me = ctx.me().index();
                out.extend((0..n).filter(|&i| i != me).map(|i| ProcessId(i as u32)))
            }
            single => out.push(single.pick(n, ctx).expect("one peer")),
        }
    }

    /// The one peer a non-broadcast selection asks; `None` for
    /// [`PeerSelect::Broadcast`].
    pub fn pick<M: Payload>(self, n: usize, ctx: &mut Ctx<'_, M>) -> Option<ProcessId> {
        let me = ctx.me().index();
        match self {
            PeerSelect::Broadcast => None,
            PeerSelect::NextInRing => Some(ProcessId(((me + 1) % n) as u32)),
            PeerSelect::Random => {
                // The k-th process other than `me`.
                let k = ctx.rand_below((n - 1) as u64) as usize;
                Some(ProcessId((k + usize::from(k >= me)) as u32))
            }
        }
    }
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

/// A scripted application: the phases of the traced boolean variable `ok`,
/// the local predicate `lᵢ`. False phases model critical sections or
/// unavailability windows.
#[derive(Debug)]
pub struct PhaseScript {
    script: std::vec::IntoIter<Phase>,
    false_len: Option<u64>,
    requested_at: Option<SimTime>,
    finished: bool,
}

impl PhaseScript {
    /// Play `script` in order.
    pub fn new(script: Vec<Phase>) -> Self {
        PhaseScript {
            script: script.into_iter(),
            false_len: None,
            requested_at: None,
            finished: false,
        }
    }
}

impl Workload for PhaseScript {
    const TRACE_CONTROL: bool = true;

    fn start<M: Payload>(&mut self, ctx: &mut Ctx<'_, M>) {
        ctx.init_var("ok", 1);
        self.resume(ctx);
    }

    fn due<M: Payload>(&self, ctx: &Ctx<'_, M>) -> Due {
        match (self.finished, ctx.var("ok")) {
            (true, _) => Due::Nothing,
            (false, Some(1)) => Due::Request,
            (false, _) => Due::Release,
        }
    }

    fn begin_request<M: Payload>(&mut self, ctx: &mut Ctx<'_, M>) {
        self.requested_at = Some(ctx.now());
    }

    fn enter_false<M: Payload>(&mut self, ctx: &mut Ctx<'_, M>) {
        if let Some(at) = self.requested_at.take() {
            ctx.record("response", ctx.now().since(at));
        }
        ctx.count("entries", 1);
        ctx.step(&[("ok", 0)]);
        // `None` violates A1: never recover, never finish.
        if let Some(len) = self.false_len {
            ctx.set_timer(len);
        }
    }

    fn release<M: Payload>(&mut self, ctx: &mut Ctx<'_, M>) {
        ctx.step(&[("ok", 1)]);
    }

    /// Begin the next phase, or finish.
    fn resume<M: Payload>(&mut self, ctx: &mut Ctx<'_, M>) {
        match self.script.next() {
            Some(ph) => {
                self.false_len = ph.false_len;
                ctx.set_timer(ph.true_len);
            }
            None => {
                self.finished = true;
                ctx.set_done();
            }
        }
    }

    /// The interrupted phase is abandoned; the next one resumes.
    fn recover<M: Payload>(&mut self, ctx: &mut Ctx<'_, M>) {
        self.requested_at = None;
        if ctx.var("ok") == Some(0) {
            ctx.step(&[("ok", 1)]);
        }
    }

    fn finished(&self) -> bool {
        self.finished
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
            let ctrl = ScapegoatController::new(ProcessId(i as u32), i == 0);
            Box::new(Host::new(ctrl, PhaseScript::new(script), n, Some(select)))
                as Box<dyn Process<CtrlMsg>>
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

    /// The actions of one controller call.
    fn acts<C: Controller>(
        c: &mut C,
        call: impl FnOnce(&mut C, &mut Vec<Action<C::Msg>>),
    ) -> Vec<Action<C::Msg>> {
        let mut out = Vec::new();
        call(c, &mut out);
        out
    }

    fn send(to: u32, msg: CtrlMsg) -> Action<CtrlMsg> {
        Action::Send {
            to: ProcessId(to),
            msg,
        }
    }

    const REQ0: CtrlMsg = CtrlMsg::Req { from: ProcessId(0) };

    #[test]
    fn controller_state_machine_handover() {
        let mut c0 = ScapegoatController::new(ProcessId(0), true);
        let mut c1 = ScapegoatController::new(ProcessId(1), false);
        // Non-scapegoat may falsify freely.
        assert!(acts(&mut c1, |c, o| c.request_false(&[ProcessId(0)], o)).is_empty());
        assert!(!c1.is_blocked() && !c1.is_scapegoat());
        assert!(acts(&mut c1, |c, o| c.notify_true(o)).is_empty());
        // Scapegoat must ask.
        let actions = acts(&mut c0, |c, o| c.request_false(&[ProcessId(1)], o));
        assert_eq!(actions, vec![send(1, REQ0)]);
        assert!(c0.is_blocked());
        // P1 is true: accepts role, acks.
        let a1 = acts(&mut c1, |c, o| c.on_message(REQ0, o));
        assert!(c1.is_scapegoat());
        assert_eq!(a1, vec![send(0, CtrlMsg::Ack)]);
        // Ack unblocks P0 and strips its role.
        let a0 = acts(&mut c0, |c, o| c.on_message(CtrlMsg::Ack, o));
        assert_eq!(a0, vec![Action::Grant]);
        assert!(!c0.is_scapegoat());
        assert!(!c0.is_blocked());
    }

    #[test]
    fn controller_defers_req_while_false() {
        let mut c1 = ScapegoatController::new(ProcessId(1), false);
        assert!(acts(&mut c1, |c, o| c.request_false(&[ProcessId(0)], o)).is_empty());
        // Req arrives while false: deferred.
        assert!(acts(&mut c1, |c, o| c.on_message(REQ0, o)).is_empty());
        assert!(!c1.is_scapegoat());
        // Recovery answers it.
        let a = acts(&mut c1, |c, o| c.notify_true(o));
        assert_eq!(a, vec![send(0, CtrlMsg::Ack)]);
        assert!(c1.is_scapegoat());
    }

    #[test]
    fn waiting_scapegoat_defers_requests() {
        // Two scapegoats requesting each other must NOT trade acks — that
        // would let both go false simultaneously.
        let mut c0 = ScapegoatController::new(ProcessId(0), true);
        let _ = acts(&mut c0, |c, o| c.request_false(&[ProcessId(1)], o));
        assert!(c0.is_blocked());
        // Req arrives while c0 is blocked (and still true): deferred.
        let req1 = CtrlMsg::Req { from: ProcessId(1) };
        assert!(acts(&mut c0, |c, o| c.on_message(req1, o)).is_empty());
        // Once c0's own handover completes and it recovers, the pending
        // request is answered.
        let a = acts(&mut c0, |c, o| c.on_message(CtrlMsg::Ack, o));
        assert_eq!(a, vec![Action::Grant]);
        let a = acts(&mut c0, |c, o| c.notify_true(o));
        assert_eq!(a, vec![send(1, CtrlMsg::Ack)]);
        assert!(c0.is_scapegoat());
    }

    #[test]
    fn duplicate_acks_are_ignored() {
        let mut c0 = ScapegoatController::new(ProcessId(0), true);
        let a = acts(&mut c0, |c, o| {
            c.request_false(&[ProcessId(1), ProcessId(2)], o)
        });
        assert_eq!(a, vec![send(1, REQ0), send(2, REQ0)]);
        let a = acts(&mut c0, |c, o| c.on_message(CtrlMsg::Ack, o));
        assert_eq!(a, vec![Action::Grant]);
        assert!(acts(&mut c0, |c, o| c.on_message(CtrlMsg::Ack, o)).is_empty());
    }

    #[test]
    #[should_panic(expected = "already false")]
    fn double_falsify_is_a_protocol_error() {
        let mut c = ScapegoatController::new(ProcessId(0), false);
        let mut out = Vec::new();
        c.request_false(&[ProcessId(1)], &mut out);
        c.request_false(&[ProcessId(1)], &mut out);
    }

    #[test]
    #[should_panic(expected = "cannot rejoin")]
    fn the_plain_controller_refuses_to_rejoin() {
        ScapegoatController::new(ProcessId(0), true).rejoin(&mut Vec::new());
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
