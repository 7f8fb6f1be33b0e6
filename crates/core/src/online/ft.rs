//! Fault-tolerant scapegoat protocol.
//!
//! The paper's Figure 3 strategy assumes reliable channels and immortal
//! processes. [`FtController`] hardens it against the faults injected by
//! `pctl-sim::faults`:
//!
//! * **Message loss / reordering** — every `req` carries a sequence number
//!   and is retransmitted on a timer with exponential backoff until the
//!   matching `ack` arrives; receivers suppress duplicates and re-`ack`
//!   idempotently, so a lost `ack` is recovered by the requester's
//!   retransmission. After [`FtParams::escalate_after`] retransmissions the
//!   requester widens its target set one peer at a time (ring order), so a
//!   permanently dead peer cannot block a handover forever.
//! * **Crashed scapegoat** — the scapegoat broadcasts heartbeats; every
//!   non-scapegoat runs a watchdog with a per-process staggered timeout.
//!   A silent period regenerates the anti-token at the first watching
//!   process that is currently `lᵢ`-true. Extra scapegoats are *safe* (the
//!   role is a liability, not a privilege — duplicating it only blocks more
//!   processes); the dangerous state is *zero* scapegoats, which the
//!   watchdog bounds to one detection window.
//! * **Restart** — a restarted process conservatively rejoins *as a
//!   scapegoat* (it assumes it may have been the only one), re-answering
//!   any requests it had deferred before the crash.
//!
//! # What survives, and what is traded away
//!
//! Under loss, duplication and reordering alone the original safety
//! guarantee is fully preserved: every `ack` acceptance is matched by
//! sequence number to exactly one role-grant that happened at a
//! predicate-true, non-waiting state, so the chain argument of Theorem 4
//! goes through unchanged (duplicates are consumed at most once; spurious
//! re-`ack`s are ignored by the sequence check).
//!
//! A crash is different: no asynchronous protocol can replace a crashed
//! scapegoat instantaneously, so `B` may be violated *while the crashed
//! process is down*, for at most one watchdog window. The post-run sweep
//! (`pctl_core::verify::sweep_faulty_run`) classifies exactly this: a
//! violating cut in which some process is down is the documented trade-off;
//! a violating cut with every process up is a protocol bug. See DESIGN.md
//! ("Deviations from Figure 3 under faults").

use pctl_deposet::ProcessId;
use pctl_sim::{Ctx, Payload, Process, SimTime, TimerId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

use super::{PeerSelect, Phase};

/// Control messages of the hardened protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FtMsg {
    /// "Take the scapegoat role from me" — retransmitted until acked.
    Req {
        /// Requesting controller.
        from: ProcessId,
        /// Requester-local handover number; `Ack` must echo it.
        seq: u64,
    },
    /// "Role accepted; handover `seq` may complete."
    Ack {
        /// The handover being acknowledged.
        seq: u64,
    },
    /// Periodic liveness beacon from a scapegoat.
    Heartbeat {
        /// The beaconing scapegoat.
        from: ProcessId,
        /// Regeneration count of the sender (diagnostic only).
        epoch: u64,
    },
}

impl Payload for FtMsg {
    fn tag(&self) -> &'static str {
        match self {
            FtMsg::Req { .. } => "req",
            FtMsg::Ack { .. } => "ack",
            FtMsg::Heartbeat { .. } => "hb",
        }
    }
    fn is_control(&self) -> bool {
        true
    }
}

/// The controller's three timer chains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FtTimerKind {
    /// Pending-`req` retransmission (exponential backoff).
    Retransmit,
    /// Scapegoat heartbeat period.
    Heartbeat,
    /// Non-scapegoat watchdog for scapegoat liveness.
    Watchdog,
}

/// Effects requested by [`FtController`]; the host applies them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FtAction {
    /// Send a control message.
    Send {
        /// Destination controller.
        to: ProcessId,
        /// The message.
        msg: FtMsg,
    },
    /// The blocked falsification may proceed.
    Grant,
    /// Arm a timer of the given kind `delay` ticks from now. The controller
    /// keeps at most one live chain per kind; a fired timer must be routed
    /// back via [`FtController::on_timer`].
    Arm {
        /// Which chain.
        kind: FtTimerKind,
        /// Ticks from now.
        delay: u64,
    },
}

/// Outcome of [`FtController::request_false`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FtDecision {
    /// Not the scapegoat: go false immediately.
    Granted,
    /// Scapegoat: blocked until an `ack`; apply these actions first.
    Blocked(Vec<FtAction>),
}

/// Tuning knobs of the hardened protocol.
#[derive(Clone, Copy, Debug)]
pub struct FtParams {
    /// First retransmission timeout (should exceed one round trip).
    pub rto_initial: u64,
    /// Backoff cap for the retransmission timeout.
    pub rto_max: u64,
    /// Scapegoat heartbeat period.
    pub heartbeat_every: u64,
    /// Base watchdog timeout; a silent period this long triggers
    /// regeneration (plus the per-process stagger).
    pub watch_timeout: u64,
    /// Extra watchdog delay per process index, staggering regeneration so
    /// one process usually wins (ties are safe, only wasteful).
    pub watch_stagger: u64,
    /// After this many retransmissions of one `req`, widen the target set
    /// by one peer (ring order) per further retransmission.
    pub escalate_after: u32,
}

impl Default for FtParams {
    fn default() -> Self {
        FtParams {
            rto_initial: 50,
            rto_max: 400,
            heartbeat_every: 40,
            watch_timeout: 150,
            watch_stagger: 35,
            escalate_after: 2,
        }
    }
}

/// The hardened per-process controller, as a pure state machine.
///
/// Like [`super::ScapegoatController`] it is sans-I/O: hosts feed it
/// messages and timer expirations and apply the returned [`FtAction`]s.
#[derive(Clone, Debug)]
pub struct FtController {
    me: ProcessId,
    n: usize,
    params: FtParams,
    scapegoat: bool,
    waiting_ack: bool,
    local_true: bool,
    /// Handover number of the outstanding (or most recent) request.
    req_seq: u64,
    /// Current targets of the outstanding request (grows on escalation).
    req_targets: Vec<ProcessId>,
    /// Retransmissions performed for the outstanding request.
    req_tries: u32,
    /// Current retransmission timeout (doubles per try, capped).
    rto: u64,
    /// Deferred requests, at most one per requester (latest seq wins).
    pending: VecDeque<(ProcessId, u64)>,
    /// Highest handover number acked per requester, for idempotent re-acks.
    acked: BTreeMap<ProcessId, u64>,
    /// Live-chain flags; at most one outstanding timer per kind.
    rt_armed: bool,
    hb_armed: bool,
    watch_armed: bool,
    /// Heartbeat heard since the watchdog last fired.
    heard_heartbeat: bool,
    /// Times this controller regenerated the anti-token.
    epoch: u64,
}

impl FtController {
    /// A controller for a system of `n` processes; exactly one process
    /// should start with `init_scapegoat = true`.
    pub fn new(me: ProcessId, n: usize, init_scapegoat: bool, params: FtParams) -> Self {
        assert!(n >= 2);
        FtController {
            me,
            n,
            params,
            scapegoat: init_scapegoat,
            waiting_ack: false,
            local_true: true,
            req_seq: 0,
            req_targets: Vec::new(),
            req_tries: 0,
            rto: params.rto_initial,
            pending: VecDeque::new(),
            acked: BTreeMap::new(),
            rt_armed: false,
            hb_armed: false,
            watch_armed: false,
            heard_heartbeat: false,
            epoch: 0,
        }
    }

    /// Whether this controller currently holds an anti-token.
    pub fn is_scapegoat(&self) -> bool {
        self.scapegoat
    }

    /// Whether the underlying process is blocked awaiting an `ack`.
    pub fn is_blocked(&self) -> bool {
        self.waiting_ack
    }

    /// How many times this controller regenerated the anti-token.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    fn watch_delay(&self) -> u64 {
        self.params.watch_timeout + self.params.watch_stagger * self.me.index() as u64
    }

    fn others(&self) -> impl Iterator<Item = ProcessId> + '_ {
        let me = self.me.index();
        (0..self.n)
            .filter(move |&i| i != me)
            .map(|i| ProcessId(i as u32))
    }

    fn ensure_heartbeat(&mut self, actions: &mut Vec<FtAction>) {
        if !self.hb_armed {
            self.hb_armed = true;
            actions.push(FtAction::Arm {
                kind: FtTimerKind::Heartbeat,
                delay: self.params.heartbeat_every,
            });
        }
    }

    fn ensure_watchdog(&mut self, actions: &mut Vec<FtAction>) {
        if !self.watch_armed {
            self.watch_armed = true;
            actions.push(FtAction::Arm {
                kind: FtTimerKind::Watchdog,
                delay: self.watch_delay(),
            });
        }
    }

    fn ensure_retransmit(&mut self, actions: &mut Vec<FtAction>) {
        if !self.rt_armed {
            self.rt_armed = true;
            actions.push(FtAction::Arm {
                kind: FtTimerKind::Retransmit,
                delay: self.rto,
            });
        }
    }

    /// Actions to apply once at process start (arms the initial chains).
    pub fn start(&mut self) -> Vec<FtAction> {
        let mut actions = Vec::new();
        if self.scapegoat {
            self.ensure_heartbeat(&mut actions);
        } else {
            self.ensure_watchdog(&mut actions);
        }
        actions
    }

    /// The underlying process asks to make `lᵢ` false. `peers` seeds the
    /// request's target set (escalation may widen it later).
    ///
    /// # Panics
    /// Panics on protocol misuse: requesting while already blocked or while
    /// already false.
    pub fn request_false(&mut self, peers: &[ProcessId]) -> FtDecision {
        let _prof = pctl_prof::span("ft_request_false");
        assert!(!self.waiting_ack, "already blocked on an ack");
        assert!(self.local_true, "already false");
        if !self.scapegoat {
            self.local_true = false;
            return FtDecision::Granted;
        }
        assert!(!peers.is_empty(), "scapegoat needs at least one peer");
        self.waiting_ack = true;
        self.req_seq += 1;
        self.req_tries = 0;
        self.rto = self.params.rto_initial;
        self.req_targets = peers.to_vec();
        let mut actions = Vec::new();
        for &p in peers {
            assert_ne!(p, self.me, "cannot hand the scapegoat role to oneself");
            actions.push(FtAction::Send {
                to: p,
                msg: FtMsg::Req {
                    from: self.me,
                    seq: self.req_seq,
                },
            });
        }
        self.ensure_retransmit(&mut actions);
        FtDecision::Blocked(actions)
    }

    /// A control message arrived.
    pub fn on_message(&mut self, msg: FtMsg) -> Vec<FtAction> {
        let _prof = pctl_prof::span("ft_on_message");
        match msg {
            FtMsg::Req { from, seq } => {
                if self.acked.get(&from).is_some_and(|&a| seq <= a) {
                    // Duplicate of a handover we already granted: the ack
                    // may have been lost, so re-ack idempotently. The
                    // requester's sequence check makes stale re-acks inert,
                    // and the role was granted exactly once (above), so
                    // this cannot mint a second transfer.
                    return vec![FtAction::Send {
                        to: from,
                        msg: FtMsg::Ack { seq },
                    }];
                }
                if self.local_true && !self.waiting_ack {
                    self.scapegoat = true;
                    self.acked.insert(from, seq);
                    let mut actions = vec![FtAction::Send {
                        to: from,
                        msg: FtMsg::Ack { seq },
                    }];
                    self.ensure_heartbeat(&mut actions);
                    actions
                } else {
                    // Defer, like Figure 3 — but keep only the newest seq
                    // per requester so retransmitted reqs don't pile up.
                    match self.pending.iter_mut().find(|(p, _)| *p == from) {
                        Some(entry) => entry.1 = entry.1.max(seq),
                        None => self.pending.push_back((from, seq)),
                    }
                    vec![]
                }
            }
            FtMsg::Ack { seq } => {
                if self.waiting_ack && seq == self.req_seq {
                    self.waiting_ack = false;
                    self.scapegoat = false;
                    self.local_true = false;
                    let mut actions = vec![FtAction::Grant];
                    self.ensure_watchdog(&mut actions);
                    actions
                } else {
                    // Stale or duplicate ack (first one won): inert.
                    vec![]
                }
            }
            FtMsg::Heartbeat { .. } => {
                self.heard_heartbeat = true;
                vec![]
            }
        }
    }

    /// The underlying process turned `lᵢ` true again: answer deferred
    /// requests (taking the scapegoat role).
    pub fn notify_true(&mut self) -> Vec<FtAction> {
        let _prof = pctl_prof::span("ft_notify_true");
        self.local_true = true;
        let mut actions = Vec::new();
        while let Some((p, seq)) = self.pending.pop_front() {
            self.scapegoat = true;
            let a = self.acked.entry(p).or_insert(0);
            *a = (*a).max(seq);
            actions.push(FtAction::Send {
                to: p,
                msg: FtMsg::Ack { seq },
            });
        }
        if self.scapegoat {
            self.ensure_heartbeat(&mut actions);
        }
        actions
    }

    /// A timer of `kind` (previously requested via [`FtAction::Arm`])
    /// fired.
    pub fn on_timer(&mut self, kind: FtTimerKind) -> Vec<FtAction> {
        let _prof = pctl_prof::span("ft_on_timer");
        match kind {
            FtTimerKind::Retransmit => {
                if !self.waiting_ack {
                    self.rt_armed = false;
                    return vec![];
                }
                self.req_tries += 1;
                if self.req_tries > self.params.escalate_after {
                    // Widen the target set by the next untargeted peer in
                    // ring order: a dead or deaf peer cannot block the
                    // handover forever.
                    let next = self.others().find(|p| !self.req_targets.contains(p));
                    if let Some(p) = next {
                        self.req_targets.push(p);
                    }
                }
                let mut actions: Vec<FtAction> = self
                    .req_targets
                    .clone()
                    .into_iter()
                    .map(|p| FtAction::Send {
                        to: p,
                        msg: FtMsg::Req {
                            from: self.me,
                            seq: self.req_seq,
                        },
                    })
                    .collect();
                self.rto = (self.rto * 2).min(self.params.rto_max);
                actions.push(FtAction::Arm {
                    kind: FtTimerKind::Retransmit,
                    delay: self.rto,
                });
                actions
            }
            FtTimerKind::Heartbeat => {
                if !self.scapegoat {
                    self.hb_armed = false;
                    return vec![];
                }
                let mut actions: Vec<FtAction> = self
                    .others()
                    .map(|p| FtAction::Send {
                        to: p,
                        msg: FtMsg::Heartbeat {
                            from: self.me,
                            epoch: self.epoch,
                        },
                    })
                    .collect();
                actions.push(FtAction::Arm {
                    kind: FtTimerKind::Heartbeat,
                    delay: self.params.heartbeat_every,
                });
                actions
            }
            FtTimerKind::Watchdog => {
                if self.scapegoat {
                    // A scapegoat needs no watchdog; let the chain die.
                    self.watch_armed = false;
                    return vec![];
                }
                if self.heard_heartbeat {
                    self.heard_heartbeat = false;
                    return vec![FtAction::Arm {
                        kind: FtTimerKind::Watchdog,
                        delay: self.watch_delay(),
                    }];
                }
                if self.local_true && !self.waiting_ack {
                    // Silence: regenerate the anti-token here. Possibly a
                    // peer regenerated too — extra scapegoats are safe.
                    self.scapegoat = true;
                    self.epoch += 1;
                    self.watch_armed = false;
                    let mut actions = Vec::new();
                    self.ensure_heartbeat(&mut actions);
                    actions
                } else {
                    // Currently false: not allowed to take the liability.
                    // Keep watching; we will be true again soon (A1).
                    vec![FtAction::Arm {
                        kind: FtTimerKind::Watchdog,
                        delay: self.watch_delay(),
                    }]
                }
            }
        }
    }

    /// Conservative rejoin after a crash+restart. The host must first bring
    /// the traced predicate variable back to true; all pre-crash timer
    /// chains are dead (the simulator discards stale timers), so every
    /// chain flag is reset here.
    pub fn rejoin(&mut self) -> Vec<FtAction> {
        let _prof = pctl_prof::span("ft_rejoin");
        self.scapegoat = true;
        self.waiting_ack = false;
        self.local_true = true;
        self.rt_armed = false;
        self.hb_armed = false;
        self.watch_armed = false;
        self.heard_heartbeat = false;
        self.rto = self.params.rto_initial;
        let mut actions = Vec::new();
        // Requests deferred before the crash are answered now — we are
        // true, and we hold the (regenerated) role.
        while let Some((p, seq)) = self.pending.pop_front() {
            let a = self.acked.entry(p).or_insert(0);
            *a = (*a).max(seq);
            actions.push(FtAction::Send {
                to: p,
                msg: FtMsg::Ack { seq },
            });
        }
        self.ensure_heartbeat(&mut actions);
        actions
    }
}

/// Scripted application + hardened controller on the simulator: the
/// fault-tolerant analogue of [`super::PhasedProcess`], for driving the
/// protocol through fault plans.
pub struct FtPhasedProcess {
    ctrl: FtController,
    script: VecDeque<Phase>,
    select: PeerSelect,
    n: usize,
    requested_at: Option<SimTime>,
    current_false_len: Option<u64>,
    /// Map from armed timer id to chain kind; unknown ids are phase timers.
    ctrl_timers: BTreeMap<u64, FtTimerKind>,
    finished: bool,
}

impl FtPhasedProcess {
    /// Build a process for a system of `n` processes.
    pub fn new(
        me: ProcessId,
        n: usize,
        init_scapegoat: bool,
        select: PeerSelect,
        params: FtParams,
        script: Vec<Phase>,
    ) -> Self {
        FtPhasedProcess {
            ctrl: FtController::new(me, n, init_scapegoat, params),
            script: script.into(),
            select,
            n,
            requested_at: None,
            current_false_len: None,
            ctrl_timers: BTreeMap::new(),
            finished: false,
        }
    }

    fn apply(&mut self, actions: Vec<FtAction>, ctx: &mut Ctx<'_, FtMsg>) {
        for a in actions {
            match a {
                FtAction::Send { to, msg } => ctx.send(to, msg),
                FtAction::Grant => {
                    ctx.trace_end("blocked");
                    self.enter_false(ctx);
                }
                FtAction::Arm { kind, delay } => {
                    if self.finished {
                        // A finished process stops its chains so the run
                        // can quiesce; it still answers messages.
                        continue;
                    }
                    let id = ctx.set_timer(delay);
                    self.ctrl_timers.insert(id.0, kind);
                }
            }
        }
    }

    fn enter_false(&mut self, ctx: &mut Ctx<'_, FtMsg>) {
        if let Some(at) = self.requested_at.take() {
            ctx.record("response", ctx.now().since(at));
        }
        ctx.count("entries", 1);
        ctx.step(&[("ok", 0)]);
        if let Some(len) = self.current_false_len {
            ctx.set_timer(len);
        }
    }

    fn begin_next_phase(&mut self, ctx: &mut Ctx<'_, FtMsg>) {
        match self.script.pop_front() {
            Some(ph) => {
                self.current_false_len = ph.false_len;
                ctx.set_timer(ph.true_len);
            }
            None => {
                self.finished = true;
                ctx.set_done();
            }
        }
    }

    fn ctrl_timer(&mut self, kind: FtTimerKind, ctx: &mut Ctx<'_, FtMsg>) {
        let was_scapegoat = self.ctrl.is_scapegoat();
        let actions = self.ctrl.on_timer(kind);
        match kind {
            FtTimerKind::Retransmit => {
                let sends = actions
                    .iter()
                    .filter(|a| matches!(a, FtAction::Send { .. }))
                    .count();
                if sends > 0 {
                    ctx.count("retransmissions", sends as u64);
                    ctx.trace_instant("retransmit");
                }
            }
            FtTimerKind::Watchdog => {
                if !was_scapegoat && self.ctrl.is_scapegoat() {
                    ctx.count("regenerations", 1);
                    ctx.trace_instant("watchdog_regenerated");
                } else if ctx.recording() && !self.ctrl.is_scapegoat() {
                    ctx.trace_instant("watchdog_tick");
                }
            }
            FtTimerKind::Heartbeat => {}
        }
        self.apply(actions, ctx);
    }
}

impl Process<FtMsg> for FtPhasedProcess {
    fn on_start(&mut self, ctx: &mut Ctx<'_, FtMsg>) {
        ctx.init_var("ok", 1);
        let actions = self.ctrl.start();
        self.apply(actions, ctx);
        self.begin_next_phase(ctx);
    }

    fn on_message(&mut self, _from: ProcessId, msg: FtMsg, ctx: &mut Ctx<'_, FtMsg>) {
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

    fn on_timer(&mut self, t: TimerId, ctx: &mut Ctx<'_, FtMsg>) {
        if let Some(kind) = self.ctrl_timers.remove(&t.0) {
            self.ctrl_timer(kind, ctx);
            return;
        }
        if self.finished {
            return;
        }
        if ctx.var("ok") == Some(1) {
            if self.ctrl.is_blocked() {
                // A stale phase timer can fire while blocked if a crash
                // interleaved; ignore, the grant path resumes the script.
                return;
            }
            self.requested_at = Some(ctx.now());
            let peers = self.select.peers(self.n, ctx);
            match self.ctrl.request_false(&peers) {
                FtDecision::Granted => self.enter_false(ctx),
                FtDecision::Blocked(actions) => {
                    ctx.trace_begin("blocked");
                    self.apply(actions, ctx);
                }
            }
        } else {
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

    fn on_restart(&mut self, ctx: &mut Ctx<'_, FtMsg>) {
        // All pre-crash timers are stale; forget their routing.
        self.ctrl_timers.clear();
        self.requested_at = None;
        // A crash may have interrupted an open "blocked" span; close it so
        // the exported timeline stays balanced.
        if self.ctrl.is_blocked() {
            ctx.trace_end("blocked");
        }
        // Come back predicate-true before sending anything (acks must be
        // sent from a true state), then rejoin as a scapegoat.
        if ctx.var("ok") == Some(0) {
            ctx.step(&[("ok", 1)]);
        }
        let actions = self.ctrl.rejoin();
        self.apply(actions, ctx);
        ctx.count("rejoins", 1);
        ctx.trace_instant("rejoin");
        if self.finished {
            ctx.set_done();
        } else {
            // The interrupted phase is abandoned; resume with the next one.
            self.begin_next_phase(ctx);
        }
    }
}

/// Build a ready-to-run hardened process vector; process 0 starts as
/// scapegoat.
pub fn ft_phased_system(
    n: usize,
    scripts: Vec<Vec<Phase>>,
    select: PeerSelect,
    params: FtParams,
) -> Vec<Box<dyn Process<FtMsg>>> {
    assert_eq!(scripts.len(), n);
    scripts
        .into_iter()
        .enumerate()
        .map(|(i, script)| {
            Box::new(FtPhasedProcess::new(
                ProcessId(i as u32),
                n,
                i == 0,
                select,
                params,
                script,
            )) as Box<dyn Process<FtMsg>>
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::sweep_faulty_run;
    use pctl_deposet::LocalPredicate;
    use pctl_sim::{DelayModel, FaultPlan, SimConfig, Simulation};

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    fn sends(actions: &[FtAction]) -> Vec<(ProcessId, FtMsg)> {
        actions
            .iter()
            .filter_map(|a| match a {
                FtAction::Send { to, msg } => Some((*to, *msg)),
                _ => None,
            })
            .collect()
    }

    fn arms(actions: &[FtAction]) -> Vec<(FtTimerKind, u64)> {
        actions
            .iter()
            .filter_map(|a| match a {
                FtAction::Arm { kind, delay } => Some((*kind, *delay)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn retransmission_backs_off_exponentially_and_escalates() {
        let params = FtParams {
            rto_initial: 10,
            rto_max: 35,
            escalate_after: 2,
            ..FtParams::default()
        };
        let mut c = FtController::new(p(0), 4, true, params);
        let FtDecision::Blocked(a) = c.request_false(&[p(1)]) else {
            panic!("must block")
        };
        assert_eq!(sends(&a), vec![(p(1), FtMsg::Req { from: p(0), seq: 1 })]);
        assert_eq!(arms(&a), vec![(FtTimerKind::Retransmit, 10)]);
        // First two retransmits: same single target, delay doubling.
        let a = c.on_timer(FtTimerKind::Retransmit);
        assert_eq!(sends(&a).len(), 1);
        assert_eq!(arms(&a), vec![(FtTimerKind::Retransmit, 20)]);
        let a = c.on_timer(FtTimerKind::Retransmit);
        assert_eq!(sends(&a).len(), 1);
        assert_eq!(
            arms(&a),
            vec![(FtTimerKind::Retransmit, 35)],
            "capped at rto_max"
        );
        // Third retransmit escalates: one more peer targeted.
        let a = c.on_timer(FtTimerKind::Retransmit);
        let s = sends(&a);
        assert_eq!(s.len(), 2);
        assert!(
            s.iter().any(|(to, _)| *to == p(2)),
            "escalation adds ring-next peer"
        );
        // Ack ends the request; the chain dies at its next firing.
        assert!(c
            .on_message(FtMsg::Ack { seq: 1 })
            .contains(&FtAction::Grant));
        assert!(sends(&c.on_timer(FtTimerKind::Retransmit)).is_empty());
    }

    #[test]
    fn duplicate_req_is_reacked_but_grants_role_once() {
        let mut c = FtController::new(p(1), 3, false, FtParams::default());
        let a = c.on_message(FtMsg::Req { from: p(0), seq: 4 });
        assert!(c.is_scapegoat());
        assert_eq!(sends(&a), vec![(p(0), FtMsg::Ack { seq: 4 })]);
        // Retransmitted copy: re-acked, no state change, no new arm.
        let a = c.on_message(FtMsg::Req { from: p(0), seq: 4 });
        assert_eq!(
            a,
            vec![FtAction::Send {
                to: p(0),
                msg: FtMsg::Ack { seq: 4 }
            }]
        );
        // Even after handing the role off, the old seq is still re-acked.
        let FtDecision::Blocked(_) = c.request_false(&[p(2)]) else {
            panic!()
        };
        let _ = c.on_message(FtMsg::Ack { seq: 1 });
        assert!(!c.is_scapegoat());
        let a = c.on_message(FtMsg::Req { from: p(0), seq: 4 });
        assert_eq!(sends(&a), vec![(p(0), FtMsg::Ack { seq: 4 })]);
        assert!(!c.is_scapegoat(), "re-ack must not re-grant the role");
    }

    #[test]
    fn stale_and_duplicate_acks_are_inert() {
        let mut c = FtController::new(p(0), 3, true, FtParams::default());
        let _ = c.request_false(&[p(1), p(2)]);
        assert!(
            c.on_message(FtMsg::Ack { seq: 99 }).is_empty(),
            "wrong seq ignored"
        );
        assert!(c
            .on_message(FtMsg::Ack { seq: 1 })
            .contains(&FtAction::Grant));
        assert!(
            c.on_message(FtMsg::Ack { seq: 1 }).is_empty(),
            "duplicate ignored"
        );
    }

    #[test]
    fn watchdog_regenerates_after_silence_only_when_true() {
        let mut c = FtController::new(p(2), 3, false, FtParams::default());
        let a = c.start();
        // Watchdog armed with the staggered delay.
        let w = FtParams::default().watch_timeout + 2 * FtParams::default().watch_stagger;
        assert_eq!(arms(&a), vec![(FtTimerKind::Watchdog, w)]);
        // Heartbeat heard: watchdog re-arms, no regeneration.
        let _ = c.on_message(FtMsg::Heartbeat {
            from: p(0),
            epoch: 0,
        });
        let a = c.on_timer(FtTimerKind::Watchdog);
        assert_eq!(arms(&a), vec![(FtTimerKind::Watchdog, w)]);
        assert!(!c.is_scapegoat());
        // Silence while false: keep watching, do not take the liability.
        let FtDecision::Granted = c.request_false(&[p(0)]) else {
            panic!()
        };
        let a = c.on_timer(FtTimerKind::Watchdog);
        assert_eq!(arms(&a), vec![(FtTimerKind::Watchdog, w)]);
        assert!(!c.is_scapegoat());
        // Silence while true: regenerate and start heartbeating.
        let _ = c.notify_true();
        let a = c.on_timer(FtTimerKind::Watchdog);
        assert!(c.is_scapegoat());
        assert_eq!(c.epoch(), 1);
        assert_eq!(
            arms(&a),
            vec![(FtTimerKind::Heartbeat, FtParams::default().heartbeat_every)]
        );
    }

    #[test]
    fn rejoin_is_conservative_and_answers_deferred_requests() {
        let mut c = FtController::new(p(1), 3, false, FtParams::default());
        // Go false, defer a request, then "crash" and rejoin.
        let FtDecision::Granted = c.request_false(&[p(0)]) else {
            panic!()
        };
        assert!(c.on_message(FtMsg::Req { from: p(2), seq: 7 }).is_empty());
        let a = c.rejoin();
        assert!(c.is_scapegoat(), "restarted process assumes the role");
        assert!(!c.is_blocked());
        assert_eq!(sends(&a), vec![(p(2), FtMsg::Ack { seq: 7 })]);
        assert!(arms(&a).iter().any(|(k, _)| *k == FtTimerKind::Heartbeat));
    }

    fn uniform_scripts(n: usize, phases: usize, true_len: u64, false_len: u64) -> Vec<Vec<Phase>> {
        (0..n)
            .map(|i| {
                (0..phases)
                    .map(|k| Phase {
                        true_len: true_len + (i as u64) * 3 + (k as u64 % 2),
                        false_len: Some(false_len),
                    })
                    .collect()
            })
            .collect()
    }

    fn run_ft(
        n: usize,
        phases: usize,
        select: PeerSelect,
        seed: u64,
        faults: FaultPlan,
    ) -> pctl_sim::SimResult {
        let procs = ft_phased_system(
            n,
            uniform_scripts(n, phases, 20, 10),
            select,
            FtParams::default(),
        );
        let config = SimConfig {
            seed,
            delay: DelayModel::Fixed(5),
            faults,
            ..SimConfig::default()
        };
        Simulation::new(config, procs).run()
    }

    #[test]
    fn fault_free_ft_runs_complete_and_stay_safe() {
        for seed in 0..4 {
            let r = run_ft(3, 3, PeerSelect::NextInRing, seed, FaultPlan::none());
            assert!(!r.deadlocked(), "seed {seed}");
            let report = sweep_faulty_run(&r.deposet, &LocalPredicate::var("ok"));
            assert!(report.fully_safe(), "seed {seed}: {report:?}");
        }
    }

    #[test]
    fn survives_message_loss_without_violating_b() {
        // 15% loss on every link: retransmission + re-ack must still drive
        // every handover to completion, and safety must hold on every
        // consistent cut (loss alone never breaks B — only crashes can).
        for seed in 0..10 {
            let r = run_ft(
                3,
                3,
                PeerSelect::NextInRing,
                seed,
                FaultPlan::uniform_loss(0.15),
            );
            assert!(!r.deadlocked(), "seed {seed}");
            assert_eq!(r.stopped, pctl_sim::StopReason::Quiescent, "seed {seed}");
            let report = sweep_faulty_run(&r.deposet, &LocalPredicate::var("ok"));
            assert!(report.fully_safe(), "seed {seed}: {report:?}");
        }
    }

    #[test]
    fn crashed_scapegoat_is_regenerated_and_run_completes() {
        // P0 starts as scapegoat and crashes at t=10, before its first
        // handover attempt — the anti-token dies with it. The watchdog must
        // regenerate it, P0 rejoins conservatively, and any B-violation is
        // confined to cuts where P0 is down.
        let mut seen_regeneration = false;
        for seed in 0..6 {
            let faults = FaultPlan::none().with_crash(p(0), pctl_sim::SimTime(10), Some(300));
            let r = run_ft(3, 3, PeerSelect::NextInRing, seed, faults);
            assert!(!r.deadlocked(), "seed {seed}");
            let report = sweep_faulty_run(&r.deposet, &LocalPredicate::var("ok"));
            assert!(report.safe_modulo_crashes(), "seed {seed}: {report:?}");
            assert!(
                !report.down_windows.is_empty(),
                "seed {seed}: crash must be visible"
            );
            seen_regeneration |= r.metrics.counter("regenerations") > 0;
            assert_eq!(r.metrics.counter("rejoins"), 1, "seed {seed}");
        }
        assert!(seen_regeneration, "no seed exercised watchdog regeneration");
    }

    #[test]
    fn dead_peer_cannot_block_a_handover_forever() {
        // P1 crashes and never restarts; P0 (scapegoat) requests P1 in ring
        // order. Escalation must re-target P2 so the handover completes.
        let faults = FaultPlan::none().with_crash(p(1), pctl_sim::SimTime(5), None);
        let procs = ft_phased_system(
            3,
            vec![
                vec![Phase {
                    true_len: 40,
                    false_len: Some(10),
                }],
                vec![],
                vec![Phase {
                    true_len: 30,
                    false_len: Some(10),
                }],
            ],
            PeerSelect::NextInRing,
            FtParams::default(),
        );
        let config = SimConfig {
            seed: 0,
            delay: DelayModel::Fixed(5),
            faults,
            ..SimConfig::default()
        };
        let r = Simulation::new(config, procs).run();
        // P1 is down forever so it never reports done, but P0 and P2 must
        // both finish their scripts (quiescence alone is not enough).
        assert!(
            r.done[0],
            "P0 finished despite its ring-next peer being dead"
        );
        assert!(r.done[2]);
        assert!(
            r.metrics.counter("retransmissions") > 0,
            "escalation path exercised"
        );
        let report = sweep_faulty_run(&r.deposet, &LocalPredicate::var("ok"));
        assert!(report.safe_modulo_crashes(), "{report:?}");
    }

    #[test]
    fn loss_duplication_and_reordering_together() {
        use pctl_sim::LinkFaults;
        for seed in 0..5 {
            let faults = FaultPlan {
                default_link: LinkFaults {
                    drop_p: 0.1,
                    dup_p: 0.1,
                    extra_delay_max: 15,
                },
                ..FaultPlan::default()
            };
            let r = run_ft(4, 2, PeerSelect::Broadcast, seed, faults);
            assert!(!r.deadlocked(), "seed {seed}");
            let report = sweep_faulty_run(&r.deposet, &LocalPredicate::var("ok"));
            assert!(report.fully_safe(), "seed {seed}: {report:?}");
        }
    }
}
