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
//!
//! [`FtController`] implements [`Controller`], so it runs on the same
//! generic [`super::Host`] as the baseline protocol: [`ft_phased_system`]
//! pairs it with a [`PhaseScript`], and `pctl-mutex`'s fault-tolerant
//! anti-token with the mutex driver. The host keeps one timer slot per
//! [`FtTimerKind`] and hands fired timers back through
//! [`Controller::on_timer`].

use pctl_deposet::ProcessId;
use pctl_sim::{Payload, Process};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

use super::{Action, Controller, Host, PeerSelect, Phase, PhaseScript};

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

impl FtTimerKind {
    /// Every kind, indexed by its discriminant.
    pub const ALL: [FtTimerKind; 3] = [
        FtTimerKind::Retransmit,
        FtTimerKind::Heartbeat,
        FtTimerKind::Watchdog,
    ];
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
/// messages and timer expirations and apply the [`Action`]s it pushes.
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
    /// Highest handover number acked per requester (0: none; handover
    /// numbers start at 1), for idempotent re-acks.
    acked: Vec<u64>,
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
            acked: vec![0; n],
            rt_armed: false,
            hb_armed: false,
            watch_armed: false,
            heard_heartbeat: false,
            epoch: 0,
        }
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

    fn ensure_heartbeat(&mut self, out: &mut Vec<Action<FtMsg>>) {
        if !self.hb_armed {
            self.hb_armed = true;
            out.push(Action::Arm {
                kind: FtTimerKind::Heartbeat,
                delay: self.params.heartbeat_every,
            });
        }
    }

    fn ensure_watchdog(&mut self, out: &mut Vec<Action<FtMsg>>) {
        if !self.watch_armed {
            self.watch_armed = true;
            out.push(Action::Arm {
                kind: FtTimerKind::Watchdog,
                delay: self.watch_delay(),
            });
        }
    }

    fn ensure_retransmit(&mut self, out: &mut Vec<Action<FtMsg>>) {
        if !self.rt_armed {
            self.rt_armed = true;
            out.push(Action::Arm {
                kind: FtTimerKind::Retransmit,
                delay: self.rto,
            });
        }
    }

    /// Ack handover `seq` of `to`, recording it for idempotent re-acks.
    fn ack(&mut self, to: ProcessId, seq: u64, out: &mut Vec<Action<FtMsg>>) {
        let acked = &mut self.acked[to.index()];
        *acked = (*acked).max(seq);
        out.push(Action::Send {
            to,
            msg: FtMsg::Ack { seq },
        });
    }

    fn send_req(&self, to: ProcessId, out: &mut Vec<Action<FtMsg>>) {
        out.push(Action::Send {
            to,
            msg: FtMsg::Req {
                from: self.me,
                seq: self.req_seq,
            },
        });
    }
}

impl Controller for FtController {
    type Msg = FtMsg;

    fn is_scapegoat(&self) -> bool {
        self.scapegoat
    }

    fn is_blocked(&self) -> bool {
        self.waiting_ack
    }

    /// Arms the initial chain: a heartbeat or a watchdog.
    fn start(&mut self, out: &mut Vec<Action<FtMsg>>) {
        if self.scapegoat {
            self.ensure_heartbeat(out);
        } else {
            self.ensure_watchdog(out);
        }
    }

    /// `peers` seeds the request's target set (escalation may widen it
    /// later).
    fn request_false(&mut self, peers: &[ProcessId], out: &mut Vec<Action<FtMsg>>) {
        let _prof = pctl_prof::span("ft_request_false");
        assert!(!self.waiting_ack, "already blocked on an ack");
        assert!(self.local_true, "already false");
        if !self.scapegoat {
            self.local_true = false;
            return;
        }
        assert!(!peers.is_empty(), "scapegoat needs at least one peer");
        self.waiting_ack = true;
        self.req_seq += 1;
        self.req_tries = 0;
        self.rto = self.params.rto_initial;
        self.req_targets.clear();
        self.req_targets.extend_from_slice(peers);
        for &p in peers {
            assert_ne!(p, self.me, "cannot hand the scapegoat role to oneself");
            self.send_req(p, out);
        }
        self.ensure_retransmit(out);
    }

    fn on_message(&mut self, msg: FtMsg, out: &mut Vec<Action<FtMsg>>) {
        let _prof = pctl_prof::span("ft_on_message");
        match msg {
            FtMsg::Req { from, seq } => {
                if seq <= self.acked[from.index()] {
                    // Duplicate of a handover we already granted: the ack
                    // may have been lost, so re-ack idempotently. The
                    // requester's sequence check makes stale re-acks inert,
                    // and the role was granted exactly once (below), so
                    // this cannot mint a second transfer.
                    out.push(Action::Send {
                        to: from,
                        msg: FtMsg::Ack { seq },
                    });
                } else if self.local_true && !self.waiting_ack {
                    self.scapegoat = true;
                    self.ack(from, seq, out);
                    self.ensure_heartbeat(out);
                } else {
                    // Defer, like Figure 3 — but keep only the newest seq
                    // per requester so retransmitted reqs don't pile up.
                    match self.pending.iter_mut().find(|(p, _)| *p == from) {
                        Some(entry) => entry.1 = entry.1.max(seq),
                        None => self.pending.push_back((from, seq)),
                    }
                }
            }
            FtMsg::Ack { seq } => {
                // A stale or duplicate ack (the first one won) is inert.
                if self.waiting_ack && seq == self.req_seq {
                    self.waiting_ack = false;
                    self.scapegoat = false;
                    self.local_true = false;
                    out.push(Action::Grant);
                    self.ensure_watchdog(out);
                }
            }
            FtMsg::Heartbeat { .. } => self.heard_heartbeat = true,
        }
    }

    /// Answering deferred requests takes the scapegoat role.
    fn notify_true(&mut self, out: &mut Vec<Action<FtMsg>>) {
        let _prof = pctl_prof::span("ft_notify_true");
        self.local_true = true;
        while let Some((p, seq)) = self.pending.pop_front() {
            self.scapegoat = true;
            self.ack(p, seq, out);
        }
        if self.scapegoat {
            self.ensure_heartbeat(out);
        }
    }

    fn on_timer(&mut self, kind: FtTimerKind, out: &mut Vec<Action<FtMsg>>) {
        let _prof = pctl_prof::span("ft_on_timer");
        match kind {
            FtTimerKind::Retransmit => {
                if !self.waiting_ack {
                    self.rt_armed = false;
                    return;
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
                for &p in &self.req_targets {
                    self.send_req(p, out);
                }
                self.rto = (self.rto * 2).min(self.params.rto_max);
                out.push(Action::Arm {
                    kind: FtTimerKind::Retransmit,
                    delay: self.rto,
                });
            }
            FtTimerKind::Heartbeat => {
                if !self.scapegoat {
                    self.hb_armed = false;
                    return;
                }
                let msg = FtMsg::Heartbeat {
                    from: self.me,
                    epoch: self.epoch,
                };
                out.extend(self.others().map(|to| Action::Send { to, msg }));
                out.push(Action::Arm {
                    kind: FtTimerKind::Heartbeat,
                    delay: self.params.heartbeat_every,
                });
            }
            FtTimerKind::Watchdog => {
                if self.scapegoat {
                    // A scapegoat needs no watchdog; let the chain die.
                    self.watch_armed = false;
                } else if self.heard_heartbeat {
                    self.heard_heartbeat = false;
                    out.push(Action::Arm {
                        kind: FtTimerKind::Watchdog,
                        delay: self.watch_delay(),
                    });
                } else if self.local_true && !self.waiting_ack {
                    // Silence: regenerate the anti-token here. Possibly a
                    // peer regenerated too — extra scapegoats are safe.
                    self.scapegoat = true;
                    self.epoch += 1;
                    self.watch_armed = false;
                    self.ensure_heartbeat(out);
                } else {
                    // Currently false: not allowed to take the liability.
                    // Keep watching; we will be true again soon (A1).
                    out.push(Action::Arm {
                        kind: FtTimerKind::Watchdog,
                        delay: self.watch_delay(),
                    });
                }
            }
        }
    }

    /// Conservative rejoin after a crash+restart: the process assumes it
    /// may have held the only anti-token. All pre-crash timer chains are
    /// dead (the simulator discards stale timers), so every chain flag is
    /// reset here.
    fn rejoin(&mut self, out: &mut Vec<Action<FtMsg>>) {
        let _prof = pctl_prof::span("ft_rejoin");
        self.scapegoat = true;
        self.waiting_ack = false;
        self.local_true = true;
        self.rt_armed = false;
        self.hb_armed = false;
        self.watch_armed = false;
        self.heard_heartbeat = false;
        self.rto = self.params.rto_initial;
        // Requests deferred before the crash are answered now — we are
        // true, and we hold the (regenerated) role.
        while let Some((p, seq)) = self.pending.pop_front() {
            self.ack(p, seq, out);
        }
        self.ensure_heartbeat(out);
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
            let ctrl = FtController::new(ProcessId(i as u32), n, i == 0, params);
            Box::new(Host::new(ctrl, PhaseScript::new(script), n, Some(select)))
                as Box<dyn Process<FtMsg>>
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

    /// The actions of one controller call.
    fn acts(
        c: &mut FtController,
        call: impl FnOnce(&mut FtController, &mut Vec<Action<FtMsg>>),
    ) -> Vec<Action<FtMsg>> {
        let mut out = Vec::new();
        call(c, &mut out);
        out
    }

    fn sends(actions: &[Action<FtMsg>]) -> Vec<(ProcessId, FtMsg)> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send { to, msg } => Some((*to, *msg)),
                _ => None,
            })
            .collect()
    }

    fn arms(actions: &[Action<FtMsg>]) -> Vec<(FtTimerKind, u64)> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Arm { kind, delay } => Some((*kind, *delay)),
                _ => None,
            })
            .collect()
    }

    fn timer(c: &mut FtController, kind: FtTimerKind) -> Vec<Action<FtMsg>> {
        acts(c, |c, o| c.on_timer(kind, o))
    }

    fn message(c: &mut FtController, msg: FtMsg) -> Vec<Action<FtMsg>> {
        acts(c, |c, o| c.on_message(msg, o))
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
        let a = acts(&mut c, |c, o| c.request_false(&[p(1)], o));
        assert!(c.is_blocked(), "must block");
        assert_eq!(sends(&a), vec![(p(1), FtMsg::Req { from: p(0), seq: 1 })]);
        assert_eq!(arms(&a), vec![(FtTimerKind::Retransmit, 10)]);
        // First two retransmits: same single target, delay doubling.
        let a = timer(&mut c, FtTimerKind::Retransmit);
        assert_eq!(sends(&a).len(), 1);
        assert_eq!(arms(&a), vec![(FtTimerKind::Retransmit, 20)]);
        let a = timer(&mut c, FtTimerKind::Retransmit);
        assert_eq!(sends(&a).len(), 1);
        assert_eq!(
            arms(&a),
            vec![(FtTimerKind::Retransmit, 35)],
            "capped at rto_max"
        );
        // Third retransmit escalates: one more peer targeted.
        let a = timer(&mut c, FtTimerKind::Retransmit);
        let s = sends(&a);
        assert_eq!(s.len(), 2);
        assert!(
            s.iter().any(|(to, _)| *to == p(2)),
            "escalation adds ring-next peer"
        );
        // Ack ends the request; the chain dies at its next firing.
        assert!(message(&mut c, FtMsg::Ack { seq: 1 }).contains(&Action::Grant));
        assert!(timer(&mut c, FtTimerKind::Retransmit).is_empty());
    }

    #[test]
    fn duplicate_req_is_reacked_but_grants_role_once() {
        let mut c = FtController::new(p(1), 3, false, FtParams::default());
        let a = message(&mut c, FtMsg::Req { from: p(0), seq: 4 });
        assert!(c.is_scapegoat());
        assert_eq!(sends(&a), vec![(p(0), FtMsg::Ack { seq: 4 })]);
        // Retransmitted copy: re-acked, no state change, no new arm.
        let a = message(&mut c, FtMsg::Req { from: p(0), seq: 4 });
        assert_eq!(
            a,
            vec![Action::Send {
                to: p(0),
                msg: FtMsg::Ack { seq: 4 }
            }]
        );
        // Even after handing the role off, the old seq is still re-acked.
        let _ = acts(&mut c, |c, o| c.request_false(&[p(2)], o));
        assert!(c.is_blocked());
        let _ = message(&mut c, FtMsg::Ack { seq: 1 });
        assert!(!c.is_scapegoat());
        let a = message(&mut c, FtMsg::Req { from: p(0), seq: 4 });
        assert_eq!(sends(&a), vec![(p(0), FtMsg::Ack { seq: 4 })]);
        assert!(!c.is_scapegoat(), "re-ack must not re-grant the role");
    }

    #[test]
    fn stale_and_duplicate_acks_are_inert() {
        let mut c = FtController::new(p(0), 3, true, FtParams::default());
        let _ = acts(&mut c, |c, o| c.request_false(&[p(1), p(2)], o));
        assert!(
            message(&mut c, FtMsg::Ack { seq: 99 }).is_empty(),
            "wrong seq ignored"
        );
        assert!(message(&mut c, FtMsg::Ack { seq: 1 }).contains(&Action::Grant));
        assert!(
            message(&mut c, FtMsg::Ack { seq: 1 }).is_empty(),
            "duplicate ignored"
        );
    }

    #[test]
    fn watchdog_regenerates_after_silence_only_when_true() {
        let mut c = FtController::new(p(2), 3, false, FtParams::default());
        let a = acts(&mut c, |c, o| c.start(o));
        // Watchdog armed with the staggered delay.
        let w = FtParams::default().watch_timeout + 2 * FtParams::default().watch_stagger;
        assert_eq!(arms(&a), vec![(FtTimerKind::Watchdog, w)]);
        // Heartbeat heard: watchdog re-arms, no regeneration.
        let _ = message(
            &mut c,
            FtMsg::Heartbeat {
                from: p(0),
                epoch: 0,
            },
        );
        let a = timer(&mut c, FtTimerKind::Watchdog);
        assert_eq!(arms(&a), vec![(FtTimerKind::Watchdog, w)]);
        assert!(!c.is_scapegoat());
        // Silence while false: keep watching, do not take the liability.
        assert!(acts(&mut c, |c, o| c.request_false(&[p(0)], o)).is_empty());
        assert!(!c.is_blocked(), "a non-scapegoat is granted at once");
        let a = timer(&mut c, FtTimerKind::Watchdog);
        assert_eq!(arms(&a), vec![(FtTimerKind::Watchdog, w)]);
        assert!(!c.is_scapegoat());
        // Silence while true: regenerate and start heartbeating.
        let _ = acts(&mut c, |c, o| c.notify_true(o));
        let a = timer(&mut c, FtTimerKind::Watchdog);
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
        assert!(acts(&mut c, |c, o| c.request_false(&[p(0)], o)).is_empty());
        assert!(message(&mut c, FtMsg::Req { from: p(2), seq: 7 }).is_empty());
        let a = acts(&mut c, |c, o| c.rejoin(o));
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
