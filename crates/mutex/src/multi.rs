//! Generalizing the anti-token: `m` anti-tokens give (n−m)-mutual
//! exclusion.
//!
//! The paper's Section 6 closes with the observation that its strategy
//! "uses a single anti-token which acts as a liability rather than a
//! privilege", and that for large `k` this class of algorithms is the
//! appropriate one. This module makes that concrete: `m = n − k`
//! anti-token roles circulate; a process holding a role must stay out of
//! the critical section until another process takes it over (same
//! req/ack handover as Figure 3, per role).
//!
//! Three rules keep the generalization sound and live:
//!
//! * **Distinctness** — a controller only accepts a role while true,
//!   unblocked and role-free, so the `m` roles always sit on `m` distinct
//!   processes, each pinned outside the CS: at most `n − m` processes can
//!   be inside simultaneously.
//! * **Busy-bounce** — with several roles in play, two blocked holders
//!   could request *each other* and wait forever (the single-token
//!   conservation argument `#roles = 1 + #acks-in-flight` no longer
//!   applies). A holder or blocked controller therefore answers `Busy`
//!   and the requester retries another peer. Only predicate-false
//!   (in-CS) processes defer — they recover by A1 and then answer.
//! * **Termination of retries** — a non-holder is never blocked (only
//!   holders block on handovers), so a non-holder always accepts or
//!   defers; since `m < n` there is always at least one, and the
//!   controller's round-robin retry reaches it.
//!
//! As with the single anti-token, only the holders' own CS entries pay
//! messages — everyone else enters free. [`MultiAntiToken`] picks its own
//! peers, so `pctl_core::online::Host` runs it under the shared workload
//! driver with no `PeerSelect`, and counts each bounce as a
//! `handover_retries` metric.

use crate::driver::{Driver, WorkloadConfig};
use pctl_core::online::{Action, Controller, CtrlMsg, Host};
use pctl_deposet::ProcessId;
use pctl_sim::{DelayModel, Process, SimConfig, SimResult, Simulation};
use std::collections::VecDeque;

/// Sans-I/O controller state for the m-anti-token protocol (one per
/// process; a controller holds at most one role at a time).
#[derive(Clone, Debug)]
pub struct MultiAntiToken {
    me: ProcessId,
    n: usize,
    holds_role: bool,
    waiting_ack: bool,
    local_true: bool,
    pending: VecDeque<ProcessId>,
    /// Round-robin pointer over peers.
    next_peer: usize,
    /// Requests re-sent after a `Busy` bounce.
    retries: u64,
}

impl MultiAntiToken {
    /// Controller `me` of `n`, initially holding a role or not.
    pub fn new(me: ProcessId, n: usize, holds_role: bool) -> Self {
        MultiAntiToken {
            me,
            n,
            holds_role,
            waiting_ack: false,
            local_true: true,
            pending: VecDeque::new(),
            next_peer: me.index(),
            retries: 0,
        }
    }

    fn can_accept(&self) -> bool {
        self.local_true && !self.waiting_ack && !self.holds_role
    }

    /// Ask the next peer in ring order to take this controller's role.
    fn ask_next_peer(&mut self, out: &mut Vec<Action<CtrlMsg>>) {
        loop {
            self.next_peer = (self.next_peer + 1) % self.n;
            if self.next_peer != self.me.index() {
                break;
            }
        }
        self.waiting_ack = true;
        out.push(Action::Send {
            to: ProcessId(self.next_peer as u32),
            msg: CtrlMsg::Req { from: self.me },
        });
    }
}

impl Controller for MultiAntiToken {
    type Msg = CtrlMsg;

    /// Whether this controller currently holds an anti-token role.
    fn is_scapegoat(&self) -> bool {
        self.holds_role
    }

    fn is_blocked(&self) -> bool {
        self.waiting_ack
    }

    /// The process wants to enter its critical section: a role-free
    /// process enters for free, a holder asks the next peer in ring order
    /// (`peers` is ignored).
    fn request_false(&mut self, _peers: &[ProcessId], out: &mut Vec<Action<CtrlMsg>>) {
        assert!(self.local_true, "already in the critical section");
        assert!(!self.waiting_ack, "already blocked");
        if !self.holds_role {
            self.local_true = false;
            return;
        }
        self.ask_next_peer(out);
    }

    fn on_message(&mut self, msg: CtrlMsg, out: &mut Vec<Action<CtrlMsg>>) {
        match msg {
            CtrlMsg::Req { from } => {
                if self.can_accept() {
                    self.holds_role = true;
                    out.push(Action::Send {
                        to: from,
                        msg: CtrlMsg::Ack,
                    });
                } else if !self.local_true {
                    // In the CS: will recover (A1) and answer then.
                    self.pending.push_back(from);
                } else {
                    // Holder or blocked: bounce so the requester retries a
                    // different peer (prevents holder↔holder deadlock).
                    out.push(Action::Send {
                        to: from,
                        msg: CtrlMsg::Busy,
                    });
                }
            }
            CtrlMsg::Ack => {
                assert!(self.waiting_ack, "unexpected ack");
                self.waiting_ack = false;
                self.holds_role = false;
                self.local_true = false;
                out.push(Action::Grant);
            }
            CtrlMsg::Busy => {
                assert!(self.waiting_ack, "unexpected busy");
                debug_assert!(self.holds_role, "only a holder waits on a handover");
                self.retries += 1;
                self.ask_next_peer(out);
            }
        }
    }

    /// The process left its critical section: accept at most one deferred
    /// request (accepting makes this controller a holder, which bounces
    /// the rest).
    fn notify_true(&mut self, out: &mut Vec<Action<CtrlMsg>>) {
        self.local_true = true;
        if self.can_accept() {
            if let Some(j) = self.pending.pop_front() {
                self.holds_role = true;
                out.push(Action::Send {
                    to: j,
                    msg: CtrlMsg::Ack,
                });
            }
        }
        // Bounce everyone else; they retry other peers.
        out.extend(self.pending.drain(..).map(|to| Action::Send {
            to,
            msg: CtrlMsg::Busy,
        }));
    }

    fn retries(&self) -> u64 {
        self.retries
    }
}

/// Run the m-anti-token workload enforcing `k = n − m` mutual exclusion;
/// roles start on processes `0..m`.
pub fn run_multi_antitoken(cfg: &WorkloadConfig, m: usize) -> SimResult {
    let n = cfg.processes;
    assert!(m >= 1 && m < n, "need 1 ≤ m < n");
    let procs: Vec<Box<dyn Process<CtrlMsg>>> = (0..n)
        .map(|i| {
            let me = ProcessId(i as u32);
            let ctrl = MultiAntiToken::new(me, n, i < m);
            Box::new(Host::new(ctrl, Driver::new(me, cfg), n, None)) as Box<dyn Process<CtrlMsg>>
        })
        .collect();
    let sim_cfg = SimConfig {
        seed: cfg.seed,
        delay: DelayModel::Fixed(cfg.delay),
        ..SimConfig::default()
    };
    Simulation::new(sim_cfg, procs).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::max_concurrent;
    use pctl_deposet::lattice::consistent_global_states;

    /// The actions of one controller call.
    fn acts(
        c: &mut MultiAntiToken,
        call: impl FnOnce(&mut MultiAntiToken, &mut Vec<Action<CtrlMsg>>),
    ) -> Vec<Action<CtrlMsg>> {
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

    fn req(from: u32) -> CtrlMsg {
        CtrlMsg::Req {
            from: ProcessId(from),
        }
    }

    #[test]
    fn controller_handover() {
        let mut holder = MultiAntiToken::new(ProcessId(0), 3, true);
        let mut peer = MultiAntiToken::new(ProcessId(1), 3, false);
        let sent = acts(&mut holder, |c, o| c.request_false(&[], o));
        assert!(holder.is_blocked(), "holder blocks");
        assert_eq!(sent, vec![send(1, req(0))], "the ring-next peer is asked");
        let ack = acts(&mut peer, |c, o| c.on_message(req(0), o));
        assert!(peer.is_scapegoat());
        assert_eq!(ack, vec![send(0, CtrlMsg::Ack)]);
        let grant = acts(&mut holder, |c, o| c.on_message(CtrlMsg::Ack, o));
        assert_eq!(grant, vec![Action::Grant]);
        assert!(!holder.is_scapegoat());
    }

    #[test]
    fn holders_bounce_instead_of_deadlocking() {
        // Two blocked holders requesting each other both get Busy and
        // retry the next peer in ring order — the m ≥ 2 deadlock scenario.
        let mut a = MultiAntiToken::new(ProcessId(0), 3, true);
        let mut b = MultiAntiToken::new(ProcessId(1), 3, true);
        let _ = acts(&mut a, |c, o| c.request_false(&[], o));
        let sent = acts(&mut b, |c, o| c.request_false(&[], o));
        assert_eq!(sent, vec![send(2, req(1))]);
        let ra = acts(&mut a, |c, o| c.on_message(req(1), o));
        let rb = acts(&mut b, |c, o| c.on_message(req(0), o));
        assert_eq!(ra, vec![send(1, CtrlMsg::Busy)]);
        assert_eq!(rb, vec![send(0, CtrlMsg::Busy)]);
        let retry = acts(&mut a, |c, o| c.on_message(CtrlMsg::Busy, o));
        assert_eq!(retry, vec![send(2, req(0))], "the retry asks a new peer");
        assert!(a.is_blocked(), "a retrying holder stays blocked");
        assert_eq!((a.retries(), b.retries()), (1, 0));
    }

    #[test]
    fn in_cs_processes_defer_and_answer_on_exit() {
        let mut c = MultiAntiToken::new(ProcessId(1), 3, false);
        // Enters the CS free.
        assert!(acts(&mut c, |c, o| c.request_false(&[], o)).is_empty());
        assert!(!c.is_blocked());
        assert!(acts(&mut c, |c, o| c.on_message(req(0), o)).is_empty());
        let actions = acts(&mut c, |c, o| c.notify_true(o));
        assert_eq!(actions, vec![send(0, CtrlMsg::Ack)]);
        assert!(c.is_scapegoat());
    }

    #[test]
    fn extra_pending_requests_are_bounced_on_exit() {
        let mut c = MultiAntiToken::new(ProcessId(2), 3, false);
        assert!(acts(&mut c, |c, o| c.request_false(&[], o)).is_empty());
        let _ = acts(&mut c, |c, o| c.on_message(req(0), o));
        let _ = acts(&mut c, |c, o| c.on_message(req(1), o));
        let actions = acts(&mut c, |c, o| c.notify_true(o));
        assert_eq!(actions, vec![send(0, CtrlMsg::Ack), send(1, CtrlMsg::Busy)]);
    }

    #[test]
    fn k_mutex_holds_for_various_m() {
        for (n, m) in [(4usize, 1usize), (4, 2), (5, 2), (6, 3), (6, 5)] {
            for seed in 0..4u64 {
                let cfg = WorkloadConfig {
                    processes: n,
                    entries_per_process: 6,
                    think: (15, 50),
                    cs: (5, 12),
                    seed,
                    delay: 8,
                };
                let r = run_multi_antitoken(&cfg, m);
                assert!(!r.deadlocked(), "n={n} m={m} seed={seed}");
                assert_eq!(r.metrics.counter("entries"), (n * 6) as u64);
                let k = n - m;
                assert!(
                    max_concurrent(&r.metrics, n) <= k,
                    "n={n} m={m} seed={seed}: more than k={k} in CS"
                );
            }
        }
    }

    #[test]
    fn consistent_cut_safety_small_system() {
        // Exhaustive: no consistent cut of the traced computation has more
        // than k processes in their critical sections.
        let cfg = WorkloadConfig {
            processes: 3,
            entries_per_process: 2,
            think: (10, 30),
            cs: (5, 10),
            seed: 2,
            delay: 6,
        };
        let r = run_multi_antitoken(&cfg, 2); // k = 1: full mutual exclusion
        assert!(!r.deadlocked());
        for g in consistent_global_states(&r.deposet, 3_000_000).unwrap() {
            let in_cs = g
                .states()
                .filter(|&s| r.deposet.state(s).vars.get_bool("cs"))
                .count();
            assert!(in_cs <= 1, "cut {g:?} has {in_cs} processes in CS");
        }
    }

    #[test]
    fn m_equals_one_matches_the_paper_protocol_costs() {
        let cfg = WorkloadConfig {
            processes: 5,
            entries_per_process: 8,
            think: (20, 60),
            cs: (5, 15),
            seed: 1,
            delay: 10,
        };
        let single = crate::antitoken::run_antitoken(&cfg, pctl_core::online::PeerSelect::Random);
        let multi = run_multi_antitoken(&cfg, 1);
        assert!(!single.deadlocked() && !multi.deadlocked());
        // Same order of magnitude of control traffic (both pay only on
        // holder entries; busy-bounces add a little).
        let s = single.metrics.counter("msgs_ctrl");
        let m = multi.metrics.counter("msgs_ctrl");
        assert!(m <= s * 3 + 12 && s <= m * 3 + 12, "single={s} multi={m}");
    }
}
