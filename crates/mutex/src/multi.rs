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
//!   defers; since `m < n` there is always at least one, and round-robin
//!   retrying reaches it.
//!
//! As with the single anti-token, only the holders' own CS entries pay
//! messages — everyone else enters free.

use crate::driver::{Driver, Phase, WorkloadConfig};
use pctl_core::online::CtrlMsg;
use pctl_deposet::ProcessId;
use pctl_sim::{Ctx, DelayModel, Process, SimConfig, SimResult, Simulation, TimerId};
use std::collections::VecDeque;

/// Effects requested by [`MultiAntiToken`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Send a control message.
    Send {
        /// Destination controller.
        to: ProcessId,
        /// The message.
        msg: CtrlMsg,
    },
    /// The blocked CS entry may proceed.
    Grant,
    /// The contacted peer was busy: re-issue the request to another peer.
    Retry,
}

/// Sans-I/O controller state for the m-anti-token protocol (one per
/// process; a controller holds at most one role at a time).
#[derive(Clone, Debug)]
pub struct MultiAntiToken {
    me: ProcessId,
    holds_role: bool,
    waiting_ack: bool,
    local_true: bool,
    pending: VecDeque<ProcessId>,
}

impl MultiAntiToken {
    /// A controller, initially holding a role or not.
    pub fn new(me: ProcessId, holds_role: bool) -> Self {
        MultiAntiToken {
            me,
            holds_role,
            waiting_ack: false,
            local_true: true,
            pending: VecDeque::new(),
        }
    }

    /// Whether this controller currently holds an anti-token role.
    pub fn holds_role(&self) -> bool {
        self.holds_role
    }

    /// Whether the process is blocked awaiting a handover ack.
    pub fn is_blocked(&self) -> bool {
        self.waiting_ack
    }

    /// The process wants to enter its critical section. Returns the
    /// request to send (the caller picks `peer`), or `None` when entry is
    /// granted immediately (role-free processes enter for free).
    pub fn request_enter(&mut self, peer: Option<ProcessId>) -> Option<Action> {
        assert!(self.local_true, "already in the critical section");
        assert!(!self.waiting_ack, "already blocked");
        if !self.holds_role {
            self.local_true = false;
            return None;
        }
        let peer = peer.expect("holder needs a peer to hand its role to");
        assert_ne!(peer, self.me);
        self.waiting_ack = true;
        Some(Action::Send {
            to: peer,
            msg: CtrlMsg::Req { from: self.me },
        })
    }

    fn can_accept(&self) -> bool {
        self.local_true && !self.waiting_ack && !self.holds_role
    }

    /// A control message arrived.
    pub fn on_message(&mut self, msg: CtrlMsg) -> Vec<Action> {
        match msg {
            CtrlMsg::Req { from } => {
                if self.can_accept() {
                    self.holds_role = true;
                    vec![Action::Send {
                        to: from,
                        msg: CtrlMsg::Ack,
                    }]
                } else if !self.local_true {
                    // In the CS: will recover (A1) and answer then.
                    self.pending.push_back(from);
                    vec![]
                } else {
                    // Holder or blocked: bounce so the requester retries a
                    // different peer (prevents holder↔holder deadlock).
                    vec![Action::Send {
                        to: from,
                        msg: CtrlMsg::Busy,
                    }]
                }
            }
            CtrlMsg::Ack => {
                assert!(self.waiting_ack, "unexpected ack");
                self.waiting_ack = false;
                self.holds_role = false;
                self.local_true = false;
                vec![Action::Grant]
            }
            CtrlMsg::Busy => {
                assert!(self.waiting_ack, "unexpected busy");
                self.waiting_ack = false;
                vec![Action::Retry]
            }
        }
    }

    /// The process left its critical section: accept at most one deferred
    /// request (accepting makes this controller a holder, which bounces
    /// the rest).
    pub fn notify_exit(&mut self) -> Vec<Action> {
        self.local_true = true;
        let mut actions = Vec::new();
        if self.can_accept() {
            if let Some(j) = self.pending.pop_front() {
                self.holds_role = true;
                actions.push(Action::Send {
                    to: j,
                    msg: CtrlMsg::Ack,
                });
            }
        }
        // Bounce everyone else; they retry other peers.
        while let Some(j) = self.pending.pop_front() {
            actions.push(Action::Send {
                to: j,
                msg: CtrlMsg::Busy,
            });
        }
        actions
    }
}

/// Worker process: the shared driver + an m-anti-token controller.
pub struct MultiAntiTokenProcess {
    driver: Driver,
    ctrl: MultiAntiToken,
    n: usize,
    /// Round-robin retry pointer over peers.
    next_peer: usize,
}

impl MultiAntiTokenProcess {
    fn next_peer(&mut self) -> ProcessId {
        let me = self.ctrl.me.index();
        loop {
            self.next_peer = (self.next_peer + 1) % self.n;
            if self.next_peer != me {
                return ProcessId(self.next_peer as u32);
            }
        }
    }

    fn apply(&mut self, actions: Vec<Action>, ctx: &mut Ctx<'_, CtrlMsg>) {
        for a in actions {
            match a {
                Action::Send { to, msg } => ctx.send(to, msg),
                Action::Grant => self.driver.enter_cs(ctx),
                Action::Retry => {
                    let peer = self.next_peer();
                    ctx.count("handover_retries", 1);
                    if let Some(req) = self.ctrl.request_enter(Some(peer)) {
                        self.apply(vec![req], ctx);
                    } else {
                        unreachable!("a retrying controller still holds its role");
                    }
                }
            }
        }
    }
}

impl Process<CtrlMsg> for MultiAntiTokenProcess {
    fn on_start(&mut self, ctx: &mut Ctx<'_, CtrlMsg>) {
        ctx.init_var("cs", 0);
        self.driver.start_thinking(ctx);
    }

    fn on_message(&mut self, _from: ProcessId, msg: CtrlMsg, ctx: &mut Ctx<'_, CtrlMsg>) {
        let actions = self.ctrl.on_message(msg);
        self.apply(actions, ctx);
    }

    fn on_timer(&mut self, _t: TimerId, ctx: &mut Ctx<'_, CtrlMsg>) {
        match self.driver.phase {
            Phase::Thinking => {
                self.driver.begin_request(ctx);
                let peer = self.ctrl.holds_role().then(|| self.next_peer());
                match self.ctrl.request_enter(peer) {
                    None => self.driver.enter_cs(ctx),
                    Some(req) => self.apply(vec![req], ctx),
                }
            }
            Phase::InCs => {
                // Trace ordering matters: record cs := 0 before any ack.
                self.driver.exit_cs(ctx);
                let actions = self.ctrl.notify_exit();
                self.apply(actions, ctx);
            }
            other => unreachable!("timer in phase {other:?}"),
        }
    }
}

/// Run the m-anti-token workload enforcing `k = n − m` mutual exclusion;
/// roles start on processes `0..m`.
pub fn run_multi_antitoken(cfg: &WorkloadConfig, m: usize) -> SimResult {
    let n = cfg.processes;
    assert!(m >= 1 && m < n, "need 1 ≤ m < n");
    let procs: Vec<Box<dyn Process<CtrlMsg>>> = (0..n)
        .map(|i| {
            Box::new(MultiAntiTokenProcess {
                driver: Driver::new(ProcessId(i as u32), cfg),
                ctrl: MultiAntiToken::new(ProcessId(i as u32), i < m),
                n,
                next_peer: i,
            }) as Box<dyn Process<CtrlMsg>>
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

    #[test]
    fn controller_handover() {
        let mut holder = MultiAntiToken::new(ProcessId(0), true);
        let mut peer = MultiAntiToken::new(ProcessId(1), false);
        let req = holder
            .request_enter(Some(ProcessId(1)))
            .expect("holder blocks");
        assert_eq!(
            req,
            Action::Send {
                to: ProcessId(1),
                msg: CtrlMsg::Req { from: ProcessId(0) }
            }
        );
        let ack = peer.on_message(CtrlMsg::Req { from: ProcessId(0) });
        assert!(peer.holds_role());
        assert_eq!(
            ack,
            vec![Action::Send {
                to: ProcessId(0),
                msg: CtrlMsg::Ack
            }]
        );
        assert_eq!(holder.on_message(CtrlMsg::Ack), vec![Action::Grant]);
        assert!(!holder.holds_role());
    }

    #[test]
    fn holders_bounce_instead_of_deadlocking() {
        // Two blocked holders requesting each other both get Busy and are
        // told to retry — the m ≥ 2 deadlock scenario.
        let mut a = MultiAntiToken::new(ProcessId(0), true);
        let mut b = MultiAntiToken::new(ProcessId(1), true);
        let _ = a.request_enter(Some(ProcessId(1)));
        let _ = b.request_enter(Some(ProcessId(0)));
        let ra = a.on_message(CtrlMsg::Req { from: ProcessId(1) });
        let rb = b.on_message(CtrlMsg::Req { from: ProcessId(0) });
        assert_eq!(
            ra,
            vec![Action::Send {
                to: ProcessId(1),
                msg: CtrlMsg::Busy
            }]
        );
        assert_eq!(
            rb,
            vec![Action::Send {
                to: ProcessId(0),
                msg: CtrlMsg::Busy
            }]
        );
        assert_eq!(a.on_message(CtrlMsg::Busy), vec![Action::Retry]);
        assert!(
            !a.is_blocked(),
            "retry clears the wait so a new peer can be asked"
        );
    }

    #[test]
    fn in_cs_processes_defer_and_answer_on_exit() {
        let mut c = MultiAntiToken::new(ProcessId(1), false);
        assert!(c.request_enter(None).is_none()); // enters CS free
        assert!(c.on_message(CtrlMsg::Req { from: ProcessId(0) }).is_empty());
        let actions = c.notify_exit();
        assert_eq!(
            actions,
            vec![Action::Send {
                to: ProcessId(0),
                msg: CtrlMsg::Ack
            }]
        );
        assert!(c.holds_role());
    }

    #[test]
    fn extra_pending_requests_are_bounced_on_exit() {
        let mut c = MultiAntiToken::new(ProcessId(2), false);
        assert!(c.request_enter(None).is_none());
        let _ = c.on_message(CtrlMsg::Req { from: ProcessId(0) });
        let _ = c.on_message(CtrlMsg::Req { from: ProcessId(1) });
        let actions = c.notify_exit();
        assert_eq!(
            actions,
            vec![
                Action::Send {
                    to: ProcessId(0),
                    msg: CtrlMsg::Ack
                },
                Action::Send {
                    to: ProcessId(1),
                    msg: CtrlMsg::Busy
                },
            ]
        );
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
