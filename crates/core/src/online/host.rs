//! One simulator host for every on-line controller.
//!
//! The paper's Figure-3 strategy is a per-process controller `Cᵢ` attached
//! to an application. [`Host`] makes that attachment on the discrete-event
//! simulator, once for every controller: a [`Controller`] is the sans-I/O
//! protocol state machine, and a [`Workload`] is the application that
//! decides when `lᵢ` turns false and when it turns true again.
//!
//! A controller call pushes its effects onto the host's action buffer,
//! which the host drains and reuses, so a decision allocates nothing. The
//! host applies the [`Action`]s in order, routes the fault-tolerant
//! controller's timers through one fixed slot per [`FtTimerKind`], and
//! writes the metrics and timeline annotations that every controller
//! shares. The workload owns the rest: its traced variable, its timers, its
//! response-time samples and its own spans. Each workload hook runs at a
//! fixed point of the host's sequence, so a workload keeps its own order of
//! effects — the mutex driver draws its next think time and arms its timer
//! before a release answers deferred requests, the phase script after.

use super::ft::FtTimerKind;
use super::PeerSelect;
use pctl_deposet::ProcessId;
use pctl_sim::{Ctx, Payload, Process, TimerId};

/// An effect a controller asks its host to perform.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action<M> {
    /// Send a control message.
    Send {
        /// Destination controller.
        to: ProcessId,
        /// The message.
        msg: M,
    },
    /// The blocked falsification may proceed.
    Grant,
    /// Arm a timer of the given kind `delay` ticks from now. A controller
    /// keeps at most one live timer per kind; the host hands a fired one
    /// back through [`Controller::on_timer`].
    Arm {
        /// Which timer chain.
        kind: FtTimerKind,
        /// Ticks from now.
        delay: u64,
    },
}

/// A per-process on-line controller `Cᵢ` as a pure transition function:
/// each input pushes its effects onto `out`, a buffer the caller owns.
///
/// # Panics
/// Implementations panic on protocol misuse, such as requesting while
/// already blocked or already false.
pub trait Controller {
    /// The control messages this controller exchanges.
    type Msg: Payload;

    /// Whether this controller holds an anti-token (the scapegoat role).
    fn is_scapegoat(&self) -> bool;

    /// Whether the process is blocked awaiting an `ack`.
    fn is_blocked(&self) -> bool;

    /// Effects to apply once at process start.
    fn start(&mut self, _out: &mut Vec<Action<Self::Msg>>) {}

    /// The process asks to make `lᵢ` false; `peers` is where a scapegoat
    /// sends its `req`. If the controller is not blocked afterwards, the
    /// request was granted at once; otherwise an [`Action::Grant`] follows.
    fn request_false(&mut self, peers: &[ProcessId], out: &mut Vec<Action<Self::Msg>>);

    /// A control message arrived.
    fn on_message(&mut self, msg: Self::Msg, out: &mut Vec<Action<Self::Msg>>);

    /// The process turned `lᵢ` true again: answer deferred requests.
    fn notify_true(&mut self, out: &mut Vec<Action<Self::Msg>>);

    /// A timer armed through [`Action::Arm`] fired.
    fn on_timer(&mut self, kind: FtTimerKind, _out: &mut Vec<Action<Self::Msg>>) {
        unreachable!("{kind:?} timer fired at a controller that arms none");
    }

    /// Rejoin after a crash and restart; the host has already brought the
    /// traced predicate back to true.
    fn rejoin(&mut self, _out: &mut Vec<Action<Self::Msg>>) {
        panic!("this controller assumes immortal processes and cannot rejoin after a crash");
    }

    /// Requests re-sent to another peer after a refusal, so far.
    fn retries(&self) -> u64 {
        0
    }
}

/// What a fired workload timer asks of the host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Due {
    /// The process wants to turn `lᵢ` false.
    Request,
    /// The process turns `lᵢ` true again.
    Release,
    /// Nothing is left to do.
    Nothing,
}

/// The application a controller guards. The host calls these hooks in a
/// fixed sequence; see each method for where it falls.
pub trait Workload {
    /// Whether the timeline also shows the controller's `blocked` spans,
    /// the role it picks up on release, and each watchdog tick.
    const TRACE_CONTROL: bool;

    /// Set the traced variable and arm the first timer; runs after
    /// [`Controller::start`].
    fn start<M: Payload>(&mut self, ctx: &mut Ctx<'_, M>);

    /// A workload timer fired: what does it ask for?
    fn due<M: Payload>(&self, ctx: &Ctx<'_, M>) -> Due;

    /// A request begins; runs before the peers are picked and the
    /// controller is asked.
    fn begin_request<M: Payload>(&mut self, ctx: &mut Ctx<'_, M>);

    /// The request was granted: turn `lᵢ` false.
    fn enter_false<M: Payload>(&mut self, ctx: &mut Ctx<'_, M>);

    /// Turn `lᵢ` true; runs before the controller answers deferred
    /// requests, so every `ack` is sent from a predicate-true state.
    fn release<M: Payload>(&mut self, ctx: &mut Ctx<'_, M>);

    /// Runs after the controller's answers to a release or a rejoin are
    /// applied.
    fn resume<M: Payload>(&mut self, _ctx: &mut Ctx<'_, M>) {}

    /// The process restarted after a crash: come back predicate-true;
    /// runs before [`Controller::rejoin`].
    fn recover<M: Payload>(&mut self, ctx: &mut Ctx<'_, M>);

    /// Whether the workload is done. A finished process arms no more
    /// controller timers, so the run can quiesce, but it still answers
    /// messages.
    fn finished(&self) -> bool;
}

/// A [`Controller`] and a [`Workload`] as one simulated process.
pub struct Host<C: Controller, W> {
    ctrl: C,
    work: W,
    n: usize,
    /// How a scapegoat picks its peers; `None` when the controller picks
    /// its own.
    select: Option<PeerSelect>,
    /// The peers of a broadcast request; a single peer needs no buffer.
    peers: Vec<ProcessId>,
    /// The controller's actions, applied and cleared after each call.
    out: Vec<Action<C::Msg>>,
    /// The live timer of each [`FtTimerKind`], by discriminant.
    timers: [Option<TimerId>; 3],
}

impl<C: Controller, W: Workload> Host<C, W> {
    /// Host `ctrl` and `work` as one process of `n`. The buffers are sized
    /// from `n` here: a call's actions are at most a message to every
    /// other process and a timer.
    pub fn new(ctrl: C, work: W, n: usize, select: Option<PeerSelect>) -> Self {
        let broadcast = select == Some(PeerSelect::Broadcast);
        Host {
            ctrl,
            work,
            n,
            select,
            peers: Vec::with_capacity(if broadcast { n - 1 } else { 0 }),
            out: Vec::with_capacity(n),
            timers: [None; 3],
        }
    }

    /// Apply and clear the buffered actions.
    fn apply(&mut self, ctx: &mut Ctx<'_, C::Msg>) {
        let mut out = std::mem::take(&mut self.out);
        for action in out.drain(..) {
            match action {
                Action::Send { to, msg } => ctx.send(to, msg),
                Action::Grant => {
                    if W::TRACE_CONTROL {
                        ctx.trace_end("blocked");
                    }
                    self.work.enter_false(ctx);
                }
                Action::Arm { kind, delay } => {
                    if !self.work.finished() {
                        self.timers[kind as usize] = Some(ctx.set_timer(delay));
                    }
                }
            }
        }
        self.out = out;
    }

    /// Annotate a role change made by the last controller call.
    fn trace_role(&self, had_role: bool, ctx: &mut Ctx<'_, C::Msg>) {
        if ctx.recording() && self.ctrl.is_scapegoat() != had_role {
            ctx.trace_instant(if had_role {
                "scapegoat_released"
            } else {
                "scapegoat_acquired"
            });
        }
    }

    fn request(&mut self, ctx: &mut Ctx<'_, C::Msg>) {
        self.work.begin_request(ctx);
        let single;
        let peers: &[ProcessId] = match self.select {
            None => &[],
            Some(PeerSelect::Broadcast) => {
                self.peers.clear();
                PeerSelect::Broadcast.fill(self.n, ctx, &mut self.peers);
                &self.peers
            }
            Some(select) => {
                single = select.pick(self.n, ctx);
                single.as_slice()
            }
        };
        self.ctrl.request_false(peers, &mut self.out);
        if !self.ctrl.is_blocked() {
            return self.work.enter_false(ctx);
        }
        if W::TRACE_CONTROL {
            ctx.trace_begin("blocked");
        }
        self.apply(ctx);
    }

    fn release(&mut self, ctx: &mut Ctx<'_, C::Msg>) {
        self.work.release(ctx);
        let had_role = self.ctrl.is_scapegoat();
        self.ctrl.notify_true(&mut self.out);
        if W::TRACE_CONTROL {
            self.trace_role(had_role, ctx);
        }
        self.apply(ctx);
        self.work.resume(ctx);
    }

    fn ctrl_timer(&mut self, kind: FtTimerKind, ctx: &mut Ctx<'_, C::Msg>) {
        let had_role = self.ctrl.is_scapegoat();
        self.ctrl.on_timer(kind, &mut self.out);
        match kind {
            FtTimerKind::Retransmit => {
                let sends = self
                    .out
                    .iter()
                    .filter(|a| matches!(a, Action::Send { .. }))
                    .count();
                if sends > 0 {
                    ctx.count("retransmissions", sends as u64);
                    ctx.trace_instant("retransmit");
                }
            }
            FtTimerKind::Watchdog => {
                if !had_role && self.ctrl.is_scapegoat() {
                    ctx.count("regenerations", 1);
                    ctx.trace_instant("watchdog_regenerated");
                } else if W::TRACE_CONTROL && ctx.recording() && !self.ctrl.is_scapegoat() {
                    ctx.trace_instant("watchdog_tick");
                }
            }
            FtTimerKind::Heartbeat => {}
        }
        self.apply(ctx);
    }
}

impl<C: Controller, W: Workload> Process<C::Msg> for Host<C, W> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, C::Msg>) {
        self.ctrl.start(&mut self.out);
        self.apply(ctx);
        self.work.start(ctx);
    }

    fn on_message(&mut self, _from: ProcessId, msg: C::Msg, ctx: &mut Ctx<'_, C::Msg>) {
        let (had_role, retries) = (self.ctrl.is_scapegoat(), self.ctrl.retries());
        self.ctrl.on_message(msg, &mut self.out);
        self.trace_role(had_role, ctx);
        let retried = self.ctrl.retries() - retries;
        if retried > 0 {
            ctx.count("handover_retries", retried);
        }
        self.apply(ctx);
    }

    fn on_timer(&mut self, t: TimerId, ctx: &mut Ctx<'_, C::Msg>) {
        if let Some(slot) = self.timers.iter().position(|&s| s == Some(t)) {
            self.timers[slot] = None;
            return self.ctrl_timer(FtTimerKind::ALL[slot], ctx);
        }
        match self.work.due(ctx) {
            // A request that finds the controller blocked is a stale
            // timer; the grant resumes the workload.
            Due::Request if !self.ctrl.is_blocked() => self.request(ctx),
            Due::Release => self.release(ctx),
            Due::Request | Due::Nothing => {}
        }
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, C::Msg>) {
        // Every pre-crash timer is stale.
        self.timers = [None; 3];
        // Close the `blocked` span a crash interrupted, so the exported
        // timeline stays balanced.
        if W::TRACE_CONTROL && self.ctrl.is_blocked() {
            ctx.trace_end("blocked");
        }
        self.work.recover(ctx);
        self.ctrl.rejoin(&mut self.out);
        self.apply(ctx);
        ctx.count("rejoins", 1);
        ctx.trace_instant("rejoin");
        self.work.resume(ctx);
    }
}
