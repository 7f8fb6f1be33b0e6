//! Shared workload driver: think → request → critical section → release.
//!
//! All three k-mutual-exclusion algorithms are exercised by the same
//! driver so their metrics are comparable: per entry it records the
//! *response time* (request → entry, the paper's Section 6 metric) and
//! stamps `enter_p{i}` / `exit_p{i}` sample series used by the post-run
//! safety sweep ([`max_concurrent`]).
//!
//! [`Driver`] is also the [`Workload`] of the on-line anti-token
//! algorithms: `pctl_core::online::Host` runs it with a scapegoat, a
//! fault-tolerant or an m-anti-token controller, where `lᵢ = ¬csᵢ`.

use pctl_core::online::{Due, Workload};
use pctl_sim::{Ctx, Metrics, Payload, ProcessId, SimTime};

/// Workload parameters shared by every algorithm run.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadConfig {
    /// Worker processes competing for the critical section.
    pub processes: usize,
    /// Critical-section entries per process.
    pub entries_per_process: u32,
    /// Think time range `[min, max]` between entries.
    pub think: (u64, u64),
    /// Critical-section duration range `[min, max]`; `cs.1` is the paper's
    /// `E_max`.
    pub cs: (u64, u64),
    /// RNG seed.
    pub seed: u64,
    /// Mean message delay `T` (fixed-delay model is used for comparability).
    pub delay: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            processes: 4,
            entries_per_process: 5,
            think: (20, 60),
            cs: (5, 15),
            seed: 0,
            delay: 10,
        }
    }
}

/// Driver phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Outside the CS, timer pending until the next request.
    Thinking,
    /// Requested, waiting for the algorithm to grant entry.
    Waiting,
    /// Inside the CS, timer pending until release.
    InCs,
    /// All entries performed.
    Done,
}

/// Per-process workload state machine.
#[derive(Debug)]
pub struct Driver {
    /// Current phase.
    pub phase: Phase,
    entries_left: u32,
    think: (u64, u64),
    cs: (u64, u64),
    requested_at: Option<SimTime>,
    /// This process's `enter_p{i}` / `exit_p{i}` sample keys, built once.
    enter_key: StampKey,
    exit_key: StampKey,
}

/// A `{name}_p{p}` sample key, formatted once into an inline buffer, so a
/// driver allocates nothing for its keys.
#[derive(Clone, Copy)]
struct StampKey {
    buf: [u8; 32],
    len: usize,
}

impl StampKey {
    fn new(name: &str, p: usize) -> Self {
        use std::io::Write;
        let mut buf = [0; 32];
        let mut rest = &mut buf[..];
        write!(rest, "{name}_p{p}").expect("a stamp key fits 32 bytes");
        let len = 32 - rest.len();
        StampKey { buf, len }
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[..self.len]).expect("formatted from a str")
    }
}

impl std::fmt::Debug for StampKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_str().fmt(f)
    }
}

impl Driver {
    /// New driver for process `me`.
    pub fn new(me: ProcessId, cfg: &WorkloadConfig) -> Self {
        Driver {
            phase: Phase::Thinking,
            entries_left: cfg.entries_per_process,
            think: cfg.think,
            cs: cfg.cs,
            requested_at: None,
            enter_key: StampKey::new("enter", me.index()),
            exit_key: StampKey::new("exit", me.index()),
        }
    }

    /// Begin (or resume) thinking; call from `on_start` and after each
    /// release. Marks the process done when its entries are exhausted.
    pub fn start_thinking<M: Payload>(&mut self, ctx: &mut Ctx<'_, M>) {
        if self.entries_left == 0 {
            self.phase = Phase::Done;
            ctx.set_done();
            return;
        }
        self.phase = Phase::Thinking;
        let d = ctx.rand_range(self.think.0, self.think.1);
        ctx.set_timer(d);
    }

    /// The thinking timer fired: transition to `Waiting` and stamp the
    /// request time. The caller must now invoke the algorithm's request
    /// path (and call [`enter_cs`](Self::enter_cs) if entry is immediate).
    pub fn begin_request<M: Payload>(&mut self, ctx: &mut Ctx<'_, M>) {
        debug_assert_eq!(self.phase, Phase::Thinking);
        self.phase = Phase::Waiting;
        self.requested_at = Some(ctx.now());
        ctx.trace_begin("wait");
    }

    /// Enter the critical section (algorithm granted access).
    pub fn enter_cs<M: Payload>(&mut self, ctx: &mut Ctx<'_, M>) {
        debug_assert_eq!(self.phase, Phase::Waiting);
        self.phase = Phase::InCs;
        if let Some(at) = self.requested_at.take() {
            ctx.record("response", ctx.now().since(at));
        }
        ctx.trace_end("wait");
        ctx.trace_begin("cs");
        ctx.count("entries", 1);
        ctx.step(&[("cs", 1)]);
        ctx.record(self.enter_key.as_str(), ctx.now().0);
        let d = ctx.rand_range(self.cs.0, self.cs.1);
        ctx.set_timer(d);
    }

    /// The CS timer fired: leave the critical section. The caller must run
    /// the algorithm's release path, then this restarts thinking.
    pub fn exit_cs<M: Payload>(&mut self, ctx: &mut Ctx<'_, M>) {
        debug_assert_eq!(self.phase, Phase::InCs);
        ctx.trace_end("cs");
        ctx.step(&[("cs", 0)]);
        ctx.record(self.exit_key.as_str(), ctx.now().0);
        self.entries_left -= 1;
        self.start_thinking(ctx);
    }

    /// The process restarted after a crash (`pctl_sim::Process::on_restart`).
    /// Every pre-crash timer is stale, so each phase recovers
    /// conservatively: an interrupted critical section is abandoned — `cs`
    /// reset, an exit stamp recorded so [`max_concurrent`] sees a balanced
    /// span, the entry charged against the quota and counted as
    /// `aborted_cs` — a pending request is forgotten (the algorithm layer
    /// re-requests from scratch), and thinking resumes.
    pub fn on_restart<M: Payload>(&mut self, ctx: &mut Ctx<'_, M>) {
        match self.phase {
            Phase::InCs => {
                // Close the span the crash interrupted so exported
                // timelines stay balanced.
                ctx.trace_end("cs");
                ctx.step(&[("cs", 0)]);
                ctx.record(self.exit_key.as_str(), ctx.now().0);
                ctx.count("aborted_cs", 1);
                self.entries_left -= 1;
                self.start_thinking(ctx);
            }
            Phase::Waiting => {
                ctx.trace_end("wait");
                self.requested_at = None;
                self.start_thinking(ctx);
            }
            Phase::Thinking => self.start_thinking(ctx),
            Phase::Done => ctx.set_done(),
        }
    }
}

/// Requesting the CS is the request to make `lᵢ = ¬csᵢ` false. Exiting
/// draws the next think time and arms its timer *before* the controller
/// answers deferred requests.
impl Workload for Driver {
    /// The mutex timelines show the driver's own `wait` and `cs` spans.
    const TRACE_CONTROL: bool = false;

    fn start<M: Payload>(&mut self, ctx: &mut Ctx<'_, M>) {
        ctx.init_var("cs", 0);
        self.start_thinking(ctx);
    }

    fn due<M: Payload>(&self, _ctx: &Ctx<'_, M>) -> Due {
        match self.phase {
            Phase::Thinking => Due::Request,
            Phase::InCs => Due::Release,
            other => unreachable!("workload timer in phase {other:?}"),
        }
    }

    fn begin_request<M: Payload>(&mut self, ctx: &mut Ctx<'_, M>) {
        Driver::begin_request(self, ctx);
    }

    fn enter_false<M: Payload>(&mut self, ctx: &mut Ctx<'_, M>) {
        self.enter_cs(ctx);
    }

    fn release<M: Payload>(&mut self, ctx: &mut Ctx<'_, M>) {
        self.exit_cs(ctx);
    }

    fn recover<M: Payload>(&mut self, ctx: &mut Ctx<'_, M>) {
        self.on_restart(ctx);
    }

    fn finished(&self) -> bool {
        self.phase == Phase::Done
    }
}

/// Post-run safety sweep: the maximum number of processes simultaneously
/// inside the critical section, from the `enter_p*` / `exit_p*` stamps.
/// A correct k-mutex run has `max_concurrent ≤ k`.
///
/// Each stamp becomes one packed `t << 1 | enter` key, so one unstable
/// sort of plain integers puts exits before enters at equal timestamps
/// (CS spans are closed on the left, open on the right). The keys are
/// formatted into one reused buffer and the key vector is sized once.
pub fn max_concurrent(metrics: &Metrics, n: usize) -> usize {
    use std::fmt::Write;
    let mut key = String::with_capacity(32);
    let mut stamps = |name: &str, p: usize| {
        key.clear();
        write!(key, "{name}_p{p}").expect("formatting into a String");
        metrics.samples(&key)
    };
    let series: Vec<(&[u64], &[u64])> = (0..n)
        .map(|p| (stamps("enter", p), stamps("exit", p)))
        .collect();
    let mut events = Vec::with_capacity(series.iter().map(|(e, x)| e.len() + x.len()).sum());
    for &(enters, exits) in &series {
        assert!(enters.len() >= exits.len());
        events.extend(enters.iter().map(|&t| t << 1 | 1));
        events.extend(exits.iter().map(|&t| t << 1));
    }
    events.sort_unstable();
    let (mut cur, mut max) = (0i64, 0i64);
    for e in events {
        cur += if e & 1 == 1 { 1 } else { -1 };
        max = max.max(cur);
    }
    max as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_concurrent_sweep() {
        let mut m = Metrics::default();
        // P0 in CS [0,10), P1 in [5,15), P2 in [10,20): peak 2.
        m.record("enter_p0", 0);
        m.record("exit_p0", 10);
        m.record("enter_p1", 5);
        m.record("exit_p1", 15);
        m.record("enter_p2", 10);
        m.record("exit_p2", 20);
        assert_eq!(max_concurrent(&m, 3), 2);
    }

    #[test]
    fn max_concurrent_counts_disjoint_as_one() {
        let mut m = Metrics::default();
        m.record("enter_p0", 0);
        m.record("exit_p0", 5);
        m.record("enter_p1", 5);
        m.record("exit_p1", 9);
        assert_eq!(max_concurrent(&m, 2), 1);
    }

    #[test]
    fn empty_metrics_mean_zero_concurrency() {
        assert_eq!(max_concurrent(&Metrics::default(), 4), 0);
    }

    /// The definition: the most spans `[enter, exit)` holding one instant,
    /// over every entry instant; an unclosed span never ends.
    fn brute_force_max(metrics: &Metrics, n: usize) -> usize {
        let spans: Vec<(u64, u64)> = (0..n)
            .flat_map(|p| {
                let exits = metrics.samples(&format!("exit_p{p}"));
                let enters = metrics.samples(&format!("enter_p{p}"));
                enters
                    .iter()
                    .enumerate()
                    .map(move |(k, &t)| (t, exits.get(k).copied().unwrap_or(u64::MAX)))
            })
            .collect();
        spans
            .iter()
            .map(|&(t, _)| spans.iter().filter(|&&(a, b)| a <= t && t < b).count())
            .max()
            .unwrap_or(0)
    }

    proptest::proptest! {
        #[test]
        fn max_concurrent_matches_brute_force_overlap(
            runs in proptest::collection::vec(
                (proptest::collection::vec((0u64..3, 0u64..3), 0..5), 0u8..2),
                1..6,
            )
        ) {
            // Small gaps and lengths make equal-time exit/enter ties and
            // zero-length spans (a crash at the entry instant) common.
            let mut m = Metrics::default();
            for (p, (spans, open_tail)) in runs.iter().enumerate() {
                let mut t = 0;
                for &(gap, len) in spans {
                    t += gap;
                    m.record(&format!("enter_p{p}"), t);
                    t += len;
                    m.record(&format!("exit_p{p}"), t);
                }
                if *open_tail == 1 {
                    m.record(&format!("enter_p{p}"), t);
                }
            }
            proptest::prop_assert_eq!(max_concurrent(&m, runs.len()), brute_force_max(&m, runs.len()));
        }
    }

    #[test]
    fn max_concurrent_matches_brute_force_on_spans_closed_by_restart() {
        use crate::run_ft_antitoken;
        use pctl_core::online::ft::FtParams;
        use pctl_core::online::PeerSelect;
        use pctl_sim::FaultPlan;
        let mut aborted = 0;
        // Crash instants spread over the run, so some land in the CS.
        for (seed, at) in (0..12).zip((20..).step_by(17)) {
            let cfg = WorkloadConfig {
                processes: 4,
                seed,
                ..WorkloadConfig::default()
            };
            let faults = FaultPlan::none().with_crash(ProcessId(0), SimTime(at), Some(at + 300));
            let r = run_ft_antitoken(&cfg, PeerSelect::NextInRing, FtParams::default(), faults);
            aborted += r.metrics.counter("aborted_cs");
            assert_eq!(
                max_concurrent(&r.metrics, 4),
                brute_force_max(&r.metrics, 4),
                "seed {seed}"
            );
        }
        assert!(aborted > 0, "no crash landed inside a critical section");
    }
}
