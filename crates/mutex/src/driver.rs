//! Shared workload driver: think → request → critical section → release.
//!
//! All three k-mutual-exclusion algorithms are exercised by the same
//! driver so their metrics are comparable: per entry it records the
//! *response time* (request → entry, the paper's Section 6 metric) and
//! stamps `enter_p{i}` / `exit_p{i}` sample series used by the post-run
//! safety sweep ([`max_concurrent`]).

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
    enter_key: String,
    exit_key: String,
}

/// The sample keys stamping process `p`'s critical-section entries and
/// exits.
fn stamp_keys(p: usize) -> (String, String) {
    (format!("enter_p{p}"), format!("exit_p{p}"))
}

impl Driver {
    /// New driver for process `me`.
    pub fn new(me: ProcessId, cfg: &WorkloadConfig) -> Self {
        let (enter_key, exit_key) = stamp_keys(me.index());
        Driver {
            phase: Phase::Thinking,
            entries_left: cfg.entries_per_process,
            think: cfg.think,
            cs: cfg.cs,
            requested_at: None,
            enter_key,
            exit_key,
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
        ctx.record(&self.enter_key, ctx.now().0);
        let d = ctx.rand_range(self.cs.0, self.cs.1);
        ctx.set_timer(d);
    }

    /// The CS timer fired: leave the critical section. The caller must run
    /// the algorithm's release path, then this restarts thinking.
    pub fn exit_cs<M: Payload>(&mut self, ctx: &mut Ctx<'_, M>) {
        debug_assert_eq!(self.phase, Phase::InCs);
        ctx.trace_end("cs");
        ctx.step(&[("cs", 0)]);
        ctx.record(&self.exit_key, ctx.now().0);
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
                ctx.record(&self.exit_key, ctx.now().0);
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

/// Post-run safety sweep: the maximum number of processes simultaneously
/// inside the critical section, from the `enter_p*` / `exit_p*` stamps.
/// A correct k-mutex run has `max_concurrent ≤ k`.
pub fn max_concurrent(metrics: &Metrics, n: usize) -> usize {
    let mut events: Vec<(u64, i32)> = Vec::new();
    for p in 0..n {
        let (enter_key, exit_key) = stamp_keys(p);
        let enters = metrics.samples(&enter_key);
        let exits = metrics.samples(&exit_key);
        assert!(enters.len() >= exits.len());
        for &t in enters {
            events.push((t, 1));
        }
        for &t in exits {
            events.push((t, -1));
        }
    }
    // Exits sort before enters at equal timestamps (CS spans are closed on
    // the left, open on the right).
    events.sort_by_key(|&(t, d)| (t, d));
    let mut cur = 0i32;
    let mut max = 0i32;
    for (_, d) in events {
        cur += d;
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
}
