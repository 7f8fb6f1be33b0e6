//! Property test: a run is fully reproducible from `(seed, FaultPlan)`.
//!
//! Whatever faults the plan injects — loss, duplication, extra delay,
//! crash/restart — two simulations with the same seed and the same plan
//! must produce byte-identical deposet traces, metrics, and outcomes.
//! This is the contract that makes faulty runs *debuggable*: any violation
//! found by the post-run sweep can be replayed exactly.

use pctl_deposet::ProcessId;
use pctl_sim::{
    Ctx, DelayModel, FaultPlan, LinkFaults, NullRecorder, Payload, Process, Recorder, RingRecorder,
    SimConfig, SimResult, SimTime, Simulation, TimerId,
};
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct Tick(#[allow(dead_code)] u32); // payload bytes: distinguishes messages in flight

impl Payload for Tick {
    fn tag(&self) -> &'static str {
        "tick"
    }
}

/// A chatty worker: on each of `rounds` randomized timer ticks it sends to
/// a random peer and steps a traced variable; received ticks step another.
/// Exercises every determinism-sensitive path (rng, timers, sends, trace).
struct Worker {
    n: usize,
    rounds: u32,
    sent: u32,
}

impl Process<Tick> for Worker {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Tick>) {
        ctx.init_var("recv", 0);
        let d = ctx.rand_range(1, 9);
        ctx.set_timer(d);
    }

    fn on_message(&mut self, _from: ProcessId, _msg: Tick, ctx: &mut Ctx<'_, Tick>) {
        let seen = ctx.var("recv").unwrap_or(0) + 1;
        ctx.step(&[("recv", seen)]);
        ctx.count("ticks_received", 1);
    }

    fn on_timer(&mut self, _t: TimerId, ctx: &mut Ctx<'_, Tick>) {
        if self.sent >= self.rounds {
            ctx.set_done();
            return;
        }
        self.sent += 1;
        let me = ctx.me().index();
        let hop = 1 + ctx.rand_below(self.n as u64 - 1) as usize;
        ctx.send(ProcessId(((me + hop) % self.n) as u32), Tick(self.sent));
        ctx.step(&[("sent", i64::from(self.sent))]);
        let d = ctx.rand_range(1, 9);
        ctx.set_timer(d);
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, Tick>) {
        // Pre-crash timers are stale; re-arm or the script stalls.
        let d = ctx.rand_range(1, 9);
        ctx.set_timer(d);
    }
}

fn run(seed: u64, faults: FaultPlan) -> SimResult {
    run_with(seed, faults, Box::new(NullRecorder))
}

fn run_with(seed: u64, faults: FaultPlan, rec: Box<dyn Recorder>) -> SimResult {
    let n = 3usize;
    let procs: Vec<Box<dyn Process<Tick>>> = (0..n)
        .map(|_| {
            Box::new(Worker {
                n,
                rounds: 12,
                sent: 0,
            }) as Box<dyn Process<Tick>>
        })
        .collect();
    let cfg = SimConfig {
        seed,
        delay: DelayModel::Uniform { min: 1, max: 10 },
        faults,
        ..SimConfig::default()
    };
    Simulation::with_recorder(cfg, procs, rec).run()
}

/// Everything observable about a run, as one byte string.
fn fingerprint(r: &SimResult) -> String {
    format!(
        "{}\n{}\n{:?}\n{:?}\n{:?}",
        pctl_deposet::trace::to_json(&r.deposet),
        serde_json::to_string(&r.metrics).unwrap(),
        r.end_time,
        r.done,
        r.stopped,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn identical_seed_and_plan_reproduce_the_run_bit_for_bit(
        seed in 0u64..1_000_000,
        drop_pct in 0u32..35,
        dup_pct in 0u32..35,
        extra in 0u64..20,
        crash_sel in 0u32..4,
        crash_at in 1u64..80,
        restart_sel in 0u32..3,
    ) {
        let mut plan = FaultPlan {
            default_link: LinkFaults {
                drop_p: f64::from(drop_pct) / 100.0,
                dup_p: f64::from(dup_pct) / 100.0,
                extra_delay_max: extra,
            },
            ..FaultPlan::default()
        };
        if crash_sel > 0 {
            let restart = (restart_sel > 0).then(|| u64::from(restart_sel) * 50);
            plan = plan.with_crash(ProcessId(crash_sel - 1), SimTime(crash_at), restart);
        }
        let a = run(seed, plan.clone());
        let b = run(seed, plan);
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    /// Attaching a telemetry recorder must not perturb the run: the traced
    /// deposet, metrics, and outcome stay byte-identical whether recording
    /// is off (NullRecorder) or on (RingRecorder). Telemetry flow ids never
    /// touch the simulation's RNG streams. Every recorded event names a
    /// state of its lane's process, and along a lane the named states never
    /// decrease — crash and restart states included.
    #[test]
    fn recording_never_perturbs_the_run(
        seed in 0u64..1_000_000,
        drop_pct in 0u32..35,
        dup_pct in 0u32..35,
        extra in 0u64..20,
        crash_sel in 0u32..4,
        crash_at in 1u64..80,
        restart_sel in 0u32..3,
    ) {
        let mut plan = FaultPlan {
            default_link: LinkFaults {
                drop_p: f64::from(drop_pct) / 100.0,
                dup_p: f64::from(dup_pct) / 100.0,
                extra_delay_max: extra,
            },
            ..FaultPlan::default()
        };
        if crash_sel > 0 {
            let restart = (restart_sel > 0).then(|| u64::from(restart_sel) * 50);
            plan = plan.with_crash(ProcessId(crash_sel - 1), SimTime(crash_at), restart);
        }
        let plain = run(seed, plan.clone());
        let recorded = run_with(seed, plan.clone(), Box::new(RingRecorder::new(1 << 16)));
        prop_assert_eq!(fingerprint(&plain), fingerprint(&recorded));
        // And the recorder actually captured the run's telemetry.
        let events = recorded.events();
        prop_assert!(!events.is_empty());
        let mut last = vec![0u32; recorded.deposet.process_count()];
        for ev in &events {
            let lane = ev.lane as usize;
            let state = ev.state.expect("simulator events name a state");
            prop_assert!(
                (state as usize) < recorded.deposet.len_of(ProcessId(ev.lane)),
                "{:?}", ev
            );
            prop_assert!(state >= last[lane], "lane {} went back: {:?}", lane, ev);
            last[lane] = state;
        }

        // The hot-path profiler is equally observational: a run with
        // `pctl_prof` enabled (spans + gauges firing in deposet
        // construction and engine code) must be bit-identical to the
        // uninstrumented run. The enable/disable bracket restores the
        // profiler state even if the body panics.
        let profiled = {
            struct ProfGuard;
            impl Drop for ProfGuard {
                fn drop(&mut self) {
                    pctl_prof::set_enabled(false);
                }
            }
            let _guard = ProfGuard;
            pctl_prof::reset();
            pctl_prof::set_enabled(true);
            run(seed, plan)
        };
        prop_assert_eq!(fingerprint(&plain), fingerprint(&profiled));
    }
}
