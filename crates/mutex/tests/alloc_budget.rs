//! Heap-allocation budgets of the simulator's record path and of trace
//! decode.
//!
//! A counting `#[global_allocator]` (this binary only) counts the
//! allocations made on the calling thread while a closure runs. The
//! budgets pin what DESIGN states for the record path: a simulated step
//! allocates nothing in steady state, and a whole run allocates `O(n)`
//! times for `n` processes. Each per-run buffer is sized once — the
//! builder lays each process's states out at their exact length when the
//! run finishes, the metric series share one pool, the hosts size their
//! buffers from `n` — so an anti-token run of 8 processes and 12 entries,
//! which records only ~260 states, makes well under one allocation per
//! three states. The timing wheel gets its own budget, since its upper
//! levels are touched by few of those runs, and so does the post-run
//! audit, whose allocations must not grow with the run.
//!
//! The steady-state budget takes the difference of two run lengths, so
//! set-up cancels and only what a step costs remains: the controllers push
//! into their host's reused action buffer, and the fault-tolerant timers
//! sit in fixed slots. Its fault-tolerant run has message loss and a crash:
//! a crashed process records `down` next to `cs`, and the builder shares
//! such a two-variable assignment between the states that hold it
//! (DESIGN §15).

use pctl_core::online::ft::FtParams;
use pctl_core::online::PeerSelect;
use pctl_core::verify::sweep_faulty_run;
use pctl_deposet::generator::{pipelined_workload, CsConfig};
use pctl_deposet::{trace, LocalPredicate};
use pctl_mutex::driver::{max_concurrent, WorkloadConfig};
use pctl_mutex::{run_antitoken, run_antitoken_recorded, run_ft_antitoken};
use pctl_sim::scenarios::ring_flood;
use pctl_sim::wheel::{TimingWheel, WheelEntry};
use pctl_sim::{DelayModel, FaultPlan, ProcessId, Recorder, RingRecorder, SimConfig, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` and return its result with the number of heap allocations
/// (including reallocations) it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

fn workload(seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        processes: 8,
        entries_per_process: 12,
        seed,
        ..WorkloadConfig::default()
    }
}

/// Allocations per recorded state over a few seeds of one runner.
fn per_state(run: impl Fn(&WorkloadConfig) -> pctl_sim::SimResult) -> f64 {
    let (mut allocs, mut states) = (0, 0);
    for seed in 1..=4 {
        let cfg = workload(seed);
        let (r, n) = counted(|| run(&cfg));
        assert_eq!(r.metrics.counter("entries"), 8 * 12, "seed {seed}");
        allocs += n;
        states += r.deposet.total_states() as u64;
    }
    allocs as f64 / states as f64
}

/// The fault plan of the fault-tolerant cases: 5% message loss, and the
/// initial scapegoat crashes at t = 25 and restarts 300 ticks later.
fn loss_and_crash() -> FaultPlan {
    FaultPlan::uniform_loss(0.05).with_crash(ProcessId(0), SimTime(25), Some(300))
}

#[test]
fn antitoken_runs_allocate_at_most_three_tenths_per_state() {
    let plain = per_state(|cfg| run_antitoken(cfg, PeerSelect::NextInRing));
    println!("anti-token: {plain:.3} allocations per recorded state");
    assert!(plain <= 0.3, "{plain:.3} allocations per recorded state");
}

#[test]
fn fault_tolerant_runs_allocate_at_most_three_tenths_per_state() {
    let ft = per_state(|cfg| {
        run_ft_antitoken(
            cfg,
            PeerSelect::NextInRing,
            FtParams::default(),
            loss_and_crash(),
        )
    });
    println!("fault-tolerant anti-token: {ft:.3} allocations per recorded state");
    assert!(ft <= 0.3, "{ft:.3} allocations per recorded state");
}

#[test]
fn recorded_runs_allocate_once_per_event() {
    // What recording adds to a run, per recorded event: the event's name.
    // The sink is built outside the count, and reading the events back
    // (which stamps their clocks) is not counted.
    let (mut added, mut events) = (0, 0);
    for seed in 1..=4 {
        let cfg = workload(seed);
        let (plain, plain_allocs) = counted(|| run_antitoken(&cfg, PeerSelect::NextInRing));
        let rec: Box<dyn Recorder> = Box::new(RingRecorder::new(1 << 16));
        let (r, allocs) = counted(|| run_antitoken_recorded(&cfg, PeerSelect::NextInRing, rec));
        assert_eq!(
            trace::to_json(&r.deposet),
            trace::to_json(&plain.deposet),
            "seed {seed}"
        );
        added += allocs - plain_allocs;
        events += r.events().len() as u64;
    }
    let per_event = added as f64 / events as f64;
    println!("recorded anti-token: {per_event:.3} allocations per recorded event");
    assert!(
        per_event <= 1.1,
        "{per_event:.3} allocations per recorded event"
    );
}

/// Allocations of one whole 12-entry run of `n` processes (seed 3), set-up
/// and the finished deposet included, and their number per process.
fn per_process(n: usize, run: impl Fn(&WorkloadConfig) -> pctl_sim::SimResult) -> (u64, f64) {
    let cfg = WorkloadConfig {
        processes: n,
        ..workload(3)
    };
    let (r, allocs) = counted(|| run(&cfg));
    assert_eq!(r.metrics.counter("entries"), n as u64 * 12);
    (allocs, allocs as f64 / n as f64)
}

#[test]
fn whole_runs_allocate_a_constant_per_process() {
    // (name, runner, bound per process, bound per process added from
    // n = 4 to n = 16)
    type Run = fn(&WorkloadConfig) -> pctl_sim::SimResult;
    let runs: [(&str, Run, f64, f64); 2] = [
        (
            "anti-token",
            |cfg| run_antitoken(cfg, PeerSelect::NextInRing),
            16.0,
            8.0,
        ),
        (
            "fault-tolerant anti-token",
            |cfg| {
                let plan = loss_and_crash();
                run_ft_antitoken(cfg, PeerSelect::NextInRing, FtParams::default(), plan)
            },
            24.0,
            10.0,
        ),
    ];
    for (name, run, per, marginal) in runs {
        let (small, small_per) = per_process(4, run);
        println!("whole run, {name}, n = 4: {small} allocations ({small_per:.1} per process)");
        let (large, large_per) = per_process(16, run);
        let added = (large - small) as f64 / 12.0;
        println!(
            "whole run, {name}, n = 16: {large} allocations ({large_per:.1} per process, \
             {added:.1} per process added since n = 4)"
        );
        assert!(
            small_per <= per,
            "{name}, n = 4: {small_per:.1} per process"
        );
        assert!(
            large_per <= per,
            "{name}, n = 16: {large_per:.1} per process"
        );
        assert!(added <= marginal, "{name}: {added:.1} per added process");
    }
}

/// Allocations per recorded state added by growing one runner's run from
/// 500 to 1,000 entries per process (n = 8, seed 3).
fn marginal_per_state(run: impl Fn(&WorkloadConfig) -> pctl_sim::SimResult) -> f64 {
    let measure = |entries: u32| {
        let cfg = WorkloadConfig {
            entries_per_process: entries,
            ..workload(3)
        };
        let (r, allocs) = counted(|| run(&cfg));
        assert_eq!(r.metrics.counter("entries"), 8 * u64::from(entries));
        (allocs as f64, r.deposet.total_states() as f64)
    };
    let (short, short_states) = measure(500);
    let (long, long_states) = measure(1_000);
    (long - short) / (long_states - short_states)
}

#[test]
fn steady_state_steps_allocate_nothing() {
    let plain = marginal_per_state(|cfg| run_antitoken(cfg, PeerSelect::NextInRing));
    let ft = marginal_per_state(|cfg| {
        run_ft_antitoken(
            cfg,
            PeerSelect::NextInRing,
            FtParams::default(),
            loss_and_crash(),
        )
    });
    println!("steady-state anti-token: {plain:.4} marginal allocations per recorded state");
    println!(
        "steady-state fault-tolerant anti-token: {ft:.4} marginal allocations per recorded state"
    );
    assert!(plain <= 0.02, "plain: {plain:.4} allocations per state");
    assert!(ft <= 0.02, "fault-tolerant: {ft:.4} allocations per state");
}

#[test]
fn fault_tolerant_audit_allocates_per_process_not_per_state() {
    // The audit of a fault-tolerant run: the Garg–Waldecker sweep of its
    // trace plus the k-mutex stamp sweep. Its scratch is sized once, so a
    // run four times longer must fit the same O(n) budget.
    const N: usize = 8;
    let witness = LocalPredicate::not_var("cs");
    let audit = |entries: u32| {
        let cfg = WorkloadConfig {
            entries_per_process: entries,
            ..workload(3)
        };
        let r = run_ft_antitoken(
            &cfg,
            PeerSelect::NextInRing,
            FtParams::default(),
            loss_and_crash(),
        );
        let ((report, concurrent), allocs) = counted(|| {
            (
                sweep_faulty_run(&r.deposet, &witness),
                max_concurrent(&r.metrics, N),
            )
        });
        assert!(report.safe_modulo_crashes(), "{report:?}");
        assert!(concurrent < N, "{concurrent} processes in the CS at once");
        (allocs, r.deposet.total_states())
    };
    let (short, short_states) = audit(12);
    let (long, long_states) = audit(48);
    assert!(
        long_states >= 3 * short_states,
        "{short_states} → {long_states}"
    );
    println!(
        "fault-tolerant audit: {long} allocations at {long_states} states \
         ({short} at {short_states}, n = {N})"
    );
    for allocs in [short, long] {
        assert!(allocs <= 3 * N as u64, "{allocs} allocations for n = {N}");
    }
}

/// Check that a popped batch continues the strictly increasing
/// `(time, seq)` order ending at `last`; returns the batch size.
fn check_order(batch: &[WheelEntry<u64>], last: &mut Option<(u64, u64)>) -> u64 {
    for e in batch {
        assert_eq!(e.item, e.time, "entry carried to the wrong time");
        assert!(
            last.is_none_or(|l| (e.time, e.seq) > l),
            "popped out of (time, seq) order"
        );
        *last = Some((e.time, e.seq));
    }
    batch.len() as u64
}

#[test]
fn timing_wheel_allocates_only_to_grow() {
    // Pushes and pops in seeded bursts, with delay spreads that land at
    // every wheel level and in the overflow heap. Items carry their own
    // due time, so a popped entry shows it was scheduled where it landed.
    const OPS: u64 = 12_000;
    let mut rng = StdRng::seed_from_u64(0x5EED_0021);
    let mut reached = [0u64; 6]; // wheel levels 0..=4, then overflow
    let ((pushed, popped), allocs) = counted(|| {
        let mut w: TimingWheel<u64> = TimingWheel::new(0);
        let mut batch = Vec::new();
        let (mut pushed, mut popped, mut seq) = (0u64, 0u64, 0u64);
        let mut last = None;
        while pushed + popped < OPS {
            for _ in 0..rng.gen_range(0..3) {
                let dt: u64 = match rng.gen_range(0..6) {
                    0 => rng.gen_range(0..64),
                    1 => rng.gen_range(0..1 << 12),
                    2 => rng.gen_range(0..1 << 18),
                    3 => rng.gen_range(0..1 << 24),
                    4 => rng.gen_range(0..1 << 30),
                    _ => rng.gen_range(0..1 << 40),
                };
                let t = w.base() + dt;
                let level = (w.base() ^ t).checked_ilog2().map_or(0, |b| b / 6);
                reached[level.min(5) as usize] += 1;
                w.push(t, seq, t);
                seq += 1;
                pushed += 1;
            }
            if w.pop_batch(&mut batch).is_some() {
                popped += check_order(&batch, &mut last);
            }
        }
        while w.pop_batch(&mut batch).is_some() {
            popped += check_order(&batch, &mut last);
        }
        (pushed, popped)
    });
    assert_eq!(popped, pushed, "every pushed entry pops exactly once");
    assert!(
        reached.iter().all(|&n| n > 0),
        "levels 0-4 and overflow must all be reached: {reached:?}"
    );
    println!("timing wheel: {allocs} allocations over {OPS} push/pop operations");
    assert!(
        allocs <= 32,
        "{allocs} allocations over {OPS} push/pop operations"
    );
}

#[test]
fn ring_flood_allocates_almost_nothing_per_event() {
    let cfg = SimConfig {
        seed: 7,
        delay: DelayModel::Uniform { min: 1, max: 20 },
        max_events: usize::MAX,
        ..SimConfig::default()
    };
    let (r, allocs) = counted(|| ring_flood(64, 16, 200, cfg).run());
    let events = r.core.events_dispatched;
    assert_eq!(events, 64 * 16 * 200);
    let per_event = allocs as f64 / events as f64;
    println!("ring flood: {per_event:.4} allocations per event");
    assert!(per_event < 0.1, "{per_event:.4} allocations per event");
}

#[test]
fn trace_decode_allocates_almost_nothing_per_state() {
    let cfg = CsConfig {
        processes: 8,
        sections_per_process: 42,
        ..CsConfig::default()
    };
    let json = trace::to_json(&pipelined_workload(&cfg, 5));
    let (dep, allocs) = counted(|| trace::from_json(&json).unwrap());
    let states = dep.total_states() as u64;
    assert!((1_500..=2_500).contains(&states), "{states} states");
    let per_state = allocs as f64 / states as f64;
    println!("trace decode: {per_state:.3} allocations per state ({states} states)");
    assert!(per_state <= 0.1, "{per_state:.3} allocations per state");
}

#[test]
fn wide_trace_decode_allocates_each_array_once() {
    // Shaped like the benchmark's traces: many processes with a few
    // states each, where growing every process's arrays by doubling
    // from empty would cost several allocations per process.
    let cfg = CsConfig {
        processes: 24,
        sections_per_process: 2,
        ..CsConfig::default()
    };
    let json = trace::to_json(&pipelined_workload(&cfg, 5));
    let (dep, allocs) = counted(|| trace::from_json(&json).unwrap());
    let states = dep.total_states() as u64;
    assert_eq!(states, 264);
    let per_state = allocs as f64 / states as f64;
    println!("trace decode (wide): {per_state:.3} allocations per state ({states} states)");
    assert!(per_state <= 0.3, "{per_state:.3} allocations per state");
}
