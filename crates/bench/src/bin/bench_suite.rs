//! The persisted perf baseline: `BENCH_offline.json` + `BENCH_sweep.json`,
//! and the perf-regression gate: `BENCH_compare.json`.
//!
//! Unlike the `fig*` binaries (which regenerate the paper's figures), this
//! harness exists to record the repository's performance trajectory PR over
//! PR. It measures two hot paths end to end:
//!
//! * **offline** — false-interval extraction + off-line control synthesis
//!   (the paper's Figure 2 algorithm) on critical-section and pipelined
//!   workloads;
//! * **sweep** — the multi-seed post-run safety audit: deposet construction
//!   (vector-clock arena DP) plus `verify::sweep_faulty_run` per seed, run
//!   both sequentially and with deterministic scoped-thread fan-out.
//!
//! Reports are round-trip validated before they are written. With
//! `--compare FILE` the sweep numbers are diffed scenario by scenario
//! against the committed baseline: any scenario more than `--threshold-pct`
//! (default 25) worse than the baseline is a regression, `BENCH_compare.json`
//! records the structured deltas, and the process exits non-zero — except
//! under `--smoke` (whose tiny workload is not comparable to a full-size
//! baseline), where the gate only warns unless `--strict` is also given.
//! `--inject-slowdown PCT` synthetically worsens the measured numbers so
//! the gate itself can be integration-tested.
//!
//! After the timed rounds (so measurement is never perturbed) one
//! profiler-enabled sweep round runs with `pctl_obs::prof`: its phase
//! report prints, `--prof-trace FILE` exports it as a Chrome `trace_event`
//! file for Perfetto, and the measured disabled-span cost is asserted to
//! bound profiler overhead below 2% of the sweep.
//!
//! Usage: `bench_suite [--smoke] [--out-dir DIR] [--baseline FILE]
//!   [--compare FILE] [--threshold-pct PCT] [--inject-slowdown PCT]
//!   [--strict] [--write-baseline FILE] [--prof-trace FILE]`

use pctl_bench::report::{
    Baseline, CompareReport, OfflineCase, OfflineReport, OverlapCase, SimCoreBench, SlicingBench,
    StreamingBench, SweepMode, SweepReport, WallStats, SCHEMA,
};
use pctl_core::offline::{control_intervals, Engine, OfflineOptions, SelectPolicy};
use pctl_core::verify::sweep_faulty_run;
use pctl_core::PredicateEngine;
use pctl_deposet::generator::{
    cs_workload, pipelined_workload, random_deposet, CsConfig, RandomConfig,
};
use pctl_deposet::par::{ordered_map, worker_count};
use pctl_deposet::{
    Deposet, DisjunctivePredicate, FalseIntervals, LocalPredicate, PredicateClass,
    RegularPredicate, SlicedDeposet,
};
use pctl_obs::prof;
use std::path::PathBuf;
use std::time::Instant;

struct Args {
    smoke: bool,
    out_dir: PathBuf,
    baseline: PathBuf,
    compare: Option<PathBuf>,
    threshold_pct: f64,
    inject_slowdown: f64,
    strict: bool,
    write_baseline: Option<PathBuf>,
    prof_trace: Option<PathBuf>,
}

const USAGE: &str = "usage: bench_suite [--smoke] [--out-dir DIR] [--baseline FILE] \
  [--compare FILE] [--threshold-pct PCT] [--inject-slowdown PCT] [--strict] \
  [--write-baseline FILE] [--prof-trace FILE]";

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        out_dir: PathBuf::from("."),
        baseline: PathBuf::from("docs/results/BENCH_prerefactor.json"),
        compare: None,
        threshold_pct: 25.0,
        inject_slowdown: 0.0,
        strict: false,
        write_baseline: None,
        prof_trace: None,
    };
    let mut it = std::env::args().skip(1);
    let value = |flag: &str, it: &mut dyn Iterator<Item = String>| {
        it.next()
            .unwrap_or_else(|| panic!("{flag} needs a value ({USAGE})"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--strict" => args.strict = true,
            "--out-dir" => args.out_dir = PathBuf::from(value("--out-dir", &mut it)),
            "--baseline" => args.baseline = PathBuf::from(value("--baseline", &mut it)),
            "--compare" => args.compare = Some(PathBuf::from(value("--compare", &mut it))),
            "--write-baseline" => {
                args.write_baseline = Some(PathBuf::from(value("--write-baseline", &mut it)))
            }
            "--prof-trace" => args.prof_trace = Some(PathBuf::from(value("--prof-trace", &mut it))),
            "--threshold-pct" => {
                args.threshold_pct = value("--threshold-pct", &mut it)
                    .parse()
                    .expect("--threshold-pct PCT must be a number")
            }
            "--inject-slowdown" => {
                args.inject_slowdown = value("--inject-slowdown", &mut it)
                    .parse()
                    .expect("--inject-slowdown PCT must be a number")
            }
            other => panic!("unknown argument {other} ({USAGE})"),
        }
    }
    args
}

/// A timing sample in nanoseconds: sub-microsecond cases must not read 0.
fn nanos(d: std::time::Duration) -> u64 {
    d.as_nanos() as u64
}

// ---------------------------------------------------------------- offline --

fn offline_case(
    name: &str,
    engine: Engine,
    dep: &Deposet,
    pred: &DisjunctivePredicate,
    reps: usize,
) -> OfflineCase {
    let opts = OfflineOptions {
        policy: SelectPolicy::First,
        engine,
    };
    let mut samples = Vec::with_capacity(reps);
    let mut tuples = 0usize;
    let mut feasible = false;
    let mut intervals_per_process = 0usize;
    for _ in 0..reps {
        let t0 = Instant::now();
        let intervals = FalseIntervals::extract(dep, pred);
        let (res, _stats) = control_intervals(dep, &intervals, opts);
        samples.push(nanos(t0.elapsed()));
        intervals_per_process = intervals.max_per_process();
        match res {
            Ok(rel) => {
                feasible = true;
                tuples = rel.len();
            }
            Err(_) => {
                feasible = false;
                tuples = 0;
            }
        }
    }
    let wall = WallStats::of(&samples);
    let states = dep.total_states();
    OfflineCase {
        name: name.to_string(),
        engine: match engine {
            Engine::Optimized => "optimized".into(),
            Engine::Naive => "naive".into(),
        },
        processes: dep.process_count(),
        intervals_per_process,
        states,
        states_per_sec: states as f64 / (wall.p50_us.max(1e-3) / 1e6),
        wall,
        control_tuples: tuples,
        feasible,
    }
}

fn run_offline(smoke: bool) -> OfflineReport {
    let reps = if smoke { 2 } else { 7 };
    let sizes: &[(usize, usize)] = if smoke {
        &[(3, 3)]
    } else {
        &[(8, 16), (16, 24), (32, 16)]
    };
    let mut cases = Vec::new();
    for &(n, p) in sizes {
        let cfg = CsConfig {
            processes: n,
            sections_per_process: p,
            ..CsConfig::default()
        };
        let dep = cs_workload(&cfg, 7);
        let pred = DisjunctivePredicate::at_least_one_not(n, "cs");
        cases.push(offline_case(
            &format!("cs_n{n}_p{p}"),
            Engine::Optimized,
            &dep,
            &pred,
            reps,
        ));
        if n <= 8 {
            cases.push(offline_case(
                &format!("cs_n{n}_p{p}"),
                Engine::Naive,
                &dep,
                &pred,
                reps,
            ));
        }
        let piped = pipelined_workload(&cfg, 7);
        cases.push(offline_case(
            &format!("pipelined_n{n}_p{p}"),
            Engine::Optimized,
            &piped,
            &pred,
            reps,
        ));
    }
    OfflineReport {
        schema: SCHEMA.into(),
        bench: "offline".into(),
        smoke,
        cases,
        overlap: None,
        streaming: None,
        slicing: None,
        sim_core: None,
    }
}

// ---------------------------------------------------------------- slicing --

/// The regular-predicate fast path: slice the computation w.r.t. a
/// conjunctive-of-locals violation (processes 0 and 1 inside their
/// critical sections at once — a cut the disjunctive engine cannot even
/// express), then answer detect + control through the slice-then-delegate
/// engine. The pruning ratio is counted exhaustively on both sides —
/// consistent cuts of the full lattice vs consistent cuts surviving in
/// the slice — so "exponential pruning" stays a measured number. The
/// unsliced comparator is the brute-force lattice BFS, the only way to
/// answer the same question without a slice; its verdict is hard-asserted
/// to agree with the sliced one before anything is written.
fn run_slicing(smoke: bool) -> SlicingBench {
    use pctl_deposet::lattice;

    // Individual slice builds are tens of µs, so the p50 needs many reps
    // to be stable against scheduler noise (the whole loop is still
    // sub-millisecond).
    let (n, sections, reps, budget) = if smoke {
        (3usize, 3usize, 20usize, 1_000_000usize)
    } else {
        (4, 8, 60, 20_000_000)
    };
    let cfg = CsConfig {
        processes: n,
        sections_per_process: sections,
        ..CsConfig::default()
    };
    let dep = cs_workload(&cfg, 7);
    let violation = RegularPredicate::conj_var(&[0, 1], "cs");
    let class = PredicateClass::regular(n as u32, violation.clone());

    // Slice construction alone.
    let mut construct = Vec::with_capacity(reps);
    let mut slice = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let s = SlicedDeposet::build(&dep, &violation).expect("violation is a valid regular class");
        construct.push(nanos(t0.elapsed()));
        slice = Some(s);
    }
    let slice = slice.expect("reps >= 1");

    // Exhaustive (budgeted) cut counts on both sides of the prune.
    let lattice_cuts = lattice::count_consistent_global_states(&dep, budget)
        .expect("slicing workload must stay within the enumeration budget");
    let slice_cuts = slice
        .cut_count(budget)
        .expect("the slice lattice embeds into the full lattice");

    // Slice-then-delegate detect + control synthesis on a prebuilt engine.
    let opts = OfflineOptions {
        policy: SelectPolicy::First,
        engine: Engine::Optimized,
    };
    let eng = PredicateEngine::for_class(&dep, &class).expect("valid class");
    let mut sliced = Vec::with_capacity(reps);
    let mut detected = None;
    let mut feasible = false;
    for _ in 0..reps {
        let t0 = Instant::now();
        detected = eng.detect_violation();
        feasible = eng.control(opts).is_ok();
        sliced.push(nanos(t0.elapsed()));
    }

    // Unsliced brute force: BFS the full cut lattice for a satisfying cut.
    let mut unsliced = Vec::with_capacity(reps);
    let mut brute = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        brute = lattice::possibly(&dep, budget, |d, g| violation.eval(d, g))
            .expect("within the enumeration budget");
        unsliced.push(nanos(t0.elapsed()));
    }
    assert_eq!(
        detected.is_some(),
        brute.is_some(),
        "sliced and brute-force detection must agree on the same workload"
    );

    SlicingBench {
        workload: format!("cs_n{n}_p{sections}"),
        processes: n,
        states: dep.total_states(),
        lattice_cuts,
        slice_cuts,
        pruning_ratio: lattice_cuts as f64 / slice_cuts.max(1) as f64,
        surviving_states: slice.surviving_states(),
        classes: slice.class_count(),
        slice_construct: WallStats::of(&construct),
        sliced_control: WallStats::of(&sliced),
        unsliced_control: WallStats::of(&unsliced),
        feasible,
    }
}

// --------------------------------------------------------------- sim core --

/// Raw throughput of the actor-model simulator engine: `ring_flood` keeps
/// `processes × fanout` messages permanently in flight with near-empty
/// handlers, so wall time is dominated by the wheel/arena/mailbox machinery
/// itself. The full-size run dispatches ≥ 10⁷ events per rep. Before
/// anything is written, the arena gauges are hard-asserted to stay within
/// 2× the known live-state population — the scale invariant the engine
/// exists to provide (peak memory tracks in-flight state, not trace
/// length).
fn run_sim_core(smoke: bool) -> SimCoreBench {
    use pctl_sim::scenarios::ring_flood;
    use pctl_sim::{DelayModel, SimConfig, SimTime, StopReason};

    let (processes, fanout, hops, reps) = if smoke {
        (8u32, 4u32, 64u32, 5usize)
    } else {
        // 64 × 16 × 9766 = 10 000 384 deliveries ≥ 10⁷.
        (64, 16, 9_766, 3)
    };
    let expected = u64::from(processes) * u64::from(fanout) * u64::from(hops);
    let live = u64::from(processes) * u64::from(fanout);

    let run = || {
        let cfg = SimConfig {
            seed: 0x5CA1_E5EED,
            delay: DelayModel::Uniform { min: 1, max: 20 },
            max_events: usize::MAX,
            max_time: SimTime(u64::MAX),
            ..SimConfig::default()
        };
        ring_flood(processes, fanout, hops, cfg).run()
    };

    let mut samples = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = run();
        samples.push(nanos(t0.elapsed()));
        assert_eq!(r.stopped, StopReason::Quiescent, "ring_flood must drain");
        assert_eq!(r.core.events_dispatched, expected);
        last = Some(r);
    }
    let r = last.expect("reps >= 1");

    // The invariant the section exists to witness, asserted before the
    // report is written: engine memory is proportional to live state.
    let memory_bounded = r.core.arena_high_water <= 2 * live && r.core.arena_slots <= 2 * live;
    assert!(
        memory_bounded,
        "sim_core: arena gauges (high_water={}, slots={}) exceed 2x the \
         live-state bound {live} — engine memory is no longer proportional \
         to in-flight state",
        r.core.arena_high_water, r.core.arena_slots
    );
    assert_eq!(
        r.core.arena_live_at_end, 0,
        "quiescent run must drain the arena"
    );

    let wall = WallStats::of(&samples);
    SimCoreBench {
        workload: format!("ring_flood_n{processes}_f{fanout}_h{hops}"),
        processes: processes as usize,
        events: expected,
        events_per_sec: expected as f64 / (wall.p50_us.max(1e-3) / 1e6),
        wall,
        arena_high_water: r.core.arena_high_water,
        arena_slots: r.core.arena_slots,
        live_state_bound: live,
        inbox_high_water: r.core.inbox_high_water,
        wheel_high_water: r.core.wheel_high_water,
        timesteps: r.core.timesteps,
        memory_bounded,
    }
}

// ---------------------------------------------------------------- overlap --

/// Pathological many-intervals input for the worklist `find_overlap`: a
/// pipelined workload with many critical sections yields one false
/// interval per section per process under `∨ᵢ ¬csᵢ`, the shape where the
/// old quadratic restart-from-scratch scan cost `O(T·n²)` checks.
fn run_overlap(smoke: bool) -> OverlapCase {
    let (n, sections, reps) = if smoke {
        (3usize, 8usize, 2usize)
    } else {
        (8, 256, 5)
    };
    let cfg = CsConfig {
        processes: n,
        sections_per_process: sections,
        ..CsConfig::default()
    };
    let dep = pipelined_workload(&cfg, 13);
    let pred = DisjunctivePredicate::at_least_one_not(n, "cs");
    let intervals = FalseIntervals::extract(&dep, &pred);
    let mut samples = Vec::with_capacity(reps);
    let mut found = false;
    for _ in 0..reps {
        let t0 = Instant::now();
        let witness = pctl_deposet::store::find_overlap(&dep, &intervals);
        samples.push(nanos(t0.elapsed()));
        found = witness.is_some();
    }
    OverlapCase {
        workload: format!("pipelined_n{n}_p{sections}"),
        processes: n,
        states: dep.total_states(),
        intervals_total: intervals.total(),
        wall: WallStats::of(&samples),
        found,
    }
}

// -------------------------------------------------------------- streaming --

/// End-to-end daemon numbers over real TCP on loopback: sustained append
/// throughput into one session (client → frame → enqueue → ack, including
/// any backoff sleeps), then `Detect` latency while a second writer
/// streams into the very session being queried. Gated by `--compare`
/// whenever the baseline carries the streaming scenarios.
///
/// The main numbers run with request telemetry *enabled* (the default
/// serve config — what a real deployment pays); a second pass with
/// `Config::telemetry = false` re-measures append throughput so the cost
/// of telemetry stays a recorded number, not an assertion.
fn run_streaming(smoke: bool) -> StreamingBench {
    use pctld::{Client, Config, Daemon, Response, RetryPolicy};

    let (n, events, queries) = if smoke {
        (3usize, 200usize, 25usize)
    } else {
        (4, 1200, 40)
    };
    let cfg = RandomConfig {
        processes: n,
        events,
        send_prob: 0.3,
        flip_prob: 0.3,
    };
    let dep = random_deposet(&cfg, 17);
    let pred = DisjunctivePredicate::at_least_one(n, "ok");
    let daemon = Daemon::spawn(Config::default()).expect("bind streaming bench daemon");
    let addr = daemon.local_addr();

    // Sustained append throughput, one event per round trip.
    let (init, ops) = pctl_deposet::linearize(&dep);
    let streamed = ops.len();
    let mut c = Client::connect(addr).expect("connect");
    assert_eq!(
        c.hello("bench-append", pred.locals().to_vec(), Some(init.clone()))
            .expect("hello"),
        Response::Ok
    );
    let mut append_samples = Vec::with_capacity(streamed);
    let mut busy = 0u64;
    let t_all = Instant::now();
    for op in &ops {
        let t0 = Instant::now();
        match c
            .append_retry("bench-append", op.clone(), RetryPolicy::default())
            .expect("append")
        {
            Response::Ok => {}
            other => panic!("append refused mid-bench: {other:?}"),
        }
        append_samples.push(nanos(t0.elapsed()));
    }
    let total = t_all.elapsed();
    assert_eq!(c.close("bench-append").expect("close"), Response::Ok);

    // Query under load: a writer thread streams the same computation into
    // a fresh session while this thread hammers it with Detect.
    let locals_off = pred.locals().to_vec();
    let writer = std::thread::spawn(move || {
        let mut w = Client::connect(addr).expect("writer connect");
        assert_eq!(
            w.hello("bench-load", pred.locals().to_vec(), Some(init))
                .expect("writer hello"),
            Response::Ok
        );
        let mut bounced = 0u64;
        for op in ops {
            loop {
                match w.append("bench-load", op.clone()).expect("writer append") {
                    Response::Ok => break,
                    Response::Busy { retry_after_ms } => {
                        bounced += 1;
                        std::thread::sleep(std::time::Duration::from_millis(retry_after_ms));
                    }
                    other => panic!("writer refused: {other:?}"),
                }
            }
        }
        bounced
    });
    // Let the writer's Hello land before querying.
    let mut query_samples = Vec::with_capacity(queries);
    while query_samples.len() < queries {
        let t0 = Instant::now();
        match c.detect("bench-load") {
            Ok(Response::Detect { .. }) => query_samples.push(nanos(t0.elapsed())),
            Ok(Response::Err { .. }) => {
                // Session not open yet; not a latency sample.
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            Ok(other) => panic!("unexpected detect answer: {other:?}"),
            Err(e) => panic!("detect failed: {e}"),
        }
    }
    busy += writer.join().expect("writer thread");
    assert_eq!(c.close("bench-load").expect("close"), Response::Ok);
    assert_eq!(daemon.shutdown(), 0, "bench daemon must drain cleanly");

    // Telemetry-off pass: same ops, fresh daemon with request telemetry
    // disabled, append throughput only.
    let off_daemon = Daemon::spawn(Config {
        telemetry: false,
        ..Config::default()
    })
    .expect("bind telemetry-off bench daemon");
    let (init2, ops2) = pctl_deposet::linearize(&dep);
    let mut c2 = Client::connect(off_daemon.local_addr()).expect("connect telemetry-off");
    assert_eq!(
        c2.hello("bench-off", locals_off, Some(init2))
            .expect("hello telemetry-off"),
        Response::Ok
    );
    let t_off = Instant::now();
    for op in ops2 {
        match c2
            .append_retry("bench-off", op, RetryPolicy::default())
            .expect("append telemetry-off")
        {
            Response::Ok => {}
            other => panic!("telemetry-off append refused: {other:?}"),
        }
    }
    let off_total = t_off.elapsed();
    assert_eq!(c2.close("bench-off").expect("close"), Response::Ok);
    assert_eq!(off_daemon.shutdown(), 0, "telemetry-off daemon must drain");

    // Flight-off pass: same ops again, fresh daemon with the flight
    // recorder sampler disabled. Compared against the default (flight on)
    // run to bound the recorder's steady-state overhead.
    let flight_off_daemon = Daemon::spawn(Config {
        flight: false,
        ..Config::default()
    })
    .expect("bind flight-off bench daemon");
    let (init3, ops3) = pctl_deposet::linearize(&dep);
    let locals3 = DisjunctivePredicate::at_least_one(n, "ok")
        .locals()
        .to_vec();
    let mut c3 = Client::connect(flight_off_daemon.local_addr()).expect("connect flight-off");
    assert_eq!(
        c3.hello("bench-flight-off", locals3, Some(init3))
            .expect("hello flight-off"),
        Response::Ok
    );
    let t_floff = Instant::now();
    for op in ops3 {
        match c3
            .append_retry("bench-flight-off", op, RetryPolicy::default())
            .expect("append flight-off")
        {
            Response::Ok => {}
            other => panic!("flight-off append refused: {other:?}"),
        }
    }
    let flight_off_total = t_floff.elapsed();
    assert_eq!(c3.close("bench-flight-off").expect("close"), Response::Ok);
    assert_eq!(
        flight_off_daemon.shutdown(),
        0,
        "flight-off daemon must drain"
    );

    StreamingBench {
        workload: format!("random_n{n}_e{events}"),
        processes: n,
        events: streamed,
        append_events_per_sec: streamed as f64 / total.as_secs_f64().max(1e-9),
        append_wall: WallStats::of(&append_samples),
        query_under_load: WallStats::of(&query_samples),
        busy_bounces: busy,
        append_events_per_sec_telemetry_off: Some(
            streamed as f64 / off_total.as_secs_f64().max(1e-9),
        ),
        append_events_per_sec_flight_off: Some(
            streamed as f64 / flight_off_total.as_secs_f64().max(1e-9),
        ),
    }
}

// ------------------------------------------------------------------ sweep --

/// The comparable fingerprint of one seed's sweep outcome.
#[derive(Debug, PartialEq, Eq, Clone)]
struct SweepOutcome {
    fully_safe: bool,
    safe_modulo_crashes: bool,
    unwitnessed: Option<Vec<u32>>,
    clean: Option<Vec<u32>>,
    down_windows: usize,
}

/// One seed's measured unit: deposet construction from pre-built parts
/// (the vector-clock DP) plus the full safety sweep.
fn sweep_one(parts: &Parts, witness: &LocalPredicate) -> (SweepOutcome, u64) {
    let (states, events, messages) = parts.clone_parts();
    let t0 = Instant::now();
    let dep = Deposet::from_parts(states, events, messages).expect("generated parts are valid");
    let report = sweep_faulty_run(&dep, witness);
    let ns = nanos(t0.elapsed());
    (
        SweepOutcome {
            fully_safe: report.fully_safe(),
            safe_modulo_crashes: report.safe_modulo_crashes(),
            unwitnessed: report.unwitnessed_cut.map(|g| g.indices().to_vec()),
            clean: report.clean_violation.map(|g| g.indices().to_vec()),
            down_windows: report.down_windows.len(),
        },
        ns,
    )
}

/// Pre-generated deposet raw parts (kept outside the timed region so the
/// bench measures clock construction + sweep, not workload generation).
struct Parts {
    states: Vec<Vec<pctl_deposet::LocalState>>,
    events: Vec<Vec<pctl_deposet::EventKind>>,
    messages: Vec<pctl_deposet::Message>,
}

impl Parts {
    fn clone_parts(
        &self,
    ) -> (
        Vec<Vec<pctl_deposet::LocalState>>,
        Vec<Vec<pctl_deposet::EventKind>>,
        Vec<pctl_deposet::Message>,
    ) {
        (
            self.states.clone(),
            self.events.clone(),
            self.messages.clone(),
        )
    }
}

fn run_sweep(smoke: bool, baseline_path: &std::path::Path) -> (SweepReport, prof::ProfReport) {
    let (seeds, processes, events, rounds) = if smoke {
        (3usize, 3usize, 120usize, 8usize)
    } else {
        (16, 8, 6000, 3)
    };
    let cfg = RandomConfig {
        processes,
        events,
        send_prob: 0.3,
        flip_prob: 0.3,
    };
    let witness = LocalPredicate::var("ok");
    let parts: Vec<Parts> = (0..seeds as u64)
        .map(|seed| {
            let (states, events, messages) = random_deposet(&cfg, seed).into_parts();
            Parts {
                states,
                events,
                messages,
            }
        })
        .collect();
    let states_total: usize = parts
        .iter()
        .map(|p| p.states.iter().map(Vec::len).sum::<usize>())
        .sum();

    // Sequential rounds.
    let mut seq_samples = Vec::new();
    let mut seq_total_ns = u64::MAX;
    let mut seq_outcomes: Vec<SweepOutcome> = Vec::new();
    for _ in 0..rounds {
        let t0 = Instant::now();
        let round: Vec<(SweepOutcome, u64)> =
            parts.iter().map(|p| sweep_one(p, &witness)).collect();
        let total = nanos(t0.elapsed());
        seq_total_ns = seq_total_ns.min(total);
        seq_outcomes = round.iter().map(|(o, _)| o.clone()).collect();
        seq_samples.extend(round.iter().map(|(_, ns)| *ns));
    }

    // Parallel rounds (deterministic ordered merge).
    let threads = worker_count(parts.len());
    let mut par_samples = Vec::new();
    let mut par_total_ns = u64::MAX;
    let mut par_outcomes: Vec<SweepOutcome> = Vec::new();
    for _ in 0..rounds {
        let t0 = Instant::now();
        let round: Vec<(SweepOutcome, u64)> = ordered_map(&parts, |_, p| sweep_one(p, &witness));
        let total = nanos(t0.elapsed());
        par_total_ns = par_total_ns.min(total);
        par_outcomes = round.iter().map(|(o, _)| o.clone()).collect();
        par_samples.extend(round.iter().map(|(_, ns)| *ns));
    }

    assert_eq!(
        seq_outcomes, par_outcomes,
        "parallel sweep must be bit-identical to sequential"
    );

    // One profiler-enabled sequential round, strictly after the timed
    // rounds so instrumentation can never perturb the measurements. The
    // resulting phase report both bounds profiler overhead (see main) and
    // feeds the Chrome trace export.
    prof::reset();
    prof::set_enabled(true);
    let prof_outcomes: Vec<SweepOutcome> = parts.iter().map(|p| sweep_one(p, &witness).0).collect();
    prof::set_enabled(false);
    let prof_report = prof::report();
    assert_eq!(
        prof_outcomes, seq_outcomes,
        "profiling is observational: the profiled round must be bit-identical"
    );

    // The recorded baseline is full-size; comparing a --smoke run against
    // it would be apples to oranges, so smoke reports omit it.
    let baseline: Option<Baseline> = if smoke {
        None
    } else {
        std::fs::read_to_string(baseline_path)
            .ok()
            .and_then(|s| serde_json::from_str(&s).ok())
    };
    let speedup = baseline
        .as_ref()
        .map(|b| b.total_ms / sequential_ms(seq_total_ns).max(1e-9));

    let mode = |name: &str, threads: usize, samples: &[u64], total_ns: u64| SweepMode {
        mode: name.into(),
        threads,
        per_seed: WallStats::of(samples),
        total_ms: total_ns as f64 / 1e6,
        states_per_sec: states_total as f64 / (total_ns.max(1) as f64 / 1e9),
    };
    let sequential = mode("sequential", 1, &seq_samples, seq_total_ns);
    let parallel = mode("parallel", threads, &par_samples, par_total_ns);

    let report = SweepReport {
        schema: SCHEMA.into(),
        bench: "sweep".into(),
        smoke,
        seeds,
        processes,
        events_per_seed: events,
        states_total,
        sequential,
        parallel,
        deterministic: true,
        baseline,
        speedup_vs_baseline: speedup,
    };
    (report, prof_report)
}

fn sequential_ms(total_ns: u64) -> f64 {
    total_ns as f64 / 1e6
}

/// Bound the profiler's disabled-path cost: the spans one sweep round
/// completes, times the measured per-span disabled cost, must stay below
/// 2% of the sweep's sequential wall time.
fn check_disabled_overhead(prof_report: &prof::ProfReport, seq_total_ns: u64) -> (f64, u64, f64) {
    let spans = prof_report.span_count();
    let per_span_ns = prof::disabled_span_cost_ns(1_000_000);
    let overhead_ns = spans as f64 * per_span_ns;
    let run_ns = seq_total_ns.max(1) as f64;
    let pct = overhead_ns / run_ns * 100.0;
    (per_span_ns, spans, pct)
}

fn main() {
    let args = parse_args();
    std::fs::create_dir_all(&args.out_dir).expect("create out dir");

    let mut offline = run_offline(args.smoke);
    offline.overlap = Some(run_overlap(args.smoke));
    offline.streaming = Some(run_streaming(args.smoke));
    offline.slicing = Some(run_slicing(args.smoke));
    offline.sim_core = Some(run_sim_core(args.smoke));
    let path = args.out_dir.join("BENCH_offline.json");
    pctl_bench::report::write_validated(&path, &offline).expect("write BENCH_offline.json");
    println!("wrote {} ({} cases)", path.display(), offline.cases.len());
    for c in &offline.cases {
        println!(
            "  {:<24} {:<9} states={:<6} p50={:.1}us p95={:.1}us  {:.0} states/s",
            c.name, c.engine, c.states, c.wall.p50_us, c.wall.p95_us, c.states_per_sec
        );
    }
    if let Some(o) = &offline.overlap {
        println!(
            "  overlap {} intervals={} p50={:.1}us p95={:.1}us found={}",
            o.workload, o.intervals_total, o.wall.p50_us, o.wall.p95_us, o.found
        );
    }
    if let Some(s) = &offline.streaming {
        println!(
            "  streaming {} append: {:.0} events/s p50={:.1}us p95={:.1}us  \
             query-under-load: p50={:.1}us p95={:.1}us  busy_bounces={}",
            s.workload,
            s.append_events_per_sec,
            s.append_wall.p50_us,
            s.append_wall.p95_us,
            s.query_under_load.p50_us,
            s.query_under_load.p95_us,
            s.busy_bounces
        );
        if let Some(off) = s.append_events_per_sec_telemetry_off {
            println!(
                "    telemetry off: {off:.0} events/s (telemetry cost is \
                 measured, not assumed)"
            );
        }
        if let Some(off) = s.append_events_per_sec_flight_off {
            let overhead_pct = (off - s.append_events_per_sec) / off.max(1e-9) * 100.0;
            println!(
                "    flight off: {off:.0} events/s (recorder overhead {}{:.1}%)",
                if overhead_pct >= 0.0 { "+" } else { "" },
                overhead_pct
            );
            if overhead_pct > 5.0 {
                if args.smoke {
                    println!(
                        "WARNING: flight recorder overhead {overhead_pct:.1}% exceeds 5%, \
                         but --smoke workloads are too small for a stable ratio; not failing"
                    );
                } else {
                    eprintln!(
                        "FAIL: flight recorder overhead {overhead_pct:.1}% exceeds the 5% budget"
                    );
                    std::process::exit(2);
                }
            }
        }
    }
    if let Some(sl) = &offline.slicing {
        println!(
            "  slicing {} cuts: {} lattice → {} slice (pruning {:.1}x)  \
             states: {}/{} survive in {} class(es)",
            sl.workload,
            sl.lattice_cuts,
            sl.slice_cuts,
            sl.pruning_ratio,
            sl.surviving_states,
            sl.states,
            sl.classes
        );
        println!(
            "    construct p50={:.1}us  sliced detect+control p50={:.1}us  \
             unsliced brute-force p50={:.1}us  feasible={}",
            sl.slice_construct.p50_us,
            sl.sliced_control.p50_us,
            sl.unsliced_control.p50_us,
            sl.feasible
        );
    }
    if let Some(sc) = &offline.sim_core {
        println!(
            "  sim_core {} events={} p50={:.1}us  {:.2}M events/s  \
             arena hw/slots={}/{} (live bound {})  inbox hw={} wheel hw={} \
             timesteps={} memory_bounded={}",
            sc.workload,
            sc.events,
            sc.wall.p50_us,
            sc.events_per_sec / 1e6,
            sc.arena_high_water,
            sc.arena_slots,
            sc.live_state_bound,
            sc.inbox_high_water,
            sc.wheel_high_water,
            sc.timesteps,
            sc.memory_bounded
        );
    }

    let (sweep, prof_report) = run_sweep(args.smoke, &args.baseline);
    let path = args.out_dir.join("BENCH_sweep.json");
    pctl_bench::report::write_validated(&path, &sweep).expect("write BENCH_sweep.json");
    println!(
        "wrote {} (seeds={} states={})",
        path.display(),
        sweep.seeds,
        sweep.states_total
    );
    println!(
        "  sequential: total={:.1}ms p50={:.1}us p95={:.1}us  {:.0} states/s",
        sweep.sequential.total_ms,
        sweep.sequential.per_seed.p50_us,
        sweep.sequential.per_seed.p95_us,
        sweep.sequential.states_per_sec
    );
    println!(
        "  parallel({}): total={:.1}ms p50={:.1}us p95={:.1}us  {:.0} states/s",
        sweep.parallel.threads,
        sweep.parallel.total_ms,
        sweep.parallel.per_seed.p50_us,
        sweep.parallel.per_seed.p95_us,
        sweep.parallel.states_per_sec
    );
    if let (Some(b), Some(s)) = (&sweep.baseline, sweep.speedup_vs_baseline) {
        println!(
            "  baseline ({}): {:.1}ms → speedup {:.2}x",
            b.recorded, b.total_ms, s
        );
    }

    // Profiler: phase report, Chrome trace export, disabled-cost bound.
    println!("profiler (one post-measurement sweep round):");
    print!("{}", prof_report.render());
    if let Some(trace_path) = &args.prof_trace {
        let json = prof::chrome_trace_json();
        std::fs::write(trace_path, &json).expect("write profiler Chrome trace");
        println!(
            "wrote {} ({} bytes; load in Perfetto / chrome://tracing)",
            trace_path.display(),
            json.len()
        );
    }
    let seq_total_ns = (sweep.sequential.total_ms * 1e6) as u64;
    let (per_span_ns, spans, overhead_pct) = check_disabled_overhead(&prof_report, seq_total_ns);
    println!(
        "  disabled-span cost: {per_span_ns:.2}ns/span × {spans} spans = {overhead_pct:.4}% of sweep"
    );
    assert!(
        overhead_pct < 2.0,
        "disabled profiler overhead {overhead_pct:.4}% exceeds the 2% budget \
         ({per_span_ns:.2}ns/span × {spans} spans over {seq_total_ns}ns)"
    );

    if let Some(path) = &args.write_baseline {
        let b = Baseline {
            recorded: format!(
                "bench_suite --write-baseline (smoke={}, seeds={})",
                sweep.smoke, sweep.seeds
            ),
            total_ms: sweep.sequential.total_ms,
            states_per_sec: sweep.sequential.states_per_sec,
            per_seed_p50_us: sweep.sequential.per_seed.p50_us,
            per_seed_p95_us: sweep.sequential.per_seed.p95_us,
            streaming_append_events_per_sec: offline
                .streaming
                .as_ref()
                .map(|s| s.append_events_per_sec),
            streaming_append_p50_us: offline.streaming.as_ref().map(|s| s.append_wall.p50_us),
            streaming_query_p50_us: offline
                .streaming
                .as_ref()
                .map(|s| s.query_under_load.p50_us),
            slicing_construct_p50_us: offline.slicing.as_ref().map(|s| s.slice_construct.p50_us),
            slicing_control_p50_us: offline.slicing.as_ref().map(|s| s.sliced_control.p50_us),
            slicing_pruning_ratio: offline.slicing.as_ref().map(|s| s.pruning_ratio),
            sim_core_events_per_sec: offline.sim_core.as_ref().map(|s| s.events_per_sec),
        };
        pctl_bench::report::write_validated(path, &b).expect("write baseline");
        println!("wrote {} (recorded sweep baseline)", path.display());
    }

    // ------------------------------------------------------------- gate --
    if let Some(compare_path) = &args.compare {
        let text = std::fs::read_to_string(compare_path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {}: {e}", compare_path.display());
            std::process::exit(3);
        });
        let baseline: Baseline = serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse baseline {}: {e}", compare_path.display());
            std::process::exit(3);
        });
        let cmp = CompareReport::of(
            &baseline,
            &compare_path.display().to_string(),
            &sweep.sequential,
            offline.streaming.as_ref(),
            offline.slicing.as_ref(),
            offline.sim_core.as_ref(),
            args.threshold_pct,
            args.inject_slowdown,
            args.smoke,
        );
        let path = args.out_dir.join("BENCH_compare.json");
        pctl_bench::report::write_validated(&path, &cmp).expect("write BENCH_compare.json");
        println!(
            "wrote {} (threshold {:.0}%, {} regression(s))",
            path.display(),
            cmp.threshold_pct,
            cmp.regressions
        );
        if baseline.streaming_append_events_per_sec.is_none() {
            println!(
                "  note: baseline {} predates streaming scenarios; the daemon \
                 path is not gated by this compare (re-freeze with \
                 --write-baseline to gate it)",
                compare_path.display()
            );
        }
        if baseline.sim_core_events_per_sec.is_none() {
            println!(
                "  note: baseline {} predates the sim_core section; engine \
                 throughput is not gated by this compare (re-freeze with \
                 --write-baseline to gate it)",
                compare_path.display()
            );
        }
        for c in &cmp.cases {
            println!(
                "  {:<24} baseline={:<12.1} current={:<12.1} {:<9} {}{:.1}% {}",
                c.scenario,
                c.baseline,
                c.current,
                c.unit,
                if c.worse_pct >= 0.0 { "+" } else { "" },
                c.worse_pct,
                if c.regressed { "REGRESSED" } else { "ok" }
            );
        }
        if !cmp.passed {
            if args.smoke && !args.strict {
                println!(
                    "WARNING: {} scenario(s) regressed past {:.0}%, but --smoke numbers \
                     are not comparable to a full-size baseline; not failing \
                     (pass --strict to fail anyway)",
                    cmp.regressions, cmp.threshold_pct
                );
            } else {
                eprintln!(
                    "FAIL: {} scenario(s) regressed more than {:.0}% vs {}",
                    cmp.regressions,
                    cmp.threshold_pct,
                    compare_path.display()
                );
                std::process::exit(2);
            }
        }
    }
}
