//! The persisted perf trajectory: `BENCH_offline.json` + `BENCH_sweep.json`,
//! and the run line the perf-regression gate (`ab`) reads.
//!
//! Unlike the `fig*` binaries (which regenerate the paper's figures), this
//! harness records the repository's performance trajectory PR over PR. It
//! measures only what the repository benchmark (`perfbench/`, declared in
//! `BENCHMARK.json`) does not — perfbench owns the end-to-end daemon and
//! simulator numbers:
//!
//! * **offline** — false-interval extraction + off-line control synthesis
//!   (the paper's Figure 2 algorithm) on critical-section and pipelined
//!   workloads, plus the many-intervals `find_overlap` case and the
//!   computation-slicing fast path;
//! * **streaming** — the telemetry-off and flight-off A/B ratios of the
//!   daemon's append path, run in interleaved rounds;
//! * **sweep** — the multi-seed post-run safety audit: deposet construction
//!   (vector-clock arena DP) plus `verify::sweep_faulty_run` per seed, one
//!   seed after another on one thread.
//!
//! Reports are round-trip validated before they are written. The last
//! stdout line is one JSON object, `{"metrics": {NAME: {"value", "unit",
//! "better", "bound"}}}`, holding the six numbers the gate judges, each
//! declaring its direction and its bound: three of the sweep and three of
//! the slicing section. The gate is `ab` running two builds of this binary
//! interleaved; this binary compares nothing with a recorded file.
//! `--inject-slowdown PCT` synthetically worsens the flight-on throughput,
//! so the flight verdict can be integration-tested.
//!
//! After the timed rounds (so measurement is never perturbed) one
//! profiler-enabled sweep round runs with `pctl_obs::prof`: its phase
//! report prints, `--prof-trace FILE` exports it as a Chrome `trace_event`
//! file for Perfetto, and the measured disabled-span cost bounds profiler
//! overhead.
//!
//! Two verdicts are collected and printed together before the run line:
//! flight recorder overhead below 5%, and disabled-profiler overhead below
//! 2% of the sweep. Both are A/B comparisons inside this one run. The
//! process then exits 2 if either failed. Under `--smoke` (run on noisy
//! CI runners) the flight verdict only warns unless `--strict` is also
//! given.
//!
//! Usage: `bench_suite [--smoke] [--out-dir DIR] [--inject-slowdown PCT]
//!   [--strict] [--prof-trace FILE]`

use pctl_bench::ab::{Metric, RunLine};
use pctl_bench::report::{
    OfflineCase, OfflineReport, OverlapCase, SlicingBench, StreamingBench, SweepReport, WallStats,
    SCHEMA,
};
use pctl_core::offline::{control_intervals, Engine, OfflineOptions, SelectPolicy};
use pctl_core::verify::sweep_faulty_run;
use pctl_core::PredicateEngine;
use pctl_deposet::generator::{
    cs_workload, pipelined_workload, random_deposet, CsConfig, RandomConfig,
};
use pctl_deposet::{
    Deposet, DisjunctivePredicate, FalseIntervals, LocalPredicate, PredicateClass,
    RegularPredicate, SlicedDeposet,
};
use pctl_obs::prof;
use pctl_obs::stats::Percentiles;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

struct Args {
    smoke: bool,
    out_dir: PathBuf,
    inject_slowdown: f64,
    strict: bool,
    prof_trace: Option<PathBuf>,
}

const USAGE: &str = "usage: bench_suite [--smoke] [--out-dir DIR] \
  [--inject-slowdown PCT] [--strict] [--prof-trace FILE]";

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        out_dir: PathBuf::from("."),
        inject_slowdown: 0.0,
        strict: false,
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
            "--prof-trace" => args.prof_trace = Some(PathBuf::from(value("--prof-trace", &mut it))),
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
fn nanos(d: Duration) -> u64 {
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

fn run_offline(smoke: bool) -> Vec<OfflineCase> {
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
    cases
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

    // Slice-then-delegate detect + control synthesis. The engine keeps its
    // slice once control has built it, so every rep starts a fresh one.
    let opts = OfflineOptions {
        policy: SelectPolicy::First,
        engine: Engine::Optimized,
    };
    let mut sliced = Vec::with_capacity(reps);
    let mut detected = None;
    let mut feasible = false;
    for _ in 0..reps {
        let t0 = Instant::now();
        let eng = PredicateEngine::for_class(&dep, &class).expect("valid class");
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

/// The telemetry and flight-recorder A/B: one daemon per configuration
/// (default, telemetry off, flight off) stays up for the whole section, so
/// the flight sampler runs at its steady-state interval; a fresh daemon per
/// pass measures its start-up instead. Each round streams the same
/// computation into a fresh session on every daemon, interleaved per
/// append: every op goes to all three daemons back to back, in the next of
/// the six orders, so drift on the host lands on the configurations alike
/// and none of them is systematically first.
///
/// Each overhead is the median over rounds of the round's median per-op
/// ratio of those back-to-back round trips. The per-op median ignores the
/// appends a preemption stretches by milliseconds. The median over rounds
/// ignores the spells, 3–8 rounds long, in which one daemon answers
/// systematically slower than the others. On a 2-vCPU host (debug build,
/// smoke size), single rounds of an A/A run (three default daemons) read
/// up to +99%; a nine-round median once read +20% flight overhead where
/// the usual is +1%, and 27-round A/A medians stayed within ±1.8% over 12
/// runs. The connections stay open for the whole section: reconnecting
/// each round made such spells more frequent.
fn run_streaming(smoke: bool) -> StreamingBench {
    use pctld::{Client, Config, Daemon, Response, RetryPolicy};

    // Every order of the three configurations.
    const ORDERS: [[usize; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    let rounds = 27;
    let (n, events) = if smoke { (3usize, 200usize) } else { (4, 1200) };
    let cfg = RandomConfig {
        processes: n,
        events,
        send_prob: 0.3,
        flip_prob: 0.3,
    };
    let dep = random_deposet(&cfg, 17);
    let locals = DisjunctivePredicate::at_least_one(n, "ok")
        .locals()
        .to_vec();
    let (init, ops) = pctl_deposet::linearize(&dep);

    let daemons: Vec<Daemon> = [
        Config::default(),
        Config {
            telemetry: false,
            ..Config::default()
        },
        Config {
            flight: false,
            ..Config::default()
        },
    ]
    .into_iter()
    .map(|c| Daemon::spawn(c).expect("bind streaming bench daemon"))
    .collect();
    let mut clients: Vec<Client> = daemons
        .iter()
        .map(|d| Client::connect(d.local_addr()).expect("connect"))
        .collect();

    // Per configuration, every append's round trip, in the same op order.
    let mut rtt_ns: [Vec<u64>; 3] = Default::default();
    for round in 0..rounds {
        let session = format!("ab-{round}");
        for c in &mut clients {
            let hello = c.hello(&session, locals.clone(), Some(init.clone()));
            assert_eq!(hello.expect("hello"), Response::Ok);
        }
        for (i, op) in ops.iter().enumerate() {
            for &d in &ORDERS[i % ORDERS.len()] {
                let op = op.clone();
                let t0 = Instant::now();
                match clients[d]
                    .append_retry(&session, op, RetryPolicy::default())
                    .expect("append")
                {
                    Response::Ok => {}
                    other => panic!("append refused mid-bench: {other:?}"),
                }
                rtt_ns[d].push(nanos(t0.elapsed()));
            }
        }
        for c in &mut clients {
            assert_eq!(c.close(&session).expect("close"), Response::Ok);
        }
    }
    drop(clients);
    for d in daemons {
        assert_eq!(d.shutdown(), 0, "bench daemon must drain cleanly");
    }

    let per_sec = |rtts: &[u64]| 1e6 / WallStats::of(rtts).p50_us.max(1e-3);
    // Per-op on/off round-trip ratios in parts per million, so the one
    // percentile implementation takes the medians.
    let overhead_pct = |off: &[u64]| {
        let round_p50: Vec<u64> = rtt_ns[0]
            .chunks(ops.len())
            .zip(off.chunks(ops.len()))
            .map(|(on, off)| {
                let ppm: Vec<u64> = on
                    .iter()
                    .zip(off)
                    .map(|(on, off)| on * 1_000_000 / off.max(&1))
                    .collect();
                Percentiles::of(&ppm).expect("at least one op").p50
            })
            .collect();
        let p50 = Percentiles::of(&round_p50).expect("at least one round").p50;
        (p50 as f64 / 1e6 - 1.0) * 100.0
    };
    StreamingBench {
        workload: format!("random_n{n}_e{events}"),
        processes: n,
        events: ops.len(),
        rounds,
        append_events_per_sec: per_sec(&rtt_ns[0]),
        append_events_per_sec_telemetry_off: per_sec(&rtt_ns[1]),
        append_events_per_sec_flight_off: per_sec(&rtt_ns[2]),
        telemetry_overhead_pct: overhead_pct(&rtt_ns[1]),
        flight_overhead_pct: overhead_pct(&rtt_ns[2]),
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

fn run_sweep(smoke: bool) -> (SweepReport, prof::ProfReport) {
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

    let mut samples = Vec::new();
    let mut total_ns = u64::MAX;
    let mut outcomes: Vec<SweepOutcome> = Vec::new();
    for _ in 0..rounds {
        let t0 = Instant::now();
        let round: Vec<(SweepOutcome, u64)> =
            parts.iter().map(|p| sweep_one(p, &witness)).collect();
        let total = nanos(t0.elapsed());
        total_ns = total_ns.min(total);
        outcomes = round.iter().map(|(o, _)| o.clone()).collect();
        samples.extend(round.iter().map(|(_, ns)| *ns));
    }

    // One profiler-enabled round, strictly after the timed rounds so
    // instrumentation can never perturb the measurements. The resulting
    // phase report both bounds profiler overhead (see main) and feeds the
    // Chrome trace export.
    prof::reset();
    prof::set_enabled(true);
    let prof_outcomes: Vec<SweepOutcome> = parts.iter().map(|p| sweep_one(p, &witness).0).collect();
    prof::set_enabled(false);
    let prof_report = prof::report();
    assert_eq!(
        prof_outcomes, outcomes,
        "profiling is observational: the profiled round must be bit-identical"
    );

    let report = SweepReport {
        schema: SCHEMA.into(),
        bench: "sweep".into(),
        smoke,
        seeds,
        processes,
        events_per_seed: events,
        states_total,
        per_seed: WallStats::of(&samples),
        total_ms: total_ns as f64 / 1e6,
    };
    (report, prof_report)
}

/// Bound the profiler's disabled-path cost: the spans one sweep round
/// completes, times the measured per-span disabled cost, must stay below
/// 2% of the sweep's wall time.
fn check_disabled_overhead(prof_report: &prof::ProfReport, sweep_ns: u64) -> (f64, u64, f64) {
    let spans = prof_report.span_count();
    let per_span_ns = prof::disabled_span_cost_ns(1_000_000);
    let overhead_ns = spans as f64 * per_span_ns;
    let run_ns = sweep_ns.max(1) as f64;
    let pct = overhead_ns / run_ns * 100.0;
    (per_span_ns, spans, pct)
}

/// The run's pass/fail checks, printed together at the end so that one
/// failure never hides the others.
#[derive(Default)]
struct Verdicts {
    lines: Vec<String>,
    failed: usize,
}

impl Verdicts {
    /// Record one check. An unenforced failure (a `--smoke` check without
    /// `--strict`) is reported as a warning and does not fail the run.
    fn check(&mut self, passed: bool, enforced: bool, what: String) {
        let tag = if passed {
            "ok"
        } else if enforced {
            self.failed += 1;
            "FAIL"
        } else {
            "WARNING (--smoke, not failing; pass --strict to fail)"
        };
        self.lines.push(format!("{tag}: {what}"));
    }
}

/// How much worse than A a number of the run line may read on B before
/// `ab` calls it regressed.
const BOUND: f64 = 0.25;

/// The run line `ab` reads: the six numbers of this run that it judges,
/// each with the direction in which it is better and [`BOUND`].
fn run_line(sweep: &SweepReport, sl: &SlicingBench) -> RunLine {
    let (per_seed, construct, control) = (&sweep.per_seed, &sl.slice_construct, &sl.sliced_control);
    let metrics = [
        ("sweep_total_ms", sweep.total_ms, "ms", "lower"),
        ("sweep_per_seed_p50_us", per_seed.p50_us, "us", "lower"),
        ("sweep_per_seed_p95_us", per_seed.p95_us, "us", "lower"),
        ("slicing_construct_p50_us", construct.p50_us, "us", "lower"),
        ("slicing_control_p50_us", control.p50_us, "us", "lower"),
        // Deterministic for the fixed workload: a drop means the slice got
        // less selective, which is a correctness smell as much as a perf one.
        ("slicing_pruning_ratio", sl.pruning_ratio, "ratio", "higher"),
    ];
    let metrics = metrics.map(|(name, value, unit, better)| {
        let (unit, better, bound) = (unit.to_string(), Some(better.to_string()), Some(BOUND));
        let metric = Metric {
            value,
            unit,
            better,
            bound,
        };
        (name.to_string(), metric)
    });
    RunLine {
        attempted: None,
        failed: None,
        metrics: BTreeMap::from(metrics),
    }
}

fn main() {
    let args = parse_args();
    std::fs::create_dir_all(&args.out_dir).expect("create out dir");
    // Smoke runs are CI's, on noisy runners.
    let enforced = !args.smoke || args.strict;
    let slow = 1.0 + args.inject_slowdown / 100.0;
    let mut verdicts = Verdicts::default();

    let offline = OfflineReport {
        schema: SCHEMA.into(),
        bench: "offline".into(),
        smoke: args.smoke,
        cases: run_offline(args.smoke),
        overlap: run_overlap(args.smoke),
        streaming: run_streaming(args.smoke),
        slicing: run_slicing(args.smoke),
    };
    let path = args.out_dir.join("BENCH_offline.json");
    pctl_bench::report::write_validated(&path, &offline).expect("write BENCH_offline.json");
    println!("wrote {} ({} cases)", path.display(), offline.cases.len());
    for c in &offline.cases {
        println!(
            "  {:<24} {:<9} states={:<6} p50={:.1}us p95={:.1}us  {:.0} states/s",
            c.name, c.engine, c.states, c.wall.p50_us, c.wall.p95_us, c.states_per_sec
        );
    }
    let o = &offline.overlap;
    println!(
        "  overlap {} intervals={} p50={:.1}us p95={:.1}us found={}",
        o.workload, o.intervals_total, o.wall.p50_us, o.wall.p95_us, o.found
    );
    let s = &offline.streaming;
    println!(
        "  streaming {} ({} interleaved rounds) append: {:.0} events/s on, \
         {:.0} telemetry off ({:+.1}%), {:.0} flight off ({:+.1}%)",
        s.workload,
        s.rounds,
        s.append_events_per_sec,
        s.append_events_per_sec_telemetry_off,
        s.telemetry_overhead_pct,
        s.append_events_per_sec_flight_off,
        s.flight_overhead_pct
    );
    // Injection worsens the flight-on throughput: its round trips grow by
    // the injected factor.
    let flight_pct = ((1.0 + s.flight_overhead_pct / 100.0) * slow - 1.0) * 100.0;
    verdicts.check(
        flight_pct <= 5.0,
        enforced,
        format!("flight recorder overhead {flight_pct:+.1}% (budget 5%)"),
    );
    let sl = &offline.slicing;
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

    let (sweep, prof_report) = run_sweep(args.smoke);
    let path = args.out_dir.join("BENCH_sweep.json");
    pctl_bench::report::write_validated(&path, &sweep).expect("write BENCH_sweep.json");
    println!(
        "wrote {} (seeds={} states={})",
        path.display(),
        sweep.seeds,
        sweep.states_total
    );
    println!(
        "  total={:.1}ms p50={:.1}us p95={:.1}us  {:.0} states/s",
        sweep.total_ms,
        sweep.per_seed.p50_us,
        sweep.per_seed.p95_us,
        sweep.states_total as f64 / (sweep.total_ms.max(1e-6) / 1e3)
    );

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
    let sweep_ns = (sweep.total_ms * 1e6) as u64;
    let (per_span_ns, spans, overhead_pct) = check_disabled_overhead(&prof_report, sweep_ns);
    verdicts.check(
        overhead_pct < 2.0,
        true,
        format!(
            "disabled profiler overhead {overhead_pct:.4}% of the sweep (budget 2%; \
             {per_span_ns:.2}ns/span × {spans} spans over {sweep_ns}ns)"
        ),
    );

    println!("verdicts:");
    for line in &verdicts.lines {
        println!("  {line}");
    }
    println!("{}", pctl_bench::report::json_line(&run_line(&sweep, sl)));
    if verdicts.failed > 0 {
        eprintln!("FAIL: {} verdict(s) failed", verdicts.failed);
        std::process::exit(2);
    }
}
