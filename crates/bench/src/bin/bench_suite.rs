//! The run line the perf-regression gate (`ab`) reads, the in-run A/B
//! verdicts, and a human summary of both. It writes no file unless
//! `--prof-trace` is given.
//!
//! Unlike the `fig*` binaries (which regenerate the paper's figures), this
//! harness measures what the repository benchmark (`perfbench/`, declared
//! in `BENCHMARK.json`) does not judge case by case — perfbench owns the
//! end-to-end offline, daemon and simulator numbers, and `fig2_complexity`
//! the Figure-2 engines' scaling:
//!
//! * **sweep** — the multi-seed post-run safety audit: deposet construction
//!   (vector-clock arena DP) plus `verify::sweep_faulty_run` per seed, one
//!   seed after another on one thread;
//! * **slicing** — the computation-slicing fast path: slice construction,
//!   sliced detect + control, and the pruning ratio;
//! * **overlap** — the many-intervals `find_overlap` case (Lemma 2's
//!   infeasibility search);
//! * **streaming** — the telemetry-off and flight-off A/B ratios of the
//!   daemon's append path, run in interleaved rounds.
//!
//! Each timed case gives one reading, the wall time of at least 50 ms of
//! its work at full size: its chunk count times its fastest chunk, where a
//! chunk is a fixed share of the case's repetitions. The four cases run
//! their chunks in `ROUNDS` interleaved rounds, so that a spell in which
//! the host runs this process slower covers some chunks of every case, not
//! all of one (EXPERIMENTS "One benchmark harness"). The last stdout line
//! is one JSON object, `{"metrics": {NAME: {"value", "unit", "better",
//! "bound"}}}`, holding the four timed readings and the slicing pruning
//! ratio, each declaring its direction and its bound. The gate is `ab`
//! running two builds of this binary interleaved; this binary compares
//! nothing with a recorded file.
//!
//! Before the run line, every run hard-asserts the invariants of its cases
//! (the slice prunes the lattice and agrees with brute force, the overlap
//! case has intervals, both A/B controls measured a throughput) and prints
//! three verdicts: flight recorder and request telemetry each cost below
//! 5% of an append round trip, and the disabled profiler below 2% of the
//! sweep. The process then exits 2 if a verdict failed. Under `--smoke`
//! (run on noisy CI runners) the two A/B verdicts only warn unless
//! `--strict` is also given. `--inject-slowdown PCT` synthetically worsens
//! both A/B overheads, so those verdicts can be integration-tested.
//!
//! After the timed rounds (so measurement is never perturbed) one
//! profiler-enabled sweep round runs with `pctl_obs::prof`: its phase
//! report prints, `--prof-trace FILE` exports it as a Chrome `trace_event`
//! file for Perfetto, and the measured disabled-span cost bounds profiler
//! overhead.
//!
//! Usage: `bench_suite [--smoke] [--inject-slowdown PCT] [--strict]
//!   [--prof-trace FILE]`

use pctl_bench::ab::{json_line, Metric, RunLine};
use pctl_core::offline::{Engine, OfflineOptions, SelectPolicy};
use pctl_core::verify::sweep_faulty_run;
use pctl_core::PredicateEngine;
use pctl_deposet::generator::{
    cs_workload, pipelined_workload, random_deposet, CsConfig, RandomConfig,
};
use pctl_deposet::{
    Deposet, DisjunctivePredicate, EventKind, FalseIntervals, LocalPredicate, LocalState, Message,
    PredicateClass, RegularPredicate, SlicedDeposet,
};
use pctl_obs::prof;
use pctl_obs::stats::Percentiles;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

struct Args {
    smoke: bool,
    inject_slowdown: f64,
    strict: bool,
    prof_trace: Option<PathBuf>,
}

const USAGE: &str = "usage: bench_suite [--smoke] [--inject-slowdown PCT] [--strict] \
  [--prof-trace FILE]";

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
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

// --------------------------------------------------------------- readings --

/// Interleaved rounds of the timed cases: every case runs one chunk per
/// round, so each runs at least as many chunks as its reading stands for.
const ROUNDS: usize = 100;

/// One timed case. `chunk` runs a fixed share of the case's repetitions
/// and returns the time it measured; the reading stands for `chunks` of
/// them, at least 50 ms of work at full size.
struct Timed<'a> {
    name: &'static str,
    chunks: usize,
    chunk: Box<dyn FnMut() -> Duration + 'a>,
    fastest: Duration,
}

impl<'a> Timed<'a> {
    fn new(name: &'static str, chunks: usize, chunk: impl FnMut() -> Duration + 'a) -> Self {
        assert!(chunks <= ROUNDS, "{name}: a reading stands for work it ran");
        Timed {
            name,
            chunks,
            chunk: Box::new(chunk),
            fastest: Duration::MAX,
        }
    }

    /// The reading in milliseconds: the chunk count times the fastest
    /// chunk.
    fn ms(&self) -> f64 {
        self.fastest.as_secs_f64() * 1e3 * self.chunks as f64
    }
}

/// Runs [`ROUNDS`] rounds of one chunk of every case, in a rotating order
/// so that no case always runs first, and keeps each case's fastest chunk.
fn interleave(cases: &mut [Timed]) {
    for round in 0..ROUNDS {
        for i in 0..cases.len() {
            let case = &mut cases[(round + i) % cases.len()];
            case.fastest = case.fastest.min((case.chunk)());
        }
    }
}

/// The wall time of `reps` runs of `f`.
fn timed<T>(reps: usize, mut f: impl FnMut() -> T) -> Duration {
    let t0 = Instant::now();
    for _ in 0..reps {
        black_box(f());
    }
    t0.elapsed()
}

// ---------------------------------------------------------------- slicing --

/// Chunks per slicing reading: a slice build takes 4–5 µs at full size
/// and a sliced detect + control 6–7 µs, so a reading of 64 chunks of 250
/// reps is 60–100 ms.
const SLICING_CHUNKS: usize = 64;

/// The regular-predicate fast path's workload: a critical-section
/// computation and a conjunctive-of-locals violation (processes 0 and 1
/// inside their critical sections at once — a cut the disjunctive engine
/// cannot even express).
struct Slicing {
    dep: Deposet,
    violation: RegularPredicate,
    class: PredicateClass,
    /// Reps per chunk.
    reps: usize,
}

impl Slicing {
    /// Builds the workload, checks it once and returns it with its pruning
    /// ratio. The ratio is counted exhaustively on both sides — consistent
    /// cuts of the full lattice vs consistent cuts surviving in the slice —
    /// so "exponential pruning" stays a measured number. The unsliced
    /// comparator is the brute-force lattice BFS, the only way to answer
    /// the same question without a slice; its verdict is hard-asserted to
    /// agree with the sliced one. Prints the case.
    fn new(smoke: bool) -> (Self, f64) {
        use pctl_deposet::lattice;

        let (n, sections, budget, reps) = if smoke {
            (3usize, 3usize, 1_000_000usize, 25usize)
        } else {
            (4, 8, 20_000_000, 250)
        };
        let cfg = CsConfig {
            processes: n,
            sections_per_process: sections,
            ..CsConfig::default()
        };
        let dep = cs_workload(&cfg, 7);
        let violation = RegularPredicate::conj_var(&[0, 1], "cs");
        let class = PredicateClass::regular(n as u32, violation.clone());
        let case = Slicing {
            dep,
            violation,
            class,
            reps,
        };

        // Exhaustive (budgeted) cut counts on both sides of the prune.
        let slice = case.construct();
        let lattice_cuts = lattice::count_consistent_global_states(&case.dep, budget)
            .expect("slicing workload must stay within the enumeration budget");
        let slice_cuts = slice
            .cut_count(budget)
            .expect("the slice lattice embeds into the full lattice");
        assert!(
            lattice_cuts >= slice_cuts && slice_cuts > 0,
            "the slice keeps a nonempty subset of the lattice: {lattice_cuts} → {slice_cuts}"
        );
        let pruning_ratio = lattice_cuts as f64 / slice_cuts as f64;
        assert!(pruning_ratio > 1.0, "the slice prunes no cut");
        assert!(slice.surviving_states() <= case.dep.total_states());

        let (detected, feasible) = case.detect_and_control();
        let brute = lattice::possibly(&case.dep, budget, |d, g| case.violation.eval(d, g))
            .expect("within the enumeration budget");
        assert_eq!(
            detected,
            brute.is_some(),
            "sliced and brute-force detection must agree on the same workload"
        );

        println!(
            "  slicing cs_n{n}_p{sections} cuts: {lattice_cuts} lattice → {slice_cuts} slice \
             (pruning {pruning_ratio:.1}x)  states: {}/{} survive in {} class(es)  \
             feasible={feasible}",
            slice.surviving_states(),
            case.dep.total_states(),
            slice.class_count()
        );
        (case, pruning_ratio)
    }

    /// One slice construction.
    fn construct(&self) -> SlicedDeposet {
        SlicedDeposet::build(&self.dep, &self.violation)
            .expect("violation is a valid regular class")
    }

    /// Slice-then-delegate detection and control synthesis: whether a
    /// violation was found, and whether control is feasible. The engine
    /// keeps its slice once control has built it, so every call starts a
    /// fresh one.
    fn detect_and_control(&self) -> (bool, bool) {
        let opts = OfflineOptions {
            policy: SelectPolicy::First,
            engine: Engine::Optimized,
        };
        let eng = PredicateEngine::for_class(&self.dep, &self.class).expect("valid class");
        (eng.detect_violation().is_some(), eng.control(opts).is_ok())
    }
}

// ---------------------------------------------------------------- overlap --

/// Searches per chunk, and chunks per reading: one search takes ~19 µs at
/// full size, so a reading of 3,600 searches is 60–70 ms.
const OVERLAP_REPS: usize = 50;
const OVERLAP_CHUNKS: usize = 72;

/// Pathological many-intervals input for the worklist `find_overlap`: a
/// pipelined workload with many critical sections yields one false
/// interval per section per process under `∨ᵢ ¬csᵢ`, the shape where the
/// old quadratic restart-from-scratch scan cost `O(T·n²)` checks. Prints
/// the case.
fn overlap_case(smoke: bool) -> (Deposet, FalseIntervals) {
    let (n, sections) = if smoke { (3usize, 8usize) } else { (8, 256) };
    let cfg = CsConfig {
        processes: n,
        sections_per_process: sections,
        ..CsConfig::default()
    };
    let dep = pipelined_workload(&cfg, 13);
    let pred = DisjunctivePredicate::at_least_one_not(n, "cs");
    let intervals = FalseIntervals::extract(&dep, &pred);
    assert!(
        intervals.total() > 0,
        "the overlap case has false intervals"
    );
    let witness = pctl_deposet::store::find_overlap(&dep, &intervals);
    println!(
        "  overlap pipelined_n{n}_p{sections} intervals={} found={}",
        intervals.total(),
        witness.is_some()
    );
    (dep, intervals)
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
///
/// Prints the section and returns the telemetry and the flight overhead:
/// the percent more time the default config's append round trip takes
/// than the telemetry-off, and the flight-off, one sent beside it.
fn run_streaming(smoke: bool) -> [f64; 2] {
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

    let per_sec = |rtts: &[u64]| {
        let p50_ns = Percentiles::of(rtts).expect("at least one append").p50;
        1e9 / p50_ns.max(1) as f64
    };
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
    let per_sec = [0, 1, 2].map(|d| per_sec(&rtt_ns[d]));
    assert!(
        per_sec.iter().all(|&r| r > 0.0),
        "every configuration measured a throughput: {per_sec:?}"
    );
    let overheads = [1, 2].map(|d| overhead_pct(&rtt_ns[d]));
    println!(
        "  streaming random_n{n}_e{events} ({rounds} interleaved rounds) append: \
         {:.0} events/s on, {:.0} telemetry off ({:+.1}%), {:.0} flight off ({:+.1}%)",
        per_sec[0], per_sec[1], overheads[0], per_sec[2], overheads[1]
    );
    overheads
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

/// Pre-generated deposet raw parts (kept outside the timed region so the
/// bench measures clock construction + sweep, not workload generation).
type Parts = (Vec<Vec<LocalState>>, Vec<Vec<EventKind>>, Vec<Message>);

/// One seed's measured unit: deposet construction from pre-built parts
/// (the vector-clock DP) plus the full safety sweep.
fn sweep_one(parts: &Parts, witness: &LocalPredicate) -> (SweepOutcome, Duration) {
    let (states, events, messages) = parts.clone();
    let t0 = Instant::now();
    let dep = Deposet::from_parts(states, events, messages).expect("generated parts are valid");
    let report = sweep_faulty_run(&dep, witness);
    let took = t0.elapsed();
    (
        SweepOutcome {
            fully_safe: report.fully_safe(),
            safe_modulo_crashes: report.safe_modulo_crashes(),
            unwitnessed: report.unwitnessed_cut.map(|g| g.indices().to_vec()),
            clean: report.clean_violation.map(|g| g.indices().to_vec()),
            down_windows: report.down_windows.len(),
        },
        took,
    )
}

/// Rounds over every seed per sweep reading; one round is a chunk, ~5 ms
/// at full size.
const SWEEP_CHUNKS: usize = 14;

/// The sweep's seeds, as pre-generated parts.
struct Sweep {
    parts: Vec<Parts>,
    witness: LocalPredicate,
}

impl Sweep {
    /// Generates the seeds and prints the case.
    fn new(smoke: bool) -> Self {
        let (seeds, processes, events) = if smoke {
            (3usize, 3usize, 120usize)
        } else {
            (16, 8, 6000)
        };
        let cfg = RandomConfig {
            processes,
            events,
            send_prob: 0.3,
            flip_prob: 0.3,
        };
        let parts: Vec<Parts> = (0..seeds as u64)
            .map(|seed| random_deposet(&cfg, seed).into_parts())
            .collect();
        let states: usize = parts
            .iter()
            .map(|(states, _, _)| states.iter().map(Vec::len).sum::<usize>())
            .sum();
        println!("  sweep seeds={seeds} states={states}");
        Sweep {
            parts,
            witness: LocalPredicate::var("ok"),
        }
    }

    /// One round over every seed: the outcomes, and the summed time of
    /// the measured units.
    fn round(&self) -> (Vec<SweepOutcome>, Duration) {
        let mut took = Duration::ZERO;
        let outcomes = self
            .parts
            .iter()
            .map(|p| {
                let (outcome, t) = sweep_one(p, &self.witness);
                took += t;
                outcome
            })
            .collect();
        (outcomes, took)
    }
}

/// Bound the profiler's disabled-path cost: the spans one sweep round
/// completes, times the measured per-span disabled cost, must stay below
/// 2% of that round's wall time.
fn check_disabled_overhead(prof_report: &prof::ProfReport, round_ns: u64) -> (f64, u64, f64) {
    let spans = prof_report.span_count();
    let per_span_ns = prof::disabled_span_cost_ns(1_000_000);
    let overhead_ns = spans as f64 * per_span_ns;
    let pct = overhead_ns / round_ns.max(1) as f64 * 100.0;
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

/// The run line `ab` reads: the timed readings of this run and the
/// slicing pruning ratio, each with the direction in which it is better
/// and [`BOUND`].
fn run_line(cases: &[Timed], pruning_ratio: f64) -> RunLine {
    let timed = cases.iter().map(|c| (c.name, c.ms(), "ms", "lower"));
    // Deterministic for the fixed workload: a drop means the slice got
    // less selective, which is a correctness smell as much as a perf one.
    let ratio = ("slicing_pruning_ratio", pruning_ratio, "ratio", "higher");
    let metrics = timed.chain([ratio]).map(|(name, value, unit, better)| {
        let metric = Metric {
            value,
            unit: unit.to_string(),
            better: Some(better.to_string()),
            bound: Some(BOUND),
        };
        (name.to_string(), metric)
    });
    RunLine {
        attempted: None,
        failed: None,
        metrics: metrics.collect(),
    }
}

fn main() {
    let args = parse_args();
    // Smoke runs are CI's, on noisy runners.
    let enforced = !args.smoke || args.strict;
    let slow = 1.0 + args.inject_slowdown / 100.0;
    let mut verdicts = Verdicts::default();

    let [telemetry_pct, flight_pct] = run_streaming(args.smoke);
    // Injection worsens the default config's throughput: its round trips
    // grow by the injected factor, against both controls.
    for (what, pct) in [
        ("request telemetry", telemetry_pct),
        ("flight recorder", flight_pct),
    ] {
        let pct = ((1.0 + pct / 100.0) * slow - 1.0) * 100.0;
        verdicts.check(
            pct <= 5.0,
            enforced,
            format!("{what} overhead {pct:+.1}% (budget 5%)"),
        );
    }

    let (dep, intervals) = overlap_case(args.smoke);
    let (slicing, pruning_ratio) = Slicing::new(args.smoke);
    let sweep = Sweep::new(args.smoke);
    let (outcomes, _) = sweep.round();
    let mut cases = [
        Timed::new("overlap_ms", OVERLAP_CHUNKS, || {
            timed(OVERLAP_REPS, || {
                pctl_deposet::store::find_overlap(&dep, &intervals)
            })
        }),
        Timed::new("slicing_construct_ms", SLICING_CHUNKS, || {
            timed(slicing.reps, || slicing.construct())
        }),
        Timed::new("slicing_control_ms", SLICING_CHUNKS, || {
            timed(slicing.reps, || slicing.detect_and_control())
        }),
        Timed::new("sweep_ms", SWEEP_CHUNKS, || sweep.round().1),
    ];
    interleave(&mut cases);
    println!("timed ({ROUNDS} interleaved rounds; a reading is chunks × fastest chunk):");
    for case in &cases {
        println!(
            "  {:<22} {:>3} × {:>9.3?} = {:.1}ms",
            case.name,
            case.chunks,
            case.fastest,
            case.ms()
        );
    }
    // The sweep's fastest round.
    let round_ns = nanos(cases[3].fastest);

    // One profiler-enabled sweep round, strictly after the timed rounds so
    // instrumentation can never perturb the measurements. Its phase report
    // both bounds profiler overhead and feeds the Chrome trace export.
    prof::reset();
    prof::set_enabled(true);
    let (prof_outcomes, _) = sweep.round();
    prof::set_enabled(false);
    assert_eq!(
        prof_outcomes, outcomes,
        "profiling is observational: the profiled round must be bit-identical"
    );
    let prof_report = prof::report();
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
    let (per_span_ns, spans, overhead_pct) = check_disabled_overhead(&prof_report, round_ns);
    verdicts.check(
        overhead_pct < 2.0,
        true,
        format!(
            "disabled profiler overhead {overhead_pct:.4}% of the sweep (budget 2%; \
             {per_span_ns:.2}ns/span × {spans} spans over {round_ns}ns)"
        ),
    );

    println!("verdicts:");
    for line in &verdicts.lines {
        println!("  {line}");
    }
    println!("{}", json_line(&run_line(&cases, pruning_ratio)));
    if verdicts.failed > 0 {
        eprintln!("FAIL: {} verdict(s) failed", verdicts.failed);
        std::process::exit(2);
    }
}
