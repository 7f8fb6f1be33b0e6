//! `offline_batch`: the off-line debugging loop of paper §5/§7, from trace
//! JSON bytes to verdict and strategy, with no socket and no simulator.
//!
//! Each trace is decoded, built into a `Deposet`, then analysed under the
//! disjunctive predicate `∨ᵢ ¬csᵢ` (detect; Figure-2 control or the
//! Lemma-2 overlap witness; the controlled computation for every `Ok`
//! relation) and under the regular violation `cs₀ ∧ cs₁` (slice, detect).

use crate::common::{
    input_latency, layer_table, peak_rss_mb, repeated_setup, span_totals, start_unit, traced_at,
    write_spans, Digest, Outcome, Rng, Tracer,
};
use crate::RunCfg;
use pctl_core::offline::Engine;
use pctl_core::verify::verify_disjunctive;
use pctl_core::{ControlledDeposet, OfflineOptions, PredicateEngine};
use pctl_deposet::generator::{
    cs_workload, pipelined_workload, random_deposet, CsConfig, RandomConfig,
};
use pctl_deposet::trace::{to_json, Trace};
use pctl_deposet::{
    store, DisjunctivePredicate, LocalPredicate, PredicateClass, ProcessId, RegularPredicate,
};
use std::time::Instant;

/// Size range of the stratified traces. Decoding trace JSON costs time
/// quadratic in its length with the vendored `serde_json` (every string
/// character re-validates the rest of the input as UTF-8): 1 MB takes
/// seconds and 3 MB tens of seconds. Traces of at most 400 states keep a
/// trace at 1–7 ms and a pass over the corpus well under a second, so every
/// trace is timed on many short repeats and its fastest repeat is steady
/// from run to run on a shared machine.
const MIN_STATES: f64 = 100.0;
const MAX_STATES: f64 = 400.0;
/// State budget for the exhaustive `verify_disjunctive` on small traces.
const VERIFY_LIMIT: usize = 2_000_000;

struct Input {
    json: String,
    /// A three-process trace small enough for exhaustive verification.
    small: bool,
    /// A `random_deposet` trace over the variable `ok`; the others are
    /// critical-section traces over `cs`.
    random: bool,
}

/// The good disjunctive predicate B and the regular violation analysed on
/// a trace of `n` processes. Critical-section traces keep `∨ᵢ ¬csᵢ` and
/// look for `cs₀ ∧ cs₁`; random traces keep `∨ᵢ okᵢ` and look for
/// `¬ok₀ ∧ ¬ok₁`.
fn predicates(n: usize, random: bool) -> (DisjunctivePredicate, RegularPredicate) {
    if random {
        let not_ok = |p: u32| RegularPredicate::local(ProcessId(p), LocalPredicate::not_var("ok"));
        (
            DisjunctivePredicate::at_least_one(n, "ok"),
            RegularPredicate::And(vec![not_ok(0), not_ok(1)]),
        )
    } else {
        (
            DisjunctivePredicate::at_least_one_not(n, "cs"),
            RegularPredicate::conj_var(&[0, 1], "cs"),
        )
    }
}

/// What one trace's analysis produced; the exact counts of a pass are sums
/// of these and must repeat on every pass.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Verdict {
    states: usize,
    false_intervals: usize,
    feasible: bool,
    arrows: usize,
    detect: Option<Vec<u32>>,
    regular: Option<Vec<u32>>,
}

/// The corpus: small traces first, then traces whose sizes are spread
/// geometrically over [`MIN_STATES`, `MAX_STATES`]. Each trace's size,
/// family and process count follow from its place in the corpus; the seed
/// picks only the content, so every seed gets the same mix of shapes.
fn corpus(seed: u64, tiny: bool) -> (Vec<Input>, u64) {
    let (small, big, lo_states, hi_states) = if tiny {
        (3, 4, 100.0, 1_000.0)
    } else {
        (8, 192, MIN_STATES, MAX_STATES)
    };
    let mut rng = Rng::new(seed);
    let mut out = Vec::new();
    for i in 0..small {
        let random = i % 2 == 1;
        let dep = if random {
            let cfg = RandomConfig {
                processes: 3,
                events: 24,
                ..RandomConfig::default()
            };
            random_deposet(&cfg, rng.next_u64())
        } else {
            let cfg = CsConfig {
                processes: 3,
                sections_per_process: 3,
                max_cs_len: 3,
                max_gap_len: 3,
            };
            pipelined_workload(&cfg, rng.next_u64())
        };
        out.push(Input {
            json: to_json(&dep),
            small: true,
            random,
        });
    }
    for i in 0..big {
        let frac = (i as f64 + 0.5) / big as f64;
        let target = lo_states * (hi_states / lo_states).powf(frac);
        let content_seed = rng.next_u64();
        // Families by stratum: pipelined, random, pipelined, cs. Pipelined
        // and cs traces are always controllable (their messages never leave
        // a critical section); three-process random traces are infeasible
        // about half the time, which runs the Lemma-2 overlap search. With
        // more processes an overlapping set almost never occurs.
        let family = i % 4;
        let n = if family == 1 { 3 } else { 8 + (i * 7) % 25 };
        let sections =
            |per_section: f64| ((target / (n as f64 * per_section)).round() as usize).max(1);
        let cs_cfg = |per_section| CsConfig {
            processes: n,
            sections_per_process: sections(per_section),
            max_cs_len: 4,
            max_gap_len: 4,
        };
        let dep = match family {
            1 => random_deposet(
                &RandomConfig {
                    processes: n,
                    events: target as usize,
                    ..RandomConfig::default()
                },
                content_seed,
            ),
            3 => cs_workload(&cs_cfg(5.0), content_seed),
            _ => pipelined_workload(&cs_cfg(7.0), content_seed),
        };
        out.push(Input {
            json: to_json(&dep),
            small: false,
            random: family == 1,
        });
    }
    let mut digest = Digest::new();
    for input in &out {
        digest.bytes(input.json.as_bytes());
    }
    (out, digest.finish())
}

/// JSON bytes → verdict, with every output checked on the way.
fn analyse(input: &Input, id: u64, t: &mut Tracer) -> Result<Verdict, String> {
    t.enter("bench.trace", id);
    let trace: Trace = t
        .time("deposet.trace_decode", id, || {
            serde_json::from_str(&input.json)
        })
        .map_err(|e| format!("trace {id}: decode: {e}"))?;
    t.enter("deposet.build", id);
    if t.is_on() {
        pctl_prof::reset();
        pctl_prof::set_enabled(true);
    }
    let built = trace.into_deposet();
    if t.is_on() {
        pctl_prof::set_enabled(false);
        let clock_ns: u64 = pctl_prof::report()
            .phases
            .iter()
            .filter(|(path, _)| {
                path.ends_with("topo_order_chained") || path.ends_with("fill_fidge_mattern")
            })
            .map(|(_, p)| p.total_ns)
            .sum();
        t.child("causality.clock", id, clock_ns);
    }
    t.exit();
    let dep = built.map_err(|e| format!("trace {id}: build: {e}"))?;
    let n = dep.process_count();

    let (pred, violation) = predicates(n, input.random);
    let eng = t.time("deposet.index", id, || {
        PredicateEngine::new(&dep, pred.clone())
    });
    let false_intervals = dep.processes().map(|p| eng.intervals().of(p).len()).sum();
    let detect = t.time("core.detect", id, || eng.detect_violation());
    if let Some(g) = &detect {
        if !g.is_consistent(&dep) || pred.eval(&dep, g) {
            return Err(format!("trace {id}: detected cut is not a violation"));
        }
    }
    let (feasible, arrows) = match t.time("core.control", id, || {
        eng.control(OfflineOptions::default())
    }) {
        Ok(rel) => {
            let arrows = rel.len();
            t.time("core.controlled_build", id, || {
                ControlledDeposet::new(&dep, rel).map(drop)
            })
            .map_err(|e| format!("trace {id}: control relation does not build: {e}"))?;
            (true, arrows)
        }
        Err(inf) => {
            let w = t
                .time("core.witness", id, || eng.infeasibility_witness())
                .ok_or_else(|| format!("trace {id}: infeasible without an overlap witness"))?;
            if w.len() != n
                || !store::set_overlaps(&dep, &w)
                || !store::set_overlaps(&dep, &inf.witness)
            {
                return Err(format!("trace {id}: witness does not overlap"));
            }
            (false, 0)
        }
    };

    let class = PredicateClass::regular(n as u32, violation.clone());
    let reg = t
        .time("deposet.slice", id, || {
            PredicateEngine::for_class(&dep, &class)
        })
        .map_err(|e| format!("trace {id}: slice: {e}"))?;
    let regular = t.time("core.detect", id, || reg.detect_violation());
    if let Some(g) = &regular {
        if !g.is_consistent(&dep) || !violation.eval(&dep, g) {
            return Err(format!("trace {id}: sliced cut is not a violation"));
        }
    }
    let verdict = Verdict {
        states: dep.total_states(),
        false_intervals,
        feasible,
        arrows,
        detect: detect.map(|g| g.indices().to_vec()),
        regular: regular.map(|g| g.indices().to_vec()),
    };
    drop(reg);
    drop(eng);
    t.time("deposet.drop", id, || drop(dep));
    t.exit();
    Ok(verdict)
}

/// Checks made once per small trace after timing, outside the clock: the
/// naive engine gives the same verdict, and exhaustive verification passes.
fn cross_check(input: &Input, v: &Verdict, id: u64) -> Result<(), String> {
    let dep = pctl_deposet::trace::from_json(&input.json).map_err(|e| e.to_string())?;
    let (pred, _) = predicates(dep.process_count(), input.random);
    let eng = PredicateEngine::new(&dep, pred.clone());
    let naive = eng.control(OfflineOptions {
        engine: Engine::Naive,
        ..OfflineOptions::default()
    });
    if naive.is_ok() != v.feasible {
        return Err(format!("trace {id}: naive engine disagrees on feasibility"));
    }
    if let Ok(rel) = eng.control(OfflineOptions::default()) {
        verify_disjunctive(&dep, &pred, &rel, VERIFY_LIMIT)
            .map_err(|e| format!("trace {id}: verify: {e}"))?;
    }
    Ok(())
}

struct Pass {
    wall_ns: u64,
    verdicts: Vec<Verdict>,
    latencies_ms: Vec<f64>,
    errors: Vec<String>,
}

fn pass(inputs: &[Input], t: &mut Tracer) -> Pass {
    let t0 = Instant::now();
    let mut p = Pass {
        wall_ns: 0,
        verdicts: Vec::with_capacity(inputs.len()),
        latencies_ms: Vec::with_capacity(inputs.len()),
        errors: Vec::new(),
    };
    for (i, input) in inputs.iter().enumerate() {
        let start = Instant::now();
        let out = analyse(input, i as u64, t);
        p.latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
        match out {
            Ok(v) => p.verdicts.push(v),
            Err(e) => p.errors.push(e),
        }
    }
    p.wall_ns = t0.elapsed().as_nanos() as u64;
    p
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let ((inputs, bytes), setup_s, digest, digests_agree) = repeated_setup(|| {
        let (inputs, digest) = corpus(cfg.seed, cfg.tiny);
        let bytes: usize = inputs.iter().map(|i| i.json.len()).sum();
        ((inputs, bytes), digest)
    });
    println!(
        "offline_batch: seed {} corpus {} traces, {:.1} MiB of trace JSON, digest {digest:016x}",
        cfg.seed,
        inputs.len(),
        bytes as f64 / (1 << 20) as f64
    );
    let mut failed = u64::from(!digests_agree);
    let mut attempted = 1u64;

    // Each pass is checked as it ends and only its timings are kept, so
    // memory does not grow with the number of passes.
    let epoch = Instant::now();
    let mut tracer = Tracer::new(false, epoch);
    let mut first: Option<Vec<Verdict>> = None;
    let mut per_trace: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
    let (mut passes, mut traced_ns, mut untraced_ns) = (0, 0u64, 0u64);
    while start_unit(cfg, epoch, passes) {
        let traced = traced_at(cfg, passes);
        tracer.set_on(traced);
        let p = pass(&inputs, &mut tracer);
        if traced {
            traced_ns += p.wall_ns;
        } else {
            untraced_ns += p.wall_ns;
        }
        attempted += inputs.len() as u64;
        failed += p.errors.len() as u64;
        for e in &p.errors {
            eprintln!("offline_batch: {e}");
        }
        for (samples, &ms) in per_trace.iter_mut().zip(&p.latencies_ms) {
            samples.push(ms);
        }
        // Exact counts must repeat on every pass.
        match &first {
            None => first = Some(p.verdicts),
            Some(f) if *f != p.verdicts => {
                eprintln!("offline_batch: pass {passes} verdicts differ from pass 0");
                failed += 1;
            }
            Some(_) => {}
        }
        passes += 1;
    }
    tracer.set_on(false);

    let mut verdicts = first.expect("at least one pass");
    if cfg.corrupt {
        if let Some(v) = verdicts.first_mut() {
            v.feasible = !v.feasible;
        }
    }
    if verdicts.len() == inputs.len() {
        for (i, (input, v)) in inputs.iter().zip(&verdicts).enumerate() {
            if !input.small {
                continue;
            }
            attempted += 1;
            if let Err(e) = cross_check(input, v, i as u64) {
                eprintln!("offline_batch: {e}");
                failed += 1;
            }
        }
    }

    let states: usize = verdicts.iter().map(|v| v.states).sum();
    let intervals: usize = verdicts.iter().map(|v| v.false_intervals).sum();
    let arrows: usize = verdicts.iter().map(|v| v.arrows).sum();
    let feasible = verdicts.iter().filter(|v| v.feasible).count();
    println!(
        "exact counts per pass: states {states} false_intervals {intervals} control_arrows {arrows} \
         feasible {feasible}/{} infeasible {}",
        verdicts.len(),
        verdicts.len() - feasible
    );

    if cfg.trace {
        let overhead = traced_ns as f64 / untraced_ns.max(1) as f64 - 1.0;
        let table = layer_table(tracer.spans(), traced_ns, overhead);
        println!("{}", table.text);
        let path = cfg.spans_dir.join("offline_batch.spans.tsv");
        if let Err(e) = write_spans(&path, tracer.spans()) {
            eprintln!("offline_batch: writing spans: {e}");
        }
        let totals = span_totals(tracer.spans());
        let us = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_self_us());
        return Outcome {
            attempted,
            failed,
            metrics: vec![
                ("deposet.trace_decode_us", us("deposet.trace_decode"), "us"),
                ("deposet.build_us", us("deposet.build"), "us"),
                ("causality.clock_us", us("causality.clock"), "us"),
                ("deposet.index_us", us("deposet.index"), "us"),
                ("deposet.slice_us", us("deposet.slice"), "us"),
                ("deposet.states", states as f64, "count"),
                ("deposet.false_intervals", intervals as f64, "count"),
                ("core.detect_us", us("core.detect"), "us"),
                ("core.control_us", us("core.control"), "us"),
                ("core.witness_us", us("core.witness"), "us"),
                (
                    "core.controlled_build_us",
                    us("core.controlled_build"),
                    "us",
                ),
                ("core.control_arrows", arrows as f64, "count"),
                (
                    "core.feasible_share",
                    feasible as f64 / verdicts.len().max(1) as f64,
                    "share",
                ),
                ("layers.sum_share", table.sum_share, "share"),
                ("layers.leftover_share", table.leftover_share, "share"),
                ("trace_overhead_share", overhead, "share"),
            ],
        };
    }

    let lat = input_latency("per-trace (JSON bytes to verdict)", &per_trace);
    let busy_s: f64 = lat.fastest_ms.iter().flatten().sum::<f64>() / 1e3;
    Outcome {
        attempted,
        failed,
        metrics: vec![
            ("setup_s", setup_s, "s"),
            ("states_per_s", states as f64 / busy_s, "1/s"),
            ("latency_ms_p50", lat.p50_ms, "ms"),
            ("latency_ms_p90", lat.p90_ms, "ms"),
            ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ],
    }
}
