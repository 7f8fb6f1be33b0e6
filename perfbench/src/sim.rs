//! `sim_controlled`: fresh runs of the Figure-3 on-line controllers on the
//! actor simulator (timing wheel, payload arena, mailboxes) with trace
//! recording. Half the runs are the plain anti-token (n−1)-mutex, half the
//! fault-tolerant variant under seeded message loss and one crash and
//! restart of the initial scapegoat. Every run is audited.

use crate::common::{
    input_latency, layer_table, peak_rss_mb, repeated_setup, span_totals, start_unit, traced_at,
    write_spans, Digest, Outcome, Rng, Tracer,
};
use crate::RunCfg;
use pctl_core::online::ft::FtParams;
use pctl_core::online::PeerSelect;
use pctl_core::verify::sweep_faulty_run;
use pctl_deposet::LocalPredicate;
use pctl_mutex::driver::{max_concurrent, WorkloadConfig};
use pctl_mutex::{run_antitoken, run_ft_antitoken};
use pctl_sim::{FaultPlan, ProcessId, SimResult, SimTime};
use std::time::Instant;

/// One controlled run to make: the workload, and for the fault-tolerant
/// protocol its loss rate and the scapegoat's crash and restart times.
#[derive(Clone, Debug)]
struct RunSpec {
    workload: WorkloadConfig,
    faults: Option<(f64, u64, u64)>,
}

/// Message loss rate of the fault-tolerant runs.
const LOSS: f64 = 0.05;

/// Process counts cycle over 4..=16 so every seed gets the same mix.
fn runs(seed: u64, tiny: bool) -> (Vec<RunSpec>, u64) {
    let (count, entries) = if tiny { (4, 4) } else { (208, 12) };
    let mut rng = Rng::new(seed);
    let specs: Vec<RunSpec> = (0..count)
        .map(|i| {
            let workload = WorkloadConfig {
                processes: 4 + (i / 2) % 13,
                entries_per_process: entries,
                seed: rng.next_u64(),
                ..WorkloadConfig::default()
            };
            let faults = (i % 2 == 1).then(|| {
                let crash_at = rng.range(20, 30);
                let restart_after = rng.range(250, 350);
                (LOSS, crash_at, restart_after)
            });
            RunSpec { workload, faults }
        })
        .collect();
    let mut digest = Digest::new();
    digest.bytes(format!("{specs:?}").as_bytes());
    (specs, digest.finish())
}

/// The exact counts of one run; their sums must repeat on every pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Counts {
    states: u64,
    entries: u64,
    ctrl_msgs: u64,
    retransmits: u64,
    events: u64,
    timesteps: u64,
    max_batch: u64,
    wheel_cascades: u64,
    arena_high_water: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.states += o.states;
        self.entries += o.entries;
        self.ctrl_msgs += o.ctrl_msgs;
        self.retransmits += o.retransmits;
        self.events += o.events;
        self.timesteps += o.timesteps;
        self.max_batch = self.max_batch.max(o.max_batch);
        self.wheel_cascades += o.wheel_cascades;
        self.arena_high_water = self.arena_high_water.max(o.arena_high_water);
    }
}

fn simulate(spec: &RunSpec) -> SimResult {
    match spec.faults {
        None => run_antitoken(&spec.workload, PeerSelect::NextInRing),
        Some((loss, crash_at, restart_after)) => {
            let plan = FaultPlan::uniform_loss(loss).with_crash(
                ProcessId(0),
                SimTime(crash_at),
                Some(restart_after),
            );
            run_ft_antitoken(
                &spec.workload,
                PeerSelect::NextInRing,
                FtParams::default(),
                plan,
            )
        }
    }
}

/// The audit: at most n−1 processes in the critical section at once, no
/// protocol deadlock, every entry made, and for fault-tolerant runs no
/// all-up cut where every process is in its critical section.
fn audit(spec: &RunSpec, r: &SimResult, corrupt: bool) -> Result<(), String> {
    let n = spec.workload.processes;
    let mut concurrent = max_concurrent(&r.metrics, n);
    if corrupt {
        concurrent = n;
    }
    if concurrent > n - 1 {
        return Err(format!(
            "{concurrent} of {n} processes in the critical section"
        ));
    }
    if r.protocol_deadlock() {
        return Err("protocol deadlock".into());
    }
    let quota = n as u64 * u64::from(spec.workload.entries_per_process);
    if r.metrics.counter("entries") != quota {
        return Err(format!(
            "{} critical-section entries, expected {quota}",
            r.metrics.counter("entries")
        ));
    }
    if spec.faults.is_some()
        && !sweep_faulty_run(&r.deposet, &LocalPredicate::not_var("cs")).safe_modulo_crashes()
    {
        return Err("an all-up cut violates B".into());
    }
    Ok(())
}

struct Pass {
    wall_ns: u64,
    counts: Counts,
    run_ms: Vec<f64>,
    errors: Vec<String>,
}

fn pass(specs: &[RunSpec], t: &mut Tracer, corrupt: bool) -> Pass {
    let t0 = Instant::now();
    let mut p = Pass {
        wall_ns: 0,
        counts: Counts::default(),
        run_ms: Vec::with_capacity(specs.len()),
        errors: Vec::new(),
    };
    for (i, spec) in specs.iter().enumerate() {
        let id = i as u64;
        let start = Instant::now();
        t.enter("bench.run", id);
        let r = t.time("sim.run", id, || simulate(spec));
        let audited = t.time("core.audit", id, || audit(spec, &r, corrupt && i == 0));
        let states = r.deposet.total_states() as u64;
        t.time("sim.drop", id, || drop(r.deposet));
        t.exit();
        p.run_ms.push(start.elapsed().as_secs_f64() * 1e3);
        if let Err(e) = audited {
            p.errors.push(format!("run {i} ({spec:?}): {e}"));
        }
        p.counts.add(&Counts {
            states,
            entries: r.metrics.counter("entries"),
            ctrl_msgs: r.metrics.counter("msgs_ctrl"),
            retransmits: r.metrics.counter("retransmissions"),
            events: r.core.events_dispatched,
            timesteps: r.core.timesteps,
            max_batch: r.core.max_batch,
            wheel_cascades: r.core.wheel_cascades,
            arena_high_water: r.core.arena_high_water,
        });
    }
    p.wall_ns = t0.elapsed().as_nanos() as u64;
    p
}

pub fn run(cfg: &RunCfg) -> Outcome {
    // Set-up makes the run specs and warms up with one untimed pass.
    let (specs, setup_s, digest, digests_agree) = repeated_setup(|| {
        let (specs, digest) = runs(cfg.seed, cfg.tiny);
        pass(&specs, &mut Tracer::new(false, Instant::now()), false);
        (specs, digest)
    });
    println!(
        "sim_controlled: seed {} {} runs per pass, digest {digest:016x}",
        cfg.seed,
        specs.len()
    );
    let mut failed = u64::from(!digests_agree);
    let mut attempted = 1u64;

    let epoch = Instant::now();
    let mut tracer = Tracer::new(false, epoch);
    let mut passes: Vec<Pass> = Vec::new();
    let (mut traced_ns, mut untraced_ns) = (0u64, 0u64);
    while start_unit(cfg, epoch, passes.len()) {
        let traced = traced_at(cfg, passes.len());
        tracer.set_on(traced);
        let p = pass(&specs, &mut tracer, cfg.corrupt && passes.is_empty());
        if traced {
            traced_ns += p.wall_ns;
        } else {
            untraced_ns += p.wall_ns;
        }
        passes.push(p);
    }
    tracer.set_on(false);

    let first = passes[0].counts;
    for (k, p) in passes.iter().enumerate() {
        attempted += specs.len() as u64;
        failed += p.errors.len() as u64;
        for e in &p.errors {
            eprintln!("sim_controlled: {e}");
        }
        if p.counts != first {
            eprintln!("sim_controlled: pass {k} counts differ from pass 0");
            failed += 1;
        }
    }
    let per_entry = first.ctrl_msgs as f64 / first.entries.max(1) as f64;
    println!(
        "exact counts per pass: events {} entries {} ctrl_msgs {} ({per_entry:.4} per entry) \
         retransmits {}",
        first.events, first.entries, first.ctrl_msgs, first.retransmits
    );

    if cfg.trace {
        let overhead = traced_ns as f64 / untraced_ns.max(1) as f64 - 1.0;
        let table = layer_table(tracer.spans(), traced_ns, overhead);
        println!("{}", table.text);
        if let Err(e) = write_spans(
            &cfg.spans_dir.join("sim_controlled.spans.tsv"),
            tracer.spans(),
        ) {
            eprintln!("sim_controlled: writing spans: {e}");
        }
        let totals = span_totals(tracer.spans());
        let run = totals.get("sim.run").copied().unwrap_or_default();
        let traced_passes = passes.len() as u64 / 2;
        return Outcome {
            attempted,
            failed,
            metrics: vec![
                ("sim.run_us", run.mean_self_us(), "us"),
                (
                    "sim.ns_per_event",
                    run.self_ns as f64 / (first.events * traced_passes).max(1) as f64,
                    "ns",
                ),
                ("sim.events_dispatched", first.events as f64, "count"),
                ("sim.timesteps", first.timesteps as f64, "count"),
                ("sim.max_batch", first.max_batch as f64, "count"),
                ("sim.wheel_cascades", first.wheel_cascades as f64, "count"),
                (
                    "sim.arena_high_water",
                    first.arena_high_water as f64,
                    "count",
                ),
                ("mutex.ctrl_msgs", first.ctrl_msgs as f64, "count"),
                ("mutex.retransmits", first.retransmits as f64, "count"),
                ("mutex.ctrl_msgs_per_entry", per_entry, "ratio"),
                (
                    "core.audit_us",
                    totals.get("core.audit").map_or(0.0, |t| t.mean_self_us()),
                    "us",
                ),
                ("layers.sum_share", table.sum_share, "share"),
                ("layers.leftover_share", table.leftover_share, "share"),
                ("trace_overhead_share", overhead, "share"),
            ],
        };
    }

    let per_run: Vec<Vec<f64>> = (0..specs.len())
        .map(|i| passes.iter().map(|p| p.run_ms[i]).collect())
        .collect();
    let lat = input_latency("per-run (run and audit)", &per_run);
    let busy_s: f64 = lat.fastest_ms.iter().flatten().sum::<f64>() / 1e3;
    Outcome {
        attempted,
        failed,
        metrics: vec![
            ("setup_s", setup_s, "s"),
            ("states_per_s", first.states as f64 / busy_s, "1/s"),
            ("latency_ms_p50", lat.p50_ms, "ms"),
            ("latency_ms_p90", lat.p90_ms, "ms"),
            ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ],
    }
}
