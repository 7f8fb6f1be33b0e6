//! `pctl` — command-line active debugging for traced distributed
//! computations.
//!
//! Operates on the JSON trace format of `pctl-deposet` (see
//! `trace::to_json`). Typical session:
//!
//! ```text
//! pctl gen --workload pipelined --processes 4 --sections 6 --seed 7 > c1.json
//! pctl info c1.json
//! pctl detect c1.json --at-least-one-not cs
//! pctl control c1.json --at-least-one-not cs > control.json
//! pctl replay c1.json --control control.json --at-least-one-not cs
//! pctl dot c1.json > c1.dot
//! ```

use predicate_control::control::offline::{Engine, SelectPolicy};
use predicate_control::deposet::generator::{
    cs_workload, pipelined_workload, random_deposet, CsConfig, RandomConfig,
};
use predicate_control::deposet::{dot, lattice, trace, Deposet};
use predicate_control::obs::{chrome, jsonl, stats::EventStats, timeline, RingRecorder};
use predicate_control::prelude::*;
use predicate_control::replay::replay_recorded;
use std::process::ExitCode;

const USAGE: &str = "\
pctl — predicate control for active debugging of distributed programs

USAGE:
  pctl info <trace.json>
  pctl detect <trace.json> (--at-least-one VAR | --at-least-one-not VAR |
               --conjunct PROC:VAR ... [--channels-empty])
  pctl control <trace.json> (--at-least-one VAR | --at-least-one-not VAR |
               --conjunct PROC:VAR ... [--channels-empty])
               [--naive] [--random-seed N]   (control relation JSON on stdout)
  pctl verify <trace.json> --control <control.json>
               (--at-least-one VAR | --at-least-one-not VAR |
               --conjunct PROC:VAR ... [--channels-empty])
               (exact: detection over the controlled computation)
  pctl replay <trace.json> [--control <control.json>]
              [--at-least-one VAR | --at-least-one-not VAR]
              [--trace-out <chrome.json>] [--events-out <run.jsonl>]
                                            (export telemetry of the replay)
  pctl trace <input> [--control <control.json>] [--out <chrome.json>]
              (input: deposet trace JSON or telemetry JSONL; emits Chrome
               trace_event JSON for chrome://tracing or ui.perfetto.dev)
  pctl trace --remote HOST:PORT --session NAME [--out <chrome.json>]
              (pull a live daemon session's recent events — the Trace verb's
               bounded ring — and export them as a Chrome trace)
  pctl stats <input> [--prom]               (event-log statistics: per-kind
              counts, span durations, message latency percentiles;
              --prom emits Prometheus text exposition instead)
  pctl dot <trace.json> [--control <control.json>] [--vars]
  pctl gen --workload (cs|pipelined|random|ring) [--processes N]
           [--sections N] [--events N] [--seed N] [--fanout N] [--hops N]
           [--trace-out <chrome.json>]      (trace JSON on stdout; `ring`
            runs the actor-core ring_flood scenario through the simulator
            and exports its recorded deposet — processes × fanout × hops
            deliveries)
  pctl serve [--addr HOST:PORT] [--metrics HOST:PORT] [--max-sessions N]
             [--memory-budget BYTES] [--queue-depth N] [--idle-timeout-ms N]
             [--snapshot-dir DIR] [--fault-injection] [--no-telemetry]
             [--trace-ring N] [--slow-log FILE] [--slow-ms N]
             [--slow-log-max-bytes N] [--no-flight] [--flight-interval-ms N]
             [--flight-history N] [--postmortem-dir DIR]
             [--anomaly-window-ms N] [--slo-p95-us N] [--busy-spike-per-sec N]
                                            (run the streaming daemon in the
              foreground; stops on stdin EOF or a client Shutdown;
              --fault-injection enables the Crash/Sleep chaos verbs;
              --slow-log appends a JSONL record for every request slower
              than --slow-ms, rotating to FILE.1 past --slow-log-max-bytes;
              --trace-ring sizes the per-session event ring the Trace verb
              serves, 0 disables; --no-telemetry turns all request
              telemetry off. The flight recorder snapshots daemon state
              every --flight-interval-ms into a --flight-history-deep ring
              and, on each anomaly (worker poison, eviction, Busy spike
              over --busy-spike-per-sec, append p95 over --slo-p95-us,
              budget breach, rejected frame; one per kind per
              --anomaly-window-ms), dumps a postmortem bundle under
              --postmortem-dir; --no-flight disables it. With --metrics,
              /healthz and /readyz ride on the same endpoint)
  pctl postmortem <bundle-dir>              (validate a postmortem bundle
              dumped by the daemon and print its incident report: trigger,
              anomaly timeline, p50/p95 trajectory, top sessions)
  pctl stream <trace.json> --addr HOST:PORT
              (--at-least-one VAR | --at-least-one-not VAR |
               --conjunct PROC:VAR ...)
              [--session NAME] [--keep-open]
              (stream the trace into a daemon session event by event, then
               ask it to detect/control/verify at the final prefix; progress
               — events sent, Busy bounces, append p50 — goes to stderr)
  pctl top --addr HOST:PORT [--interval-ms N] [--once]
              (live per-session daemon dashboard over the Stats verb:
               appends, per-interval append/busy rates from poll deltas,
               bytes, queue depth, idle age, append p50/p95, query
               cache hit-rate; --once prints a single snapshot and exits)

The predicate flags build the disjunctive property  B = ∨ᵢ lᵢ  with
lᵢ = VAR (at-least-one) or lᵢ = ¬VAR (at-least-one-not) on every process.

Repeatable --conjunct PROC:VAR flags instead build the *regular* violation
∧ (VAR on process PROC) — a conjunction of locals the disjunctive wire form
cannot express — optionally ∧ channels-empty; queries then run through the
computation-slicing engine (detect is exact, control slice-then-delegates).
--quiet suppresses diagnostic output on stderr. A flag the command does not
read is an error.";

/// The flags each command reads, space-separated. `main` rejects any other
/// flag before dispatch, so a mistyped or retired flag fails loudly instead
/// of being ignored; `--quiet` is accepted everywhere.
const ACCEPTED_FLAGS: &[(&str, &str)] = &[
    ("info", ""),
    (
        "detect",
        "at-least-one at-least-one-not conjunct channels-empty",
    ),
    (
        "control",
        "at-least-one at-least-one-not conjunct channels-empty naive random-seed",
    ),
    (
        "verify",
        "at-least-one at-least-one-not conjunct channels-empty control",
    ),
    (
        "replay",
        "at-least-one at-least-one-not control trace-out events-out",
    ),
    ("trace", "control out remote session"),
    ("stats", "control prom"),
    ("dot", "control vars"),
    (
        "gen",
        "workload processes sections events seed fanout hops trace-out",
    ),
    (
        "serve",
        "addr metrics max-sessions memory-budget queue-depth idle-timeout-ms \
         snapshot-dir fault-injection no-telemetry trace-ring slow-log slow-ms \
         slow-log-max-bytes no-flight flight-interval-ms flight-history \
         postmortem-dir anomaly-window-ms slo-p95-us busy-spike-per-sec",
    ),
    (
        "stream",
        "at-least-one at-least-one-not conjunct channels-empty addr session keep-open",
    ),
    ("top", "addr interval-ms once"),
    ("postmortem", ""),
];

/// The flags read only for presence. They never take a value, so the bare
/// word after one (`pctl detect --quiet big.json`) stays positional.
const SWITCHES: &[&str] = &[
    "quiet",
    "channels-empty",
    "naive",
    "vars",
    "prom",
    "fault-injection",
    "no-telemetry",
    "no-flight",
    "keep-open",
    "once",
];

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(argv: &[String]) -> Args {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = argv.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = match it.peek() {
                    Some(v) if !v.starts_with("--") && !SWITCHES.contains(&name) => {
                        Some(it.next().unwrap().clone())
                    }
                    _ => None,
                };
                flags.push((name.to_owned(), value));
            } else {
                positional.push(a.clone());
            }
        }
        Args { positional, flags }
    }

    /// The first flag `cmd` does not read, as an error (see
    /// [`ACCEPTED_FLAGS`]). Commands missing from the table are not checked.
    fn check_flags(&self, cmd: &str) -> Result<(), String> {
        let Some((_, accepted)) = ACCEPTED_FLAGS.iter().find(|(c, _)| *c == cmd) else {
            return Ok(());
        };
        match self
            .flags
            .iter()
            .find(|(n, _)| n != "quiet" && !accepted.split_whitespace().any(|a| a == n))
        {
            Some((name, _)) => Err(format!("unknown flag --{name} for 'pctl {cmd}'")),
            None => Ok(()),
        }
    }

    fn flag(&self, name: &str) -> Option<&Option<String>> {
        self.flags.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    fn value(&self, name: &str) -> Result<Option<&str>, String> {
        match self.flag(name) {
            None => Ok(None),
            Some(Some(v)) => Ok(Some(v)),
            Some(None) => Err(format!("--{name} requires a value")),
        }
    }

    /// Every value of a repeatable flag, in order (`--conjunct 0:cs
    /// --conjunct 1:cs`). Each occurrence must carry a value.
    fn values(&self, name: &str) -> Result<Vec<&str>, String> {
        self.flags
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| {
                v.as_deref()
                    .ok_or_else(|| format!("--{name} requires a value"))
            })
            .collect()
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name)? {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad number '{v}'")),
        }
    }
}

fn load_trace(path: &str) -> Result<Deposet, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    trace::from_json(&json).map_err(|e| format!("{path}: {e}"))
}

fn load_control(path: &str) -> Result<ControlRelation, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&json).map_err(|e| format!("{path}: {e}"))
}

fn predicate(args: &Args, dep: &Deposet) -> Result<DisjunctivePredicate, String> {
    let n = dep.process_count();
    match (args.value("at-least-one")?, args.value("at-least-one-not")?) {
        (Some(v), None) => Ok(DisjunctivePredicate::at_least_one(n, v)),
        (None, Some(v)) => Ok(DisjunctivePredicate::at_least_one_not(n, v)),
        (None, None) => Err(
            "missing predicate: --at-least-one VAR, --at-least-one-not VAR, \
             or --conjunct PROC:VAR"
                .into(),
        ),
        _ => Err("give exactly one of --at-least-one / --at-least-one-not".into()),
    }
}

/// Parse the predicate-class flags. Repeatable `--conjunct PROC:VAR`
/// (plus optional `--channels-empty`) builds a regular class; without
/// them the classic disjunctive flags apply and this returns the
/// disjunctive class. Exactly one family may be used.
fn predicate_class(args: &Args, dep: &Deposet) -> Result<PredicateClass, String> {
    let conjuncts = args.values("conjunct")?;
    let channels = args.flag("channels-empty").is_some();
    if conjuncts.is_empty() && !channels {
        return Ok(PredicateClass::disjunctive(predicate(args, dep)?));
    }
    if args.flag("at-least-one").is_some() || args.flag("at-least-one-not").is_some() {
        return Err(
            "--conjunct/--channels-empty (regular class) cannot be combined with \
             --at-least-one/--at-least-one-not (disjunctive class)"
                .into(),
        );
    }
    let mut parts = Vec::new();
    for c in &conjuncts {
        let (proc, var) = c
            .split_once(':')
            .ok_or_else(|| format!("--conjunct: expected PROC:VAR, got '{c}'"))?;
        let proc: usize = proc
            .parse()
            .map_err(|_| format!("--conjunct: bad process index '{proc}'"))?;
        parts.push(RegularPredicate::local(proc, LocalPredicate::var(var)));
    }
    if channels {
        parts.push(RegularPredicate::ChannelsEmpty);
    }
    let violation = if parts.len() == 1 {
        parts.pop().expect("one part")
    } else {
        RegularPredicate::And(parts)
    };
    let class = PredicateClass::regular(dep.process_count() as u32, violation);
    class
        .validate(dep.process_count())
        .map_err(|e| format!("bad predicate class: {e}"))?;
    Ok(class)
}

fn cmd_info(args: &Args) -> Result<(), String> {
    let path = args.positional.first().ok_or("info: missing trace path")?;
    let dep = load_trace(path)?;
    println!("processes : {}", dep.process_count());
    println!("states    : {}", dep.total_states());
    println!("messages  : {}", dep.messages().len());
    for p in dep.processes() {
        let vars: std::collections::BTreeSet<&str> = dep
            .states_of(p)
            .iter()
            .flat_map(|s| s.vars.iter().map(|(k, _)| k))
            .collect();
        println!(
            "  {p}: {} states, vars {{{}}}",
            dep.len_of(p),
            vars.into_iter().collect::<Vec<_>>().join(", ")
        );
    }
    println!(
        "store     : {} clock words",
        dep.process_count() * dep.total_states()
    );
    match lattice::count_consistent_global_states(&dep, 2_000_000) {
        Ok(c) => println!("consistent global states: {c}"),
        Err(_) => println!("consistent global states: > 2,000,000 (not enumerated)"),
    }
    Ok(())
}

fn cmd_detect(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .first()
        .ok_or("detect: missing trace path")?;
    let dep = load_trace(path)?;
    let class = predicate_class(args, &dep)?;
    if let PredicateClass::Regular { .. } = &class {
        let engine = PredicateEngine::for_class(&dep, &class).map_err(|e| format!("{e}"))?;
        // The summary is the only reader of the slice: a quiet run finds
        // the least violating cut without building it.
        if args.flag("quiet").is_none() {
            let slice = engine.slice().expect("regular engine carries a slice");
            eprintln!(
                "slice: {}/{} state(s) survive in {} join-irreducible class(es)",
                slice.surviving_states(),
                dep.total_states(),
                slice.class_count()
            );
        }
        match engine.detect_violation() {
            Some(g) => {
                println!("VIOLATION possible at consistent global state {g}");
                for p in dep.processes() {
                    let s = g.state_of(p);
                    println!("  {p} @ state {}: {}", s.index, dep.state(s));
                }
            }
            None => println!("no consistent global state violates the property"),
        }
        return Ok(());
    }
    let pred = predicate(args, &dep)?;
    match detect_disjunctive_violation(&dep, &pred) {
        Some(g) => {
            println!("VIOLATION possible at consistent global state {g}");
            for p in dep.processes() {
                let s = g.state_of(p);
                println!("  {p} @ state {}: {}", s.index, dep.state(s));
            }
            if let Some(w) = definitely_all_false(&dep, &pred) {
                println!("moreover the property is INFEASIBLE (overlapping intervals):");
                for iv in w {
                    println!("  {} states [{}..{}]", iv.process, iv.lo, iv.hi);
                }
            }
        }
        None => println!("no consistent global state violates the property"),
    }
    Ok(())
}

fn cmd_control(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .first()
        .ok_or("control: missing trace path")?;
    let dep = load_trace(path)?;
    let class = predicate_class(args, &dep)?;
    let engine = if args.flag("naive").is_some() {
        Engine::Naive
    } else {
        Engine::Optimized
    };
    let policy = match args.value("random-seed")? {
        Some(s) => SelectPolicy::Random {
            seed: s.parse().map_err(|_| "--random-seed: bad number")?,
        },
        None => SelectPolicy::First,
    };
    if let PredicateClass::Regular { .. } = &class {
        let eng = PredicateEngine::for_class(&dep, &class).map_err(|e| format!("{e}"))?;
        return match eng.control(OfflineOptions { policy, engine }) {
            Ok(rel) => {
                if args.flag("quiet").is_none() {
                    eprintln!("control relation with {} tuple(s): {rel}", rel.len());
                }
                println!(
                    "{}",
                    serde_json::to_string_pretty(&rel).expect("serializable")
                );
                Ok(())
            }
            Err(inf) => Err(format!("{inf}")),
        };
    }
    let pred = predicate(args, &dep)?;
    match control_disjunctive(&dep, &pred, OfflineOptions { policy, engine }) {
        Ok(rel) => {
            if args.flag("quiet").is_none() {
                eprintln!("control relation with {} tuple(s): {rel}", rel.len());
            }
            println!(
                "{}",
                serde_json::to_string_pretty(&rel).expect("serializable")
            );
            Ok(())
        }
        Err(inf) => Err(format!("{inf}")),
    }
}

fn cmd_verify(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .first()
        .ok_or("verify: missing trace path")?;
    let dep = load_trace(path)?;
    let class = predicate_class(args, &dep)?;
    let cpath = args.value("control")?.ok_or("verify: missing --control")?;
    let rel = load_control(cpath)?;
    let eng = PredicateEngine::for_class(&dep, &class).map_err(|e| format!("{e}"))?;
    eng.verify(&rel).map_err(|e| format!("{e}"))?;
    println!(
        "OK: every consistent global state of the controlled computation satisfies the property"
    );
    Ok(())
}

fn cmd_replay(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .first()
        .ok_or("replay: missing trace path")?;
    let dep = load_trace(path)?;
    let rel = match args.value("control")? {
        Some(p) => load_control(p)?,
        None => ControlRelation::empty(),
    };
    let trace_out = args.value("trace-out")?.map(str::to_owned);
    let events_out = args.value("events-out")?.map(str::to_owned);
    let out = if trace_out.is_some() || events_out.is_some() {
        // 2^20 events is plenty for CLI-sized traces; RingRecorder drops
        // oldest beyond that rather than growing unboundedly.
        replay_recorded(
            &dep,
            &rel,
            &ReplayConfig::default(),
            Box::new(RingRecorder::new(1 << 20)),
        )
    } else {
        replay(&dep, &rel, &ReplayConfig::default())
    };
    if trace_out.is_some() || events_out.is_some() {
        let events = out.sim.events();
        if let Some(f) = &trace_out {
            let json = chrome::chrome_trace(&events, &timeline::lane_names(&dep));
            std::fs::write(f, json).map_err(|e| format!("{f}: {e}"))?;
            if args.flag("quiet").is_none() {
                eprintln!("wrote Chrome trace ({} events) to {f}", events.len());
            }
        }
        if let Some(f) = &events_out {
            std::fs::write(f, jsonl::to_jsonl(&events)).map_err(|e| format!("{f}: {e}"))?;
            if args.flag("quiet").is_none() {
                eprintln!("wrote telemetry JSONL ({} events) to {f}", events.len());
            }
        }
    }
    println!(
        "replay: completed={} faithful={} control messages={} stalls={}",
        out.completed(),
        out.fidelity(&dep),
        out.sim.metrics.counter("msgs_ctrl"),
        out.sim.metrics.counter("replay_stalls"),
    );
    if !out.completed() {
        return Err("replay did not complete".into());
    }
    if args.flag("at-least-one").is_some() || args.flag("at-least-one-not").is_some() {
        let pred = predicate(args, &dep)?;
        match detect_disjunctive_violation(out.deposet(), &pred) {
            Some(g) => println!("replayed computation still violates the property at {g}"),
            None => println!("replayed computation satisfies the property on every consistent cut"),
        }
    }
    Ok(())
}

fn cmd_dot(args: &Args) -> Result<(), String> {
    let path = args.positional.first().ok_or("dot: missing trace path")?;
    let dep = load_trace(path)?;
    let extra = match args.value("control")? {
        Some(p) => load_control(p)?.pairs().to_vec(),
        None => Vec::new(),
    };
    let opts = dot::DotOptions {
        extra_edges: extra,
        highlights: vec![],
        show_vars: args.flag("vars").is_some(),
    };
    print!("{}", dot::to_dot(&dep, &opts));
    Ok(())
}

fn cmd_gen(args: &Args) -> Result<(), String> {
    let workload = args
        .value("workload")?
        .ok_or("gen: missing --workload")?
        .to_owned();
    let processes = args.num("processes", 4usize)?;
    let sections = args.num("sections", 6usize)?;
    let events = args.num("events", 40usize)?;
    let seed = args.num("seed", 0u64)?;
    let dep = match workload.as_str() {
        "cs" => cs_workload(
            &CsConfig {
                processes,
                sections_per_process: sections,
                max_cs_len: 3,
                max_gap_len: 3,
            },
            seed,
        ),
        "pipelined" => pipelined_workload(
            &CsConfig {
                processes,
                sections_per_process: sections,
                max_cs_len: 3,
                max_gap_len: 3,
            },
            seed,
        ),
        "random" => random_deposet(
            &RandomConfig {
                processes,
                events,
                send_prob: 0.35,
                flip_prob: 0.35,
            },
            seed,
        ),
        "ring" => {
            // Drive the actor-model simulator core itself: ring_flood keeps
            // processes × fanout messages in flight for the whole run, so
            // this is also the cheapest way to produce a genuinely
            // message-dense trace for the downstream tools.
            use predicate_control::sim::scenarios::ring_flood;
            use predicate_control::sim::{DelayModel, SimConfig, SimTime};
            let fanout = args.num("fanout", 4u32)?;
            let hops = args.num("hops", 8u32)?;
            let procs = u32::try_from(processes)
                .map_err(|_| format!("gen: --processes {processes} exceeds u32"))?;
            let cfg = SimConfig {
                seed,
                delay: DelayModel::Uniform { min: 1, max: 20 },
                max_events: usize::MAX,
                max_time: SimTime(u64::MAX),
                ..SimConfig::default()
            };
            let r = ring_flood(procs, fanout, hops, cfg).run();
            r.deposet
        }
        other => {
            return Err(format!(
                "gen: unknown workload '{other}' (cs|pipelined|random|ring)"
            ))
        }
    };
    if let Some(f) = args.value("trace-out")? {
        let events = timeline::deposet_events(&dep, &[]);
        let json = chrome::chrome_trace(&events, &timeline::lane_names(&dep));
        std::fs::write(f, json).map_err(|e| format!("{f}: {e}"))?;
        if args.flag("quiet").is_none() {
            eprintln!("wrote Chrome trace ({} events) to {f}", events.len());
        }
    }
    println!("{}", trace::to_json(&dep));
    Ok(())
}

/// Load events from `path`: a telemetry JSONL log, or a deposet trace JSON
/// rendered through [`timeline::deposet_events`] (with `C→` arrows from
/// `control` when given).
fn load_events(
    args: &Args,
    path: &str,
) -> Result<(Vec<predicate_control::obs::Event>, Vec<String>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    if let Ok(events) = jsonl::parse(&text) {
        let max_lane = events.iter().map(|e| e.lane).max().unwrap_or(0);
        let lanes = (0..=max_lane).map(|i| format!("p{i}")).collect();
        return Ok((events, lanes));
    }
    let dep = trace::from_json(&text)
        .map_err(|e| format!("{path}: neither a telemetry JSONL log nor a deposet trace: {e}"))?;
    let pairs = match args.value("control")? {
        Some(p) => load_control(p)?.pairs().to_vec(),
        None => Vec::new(),
    };
    Ok((
        timeline::deposet_events(&dep, &pairs),
        timeline::lane_names(&dep),
    ))
}

/// Pull a live session's recent events from a daemon (the `Trace` verb's
/// bounded ring). The ring drops oldest, so a receive whose matching send
/// has been evicted is pruned before export — Chrome flow events must
/// arrive in start/finish pairs.
fn load_remote_events(
    args: &Args,
    addr: &str,
) -> Result<(Vec<predicate_control::obs::Event>, Vec<String>), String> {
    let session = args
        .value("session")?
        .ok_or("trace: --remote needs --session NAME")?;
    let mut client =
        pctld::Client::connect(addr).map_err(|e| format!("trace: connect {addr}: {e}"))?;
    match client.trace(session).map_err(|e| format!("trace: {e}"))? {
        pctld::Response::Trace {
            mut events,
            dropped,
            processes,
        } => {
            if dropped > 0 && args.flag("quiet").is_none() {
                eprintln!(
                    "session '{session}': ring dropped {dropped} older event(s); \
                     exporting the most recent {}",
                    events.len()
                );
            }
            chrome::prune_orphan_flows(&mut events);
            let lanes = (0..processes.max(1)).map(|i| format!("p{i}")).collect();
            Ok((events, lanes))
        }
        other => Err(format!("trace: unexpected Trace answer {other:?}")),
    }
}

fn cmd_trace(args: &Args) -> Result<(), String> {
    let (events, lanes) = match args.value("remote")? {
        Some(addr) => load_remote_events(args, addr)?,
        None => {
            let path = args.positional.first().ok_or("trace: missing input path")?;
            load_events(args, path)?
        }
    };
    let json = chrome::chrome_trace(&events, &lanes);
    match args.value("out")? {
        Some(f) => {
            std::fs::write(f, &json).map_err(|e| format!("{f}: {e}"))?;
            if args.flag("quiet").is_none() {
                eprintln!("wrote Chrome trace ({} events) to {f}", events.len());
            }
        }
        None => println!("{json}"),
    }
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    let path = args.positional.first().ok_or("stats: missing input path")?;
    let (events, _) = load_events(args, path)?;
    let stats = EventStats::from_events(&events);
    if args.flag("prom").is_some() {
        print!("{}", stats.to_prometheus());
    } else {
        print!("{}", stats.report());
    }
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let defaults = pctld::Config::default();
    let cfg = pctld::Config {
        addr: args.value("addr")?.unwrap_or("127.0.0.1:7878").to_owned(),
        max_sessions: args.num("max-sessions", defaults.max_sessions)?,
        memory_budget: args.num("memory-budget", defaults.memory_budget)?,
        queue_depth: args.num("queue-depth", defaults.queue_depth)?,
        idle_timeout: std::time::Duration::from_millis(
            args.num("idle-timeout-ms", defaults.idle_timeout.as_millis() as u64)?,
        ),
        snapshot_dir: args.value("snapshot-dir")?.map(Into::into),
        fault_injection: args.flag("fault-injection").is_some(),
        telemetry: args.flag("no-telemetry").is_none(),
        trace_ring: args.num("trace-ring", defaults.trace_ring)?,
        slow_log: args.value("slow-log")?.map(Into::into),
        slow_ms: args.num("slow-ms", defaults.slow_ms)?,
        slow_log_max_bytes: args.num("slow-log-max-bytes", defaults.slow_log_max_bytes)?,
        flight: args.flag("no-flight").is_none(),
        flight_interval: std::time::Duration::from_millis(args.num(
            "flight-interval-ms",
            defaults.flight_interval.as_millis() as u64,
        )?),
        flight_history: args.num("flight-history", defaults.flight_history)?,
        postmortem_dir: args.value("postmortem-dir")?.map(Into::into),
        anomaly_window: std::time::Duration::from_millis(args.num(
            "anomaly-window-ms",
            defaults.anomaly_window.as_millis() as u64,
        )?),
        slo_p95_us: args.num("slo-p95-us", defaults.slo_p95_us)?,
        busy_spike_per_sec: args.num("busy-spike-per-sec", defaults.busy_spike_per_sec)?,
        ..defaults
    };
    let daemon = pctld::Daemon::spawn(cfg).map_err(|e| format!("serve: {e}"))?;
    eprintln!("pctld listening on {}", daemon.local_addr());
    let _metrics = match args.value("metrics")? {
        Some(addr) => {
            let m = daemon
                .spawn_metrics(addr)
                .map_err(|e| format!("serve: metrics on {addr}: {e}"))?;
            eprintln!(
                "metrics on http://{0}/metrics, health on http://{0}/healthz and /readyz",
                m.local_addr()
            );
            Some(m)
        }
        None => None,
    };
    // Foreground until stdin closes (Ctrl-D / pipe EOF) or a client sends
    // Shutdown. The stdin reader is a detached thread: if the daemon stops
    // remotely first, the thread dies with the process.
    let (tx, rx) = std::sync::mpsc::channel::<()>();
    std::thread::spawn(move || {
        use std::io::Read;
        let mut sink = Vec::new();
        let _ = std::io::stdin().lock().read_to_end(&mut sink);
        let _ = tx.send(());
    });
    loop {
        if daemon.is_stopped() {
            eprintln!("shutdown requested by a client; draining");
            break;
        }
        match rx.recv_timeout(std::time::Duration::from_millis(200)) {
            Ok(()) | Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                eprintln!("stdin closed; draining");
                break;
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {}
        }
    }
    let leaked = daemon.shutdown();
    if leaked > 0 {
        return Err(format!("drain leaked {leaked} session(s)"));
    }
    eprintln!("drained cleanly, zero leaked sessions");
    Ok(())
}

fn cmd_stream(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .first()
        .ok_or("stream: missing trace path")?;
    let dep = load_trace(path)?;
    let class = predicate_class(args, &dep)?;
    let addr = args.value("addr")?.ok_or("stream: missing --addr")?;
    let session = args.value("session")?.unwrap_or("cli").to_owned();
    let mut client =
        pctld::Client::connect(addr).map_err(|e| format!("stream: connect {addr}: {e}"))?;
    let quiet = args.flag("quiet").is_some();
    let report = match &class {
        PredicateClass::Disjunctive(pred) => pctld::stream_deposet_with(
            &mut client,
            &session,
            pred.locals().to_vec(),
            &dep,
            pctld::RetryPolicy::default(),
            |p: &pctld::StreamProgress| {
                if !quiet {
                    eprintln!(
                        "stream: {}/{} event(s) sent, {} busy bounce(s), append p50 {}µs",
                        p.sent, p.total, p.busy_bounces, p.append_p50_us
                    );
                }
            },
        ),
        // The class rides in the Hello: the daemon routes this session's
        // queries through the slicing engine.
        PredicateClass::Regular { .. } => pctld::stream_deposet_class(
            &mut client,
            &session,
            class.clone(),
            &dep,
            pctld::RetryPolicy::default(),
        ),
    }
    .map_err(|e| format!("stream: {e}"))?;
    println!(
        "streamed {} event(s) into session '{session}' ({} busy bounce(s), append p50 {}µs)",
        report.appends, report.busy_bounces, report.append_p50_us
    );
    match client
        .detect(&session)
        .map_err(|e| format!("stream: {e}"))?
    {
        pctld::Response::Detect {
            violation: Some(cut),
        } => println!("detect : VIOLATION possible at cut {cut:?}"),
        pctld::Response::Detect { violation: None } => {
            println!("detect : no consistent global state violates the property")
        }
        other => return Err(format!("stream: unexpected detect answer {other:?}")),
    }
    match client
        .control(&session)
        .map_err(|e| format!("stream: {e}"))?
    {
        pctld::Response::Control {
            relation: Some(rel),
            ..
        } => println!("control: feasible, {} tuple(s): {rel}", rel.len()),
        pctld::Response::Control {
            witness: Some(w), ..
        } => println!(
            "control: INFEASIBLE ({} overlapping false intervals)",
            w.len()
        ),
        other => return Err(format!("stream: unexpected control answer {other:?}")),
    }
    match client
        .verify(&session)
        .map_err(|e| format!("stream: {e}"))?
    {
        pctld::Response::Verify { ok, detail } => {
            println!("verify : {} — {detail}", if ok { "OK" } else { "FAILED" })
        }
        other => return Err(format!("stream: unexpected verify answer {other:?}")),
    }
    if args.flag("keep-open").is_none() {
        match client.close(&session).map_err(|e| format!("stream: {e}"))? {
            pctld::Response::Ok => {}
            other => return Err(format!("stream: close refused: {other:?}")),
        }
    } else {
        println!("session '{session}' left open (--keep-open)");
    }
    Ok(())
}

/// Per-interval rates computed from consecutive `Stats` polls — counters
/// are cumulative on the wire, so the dashboard differentiates them
/// client-side.
struct TopRates {
    appends_per_sec: f64,
    busy_per_sec: f64,
    /// Per-session appends/s, keyed by session name.
    per_session: std::collections::HashMap<String, f64>,
}

fn top_rates(
    prev: &pctld::StatsSnapshot,
    cur: &pctld::StatsSnapshot,
    dt: std::time::Duration,
) -> TopRates {
    let dt_s = dt.as_secs_f64().max(1e-9);
    let rate = |before: u64, now: u64| now.saturating_sub(before) as f64 / dt_s;
    let per_session = cur
        .per_session
        .iter()
        .map(|s| {
            let before = prev
                .per_session
                .iter()
                .find(|p| p.name == s.name)
                .map_or(0, |p| p.appends);
            (s.name.clone(), rate(before, s.appends))
        })
        .collect();
    TopRates {
        appends_per_sec: rate(prev.appends_total, cur.appends_total),
        busy_per_sec: rate(prev.busy_total, cur.busy_total),
        per_session,
    }
}

/// Render one `Stats` snapshot as the `pctl top` dashboard. Returns the
/// formatted screen so `--once` and the redraw loop share one layout.
/// `rates` is `None` on the first poll (and under `--once`): rate columns
/// render as `-` until a second poll gives a delta.
fn render_top(stats: &pctld::StatsSnapshot, rates: Option<&TopRates>, addr: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "pctld {addr} — {} session(s), {} append(s), {} busy bounce(s), \
         {}/{} bytes, {} eviction(s), {} poisoned{}",
        stats.sessions,
        stats.appends_total,
        stats.busy_total,
        stats.approx_bytes,
        stats.budget_bytes,
        stats.evictions_total,
        stats.poisoned_total,
        match rates {
            Some(r) => format!(
                " | {:.0} append/s, {:.0} busy/s",
                r.appends_per_sec, r.busy_per_sec
            ),
            None => String::new(),
        },
    );
    let _ = writeln!(
        out,
        "{:<20} {:>9} {:>8} {:>12} {:>6} {:>9} {:>9} {:>9} {:>5}",
        "SESSION", "APPENDS", "APP/s", "BYTES", "QUEUE", "IDLE(ms)", "P50(µs)", "P95(µs)", "HIT%"
    );
    if stats.per_session.is_empty() {
        let _ = writeln!(out, "(no live sessions)");
    }
    for s in &stats.per_session {
        let app_rate = rates
            .and_then(|r| r.per_session.get(&s.name))
            .map_or("-".to_owned(), |r| format!("{r:.0}"));
        let hit = match s.queries {
            0 => "-".to_owned(),
            q => format!("{:.0}", s.cache_hits as f64 * 100.0 / q as f64),
        };
        let _ = writeln!(
            out,
            "{:<20} {:>9} {:>8} {:>12} {:>6} {:>9} {:>9} {:>9} {:>5}",
            s.name,
            s.appends,
            app_rate,
            s.approx_bytes,
            s.queue_depth,
            s.idle_ms,
            s.p50_us,
            s.p95_us,
            hit
        );
    }
    out
}

fn cmd_top(args: &Args) -> Result<(), String> {
    let addr = args.value("addr")?.ok_or("top: missing --addr")?;
    let interval = std::time::Duration::from_millis(args.num("interval-ms", 1000u64)?);
    let once = args.flag("once").is_some();
    let mut client =
        pctld::Client::connect(addr).map_err(|e| format!("top: connect {addr}: {e}"))?;
    let mut prev: Option<(pctld::StatsSnapshot, std::time::Instant)> = None;
    loop {
        let stats = client.stats_snapshot().map_err(|e| format!("top: {e}"))?;
        let now = std::time::Instant::now();
        let rates = prev
            .as_ref()
            .map(|(p, t)| top_rates(p, &stats, now.duration_since(*t)));
        let screen = render_top(&stats, rates.as_ref(), addr);
        if once {
            print!("{screen}");
            return Ok(());
        }
        // ANSI clear + home; plain std, no terminal library.
        print!("\x1b[2J\x1b[H{screen}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        prev = Some((stats, now));
        std::thread::sleep(interval);
    }
}

fn cmd_postmortem(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .first()
        .ok_or("postmortem: missing bundle directory")?;
    let bundle = predicate_control::obs::flight::validate_bundle(std::path::Path::new(path))
        .map_err(|e| format!("postmortem: {path}: {e}"))?;
    print!("{}", predicate_control::obs::flight::render_report(&bundle));
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first().cloned() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let args = Args::parse(&argv[1..]);
    if let Err(e) = args.check_flags(&cmd) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let result = match cmd.as_str() {
        "info" => cmd_info(&args),
        "detect" => cmd_detect(&args),
        "control" => cmd_control(&args),
        "verify" => cmd_verify(&args),
        "replay" => cmd_replay(&args),
        "trace" => cmd_trace(&args),
        "stats" => cmd_stats(&args),
        "dot" => cmd_dot(&args),
        "gen" => cmd_gen(&args),
        "serve" => cmd_serve(&args),
        "stream" => cmd_stream(&args),
        "top" => cmd_top(&args),
        "postmortem" => cmd_postmortem(&args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
