//! The repository benchmark. One command runs one workload for a seed:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload offline_batch --seed 1 --seconds 20 --trace 0
//! ```
//!
//! It prints a readable report, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the per-layer
//! ones from a traced run. A wrong answer, a refused request or a failed
//! audit makes the command exit 1. See `perfbench/README.md`.

mod common;
mod offline;
mod sim;
mod stream;

use common::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics: every workload reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("states_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: every traced run reports all of them, with zero for
/// a layer its workload does not reach.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("deposet.trace_decode_us", "us"),
    ("deposet.build_us", "us"),
    ("causality.clock_us", "us"),
    ("deposet.index_us", "us"),
    ("deposet.slice_us", "us"),
    ("deposet.states", "count"),
    ("deposet.false_intervals", "count"),
    ("core.detect_us", "us"),
    ("core.control_us", "us"),
    ("core.witness_us", "us"),
    ("core.controlled_build_us", "us"),
    ("core.control_arrows", "count"),
    ("core.feasible_share", "share"),
    ("pctld.append_rtt_us_p50", "us"),
    ("pctld.append_rtt_us_p99", "us"),
    ("pctld.query_rtt_us_mean", "us"),
    ("pctld.queue_wait_us_mean", "us"),
    ("pctld.apply_us_mean", "us"),
    ("pctld.request_us_mean.append", "us"),
    ("pctld.request_us_mean.detect", "us"),
    ("pctld.request_us_mean.control", "us"),
    ("pctld.busy_per_append", "share"),
    ("pctld.frame_bytes_per_append", "bytes"),
    ("pctld.json_us", "us"),
    ("pctld.frame_us", "us"),
    ("deposet.session_apply_us", "us"),
    ("deposet.session_bytes_per_state", "bytes"),
    ("core.stream_detect_us", "us"),
    ("core.stream_control_us", "us"),
    ("core.stream_cache_hit_share", "share"),
    ("sim.run_us", "us"),
    ("sim.ns_per_event", "ns"),
    ("sim.events_dispatched", "count"),
    ("sim.timesteps", "count"),
    ("sim.max_batch", "count"),
    ("sim.wheel_cascades", "count"),
    ("sim.arena_high_water", "count"),
    ("mutex.ctrl_msgs", "count"),
    ("mutex.retransmits", "count"),
    ("mutex.ctrl_msgs_per_entry", "ratio"),
    ("core.audit_us", "us"),
    ("layers.sum_share", "share"),
    ("layers.leftover_share", "share"),
    ("trace_overhead_share", "share"),
];

pub const WORKLOADS: &[&str] = &["offline_batch", "stream_mixed", "sim_controlled"];

/// Settings every workload receives.
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// A few-second pass over small inputs, for the benchmark's own tests.
    pub tiny: bool,
    /// Flip one verdict before it is checked, to prove the checks catch it.
    pub corrupt: bool,
    /// Where the traced run writes its spans.
    pub spans_dir: PathBuf,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--size full|tiny] [--corrupt-verdict] [--spans-dir <dir>]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<(String, RunCfg), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut cfg = RunCfg {
        seed: 0,
        seconds: 0.0,
        trace: false,
        tiny: false,
        corrupt: false,
        spans_dir: PathBuf::from(".bench_out"),
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value()?.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--size" => {
                cfg.tiny = match value()?.as_str() {
                    "full" => false,
                    "tiny" => true,
                    other => return Err(format!("--size takes full or tiny, not {other}")),
                }
            }
            "--corrupt-verdict" => cfg.corrupt = true,
            "--spans-dir" => cfg.spans_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    cfg.seed = seed.ok_or("missing --seed")?;
    cfg.seconds = seconds.ok_or("missing --seconds")?;
    if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    cfg.trace = trace.ok_or("missing --trace")?;
    Ok((workload, cfg))
}

/// The final JSON line: exactly the metrics of the run's mode, in the
/// declared order, each with its unit.
fn result_line(out: &Outcome, trace: bool) -> Result<String, String> {
    let declared = if trace { PER_LAYER } else { END_TO_END };
    for (name, _, _) in &out.metrics {
        if !declared.iter().any(|(n, _)| n == name) {
            return Err(format!("workload emitted undeclared metric {name}"));
        }
    }
    let mut fields = Vec::new();
    for (name, unit) in declared {
        let value = out
            .metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(0.0, |(_, v, u)| {
                assert_eq!(u, unit, "unit of {name}");
                *v
            });
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        fields.push(format!(
            "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        fields.join(",")
    ))
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let out = match workload.as_str() {
        "offline_batch" => offline::run(&cfg),
        "stream_mixed" => stream::run(&cfg),
        "sim_controlled" => sim::run(&cfg),
        _ => unreachable!("validated in parse_args"),
    };
    println!(
        "failed_share {:.6} ({} failed of {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    match result_line(&out, cfg.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    }
    if out.failed == 0 && out.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
