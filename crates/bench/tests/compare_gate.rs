//! End-to-end test of the perf-regression gate: `ab` over two builds of
//! `bench_suite --smoke` (here the same build twice) must pass, must fail
//! when a synthetic slowdown is injected into side B, and must refuse a
//! side whose run fails. `bench_suite`'s own verdicts must all print
//! before its exit, followed by the run line `ab` reads.

use pctl_bench::ab::{AbReport, RunLine, Verdict};
use std::process::{Command, Output};

const BENCH_SUITE_EXE: &str = env!("CARGO_BIN_EXE_bench_suite");

fn run(exe: &str, args: &[&str]) -> (Option<i32>, String, String) {
    let out: Output = Command::new(exe).args(args).output().expect("run");
    let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    (out.status.code(), text(&out.stdout), text(&out.stderr))
}

fn ab(a: &str, b: &str, inject: &[&str]) -> (Option<i32>, String, String) {
    let args = [&[a, b], inject, &["--", "--smoke"]].concat();
    run(env!("CARGO_BIN_EXE_ab"), &args)
}

fn last_line(stdout: &str) -> &str {
    stdout.lines().last().expect("some output")
}

/// The run line of one `bench_suite --smoke` run, run in an empty
/// directory that it must leave empty: the suite writes no report.
fn suite_run_line() -> RunLine {
    let dir = std::env::temp_dir().join(format!("pctl_compare_gate_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(BENCH_SUITE_EXE)
        .arg("--smoke")
        .current_dir(&dir)
        .output()
        .expect("run");
    let written = std::fs::read_dir(&dir).expect("temp dir").count();
    std::fs::remove_dir_all(&dir).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert_eq!(written, 0, "the suite wrote a file");
    serde_json::from_str(last_line(&stdout)).expect("run line")
}

#[test]
fn ab_passes_a_a_and_flags_an_injected_slowdown() {
    // The same build on both sides: nothing regresses.
    let (code, stdout, stderr) = ab(BENCH_SUITE_EXE, BENCH_SUITE_EXE, &[]);
    assert_eq!(code, Some(0), "A/A must pass:\n{stdout}\n{stderr}");
    let report: AbReport = serde_json::from_str(last_line(&stdout)).expect("JSON report");
    let names: Vec<&String> = report.metrics.iter().map(|m| &m.name).collect();
    let gated = suite_run_line();
    assert_eq!(names, gated.metrics.keys().collect::<Vec<_>>());
    assert_eq!(report.regressions, 0, "{stdout}");

    // A 30% slowdown injected into B: the deterministic pruning ratio
    // reads exactly 1.3 in every pair, so it regresses every time, on any
    // host. The timed readings (chunks × fastest interleaved chunk) spread
    // by a few percent here and resolve too, but 30% lies only 4% past
    // their bound, so a noisier host can leave them unresolved; an
    // injected 50% reads regressed (EXPERIMENTS "One benchmark harness").
    let inject = ["--inject-slowdown", "30"];
    let (code, stdout, _) = ab(BENCH_SUITE_EXE, BENCH_SUITE_EXE, &inject);
    assert_eq!(code, Some(2), "injected regression exits 2:\n{stdout}");
    let report: AbReport = serde_json::from_str(last_line(&stdout)).expect("JSON report");
    let ratio = report
        .metrics
        .iter()
        .find(|m| m.name == "slicing_pruning_ratio");
    assert_eq!(ratio.unwrap().verdict, Some(Verdict::Regressed));
    assert!(stdout
        .lines()
        .any(|l| l.starts_with("| `slicing_pruning_ratio`") && l.contains("REGRESSED")));
}

#[test]
fn ab_exits_3_when_a_side_fails() {
    // Side B exits non-zero in the first pair, after A ran; side A exits
    // zero but prints no run line.
    let false_b = (BENCH_SUITE_EXE, "false", "ab: side B, pair 1: false exited");
    let true_a = (
        "true",
        BENCH_SUITE_EXE,
        "ab: side A, pair 1: true printed nothing",
    );
    for (a, b, expected) in [false_b, true_a] {
        let (code, _, stderr) = ab(a, b, &[]);
        assert_eq!(code, Some(3), "{stderr}");
        assert!(stderr.contains(expected), "{stderr}");
    }
}

#[test]
fn bench_suite_prints_every_verdict_then_its_run_line() {
    // A 400% slowdown fails both A/B verdicts under --strict: they and the
    // profiler verdict print, then the run line, then the run exits 2.
    let args = ["--smoke", "--strict", "--inject-slowdown", "400"];
    let (code, stdout, _) = run(BENCH_SUITE_EXE, &args);
    assert_eq!(code, Some(2), "a failed verdict exits 2:\n{stdout}");
    let verdicts = [
        "FAIL: request telemetry",
        "FAIL: flight recorder",
        "ok: disabled profiler",
    ];
    for verdict in verdicts {
        let found = stdout.lines().any(|l| l.trim_start().starts_with(verdict));
        assert!(found, "missing verdict {verdict:?}:\n{stdout}");
    }
    // The run line declares how `ab` judges each of its five numbers: one
    // reading per timed case, and the pruning ratio.
    let line: RunLine = serde_json::from_str(last_line(&stdout)).expect("run line");
    let names: Vec<&str> = line.metrics.keys().map(String::as_str).collect();
    let timed = ["overlap_ms", "slicing_construct_ms", "slicing_control_ms"];
    assert_eq!(names[..3], timed);
    assert_eq!(names[3..], ["slicing_pruning_ratio", "sweep_ms"]);
    for (name, m) in &line.metrics {
        assert!(
            m.value > 0.0 && m.better.is_some() && m.bound.is_some(),
            "{name}: {m:?}"
        );
    }

    // Without --strict, --smoke downgrades the same failure to a warning.
    let (code, stdout, _) = run(BENCH_SUITE_EXE, &[args[0], args[2], args[3]]);
    assert_eq!(
        code,
        Some(0),
        "smoke without --strict is warn-only:\n{stdout}"
    );
    assert!(stdout.contains("WARNING"), "{stdout}");
}
