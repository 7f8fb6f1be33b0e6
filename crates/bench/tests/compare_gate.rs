//! End-to-end test of the perf-regression gate: `ab` over two builds of
//! `bench_suite --smoke` (here the same build twice) must pass, must fail
//! when a synthetic slowdown is injected into side B, and must refuse a
//! side whose run fails. `bench_suite`'s own verdicts must all print
//! before its exit, followed by the run line `ab` reads.

use pctl_bench::ab::{AbReport, RunLine, Verdict};
use std::process::{Command, Output};

const BENCH_SUITE_EXE: &str = env!("CARGO_BIN_EXE_bench_suite");

/// Runs `exe` with `args` and then `--out-dir` in a temp dir of its own.
fn run(exe: &str, args: &[&str], tag: &str) -> (Option<i32>, String, String) {
    let dir = std::env::temp_dir().join(format!("pctl_compare_gate_{tag}_{}", std::process::id()));
    let out: Output = Command::new(exe)
        .args(args)
        .arg("--out-dir")
        .arg(&dir)
        .output()
        .expect("run");
    std::fs::remove_dir_all(&dir).ok();
    let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    (out.status.code(), text(&out.stdout), text(&out.stderr))
}

fn ab(a: &str, b: &str, inject: &[&str], tag: &str) -> (Option<i32>, String, String) {
    let args = [&[a, b], inject, &["--", "--smoke"]].concat();
    run(env!("CARGO_BIN_EXE_ab"), &args, tag)
}

fn last_line(stdout: &str) -> &str {
    stdout.lines().last().expect("some output")
}

/// The run line of one `bench_suite --smoke` run.
fn suite_run_line() -> RunLine {
    let (code, stdout, stderr) = run(BENCH_SUITE_EXE, &["--smoke"], "line");
    assert_eq!(code, Some(0), "{stdout}\n{stderr}");
    serde_json::from_str(last_line(&stdout)).expect("run line")
}

#[test]
fn ab_passes_a_a_and_flags_an_injected_slowdown() {
    // The same build on both sides: nothing regresses.
    let (code, stdout, stderr) = ab(BENCH_SUITE_EXE, BENCH_SUITE_EXE, &[], "aa");
    assert_eq!(code, Some(0), "A/A must pass:\n{stdout}\n{stderr}");
    let report: AbReport = serde_json::from_str(last_line(&stdout)).expect("JSON report");
    let names: Vec<&String> = report.metrics.iter().map(|m| &m.name).collect();
    let gated = suite_run_line();
    assert_eq!(names, gated.metrics.keys().collect::<Vec<_>>());
    assert_eq!(report.regressions, 0, "{stdout}");

    // A 30% slowdown injected into B: the deterministic pruning ratio
    // reads exactly 1.3 in every pair, so it regresses every time. It is
    // the only scenario this test can rely on: the timed ones at these
    // sizes spread so widely from pair to pair that a 30% slowdown mostly
    // reads unresolved, so the suite gate catches a real slowdown of the
    // sweep or slicing code only once those cases are resized.
    let inject = ["--inject-slowdown", "30"];
    let (code, stdout, _) = ab(BENCH_SUITE_EXE, BENCH_SUITE_EXE, &inject, "inj");
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
        let (code, _, stderr) = ab(a, b, &[], "fail");
        assert_eq!(code, Some(3), "{stderr}");
        assert!(stderr.contains(expected), "{stderr}");
    }
}

#[test]
fn bench_suite_prints_every_verdict_then_its_run_line() {
    // A 400% slowdown fails the flight verdict under --strict: it and the
    // profiler verdict print, then the run line, then the run exits 2.
    let args = ["--smoke", "--strict", "--inject-slowdown", "400"];
    let (code, stdout, _) = run(BENCH_SUITE_EXE, &args, "strict");
    assert_eq!(code, Some(2), "a failed verdict exits 2:\n{stdout}");
    let verdicts = ["FAIL: flight recorder", "ok: disabled profiler"];
    for verdict in verdicts {
        let found = stdout.lines().any(|l| l.trim_start().starts_with(verdict));
        assert!(found, "missing verdict {verdict:?}:\n{stdout}");
    }
    // The run line declares how `ab` judges each of its six numbers. The
    // sweep's throughput is no longer among them: it is its states over
    // its total time, one reading counted twice.
    let line: RunLine = serde_json::from_str(last_line(&stdout)).expect("run line");
    assert_eq!(line.metrics.len(), 6, "{line:?}");
    for (name, m) in &line.metrics {
        assert!(
            m.value > 0.0 && m.better.is_some() && m.bound.is_some(),
            "{name}: {m:?}"
        );
        assert!(!name.ends_with("_per_sec"), "{name}");
    }

    // Without --strict, --smoke downgrades the same failure to a warning.
    let (code, stdout, _) = run(BENCH_SUITE_EXE, &[args[0], args[2], args[3]], "warn");
    assert_eq!(
        code,
        Some(0),
        "smoke without --strict is warn-only:\n{stdout}"
    );
    assert!(stdout.contains("WARNING"), "{stdout}");
}
