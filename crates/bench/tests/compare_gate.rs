//! End-to-end test of the perf-regression gate: `bench_suite --compare`
//! must exit zero against a healthy baseline and non-zero when a synthetic
//! regression is injected, and `BENCH_compare.json` must be well-formed.
//! A failing verdict must not hide the others: every verdict prints before
//! the exit.
//!
//! The test records its *own* baseline from a smoke run on this machine,
//! then compares a second smoke run against it — so the pass case only has
//! to absorb run-to-run noise (given a 300% threshold), not cross-machine
//! variance, and the fail case injects a 400% slowdown that no noise can
//! mask.

use std::path::{Path, PathBuf};
use std::process::Command;

fn bench_suite() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bench_suite"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pctl_compare_gate_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&d).expect("create temp dir");
    d
}

fn read_json(path: &Path) -> serde_json::Value {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
}

fn field(v: &serde_json::Value, key: &str) -> serde_json::Value {
    v.as_object()
        .unwrap_or_else(|| panic!("not an object: {v:?}"))
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.clone())
        .unwrap_or_else(|| panic!("missing field {key}"))
}

#[test]
fn compare_gate_passes_on_own_baseline_and_fails_on_injected_regression() {
    let dir = tmpdir("e2e");
    let baseline = dir.join("self_baseline.json");

    // 1. Record a baseline from this machine.
    let out = bench_suite()
        .args(["--smoke", "--out-dir"])
        .arg(&dir)
        .arg("--write-baseline")
        .arg(&baseline)
        .output()
        .expect("run bench_suite");
    assert!(
        out.status.success(),
        "baseline run failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(baseline.exists());

    // 2. Compare against it with a generous threshold: must pass (exit 0)
    //    even with --strict, i.e. the pass is genuine, not warn-only.
    let out = bench_suite()
        .args(["--smoke", "--strict", "--threshold-pct", "300", "--out-dir"])
        .arg(&dir)
        .arg("--compare")
        .arg(&baseline)
        .output()
        .expect("run bench_suite");
    assert!(
        out.status.success(),
        "healthy compare must exit 0:\nstdout:{}\nstderr:{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let cmp = read_json(&dir.join("BENCH_compare.json"));
    assert_eq!(field(&cmp, "bench").as_str(), Some("compare"));
    assert_eq!(field(&cmp, "passed"), serde_json::Value::Bool(true));

    // 3. Inject a 400% synthetic slowdown: the flight verdict and the gate
    //    must both fail and both be printed, the machine-readable report
    //    must still be written and record why, and only then the run exits
    //    2.
    std::fs::remove_file(dir.join("BENCH_compare.json")).expect("step 2 wrote a compare report");
    let out = bench_suite()
        .args([
            "--smoke",
            "--strict",
            "--inject-slowdown",
            "400",
            "--out-dir",
        ])
        .arg(&dir)
        .arg("--compare")
        .arg(&baseline)
        .output()
        .expect("run bench_suite");
    assert!(
        !out.status.success(),
        "injected regression must exit non-zero:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert_eq!(out.status.code(), Some(2), "regression exit code is 2");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for verdict in [
        "FAIL: flight recorder overhead",
        "FAIL: 7 of 7 scenario(s) regressed",
    ] {
        assert!(
            stdout.lines().any(|l| l.trim_start().starts_with(verdict)),
            "missing verdict {verdict:?}:\n{stdout}"
        );
    }
    let cmp = read_json(&dir.join("BENCH_compare.json"));
    assert_eq!(field(&cmp, "passed"), serde_json::Value::Bool(false));
    let cases = field(&cmp, "cases");
    let cases = cases.as_array().expect("cases array");
    let scenarios: Vec<String> = cases
        .iter()
        .map(|c| field(c, "scenario").as_str().expect("scenario").to_string())
        .collect();
    assert_eq!(
        scenarios,
        [
            "sweep_total_ms",
            "sweep_states_per_sec",
            "sweep_per_seed_p50_us",
            "sweep_per_seed_p95_us",
            "slicing_construct_p50_us",
            "slicing_control_p50_us",
            "slicing_pruning_ratio",
        ]
    );
    assert!(
        cases
            .iter()
            .all(|c| field(c, "regressed") == serde_json::Value::Bool(true)),
        "a 400% injected slowdown regresses every scenario: {cases:?}"
    );

    // 4. Without --strict, --smoke downgrades the same failure to a
    //    warning (CI smoke jobs stay green on incomparable workloads).
    let out = bench_suite()
        .args(["--smoke", "--inject-slowdown", "400", "--out-dir"])
        .arg(&dir)
        .arg("--compare")
        .arg(&baseline)
        .output()
        .expect("run bench_suite");
    assert!(
        out.status.success(),
        "smoke without --strict is warn-only:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("WARNING"),
        "warn-only mode still reports the regression"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compare_gate_rejects_missing_baseline() {
    let dir = tmpdir("missing");
    let out = bench_suite()
        .args(["--smoke", "--out-dir"])
        .arg(&dir)
        .args(["--compare", "/nonexistent/baseline.json"])
        .output()
        .expect("run bench_suite");
    assert_eq!(
        out.status.code(),
        Some(3),
        "unreadable baseline is a distinct failure:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}
