//! The benchmark's own tests: a tiny-size pass of every workload must
//! emit every declared metric with its unit, count a corrupted verdict as a
//! failure and exit non-zero, and repeat its input digest and exact counts
//! for a seed.

use serde_json::Value;
use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["offline_batch", "stream_mixed", "sim_controlled"];

struct Run {
    code: i32,
    stdout: String,
    result: Vec<(String, Value)>,
}

fn field<'a>(obj: &'a [(String, Value)], key: &str) -> &'a Value {
    &obj.iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("missing key {key}"))
        .1
}

fn run(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> Run {
    let spans =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("spans-{workload}-{seed}-{trace}"));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.5", "--trace", if trace { "1" } else { "0" }])
        .args(["--size", "tiny", "--spans-dir"])
        .arg(&spans)
        .args(extra)
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("some output");
    let value: Value = serde_json::from_str(last).expect("last line is JSON");
    Run {
        code: out.status.code().expect("exited"),
        result: value.as_object().expect("an object").to_vec(),
        stdout,
    }
}

/// `(name, unit)` of every metric of one kind in BENCHMARK.json.
fn declared(kind: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let bench: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let bench = bench.as_object().expect("an object");
    field(bench, kind)
        .as_array()
        .expect("a list")
        .iter()
        .map(|m| {
            let m = m.as_object().expect("a metric object");
            let text = |k: &str| field(m, k).as_str().expect("a string").to_owned();
            (text("name"), text("unit"))
        })
        .collect()
}

fn metric(r: &Run, name: &str) -> f64 {
    let metrics = field(&r.result, "metrics")
        .as_object()
        .expect("metrics object");
    match field(field(metrics, name).as_object().expect("a metric"), "value") {
        Value::Float(x) => *x,
        Value::UInt(x) => *x as f64,
        Value::Int(x) => *x as f64,
        other => panic!("{name} is not a number: {other}"),
    }
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    for workload in WORKLOADS {
        for (trace, kind) in [(false, "end_to_end"), (true, "per_layer")] {
            let r = run(workload, 1, trace, &[]);
            assert_eq!(r.code, 0, "{workload} trace={trace}:\n{}", r.stdout);
            assert!(matches!(field(&r.result, "correct"), Value::Bool(true)));
            assert!(matches!(field(&r.result, "failed"), Value::UInt(0)));
            let metrics = field(&r.result, "metrics").as_object().expect("metrics");
            let want = declared(kind);
            assert_eq!(metrics.len(), want.len(), "{workload} {kind}");
            for (name, unit) in want {
                let m = field(metrics, &name).as_object().expect("a metric");
                assert_eq!(field(m, "unit").as_str(), Some(unit.as_str()), "{name}");
                let v = metric(&r, &name);
                assert!(v.is_finite(), "{workload} {name}");
                if !trace {
                    assert!(v > 0.0, "{workload}: end-to-end {name} must not be 0");
                }
            }
            if trace {
                assert!(
                    r.stdout.contains("layers.sum_share"),
                    "{workload}: no layer table"
                );
                assert!(metric(&r, "layers.leftover_share") < 0.1, "{workload}");
            }
        }
    }
}

#[test]
fn a_corrupted_verdict_is_a_failure_and_a_non_zero_exit() {
    for workload in WORKLOADS {
        let r = run(workload, 2, false, &["--corrupt-verdict"]);
        assert_eq!(r.code, 1, "{workload}:\n{}", r.stdout);
        assert!(matches!(field(&r.result, "correct"), Value::Bool(false)));
        assert!(
            matches!(field(&r.result, "failed"), Value::UInt(n) if *n >= 1),
            "{workload}"
        );
        assert!(r.stdout.contains("failed_share"), "{workload}");
    }
}

#[test]
fn a_seed_repeats_its_input_digest_and_exact_counts() {
    let exact: &[&str] = &[
        "deposet.states",
        "deposet.false_intervals",
        "core.control_arrows",
        "core.feasible_share",
        "sim.events_dispatched",
        "sim.timesteps",
        "mutex.ctrl_msgs",
        "mutex.retransmits",
        "mutex.ctrl_msgs_per_entry",
    ];
    // The lines that name the digest and the exact counts.
    let fixed = |r: &Run| -> Vec<String> {
        r.stdout
            .lines()
            .filter(|l| l.contains("digest") || l.starts_with("exact counts"))
            .map(str::to_owned)
            .collect()
    };
    for workload in WORKLOADS {
        let a = run(workload, 3, true, &[]);
        let b = run(workload, 3, true, &[]);
        assert_eq!(a.code, 0, "{workload}:\n{}", a.stdout);
        assert_eq!(b.code, 0, "{workload}:\n{}", b.stdout);
        assert!(fixed(&a).iter().any(|l| l.contains("digest")), "{workload}");
        assert_eq!(fixed(&a), fixed(&b), "{workload}");
        for name in exact {
            assert_eq!(metric(&a, name), metric(&b, name), "{workload} {name}");
        }
        let other = run(workload, 4, true, &[]);
        assert_ne!(
            fixed(&a),
            fixed(&other),
            "{workload}: the seed must change the inputs"
        );
    }
}
