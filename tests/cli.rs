//! End-to-end tests of the `pctl` command-line tool: a full debugging
//! session through the binary interface (gen → info → detect → control →
//! verify → replay → dot).

use std::path::PathBuf;
use std::process::{Command, Output};

fn pctl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pctl"))
        .args(args)
        .output()
        .expect("spawn pctl")
}

fn tmpfile(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("pctl-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn full_session_through_the_cli() {
    let trace = tmpfile("c1.json");
    let control = tmpfile("ctl.json");

    // gen
    let out = pctl(&[
        "gen",
        "--workload",
        "cs",
        "--processes",
        "3",
        "--sections",
        "4",
        "--seed",
        "11",
    ]);
    assert!(
        out.status.success(),
        "gen failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::write(&trace, &out.stdout).unwrap();

    // info
    let out = pctl(&["info", trace.to_str().unwrap()]);
    assert!(out.status.success());
    let info = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(info.contains("processes : 3"), "{info}");
    assert!(info.contains("vars {cs}"), "{info}");
    let states: usize = info
        .lines()
        .find_map(|l| l.strip_prefix("states    : "))
        .and_then(|v| v.trim().parse().ok())
        .expect("info prints the state count");
    assert!(
        info.contains(&format!("store     : {} clock words", 3 * states)),
        "{info}"
    );

    // A flag the command does not read is rejected, not ignored.
    let out = pctl(&["info", trace.to_str().unwrap(), "--shards", "3"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown flag --shards"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // detect: overlapping critical sections exist in this workload
    let out = pctl(&[
        "detect",
        trace.to_str().unwrap(),
        "--at-least-one-not",
        "cs",
    ]);
    assert!(out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("VIOLATION possible"),
        "expected a detectable violation"
    );

    // control
    let out = pctl(&[
        "control",
        trace.to_str().unwrap(),
        "--at-least-one-not",
        "cs",
    ]);
    assert!(
        out.status.success(),
        "control failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::write(&control, &out.stdout).unwrap();

    // verify
    let out = pctl(&[
        "verify",
        trace.to_str().unwrap(),
        "--control",
        control.to_str().unwrap(),
        "--at-least-one-not",
        "cs",
    ]);
    assert!(
        out.status.success(),
        "verify failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("OK"));

    // A typo in a flag name fails before the command runs.
    let out = pctl(&[
        "verify",
        trace.to_str().unwrap(),
        "--control",
        control.to_str().unwrap(),
        "--at-least-one-not",
        "cs",
        "--limt",
        "5",
    ]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown flag --limt"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.stdout.is_empty(), "verify must not run");

    // replay under control: bug gone
    let out = pctl(&[
        "replay",
        trace.to_str().unwrap(),
        "--control",
        control.to_str().unwrap(),
        "--at-least-one-not",
        "cs",
    ]);
    assert!(
        out.status.success(),
        "replay failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("completed=true faithful=true"), "{text}");
    assert!(text.contains("satisfies the property"), "{text}");

    // dot renders with control edges
    let out = pctl(&[
        "dot",
        trace.to_str().unwrap(),
        "--control",
        control.to_str().unwrap(),
        "--vars",
    ]);
    assert!(out.status.success());
    let dotsrc = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(dotsrc.contains("digraph deposet"), "{dotsrc}");
    assert!(
        dotsrc.contains("style=dashed"),
        "control edge rendered: {dotsrc}"
    );

    let _ = std::fs::remove_file(trace);
    let _ = std::fs::remove_file(control);
}

#[test]
fn cli_reports_infeasibility_cleanly() {
    // A 1-process trace where the variable is never true — infeasible.
    let trace = tmpfile("bad.json");
    let out = pctl(&[
        "gen",
        "--workload",
        "random",
        "--processes",
        "2",
        "--events",
        "10",
        "--seed",
        "3",
    ]);
    assert!(out.status.success());
    std::fs::write(&trace, &out.stdout).unwrap();
    // 'never' is unset everywhere ⇒ at-least-one never ⇒ infeasible.
    let out = pctl(&[
        "control",
        trace.to_str().unwrap(),
        "--at-least-one",
        "never",
    ]);
    assert!(
        !out.status.success(),
        "expected failure for an infeasible property"
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("no controller exists"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_file(trace);
}

#[test]
fn cli_usage_and_errors() {
    let out = pctl(&["help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));

    let out = pctl(&["frobnicate"]);
    assert!(!out.status.success());

    let out = pctl(&["detect", "/nonexistent.json", "--at-least-one", "x"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));

    // Missing predicate flag.
    let out = pctl(&["gen", "--workload", "cs"]);
    assert!(out.status.success());
    let trace = tmpfile("nopred.json");
    std::fs::write(&trace, &out.stdout).unwrap();
    let out = pctl(&["detect", trace.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing predicate"));
    let _ = std::fs::remove_file(trace);
}

/// Run `pctl detect` on `trace` twice, with `switch` before and after the
/// path, and return both outputs.
fn detect_with_switch(trace: &str, switch: &str) -> (Output, Output) {
    let tail = ["--conjunct", "0:cs", "--conjunct", "1:cs"];
    let before = pctl(&[&["detect", switch, trace][..], &tail].concat());
    let after = pctl(&[&["detect", trace][..], &tail, &[switch]].concat());
    (before, after)
}

fn gen_cs_trace(name: &str) -> PathBuf {
    let out = pctl(&["gen", "--workload", "cs", "--processes", "3", "--seed", "5"]);
    assert!(out.status.success());
    let trace = tmpfile(name);
    std::fs::write(&trace, &out.stdout).unwrap();
    trace
}

#[test]
fn cli_quiet_before_the_path_does_not_swallow_it() {
    let trace = gen_cs_trace("switch-quiet.json");
    let (before, after) = detect_with_switch(trace.to_str().unwrap(), "--quiet");
    for out in [&before, &after] {
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(out.stderr.is_empty(), "--quiet leaves stderr empty");
    }
    assert!(!before.stdout.is_empty(), "a verdict is printed");
    assert_eq!(before.stdout, after.stdout);
    let _ = std::fs::remove_file(trace);
}

#[test]
fn cli_channels_empty_before_the_path_does_not_swallow_it() {
    let trace = gen_cs_trace("switch-channels.json");
    let (before, after) = detect_with_switch(trace.to_str().unwrap(), "--channels-empty");
    for out in [&before, &after] {
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    assert!(!before.stdout.is_empty(), "a verdict is printed");
    assert_eq!(before.stdout, after.stdout);
    let _ = std::fs::remove_file(trace);
}

#[test]
fn cli_telemetry_session() {
    // gen → control → replay --trace-out/--events-out → trace → stats:
    // every export must be valid and mutually consistent.
    let trace = tmpfile("obs-c1.json");
    let control = tmpfile("obs-ctl.json");
    let chrome_out = tmpfile("obs-chrome.json");
    let jsonl_out = tmpfile("obs-run.jsonl");

    let out = pctl(&[
        "gen",
        "--workload",
        "cs",
        "--processes",
        "3",
        "--sections",
        "4",
        "--seed",
        "11",
    ]);
    assert!(out.status.success());
    std::fs::write(&trace, &out.stdout).unwrap();

    let out = pctl(&[
        "control",
        trace.to_str().unwrap(),
        "--at-least-one-not",
        "cs",
        "--quiet",
    ]);
    assert!(out.status.success());
    assert!(
        out.stderr.is_empty(),
        "--quiet leaves stderr empty: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::write(&control, &out.stdout).unwrap();

    let out = pctl(&[
        "replay",
        trace.to_str().unwrap(),
        "--control",
        control.to_str().unwrap(),
        "--trace-out",
        chrome_out.to_str().unwrap(),
        "--events-out",
        jsonl_out.to_str().unwrap(),
        "--quiet",
    ]);
    assert!(
        out.status.success(),
        "replay failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.stderr.is_empty());

    // The exported Chrome trace validates against the trace_event schema.
    let chrome_json = std::fs::read_to_string(&chrome_out).unwrap();
    predicate_control::obs::chrome::validate_chrome_trace(&chrome_json)
        .expect("replay --trace-out emits valid Chrome trace JSON");

    // `pctl trace` on the JSONL telemetry emits the same kind of document.
    let out = pctl(&["trace", jsonl_out.to_str().unwrap()]);
    assert!(out.status.success());
    predicate_control::obs::chrome::validate_chrome_trace(&String::from_utf8_lossy(&out.stdout))
        .expect("pctl trace emits valid Chrome trace JSON");

    // `pctl trace` straight off the deposet, with control arrows.
    let out = pctl(&[
        "trace",
        trace.to_str().unwrap(),
        "--control",
        control.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let doc = String::from_utf8_lossy(&out.stdout);
    predicate_control::obs::chrome::validate_chrome_trace(&doc)
        .expect("deposet timeline emits valid Chrome trace JSON");
    assert!(
        doc.contains("C\\u2192") || doc.contains("C→"),
        "control arrows present"
    );

    // `pctl stats` summarizes the telemetry log.
    let out = pctl(&["stats", jsonl_out.to_str().unwrap()]);
    assert!(out.status.success());
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(report.contains("events by kind"), "{report}");

    // `pctl stats --prom` renders the same log as valid Prometheus text.
    let out = pctl(&["stats", jsonl_out.to_str().unwrap(), "--prom"]);
    assert!(out.status.success());
    let prom = String::from_utf8_lossy(&out.stdout);
    predicate_control::obs::prom::validate_exposition(&prom)
        .expect("pctl stats --prom emits parseable exposition");
    assert!(prom.contains("# TYPE pctl_events_total counter"), "{prom}");
    assert!(prom.contains("pctl_msg_latency_ticks"), "{prom}");

    for f in [trace, control, chrome_out, jsonl_out] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn cli_stats_keeps_percentile_sections_on_zero_sample_logs() {
    // An instant-only log has no span durations and no message latencies;
    // the report must still print both sections with an explicit
    // zero-sample line instead of silently omitting them.
    use predicate_control::obs::{jsonl, Event};
    let log = tmpfile("obs-instants.jsonl");
    let events = vec![Event::instant(1, 0, "tick"), Event::instant(5, 1, "tick")];
    std::fs::write(&log, jsonl::to_jsonl(&events)).unwrap();

    let out = pctl(&["stats", log.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(
        report.contains("span durations:\n  (no samples) n=0"),
        "{report}"
    );
    assert!(
        report.contains("message latencies:\n  (no samples) n=0"),
        "{report}"
    );

    // And the --prom view of the same log is still a valid document.
    let out = pctl(&["stats", log.to_str().unwrap(), "--prom"]);
    assert!(out.status.success());
    let prom = String::from_utf8_lossy(&out.stdout);
    predicate_control::obs::prom::validate_exposition(&prom).expect("valid exposition");
    assert!(
        prom.contains("pctl_instants_total{name=\"tick\"} 2"),
        "{prom}"
    );

    let _ = std::fs::remove_file(log);
}
