//! Flight recorder end-to-end: anomaly-triggered postmortem bundles,
//! the health/readiness endpoints, the in-memory metrics history, and
//! slow-log rotation.

use pctl_deposet::LocalPredicate;
use pctl_obs::flight::{bundle_dirs, render_report, validate_bundle, AnomalyKind};
use pctld::{Client, Config, Daemon, Request, Response, RetryPolicy};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn daemon(cfg: Config) -> Daemon {
    Daemon::spawn(cfg).expect("bind daemon")
}

fn client(d: &Daemon) -> Client {
    Client::connect(d.local_addr()).expect("connect")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pctld_flight_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn append_ok(c: &mut Client, session: &str, n: usize) {
    for _ in 0..n {
        let op = pctl_deposet::AppendOp::Internal {
            process: 0,
            updates: vec![("ok".into(), 1)],
        };
        assert_eq!(
            c.append_retry(session, op, RetryPolicy::default()).unwrap(),
            Response::Ok
        );
    }
}

/// One raw GET against the daemon's HTTP sidecar; returns (status, body).
fn http_get(srv: &pctl_obs::prom::MetricsServer, path: &str) -> (u16, String) {
    let mut s = TcpStream::connect(srv.local_addr()).unwrap();
    write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    let status: u16 = resp
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .expect("status line");
    let body = resp.split("\r\n\r\n").nth(1).unwrap_or("").to_owned();
    (status, body)
}

/// Wait for at least one published bundle directory under `root`.
fn wait_for_bundle(root: &Path, timeout: Duration) -> Option<PathBuf> {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if let Some(dir) = bundle_dirs(root).into_iter().next() {
            return Some(dir);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    None
}

#[test]
fn crash_dumps_schema_valid_bundle_that_renders() {
    let pm = temp_dir("crash_pm");
    let d = daemon(Config {
        fault_injection: true,
        flight_interval: Duration::from_millis(25),
        postmortem_dir: Some(pm.clone()),
        slow_ms: 0, // every request feeds the recent-slow ring
        ..Config::default()
    });
    let mut c = client(&d);
    assert_eq!(
        c.hello("crashy", vec![LocalPredicate::var("ok")], None)
            .unwrap(),
        Response::Ok
    );
    append_ok(&mut c, "crashy", 10);
    // Panic the worker: the sampler sees poisoned_total advance within
    // two intervals and must dump exactly one worker-poisoned bundle.
    match c
        .request(Request::Crash {
            session: "crashy".into(),
        })
        .unwrap()
    {
        Response::Err { .. } => {}
        other => panic!("crash must answer an error, got {other:?}"),
    }
    let bundle_dir = wait_for_bundle(&pm, Duration::from_secs(5)).expect("a bundle appears");
    let bundle = validate_bundle(&bundle_dir).expect("bundle passes schema validation");
    assert_eq!(bundle.manifest.anomaly.kind, AnomalyKind::WorkerPoisoned);
    assert!(bundle.manifest.frames >= 1);
    assert!(
        !bundle.manifest.recent_anomalies.is_empty(),
        "the trigger itself is in the recent-anomaly timeline"
    );
    let report = render_report(&bundle);
    assert!(report.contains("worker-poisoned"), "{report}");
    assert!(report.contains("trajectory"), "{report}");
    // The recorder counted what it did.
    let stats = d.stats();
    assert!(stats.anomalies_total >= 1, "{stats:?}");
    assert!(stats.postmortems_total >= 1, "{stats:?}");
    // Rate limit: the single crash produced exactly one poisoned bundle.
    let poisoned_bundles = bundle_dirs(&pm)
        .iter()
        .filter(|d| d.to_string_lossy().ends_with("worker-poisoned"))
        .count();
    assert_eq!(poisoned_bundles, 1, "one bundle per kind per window");
    assert_eq!(c.close("crashy").unwrap(), Response::Ok);
    d.shutdown();
    let _ = std::fs::remove_dir_all(&pm);
}

#[test]
fn healthz_reports_state_and_readyz_flips_on_drain() {
    let d = daemon(Config {
        flight_interval: Duration::from_millis(25),
        ..Config::default()
    });
    let srv = d.spawn_metrics("127.0.0.1:0").expect("metrics sidecar");
    let mut c = client(&d);
    assert_eq!(
        c.hello("healthy", vec![LocalPredicate::var("ok")], None)
            .unwrap(),
        Response::Ok
    );
    append_ok(&mut c, "healthy", 5);
    std::thread::sleep(Duration::from_millis(100)); // a few frames
    let (status, body) = http_get(&srv, "/healthz");
    assert_eq!(status, 200);
    let health: serde_json::Value = serde_json::from_str(body.trim()).expect("healthz is JSON");
    let obj = health.as_object().unwrap();
    let field = |k: &str| {
        obj.iter()
            .find(|(name, _)| name == k)
            .map(|(_, v)| v.clone())
    };
    assert_eq!(field("status").unwrap().as_str(), Some("ok"));
    for key in ["slo_burn", "poisoned_total", "memory_budget_bytes"] {
        assert!(field(key).is_some(), "missing {key} in {body}");
    }
    let (status, body) = http_get(&srv, "/readyz");
    assert_eq!((status, body.trim()), (200, "ready"));
    // /metrics still works on the same listener, with the new counters.
    let (status, body) = http_get(&srv, "/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("pctld_anomalies_total"), "{body}");
    assert!(body.contains("pctld_frames_rejected_total"), "{body}");
    // In-memory history accumulated frames with the expected shape.
    let history = d.flight_history();
    assert!(history.len() >= 2, "{} frames", history.len());
    assert!(history.windows(2).all(|w| w[0].uptime_ms <= w[1].uptime_ms));
    let last = history.last().unwrap();
    assert_eq!(last.counter("appends_total"), 5);
    assert_eq!(last.gauge("sessions"), 1);
    // A remote Shutdown drains the daemon: readiness must flip to 503
    // while the sidecar stays up for scrapes.
    match c.request(Request::Shutdown).unwrap() {
        Response::Draining { leaked } => assert_eq!(leaked, 0),
        other => panic!("unexpected: {other:?}"),
    }
    let (status, body) = http_get(&srv, "/readyz");
    assert_eq!((status, body.trim()), (503, "draining"));
    let (status, body) = http_get(&srv, "/healthz");
    assert_eq!(status, 200, "liveness stays 200 while draining");
    assert!(body.contains("\"status\":\"draining\""), "{body}");
    srv.shutdown();
}

#[test]
fn flight_off_records_nothing() {
    let d = daemon(Config {
        flight: false,
        flight_interval: Duration::from_millis(10),
        ..Config::default()
    });
    std::thread::sleep(Duration::from_millis(80));
    assert!(d.flight_history().is_empty());
    let stats = d.stats();
    assert_eq!(stats.anomalies_total, 0);
    assert_eq!(d.shutdown(), 0);
}

#[test]
fn slow_log_rotates_at_size_cap() {
    let dir = temp_dir("slowrot");
    let path = dir.join("slow.jsonl");
    let cap = 600u64;
    let d = daemon(Config {
        slow_log: Some(path.clone()),
        slow_ms: 0, // log every request
        slow_log_max_bytes: cap,
        flight: false,
        ..Config::default()
    });
    let mut c = client(&d);
    assert_eq!(
        c.hello("rot", vec![LocalPredicate::var("ok")], None)
            .unwrap(),
        Response::Ok
    );
    // Each record is ~120 bytes; 40 appends write far past one cap.
    append_ok(&mut c, "rot", 40);
    assert_eq!(c.close("rot").unwrap(), Response::Ok);
    d.shutdown();
    let rotated = dir.join("slow.jsonl.1");
    assert!(rotated.is_file(), "rotation produced slow.jsonl.1");
    for p in [&path, &rotated] {
        let text = std::fs::read_to_string(p).unwrap();
        assert!(!text.is_empty(), "{p:?} is non-empty");
        assert!(
            text.len() as u64 <= cap,
            "{p:?} holds {} bytes, cap {cap}",
            text.len()
        );
        for line in text.lines() {
            let v: serde_json::Value = serde_json::from_str(line).expect("JSONL record");
            assert!(
                v.as_object()
                    .unwrap()
                    .iter()
                    .any(|(k, _)| k == "latency_us"),
                "{line}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
