//! End-to-end daemon behavior over real TCP connections: lifecycle
//! correctness against the batch engine, backpressure, the degradation
//! ladder, panic quarantine, hostile-input containment, and metrics.

use pctl_core::offline::OfflineOptions;
use pctl_core::PredicateEngine;
use pctl_deposet::generator::{random_deposet, RandomConfig};
use pctl_deposet::{linearize, DisjunctivePredicate, LocalPredicate};
use pctld::{Client, Config, Daemon, ErrorKind, Request, Response, RetryPolicy};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn daemon(cfg: Config) -> Daemon {
    Daemon::spawn(cfg).expect("bind daemon")
}

fn client(d: &Daemon) -> Client {
    Client::connect(d.local_addr()).expect("connect")
}

#[test]
fn streamed_session_answers_like_the_batch_engine() {
    let d = daemon(Config::default());
    let mut c = client(&d);
    for seed in [3u64, 17, 40] {
        let dep = random_deposet(
            &RandomConfig {
                processes: 3,
                events: 24,
                send_prob: 0.4,
                flip_prob: 0.4,
            },
            seed,
        );
        let pred = DisjunctivePredicate::at_least_one(3, "ok");
        let (init, ops) = linearize(&dep);
        let name = format!("batch-vs-stream-{seed}");
        assert_eq!(
            c.hello(&name, pred.locals().to_vec(), Some(init)).unwrap(),
            Response::Ok
        );
        for op in ops {
            assert_eq!(
                c.append_retry(&name, op, RetryPolicy::default()).unwrap(),
                Response::Ok
            );
        }
        let batch = PredicateEngine::new(&dep, pred);
        match c.detect(&name).unwrap() {
            Response::Detect { violation } => assert_eq!(
                violation,
                batch.detect_violation().map(|g| g.indices().to_vec()),
                "seed {seed}"
            ),
            other => panic!("unexpected: {other:?}"),
        }
        match c.control(&name).unwrap() {
            Response::Control { relation, witness } => {
                match batch.control(OfflineOptions::default()) {
                    Ok(rel) => {
                        assert_eq!(relation, Some(rel), "seed {seed}");
                        assert_eq!(witness, None);
                    }
                    Err(inf) => {
                        assert_eq!(relation, None);
                        assert_eq!(witness, Some(inf.witness), "seed {seed}");
                    }
                }
            }
            other => panic!("unexpected: {other:?}"),
        }
        match c.verify(&name).unwrap() {
            Response::Verify { ok, .. } => assert_eq!(
                ok,
                batch.control(OfflineOptions::default()).is_ok(),
                "seed {seed}: controllable iff synthesized relation verifies"
            ),
            other => panic!("unexpected: {other:?}"),
        }
        match c.snapshot(&name).unwrap() {
            Response::Snapshot { trace } => {
                let snap = pctl_deposet::trace::from_json(&trace).expect("valid trace");
                assert_eq!(snap.process_count(), 3);
                assert_eq!(snap.total_states(), dep.total_states(), "seed {seed}");
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(c.close(&name).unwrap(), Response::Ok);
    }
    assert_eq!(d.session_count(), 0);
    assert_eq!(d.shutdown(), 0, "no leaked sessions");
}

#[test]
fn full_queue_bounces_busy_and_retry_recovers() {
    let d = daemon(Config {
        queue_depth: 2,
        fault_injection: true,
        ..Config::default()
    });
    let mut a = client(&d);
    let mut b = client(&d);
    assert_eq!(
        a.hello("bp", vec![LocalPredicate::var("ok")], None)
            .unwrap(),
        Response::Ok
    );
    // Stall the worker from one connection, flood from another.
    let stall = std::thread::spawn(move || {
        a.request(Request::Sleep {
            session: "bp".into(),
            ms: 400,
        })
        .unwrap()
    });
    std::thread::sleep(Duration::from_millis(50)); // let the stall start
    let op = pctl_deposet::AppendOp::Internal {
        process: 0,
        updates: vec![("ok".into(), 1)],
    };
    let mut saw_busy = false;
    for _ in 0..8 {
        match b.append("bp", op.clone()).unwrap() {
            Response::Ok => {}
            Response::Busy { retry_after_ms } => {
                assert!(retry_after_ms > 0);
                saw_busy = true;
                break;
            }
            other => panic!("unexpected: {other:?}"),
        }
    }
    assert!(saw_busy, "bounded queue never filled");
    // The backoff helper rides out the stall.
    assert_eq!(
        b.append_retry("bp", op, RetryPolicy::default()).unwrap(),
        Response::Ok
    );
    assert_eq!(stall.join().unwrap(), Response::Ok);
    let stats = d.stats();
    assert!(stats.busy_total >= 1, "busy_total = {}", stats.busy_total);
    assert_eq!(d.shutdown(), 0);
}

#[test]
fn worker_panic_poisons_only_its_session() {
    let d = daemon(Config {
        fault_injection: true,
        ..Config::default()
    });
    let mut c = client(&d);
    for name in ["victim", "bystander"] {
        assert_eq!(
            c.hello(name, vec![LocalPredicate::var("ok")], None)
                .unwrap(),
            Response::Ok
        );
    }
    match c
        .request(Request::Crash {
            session: "victim".into(),
        })
        .unwrap()
    {
        Response::Err { kind, .. } => assert_eq!(kind, ErrorKind::Poisoned),
        other => panic!("unexpected: {other:?}"),
    }
    // The poisoned session answers with a quarantine error...
    match c.detect("victim").unwrap() {
        Response::Err { kind, .. } => assert_eq!(kind, ErrorKind::Poisoned),
        other => panic!("unexpected: {other:?}"),
    }
    // ...while the bystander (and the daemon) work on.
    assert!(matches!(
        c.detect("bystander").unwrap(),
        Response::Detect { .. }
    ));
    let stats = d.stats();
    assert_eq!(stats.poisoned_total, 1);
    // Closing the tombstone succeeds and frees the name.
    assert_eq!(c.close("victim").unwrap(), Response::Ok);
    assert_eq!(c.close("bystander").unwrap(), Response::Ok);
    assert_eq!(d.session_count(), 0);
    assert_eq!(d.shutdown(), 0);
}

#[test]
fn panic_mid_batch_answers_everything_queued_behind_it() {
    // The worker takes its whole mailbox per wake-up. When a command in
    // the middle of that batch panics, every command after it must still
    // be answered `Poisoned` — a dropped reply would reach the client as
    // `Internal "did not answer"`.
    let d = daemon(Config {
        fault_injection: true,
        ..Config::default()
    });
    let mut a = client(&d);
    assert_eq!(
        a.hello("mid", vec![LocalPredicate::var("ok")], None)
            .unwrap(),
        Response::Ok
    );
    let stall = std::thread::spawn(move || {
        a.request(Request::Sleep {
            session: "mid".into(),
            ms: 300,
        })
        .unwrap()
    });
    std::thread::sleep(Duration::from_millis(50)); // let the stall start
    let mut b = client(&d);
    let crash = std::thread::spawn(move || {
        b.request(Request::Crash {
            session: "mid".into(),
        })
        .unwrap()
    });
    // The Detect must queue behind the Crash, in the same batch.
    while d
        .stats()
        .per_session
        .iter()
        .all(|s| s.name != "mid" || s.queue_depth == 0)
    {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut c = client(&d);
    let detect = c.detect("mid").unwrap();
    assert_eq!(stall.join().unwrap(), Response::Ok);
    for resp in [crash.join().unwrap(), detect] {
        match resp {
            Response::Err { kind, .. } => assert_eq!(kind, ErrorKind::Poisoned),
            other => panic!("unexpected: {other:?}"),
        }
    }
    assert_eq!(d.stats().poisoned_total, 1);
    assert_eq!(c.close("mid").unwrap(), Response::Ok);
    assert_eq!(d.shutdown(), 0);
}

#[test]
fn acked_append_is_applied_without_a_following_query() {
    // The worker lingers for more appends, but only for a bounded time:
    // an append nobody queries after is still applied (and its latency
    // recorded) on its own.
    let d = daemon(Config::default());
    let mut c = client(&d);
    assert_eq!(
        c.hello("lone", vec![LocalPredicate::var("ok")], None)
            .unwrap(),
        Response::Ok
    );
    let op = pctl_deposet::AppendOp::Internal {
        process: 0,
        updates: vec![("ok".into(), 1)],
    };
    assert_eq!(c.append("lone", op).unwrap(), Response::Ok);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while d.session_append_latencies("lone").unwrap().is_empty() {
        assert!(
            std::time::Instant::now() < deadline,
            "an acked append was never applied"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(d.stats().approx_bytes > 0);
    assert_eq!(c.close("lone").unwrap(), Response::Ok);
    assert_eq!(d.shutdown(), 0);
}

#[test]
fn fault_verbs_are_refused_unless_enabled() {
    // Crash/Sleep share the unauthenticated port with production verbs, so
    // a default-config daemon must refuse them outright.
    let d = daemon(Config::default());
    let mut c = client(&d);
    assert_eq!(
        c.hello("prod", vec![LocalPredicate::var("ok")], None)
            .unwrap(),
        Response::Ok
    );
    for req in [
        Request::Crash {
            session: "prod".into(),
        },
        Request::Sleep {
            session: "prod".into(),
            ms: 60_000,
        },
    ] {
        match c.request(req).unwrap() {
            Response::Err { kind, detail } => {
                assert_eq!(kind, ErrorKind::Malformed);
                assert!(detail.contains("disabled"), "{detail}");
            }
            other => panic!("unexpected: {other:?}"),
        }
    }
    // The refused verbs touched nothing: the session still answers.
    assert!(matches!(c.detect("prod").unwrap(), Response::Detect { .. }));
    assert_eq!(d.stats().poisoned_total, 0);
    assert_eq!(d.shutdown(), 0);
}

#[test]
fn close_joins_a_worker_stalled_behind_a_full_queue() {
    // Deadlock regression: the worker must not keep its own command sender
    // alive. With a stalled worker and a full queue, Cmd::Close never fits
    // — close must still return because dropping the registry's sender
    // disconnects the channel and the worker exits after draining.
    let d = daemon(Config {
        queue_depth: 1,
        fault_injection: true,
        ..Config::default()
    });
    let mut a = client(&d);
    let mut b = client(&d);
    assert_eq!(
        a.hello("stuck", vec![LocalPredicate::var("ok")], None)
            .unwrap(),
        Response::Ok
    );
    // Stall the worker well past close's ~1s enqueue-retry window.
    let stall = std::thread::spawn(move || {
        a.request(Request::Sleep {
            session: "stuck".into(),
            ms: 2_000,
        })
        .unwrap()
    });
    std::thread::sleep(Duration::from_millis(100)); // let the stall start
    let op = pctl_deposet::AppendOp::Internal {
        process: 0,
        updates: vec![("ok".into(), 1)],
    };
    // Fill the (depth-1) queue behind the stalled worker.
    assert_eq!(b.append("stuck", op.clone()).unwrap(), Response::Ok);
    assert!(matches!(
        b.append("stuck", op).unwrap(),
        Response::Busy { .. }
    ));
    // This hung forever when the worker held its own sender.
    assert_eq!(b.close("stuck").unwrap(), Response::Ok);
    assert_eq!(stall.join().unwrap(), Response::Ok);
    assert_eq!(d.session_count(), 0);
    // The append drained on the way out was released from the gauge too.
    assert_eq!(d.stats().approx_bytes, 0);
    assert_eq!(d.shutdown(), 0);
}

#[test]
fn closing_with_queued_appends_keeps_the_memory_gauge_exact() {
    // Accounting regression: appends still queued at close time are applied
    // by the worker before it exits; their byte deltas must be released
    // with the session instead of drifting the global gauge upward.
    let d = daemon(Config {
        fault_injection: true,
        ..Config::default()
    });
    let mut a = client(&d);
    let mut b = client(&d);
    assert_eq!(
        a.hello("queued", vec![LocalPredicate::var("ok")], None)
            .unwrap(),
        Response::Ok
    );
    let stall = std::thread::spawn(move || {
        a.request(Request::Sleep {
            session: "queued".into(),
            ms: 300,
        })
        .unwrap()
    });
    std::thread::sleep(Duration::from_millis(50)); // let the stall start
    for v in 0..5 {
        let op = pctl_deposet::AppendOp::Internal {
            process: 0,
            updates: vec![("ok".into(), v)],
        };
        assert_eq!(b.append("queued", op).unwrap(), Response::Ok);
    }
    // Close while all five appends are still queued behind the stall.
    assert_eq!(b.close("queued").unwrap(), Response::Ok);
    assert_eq!(stall.join().unwrap(), Response::Ok);
    assert_eq!(
        d.stats().approx_bytes,
        0,
        "queued appends leaked into the global memory gauge"
    );
    // An exact gauge means the daemon still admits work after many closes.
    let mut c = client(&d);
    assert_eq!(
        c.hello("after", vec![LocalPredicate::var("ok")], None)
            .unwrap(),
        Response::Ok
    );
    assert_eq!(d.shutdown(), 0);
}

#[test]
fn admission_evicts_idle_lru_then_refuses_newcomers() {
    // Everything is instantly "idle": the LRU session is sacrificed for a
    // newcomer once the session cap is hit.
    let d = daemon(Config {
        max_sessions: 2,
        idle_timeout: Duration::from_millis(0),
        ..Config::default()
    });
    let mut c = client(&d);
    for name in ["s1", "s2"] {
        assert_eq!(
            c.hello(name, vec![LocalPredicate::var("ok")], None)
                .unwrap(),
            Response::Ok
        );
        std::thread::sleep(Duration::from_millis(10)); // order last_active
    }
    assert_eq!(
        c.hello("s3", vec![LocalPredicate::var("ok")], None)
            .unwrap(),
        Response::Ok
    );
    assert_eq!(d.stats().evictions_total, 1);
    match c.detect("s1").unwrap() {
        Response::Err { kind, .. } => assert_eq!(kind, ErrorKind::UnknownSession, "s1 evicted"),
        other => panic!("unexpected: {other:?}"),
    }
    assert!(matches!(c.detect("s2").unwrap(), Response::Detect { .. }));
    assert_eq!(d.shutdown(), 0);

    // With a long idle timeout nothing is evictable: the *newcomer* is
    // refused and live sessions stay untouched.
    let d = daemon(Config {
        max_sessions: 1,
        idle_timeout: Duration::from_secs(3600),
        ..Config::default()
    });
    let mut c = client(&d);
    assert_eq!(
        c.hello("live", vec![LocalPredicate::var("ok")], None)
            .unwrap(),
        Response::Ok
    );
    match c
        .hello("late", vec![LocalPredicate::var("ok")], None)
        .unwrap()
    {
        Response::Err { kind, .. } => assert_eq!(kind, ErrorKind::Capacity),
        other => panic!("unexpected: {other:?}"),
    }
    assert!(matches!(c.detect("live").unwrap(), Response::Detect { .. }));
    assert_eq!(d.stats().sessions_refused_total, 1);
    assert_eq!(d.shutdown(), 0);
}

#[test]
fn memory_budget_evicts_idle_then_refuses_appends() {
    let d = daemon(Config {
        memory_budget: 1, // any populated store is over budget
        idle_timeout: Duration::from_millis(0),
        ..Config::default()
    });
    let mut c = client(&d);
    let op = |v: i64| pctl_deposet::AppendOp::Internal {
        process: 0,
        updates: vec![("ok".into(), v)],
    };
    assert_eq!(
        c.hello("grower", vec![LocalPredicate::var("ok")], None)
            .unwrap(),
        Response::Ok
    );
    assert_eq!(
        c.append_retry("grower", op(1), RetryPolicy::default())
            .unwrap(),
        Response::Ok
    );
    // Make sure the worker applied it so approx_bytes is visible.
    assert!(matches!(
        c.detect("grower").unwrap(),
        Response::Detect { .. }
    ));
    assert!(d.stats().approx_bytes > 1);

    // A newcomer is admitted by evicting the idle grower.
    assert_eq!(
        c.hello("newcomer", vec![LocalPredicate::var("ok")], None)
            .unwrap(),
        Response::Ok
    );
    assert!(d.stats().evictions_total >= 1);
    assert!(matches!(
        c.detect("grower").unwrap(),
        Response::Err {
            kind: ErrorKind::UnknownSession,
            ..
        }
    ));

    // Grow the newcomer over budget; with nothing else idle to shed,
    // further appends are refused — the daemon degrades, it doesn't die.
    assert_eq!(
        c.append_retry("newcomer", op(1), RetryPolicy::default())
            .unwrap(),
        Response::Ok
    );
    assert!(matches!(
        c.detect("newcomer").unwrap(),
        Response::Detect { .. }
    ));
    match c.append("newcomer", op(0)).unwrap() {
        Response::Err { kind, .. } => assert_eq!(kind, ErrorKind::Budget),
        other => panic!("unexpected: {other:?}"),
    }
    assert!(d.stats().appends_refused_total >= 1);
    // The session still answers queries.
    assert!(matches!(
        c.detect("newcomer").unwrap(),
        Response::Detect { .. }
    ));
    assert_eq!(d.shutdown(), 0);
}

#[test]
fn malformed_and_oversized_frames_never_kill_the_daemon() {
    let d = daemon(Config {
        max_frame: 1024,
        ..Config::default()
    });
    let addr = d.local_addr();

    // Well-framed garbage JSON: structured error, connection stays usable.
    let mut s = TcpStream::connect(addr).unwrap();
    let garbage = b"}{ not json";
    let mut wire = Vec::new();
    pctld::encode_frame(garbage, &mut wire);
    s.write_all(&wire).unwrap();
    let mut dec = pctld::FrameDecoder::new(1 << 20);
    let mut buf = [0u8; 4096];
    let payload = loop {
        if let Some(p) = dec.next_frame().unwrap() {
            break p;
        }
        let n = s.read(&mut buf).unwrap();
        assert!(n > 0, "daemon closed on malformed JSON");
        dec.push(&buf[..n]);
    };
    let text = String::from_utf8(payload).unwrap();
    assert!(text.contains("Malformed"), "{text}");
    // Same connection still serves a valid request.
    let env = pctld::RequestEnvelope {
        seq: 42,
        req: Request::Stats,
    };
    let mut wire = Vec::new();
    pctld::encode_frame(serde_json::to_string(&env).unwrap().as_bytes(), &mut wire);
    s.write_all(&wire).unwrap();
    let payload = loop {
        if let Some(p) = dec.next_frame().unwrap() {
            break p;
        }
        let n = s.read(&mut buf).unwrap();
        assert!(n > 0);
        dec.push(&buf[..n]);
    };
    assert!(String::from_utf8(payload).unwrap().contains("\"seq\":42"));

    // Oversized frame declaration: one structured error, then the daemon
    // drops only that connection.
    let mut s2 = TcpStream::connect(addr).unwrap();
    s2.write_all(&100_000_000u32.to_be_bytes()).unwrap();
    let mut resp = Vec::new();
    s2.read_to_end(&mut resp).unwrap(); // daemon answers then closes
    assert!(
        String::from_utf8_lossy(&resp[4..]).contains("Malformed"),
        "{:?}",
        String::from_utf8_lossy(&resp)
    );

    // The accept loop survived both: a fresh client works.
    let mut c = client(&d);
    assert!(matches!(c.stats().unwrap(), Response::Stats { .. }));
    assert_eq!(d.shutdown(), 0);
}

#[test]
fn snapshots_flush_on_close_and_drain() {
    let dir = std::env::temp_dir().join(format!("pctld-snap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let d = daemon(Config {
        snapshot_dir: Some(dir.clone()),
        ..Config::default()
    });
    let mut c = client(&d);
    let op = pctl_deposet::AppendOp::Internal {
        process: 0,
        updates: vec![("ok".into(), 1)],
    };
    for name in ["closed", "drained"] {
        assert_eq!(
            c.hello(name, vec![LocalPredicate::var("ok")], None)
                .unwrap(),
            Response::Ok
        );
        assert_eq!(
            c.append_retry(name, op.clone(), RetryPolicy::default())
                .unwrap(),
            Response::Ok
        );
    }
    assert_eq!(c.close("closed").unwrap(), Response::Ok);
    // "drained" is flushed by shutdown.
    match c.shutdown().unwrap() {
        Response::Draining { leaked } => assert_eq!(leaked, 0),
        other => panic!("unexpected: {other:?}"),
    }
    for name in ["closed", "drained"] {
        let path = dir.join(format!("{name}.json"));
        let json = std::fs::read_to_string(&path).expect("snapshot file written");
        let dep = pctl_deposet::trace::from_json(&json).expect("valid trace");
        assert_eq!(dep.total_states(), 2);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_write_failures_are_counted_and_exported() {
    // The snapshot directory's parent is a regular file, so neither
    // `create_dir_all` nor the write can succeed.
    let file = std::env::temp_dir().join(format!("pctld-snap-file-{}", std::process::id()));
    std::fs::write(&file, b"not a directory").unwrap();
    let d = daemon(Config {
        snapshot_dir: Some(file.join("snaps")),
        ..Config::default()
    });
    let srv = d.spawn_metrics("127.0.0.1:0").expect("metrics bind");
    let mut c = client(&d);
    for name in ["a", "b"] {
        assert_eq!(
            c.hello(name, vec![LocalPredicate::var("ok")], None)
                .unwrap(),
            Response::Ok
        );
        assert_eq!(c.close(name).unwrap(), Response::Ok);
    }
    assert_eq!(d.stats().snapshot_write_errors_total, 2);
    let body = scrape(&srv);
    pctl_obs::prom::validate_exposition(&body).expect("valid exposition");
    assert!(
        body.contains("pctld_snapshot_write_errors_total 2"),
        "{body}"
    );
    srv.shutdown();
    assert_eq!(d.shutdown(), 0);
    let _ = std::fs::remove_file(&file);
}

#[test]
fn metrics_endpoint_exports_daemon_gauges() {
    let d = daemon(Config::default());
    let mut c = client(&d);
    assert_eq!(
        c.hello("metered", vec![LocalPredicate::var("ok")], None)
            .unwrap(),
        Response::Ok
    );
    let srv = d.spawn_metrics("127.0.0.1:0").expect("metrics bind");
    let mut s = TcpStream::connect(srv.local_addr()).unwrap();
    write!(s, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    let body = resp.split("\r\n\r\n").nth(1).unwrap_or("");
    pctl_obs::prom::validate_exposition(body).expect("valid exposition");
    assert!(body.contains("pctld_sessions 1"), "{body}");
    assert!(body.contains("pctld_memory_budget_bytes"), "{body}");
    assert!(
        body.contains("pctld_queue_depth{session=\"metered\"}"),
        "{body}"
    );
    srv.shutdown();
    assert_eq!(d.shutdown(), 0);
}

#[test]
fn hello_rejects_bad_names_arity_and_duplicates() {
    let d = daemon(Config::default());
    let mut c = client(&d);
    let bad = c
        .hello("../escape", vec![LocalPredicate::var("ok")], None)
        .unwrap();
    assert!(matches!(
        bad,
        Response::Err {
            kind: ErrorKind::Malformed,
            ..
        }
    ));
    assert!(matches!(
        c.hello("ok-name", vec![], None).unwrap(),
        Response::Err {
            kind: ErrorKind::Malformed,
            ..
        }
    ));
    assert!(matches!(
        c.hello(
            "ok-name",
            vec![LocalPredicate::var("ok")],
            Some(vec![vec![], vec![]]),
        )
        .unwrap(),
        Response::Err {
            kind: ErrorKind::Malformed,
            ..
        }
    ));
    assert_eq!(
        c.hello("ok-name", vec![LocalPredicate::var("ok")], None)
            .unwrap(),
        Response::Ok
    );
    assert!(matches!(
        c.hello("ok-name", vec![LocalPredicate::var("ok")], None)
            .unwrap(),
        Response::Err {
            kind: ErrorKind::SessionExists,
            ..
        }
    ));
    // Appends to unknown processes wedge the session with a structured
    // sticky error instead of killing anything.
    assert_eq!(
        c.append(
            "ok-name",
            pctl_deposet::AppendOp::Internal {
                process: 9,
                updates: vec![],
            },
        )
        .unwrap(),
        Response::Ok,
        "acked on enqueue"
    );
    match c.detect("ok-name").unwrap() {
        Response::Err { kind, detail } => {
            assert_eq!(kind, ErrorKind::Append);
            assert!(detail.contains("process"), "{detail}");
        }
        other => panic!("unexpected: {other:?}"),
    }
    assert_eq!(c.close("ok-name").unwrap(), Response::Ok);
    assert_eq!(d.shutdown(), 0);
}

/// Scrape the daemon's metrics endpoint once, returning the body.
fn scrape(srv: &pctl_obs::prom::MetricsServer) -> String {
    let mut s = TcpStream::connect(srv.local_addr()).unwrap();
    write!(s, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    resp.split("\r\n\r\n").nth(1).unwrap_or("").to_owned()
}

#[test]
fn request_histograms_export_and_validate_on_metrics() {
    let d = daemon(Config::default());
    let mut c = client(&d);
    let dep = random_deposet(
        &RandomConfig {
            processes: 3,
            events: 30,
            send_prob: 0.4,
            flip_prob: 0.4,
        },
        5,
    );
    let pred = DisjunctivePredicate::at_least_one(3, "ok");
    let (init, ops) = linearize(&dep);
    let appended = ops.len() as f64;
    assert_eq!(
        c.hello("histo", pred.locals().to_vec(), Some(init))
            .unwrap(),
        Response::Ok
    );
    for op in ops {
        assert_eq!(
            c.append_retry("histo", op, RetryPolicy::default()).unwrap(),
            Response::Ok
        );
    }
    match c.detect("histo").unwrap() {
        Response::Detect { .. } => {}
        other => panic!("unexpected: {other:?}"),
    }
    let srv = d.spawn_metrics("127.0.0.1:0").expect("metrics bind");
    let body = scrape(&srv);
    pctl_obs::prom::validate_exposition(&body).expect("histograms validate");
    // Per-verb request histograms: the +Inf bucket of each verb equals its
    // _count, and every verb this test exercised is present.
    for verb in ["hello", "append", "detect"] {
        assert!(
            body.contains(&format!(
                "pctld_request_seconds_bucket{{verb=\"{verb}\",le=\"+Inf\"}}"
            )),
            "verb {verb} missing from exposition:\n{body}"
        );
        assert!(
            body.contains(&format!("pctld_request_seconds_count{{verb=\"{verb}\"}}")),
            "{body}"
        );
    }
    assert!(
        body.contains(&format!(
            "pctld_request_seconds_count{{verb=\"append\"}} {appended}"
        )),
        "every accepted append is observed exactly once:\n{body}"
    );
    // The append split: queue-wait and store-apply histograms carry the
    // same total count as the appends the worker applied.
    assert!(
        body.contains(&format!("pctld_append_queue_wait_seconds_count {appended}")),
        "{body}"
    );
    assert!(
        body.contains(&format!("pctld_append_apply_seconds_count {appended}")),
        "{body}"
    );
    srv.shutdown();
    assert_eq!(c.close("histo").unwrap(), Response::Ok);
    assert_eq!(d.shutdown(), 0);
}

#[test]
fn telemetry_off_exports_no_request_histograms_and_same_verdicts() {
    let cfg = Config {
        telemetry: false,
        ..Config::default()
    };
    let d = daemon(cfg);
    let mut c = client(&d);
    let dep = random_deposet(
        &RandomConfig {
            processes: 3,
            events: 24,
            send_prob: 0.4,
            flip_prob: 0.4,
        },
        17,
    );
    let pred = DisjunctivePredicate::at_least_one(3, "ok");
    let (init, ops) = linearize(&dep);
    assert_eq!(
        c.hello("dark", pred.locals().to_vec(), Some(init)).unwrap(),
        Response::Ok
    );
    for op in ops {
        assert_eq!(
            c.append_retry("dark", op, RetryPolicy::default()).unwrap(),
            Response::Ok
        );
    }
    // Verdicts are bit-identical to the batch engine with telemetry off.
    let batch = PredicateEngine::new(&dep, pred);
    match c.detect("dark").unwrap() {
        Response::Detect { violation } => assert_eq!(
            violation,
            batch.detect_violation().map(|g| g.indices().to_vec())
        ),
        other => panic!("unexpected: {other:?}"),
    }
    // The Trace verb degrades gracefully: no ring, empty answer.
    match c.trace("dark").unwrap() {
        Response::Trace {
            events,
            dropped,
            processes,
        } => {
            assert!(events.is_empty(), "no ring when telemetry is off");
            assert_eq!(dropped, 0);
            assert_eq!(processes, 3);
        }
        other => panic!("unexpected: {other:?}"),
    }
    let srv = d.spawn_metrics("127.0.0.1:0").expect("metrics bind");
    let body = scrape(&srv);
    pctl_obs::prom::validate_exposition(&body).expect("valid exposition");
    assert!(
        !body.contains("pctld_request_seconds"),
        "telemetry off exports no request histograms:\n{body}"
    );
    srv.shutdown();
    assert_eq!(c.close("dark").unwrap(), Response::Ok);
    assert_eq!(d.shutdown(), 0);
}

#[test]
fn stats_per_session_percentiles_are_exact() {
    let d = daemon(Config::default());
    let mut c = client(&d);
    let dep = random_deposet(
        &RandomConfig {
            processes: 3,
            events: 40,
            send_prob: 0.4,
            flip_prob: 0.4,
        },
        23,
    );
    let pred = DisjunctivePredicate::at_least_one(3, "ok");
    let (init, ops) = linearize(&dep);
    let total = ops.len() as u64;
    assert_eq!(
        c.hello("exact", pred.locals().to_vec(), Some(init))
            .unwrap(),
        Response::Ok
    );
    for op in ops {
        assert_eq!(
            c.append_retry("exact", op, RetryPolicy::default()).unwrap(),
            Response::Ok
        );
    }
    // Queries are answered by the same worker that applies appends, in
    // order — one round trip quiesces the queue, so the latency window is
    // complete before Stats reads it.
    match c.detect("exact").unwrap() {
        Response::Detect { .. } => {}
        other => panic!("unexpected: {other:?}"),
    }
    let recorded = d
        .session_append_latencies("exact")
        .expect("session is live");
    assert_eq!(
        recorded.len() as u64,
        total,
        "one sample per applied append"
    );
    let expect = pctl_obs::stats::Percentiles::of(&recorded).expect("non-empty");
    let stats = c.stats_snapshot().unwrap();
    let s = stats
        .per_session
        .iter()
        .find(|s| s.name == "exact")
        .expect("per-session row present");
    assert_eq!(s.appends, total);
    assert_eq!(s.p50_us, expect.p50, "p50 is exact nearest-rank: {s:?}");
    assert_eq!(s.p95_us, expect.p95, "p95 is exact nearest-rank: {s:?}");
    assert_eq!(s.queue_depth, 0, "quiesced session has an empty queue");
    assert!(s.approx_bytes > 0);
    assert_eq!(stats.sessions, 1);
    assert_eq!(c.close("exact").unwrap(), Response::Ok);
    assert_eq!(d.shutdown(), 0);
}

#[test]
fn trace_verb_round_trips_to_a_valid_chrome_trace() {
    use pctl_obs::EventKind;
    // A ring smaller than the event count forces drop-oldest, so the
    // export path must prune orphaned receives to stay schema-valid.
    let cfg = Config {
        trace_ring: 16,
        ..Config::default()
    };
    let d = daemon(cfg);
    let mut c = client(&d);
    let dep = random_deposet(
        &RandomConfig {
            processes: 3,
            events: 48,
            send_prob: 0.5,
            flip_prob: 0.4,
        },
        11,
    );
    let pred = DisjunctivePredicate::at_least_one(3, "ok");
    let (init, ops) = linearize(&dep);
    let total = ops.len() as u64;
    assert_eq!(
        c.hello("traced", pred.locals().to_vec(), Some(init))
            .unwrap(),
        Response::Ok
    );
    for op in ops {
        assert_eq!(
            c.append_retry("traced", op, RetryPolicy::default())
                .unwrap(),
            Response::Ok
        );
    }
    match c.detect("traced").unwrap() {
        Response::Detect { .. } => {}
        other => panic!("unexpected: {other:?}"),
    }
    let (mut events, dropped, processes) = match c.trace("traced").unwrap() {
        Response::Trace {
            events,
            dropped,
            processes,
        } => (events, dropped, processes),
        other => panic!("unexpected: {other:?}"),
    };
    assert_eq!(processes, 3);
    assert!(!events.is_empty(), "ring holds the tail of the stream");
    assert!(events.len() <= 16 + 1, "bounded by the configured ring");
    assert!(
        dropped > 0 && dropped < 2 * total,
        "a 16-slot ring over {total} appends must drop: {dropped}"
    );
    // Timestamps are monotone oldest-first, and every lane is in range.
    for w in events.windows(2) {
        assert!(w[0].ts <= w[1].ts, "ring snapshot is oldest-first");
    }
    assert!(events
        .iter()
        .all(|e| e.lane < processes || matches!(e.kind, EventKind::Counter { .. })));
    pctl_obs::chrome::prune_orphan_flows(&mut events);
    let lanes: Vec<String> = (0..processes).map(|i| format!("p{i}")).collect();
    let json = pctl_obs::chrome::chrome_trace(&events, &lanes);
    pctl_obs::chrome::validate_chrome_trace(&json).expect("schema-valid Chrome trace");
    assert_eq!(c.close("traced").unwrap(), Response::Ok);
    // Trace on a closed session is a structured error, not silence.
    match c.trace("traced").unwrap() {
        Response::Err { kind, .. } => assert_eq!(kind, ErrorKind::UnknownSession),
        other => panic!("unexpected: {other:?}"),
    }
    assert_eq!(d.shutdown(), 0);
}

#[test]
fn slow_log_records_requests_as_structured_jsonl() {
    let dir = std::env::temp_dir().join(format!("pctld_slowlog_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join("slow.jsonl");
    // Threshold 0: every request is "slow", so the log records them all.
    let cfg = Config {
        slow_log: Some(log_path.clone()),
        slow_ms: 0,
        ..Config::default()
    };
    let d = daemon(cfg);
    let mut c = client(&d);
    assert_eq!(
        c.hello("logged", vec![LocalPredicate::var("ok")], None)
            .unwrap(),
        Response::Ok
    );
    assert_eq!(
        c.append(
            "logged",
            pctl_deposet::AppendOp::Internal {
                process: 0,
                updates: vec![("ok".into(), 1)],
            },
        )
        .unwrap(),
        Response::Ok
    );
    match c.detect("missing-session").unwrap() {
        Response::Err { kind, .. } => assert_eq!(kind, ErrorKind::UnknownSession),
        other => panic!("unexpected: {other:?}"),
    }
    assert_eq!(c.close("logged").unwrap(), Response::Ok);
    assert_eq!(d.shutdown(), 0);
    let text = std::fs::read_to_string(&log_path).expect("slow log written");
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines.len() >= 4,
        "hello, append, failed detect, close all logged:\n{text}"
    );
    let mut verbs = Vec::new();
    let mut outcomes = Vec::new();
    for line in &lines {
        let v: serde_json::Value = serde_json::from_str(line).expect("JSONL line parses");
        let obj = v.as_object().expect("record is an object");
        let get = |k: &str| {
            obj.iter()
                .find(|(name, _)| name == k)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("missing field {k} in {line}"))
        };
        verbs.push(get("verb").as_str().unwrap().to_owned());
        outcomes.push(get("outcome").as_str().unwrap().to_owned());
        for num in ["latency_us", "queue_depth", "ts_ms"] {
            assert!(
                matches!(
                    get(num),
                    serde_json::Value::UInt(_) | serde_json::Value::Int(_)
                ),
                "{num} is numeric in {line}"
            );
        }
    }
    for verb in ["hello", "append", "detect", "close"] {
        assert!(verbs.iter().any(|v| v == verb), "{verbs:?}");
    }
    assert!(outcomes.iter().any(|o| o == "ok"), "{outcomes:?}");
    assert!(
        outcomes.iter().any(|o| o.starts_with("err:")),
        "the failed detect records its error outcome: {outcomes:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn regular_class_session_answers_via_slicing_and_memoizes() {
    use pctl_deposet::{PredicateClass, RegularPredicate};
    let d = daemon(Config::default());
    let mut c = client(&d);
    // Conjunction of locals across all three processes — a violation the
    // disjunctive wire form cannot express at all.
    let class = PredicateClass::regular(3, RegularPredicate::conj_var(&[0, 1, 2], "ok"));
    for seed in [3u64, 17, 40] {
        let dep = random_deposet(
            &RandomConfig {
                processes: 3,
                events: 24,
                send_prob: 0.4,
                flip_prob: 0.4,
            },
            seed,
        );
        let name = format!("regular-{seed}");
        let report =
            pctld::stream_deposet_class(&mut c, &name, class.clone(), &dep, RetryPolicy::default())
                .unwrap();
        assert_eq!(report.appends, dep.total_states() - 3, "seed {seed}");
        let batch = pctl_core::PredicateEngine::for_class(&dep, &class).unwrap();
        match c.detect(&name).unwrap() {
            Response::Detect { violation } => assert_eq!(
                violation,
                batch.detect_violation().map(|g| g.indices().to_vec()),
                "seed {seed}: daemon slicing answers like the batch engine"
            ),
            other => panic!("unexpected: {other:?}"),
        }
        match c.control(&name).unwrap() {
            Response::Control { relation, witness } => {
                match batch.control(OfflineOptions::default()) {
                    Ok(rel) => {
                        assert_eq!(relation, Some(rel), "seed {seed}");
                        assert_eq!(witness, None);
                    }
                    Err(inf) => {
                        assert_eq!(relation, None);
                        assert_eq!(witness, Some(inf.witness), "seed {seed}");
                    }
                }
            }
            other => panic!("unexpected: {other:?}"),
        }
        // Same prefix, same query again: answered from the memoized
        // verdict, and the daemon-wide hit counter says so.
        let hits_before = c.stats_snapshot().unwrap().query_cache_hits_total;
        let first = c.detect(&name).unwrap();
        assert_eq!(first, c.detect(&name).unwrap(), "seed {seed}");
        let hits_after = c.stats_snapshot().unwrap().query_cache_hits_total;
        assert!(
            hits_after > hits_before,
            "seed {seed}: cache hits {hits_before} -> {hits_after}"
        );
        assert_eq!(c.close(&name).unwrap(), Response::Ok);
    }
    // A class whose violation names a process outside its arity is the
    // client's fault: structured Malformed, no session spawned.
    let bad = PredicateClass::regular(2, RegularPredicate::conj_var(&[0, 5], "ok"));
    match c.hello_class("bad-class", bad, None).unwrap() {
        Response::Err { kind, detail } => {
            assert_eq!(kind, ErrorKind::Malformed);
            assert!(detail.contains("class"), "{detail}");
        }
        other => panic!("unexpected: {other:?}"),
    }
    assert_eq!(d.session_count(), 0);
    assert_eq!(d.shutdown(), 0);
}

/// Open a session of `ok₀ ∧ ok₁ ∧ ChannelsEmpty` and append `ops`.
fn channel_session(c: &mut Client, name: &str, ops: Vec<pctl_deposet::AppendOp>) {
    use pctl_deposet::{PredicateClass, RegularPredicate};
    let class = PredicateClass::regular(
        2,
        RegularPredicate::And(vec![
            RegularPredicate::conj_var(&[0, 1], "ok"),
            RegularPredicate::ChannelsEmpty,
        ]),
    );
    assert_eq!(c.hello_class(name, class, None).unwrap(), Response::Ok);
    for op in ops {
        assert_eq!(
            c.append_retry(name, op, RetryPolicy::default()).unwrap(),
            Response::Ok
        );
    }
}

fn ok_updates() -> Vec<(String, i64)> {
    vec![("ok".to_string(), 1)]
}

/// P0 sets `ok` and then sends a message that stays in flight: the cut
/// before the send violates `ok₀ ∧ ok₁ ∧ ChannelsEmpty`. Detect reports
/// it, and Verify answers with a verdict on the relation control
/// synthesizes to prevent it.
#[test]
fn verify_reports_a_violation_with_a_send_in_flight() {
    use pctl_deposet::AppendOp;
    let d = daemon(Config::default());
    let mut c = client(&d);
    channel_session(
        &mut c,
        "in-flight",
        vec![
            AppendOp::Internal {
                process: 0,
                updates: ok_updates(),
            },
            AppendOp::Send {
                process: 0,
                msg: 1,
                tag: "m".into(),
                updates: vec![],
            },
            AppendOp::Internal {
                process: 1,
                updates: ok_updates(),
            },
        ],
    );
    assert_eq!(
        c.detect("in-flight").unwrap(),
        Response::Detect {
            violation: Some(vec![1, 1])
        }
    );
    match c.verify("in-flight").unwrap() {
        Response::Verify { ok, detail } => {
            assert!(ok, "{detail}");
            assert_eq!(detail, "relation of 1 pairs verified");
        }
        other => panic!("unexpected: {other:?}"),
    }
    assert_eq!(c.close("in-flight").unwrap(), Response::Ok);
    assert_eq!(d.shutdown(), 0);
}

/// P0's `ok` is set by a send that is never received: no cut of the
/// session satisfies `ok₀ ∧ ok₁ ∧ ChannelsEmpty`, so control needs no
/// arrows, and the empty relation verifies. (A batch snapshot alone would
/// turn the send into an internal event and find a violating cut the
/// session does not have.)
#[test]
fn verify_accepts_a_sound_relation_with_a_send_in_flight() {
    use pctl_deposet::AppendOp;
    let d = daemon(Config::default());
    let mut c = client(&d);
    channel_session(
        &mut c,
        "in-flight",
        vec![
            AppendOp::Send {
                process: 0,
                msg: 1,
                tag: "m".into(),
                updates: ok_updates(),
            },
            AppendOp::Internal {
                process: 1,
                updates: ok_updates(),
            },
        ],
    );
    assert_eq!(
        c.detect("in-flight").unwrap(),
        Response::Detect { violation: None }
    );
    match c.verify("in-flight").unwrap() {
        Response::Verify { ok, detail } => {
            assert!(ok, "{detail}");
            assert_eq!(detail, "relation of 0 pairs verified");
        }
        other => panic!("unexpected: {other:?}"),
    }
    assert_eq!(c.close("in-flight").unwrap(), Response::Ok);
    assert_eq!(d.shutdown(), 0);
}
