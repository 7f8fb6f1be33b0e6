//! The torture test: many concurrent sessions make correct progress while
//! hostile clients throw everything at the daemon — garbage frames,
//! oversized declarations, slow-loris drips, single-byte fragmented
//! writes, and mid-stream disconnects — and at the end the daemon drains
//! with zero leaked sessions and zero poisoned workers.

use pctl_core::offline::OfflineOptions;
use pctl_core::PredicateEngine;
use pctl_deposet::generator::{random_deposet, RandomConfig};
use pctl_deposet::{DisjunctivePredicate, PredicateClass, RegularPredicate};
use pctld::{
    encode_frame, Client, Config, Daemon, Request, RequestEnvelope, Response, RetryPolicy,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SESSIONS: usize = 10;

/// Deterministic hostile-byte source (xorshift64) — no RNG dependency.
struct Bytes(u64);

impl Bytes {
    fn next(&mut self) -> u8 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 & 0xff) as u8
    }
}

fn retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 60,
        ..RetryPolicy::default()
    }
}

/// Queries share the session queue with appends, and appends are acked on
/// enqueue — so a detect/control fired right after the last append Ok can
/// land on a still-full queue and bounce with Busy. Absorb it like the
/// append path does.
fn query_retry(
    c: &mut Client,
    mut f: impl FnMut(&mut Client) -> std::io::Result<Response>,
) -> Response {
    loop {
        match f(c).unwrap() {
            Response::Busy { retry_after_ms } => {
                std::thread::sleep(Duration::from_millis(retry_after_ms))
            }
            other => return other,
        }
    }
}

#[test]
fn torture_concurrent_sessions_survive_chaos_and_drain_clean() {
    let slow_dir = std::env::temp_dir().join(format!("pctld_torture_{}", std::process::id()));
    std::fs::create_dir_all(&slow_dir).expect("create slow-log dir");
    let slow_path = slow_dir.join("slow.jsonl");
    let d = Daemon::spawn(Config {
        // A shallow queue so the Sleep-stalled sessions genuinely bounce
        // appends with Busy and the retry loop has to absorb it.
        queue_depth: 4,
        fault_injection: true,
        // Full telemetry under fire: request histograms, per-session trace
        // rings, and a log-everything slow log — the verdict asserts below
        // prove observation stays strictly observational.
        trace_ring: 64,
        slow_log: Some(slow_path.clone()),
        slow_ms: 0,
        // The flight recorder sampling fast, dumping postmortem bundles on
        // any anomaly the chaos provokes (garbage frames alone guarantee
        // frame-rejected) — all while the verdict asserts below must stay
        // bit-identical to the batch engines: the recorder is strictly
        // observational even under fire.
        flight_interval: Duration::from_millis(25),
        postmortem_dir: Some(slow_dir.join("postmortems")),
        ..Config::default()
    })
    .expect("bind daemon");
    let addr = d.local_addr();
    let stop = Arc::new(AtomicBool::new(false));

    // Chaos crew, on their own connections, running for the whole test.
    let mut chaos = Vec::new();

    // 1. Garbage: valid frames holding non-JSON bytes, raw junk that will
    //    parse as absurd length prefixes, and abrupt disconnects.
    {
        let stop = Arc::clone(&stop);
        chaos.push(std::thread::spawn(move || {
            let mut rng = Bytes(0x9e3779b97f4a7c15);
            while !stop.load(Ordering::SeqCst) {
                let Ok(mut s) = TcpStream::connect(addr) else {
                    continue;
                };
                let _ = s.set_nodelay(true);
                match rng.next() % 3 {
                    0 => {
                        // Well-framed garbage payload: daemon must answer
                        // with a structured Malformed error, not die.
                        let body: Vec<u8> = (0..40).map(|_| rng.next()).collect();
                        let mut wire = Vec::new();
                        encode_frame(&body, &mut wire);
                        let _ = s.write_all(&wire);
                        let mut buf = [0u8; 512];
                        let _ = s.set_read_timeout(Some(Duration::from_millis(200)));
                        let _ = s.read(&mut buf);
                    }
                    1 => {
                        // Oversized declaration: one error frame, then the
                        // daemon hangs up on this connection only.
                        let _ = s.write_all(&[0xff, 0xff, 0xff, 0xff, 0, 0]);
                        let mut buf = [0u8; 512];
                        let _ = s.set_read_timeout(Some(Duration::from_millis(200)));
                        let _ = s.read(&mut buf);
                    }
                    _ => {
                        // Truncated header, then vanish mid-frame.
                        let _ = s.write_all(&[0, 0]);
                    }
                }
                drop(s);
                std::thread::sleep(Duration::from_millis(2));
            }
        }));
    }

    // 2. Slow loris: open a connection, drip two header bytes, then just
    //    sit on it. Per-connection threading means it ties up one blocked
    //    reader and nothing else.
    {
        let stop = Arc::clone(&stop);
        chaos.push(std::thread::spawn(move || {
            let loris = TcpStream::connect(addr).ok();
            if let Some(mut s) = loris {
                let _ = s.write_all(&[0, 0]);
                while !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }));
    }

    // 3. Fragmentation: a valid Stats request delivered one byte at a
    //    time must still get a well-formed answer every round.
    {
        let stop = Arc::clone(&stop);
        chaos.push(std::thread::spawn(move || {
            let env = RequestEnvelope {
                seq: 1,
                req: Request::Stats,
            };
            let json = serde_json::to_string(&env).unwrap();
            let mut wire = Vec::new();
            encode_frame(json.as_bytes(), &mut wire);
            while !stop.load(Ordering::SeqCst) {
                let Ok(mut s) = TcpStream::connect(addr) else {
                    continue;
                };
                let _ = s.set_nodelay(true);
                for b in &wire {
                    if s.write_all(&[*b]).is_err() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                let mut hdr = [0u8; 4];
                if s.read_exact(&mut hdr).is_ok() {
                    let n = u32::from_be_bytes(hdr) as usize;
                    let mut body = vec![0u8; n];
                    s.read_exact(&mut body).expect("complete stats response");
                    let text = std::str::from_utf8(&body).expect("utf-8 response");
                    assert!(
                        text.contains("Stats"),
                        "fragmented request got a non-stats answer: {text}"
                    );
                }
            }
        }));
    }

    // 4. Concurrent scraper: hammer /metrics for the whole test, and every
    //    single response must be a complete, validating exposition — the
    //    histogram invariants (le ordering, cumulative buckets, +Inf ==
    //    _count) must hold mid-torture, not just at rest.
    let metrics = d.spawn_metrics("127.0.0.1:0").expect("metrics bind");
    let scrapes = {
        let stop = Arc::clone(&stop);
        let maddr = metrics.local_addr();
        std::thread::spawn(move || {
            let mut scrapes = 0u64;
            let mut saw_request_histogram = false;
            while !stop.load(Ordering::SeqCst) {
                let Ok(mut s) = TcpStream::connect(maddr) else {
                    continue;
                };
                let _ = write!(s, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
                let mut resp = String::new();
                if s.read_to_string(&mut resp).is_err() {
                    continue;
                }
                let body = resp.split("\r\n\r\n").nth(1).unwrap_or("");
                pctl_obs::prom::validate_exposition(body)
                    .unwrap_or_else(|e| panic!("mid-torture scrape invalid: {e}\n{body}"));
                if body.contains("pctld_request_seconds_bucket") {
                    saw_request_histogram = true;
                }
                scrapes += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
            assert!(
                saw_request_histogram,
                "request histograms never appeared across {scrapes} scrapes"
            );
            scrapes
        })
    };

    // Honest sessions: each streams its own seeded computation, drops its
    // connection halfway through (sessions belong to the daemon, not the
    // connection), and finally checks the daemon's verdicts against a
    // batch engine over the same computation.
    let mut workers = Vec::new();
    for i in 0..SESSIONS {
        workers.push(std::thread::spawn(move || {
            let dep = random_deposet(
                &RandomConfig {
                    processes: 3,
                    events: 24,
                    send_prob: 0.4,
                    flip_prob: 0.4,
                },
                1000 + i as u64,
            );
            let pred = DisjunctivePredicate::at_least_one(3, "ok");
            // Every third session streams a *regular* conjunctive class:
            // its verdicts route through the slicing engine on the daemon
            // side, under the same chaos as the disjunctive sessions.
            let class = (i % 3 == 2)
                .then(|| PredicateClass::regular(3, RegularPredicate::conj_var(&[0, 1, 2], "ok")));
            let (init, ops) = pctl_deposet::linearize(&dep);
            let name = format!("torture-{i}");
            let mut c = Client::connect(addr).expect("connect");
            match &class {
                Some(cl) => assert_eq!(
                    c.hello_class(&name, cl.clone(), Some(init)).unwrap(),
                    Response::Ok
                ),
                None => assert_eq!(
                    c.hello(&name, pred.locals().to_vec(), Some(init)).unwrap(),
                    Response::Ok
                ),
            }
            let midpoint = ops.len() / 2;
            let appended = ops.len() as u64;
            let mut sleeper = None;
            for (k, op) in ops.into_iter().enumerate() {
                if k == midpoint && k > 0 {
                    // Mid-stream disconnect + reconnect.
                    c = Client::connect(addr).expect("reconnect");
                    if i % 4 == 0 {
                        // Stall the worker so the shallow queue fills and
                        // the remaining appends ride out real Busy
                        // bounces through the retry loop. Sleep replies
                        // only after the stall ends, so it goes through a
                        // throwaway connection — this client must keep
                        // flooding *during* the stall.
                        let sleeper_name = name.clone();
                        sleeper = Some(std::thread::spawn(move || {
                            let mut s = Client::connect(addr).expect("sleeper connect");
                            loop {
                                match s
                                    .request(Request::Sleep {
                                        session: sleeper_name.clone(),
                                        ms: 300,
                                    })
                                    .unwrap()
                                {
                                    Response::Ok => break,
                                    Response::Busy { retry_after_ms } => {
                                        std::thread::sleep(Duration::from_millis(retry_after_ms));
                                    }
                                    other => panic!("unexpected sleep answer: {other:?}"),
                                }
                            }
                        }));
                        // Give the Sleep command time to enqueue ahead of
                        // the flood (enqueue happens on frame receipt, well
                        // before its post-stall reply).
                        std::thread::sleep(Duration::from_millis(20));
                    }
                }
                assert_eq!(
                    c.append_retry(&name, op, retry()).unwrap(),
                    Response::Ok,
                    "session {name} append {k}"
                );
            }
            if let Some(h) = sleeper {
                h.join().expect("sleeper thread failed");
            }
            let batch = match &class {
                Some(cl) => PredicateEngine::for_class(&dep, cl).expect("valid class"),
                None => PredicateEngine::new(&dep, pred),
            };
            match query_retry(&mut c, |c| c.detect(&name)) {
                Response::Detect { violation } => assert_eq!(
                    violation,
                    batch.detect_violation().map(|g| g.indices().to_vec()),
                    "session {name}"
                ),
                other => panic!("unexpected detect answer: {other:?}"),
            }
            match query_retry(&mut c, |c| c.control(&name)) {
                Response::Control { relation, witness } => {
                    match batch.control(OfflineOptions::default()) {
                        Ok(rel) => {
                            assert_eq!(relation, Some(rel), "session {name}");
                            assert_eq!(witness, None);
                        }
                        Err(inf) => {
                            assert_eq!(relation, None);
                            assert_eq!(witness, Some(inf.witness), "session {name}");
                        }
                    }
                }
                other => panic!("unexpected control answer: {other:?}"),
            }
            assert_eq!(c.close(&name).unwrap(), Response::Ok);
            appended
        }));
    }
    let mut total_appends = 0u64;
    for w in workers {
        total_appends += w.join().expect("an honest session failed under chaos");
    }
    stop.store(true, Ordering::SeqCst);
    for c in chaos {
        c.join().expect("a chaos thread panicked");
    }
    let scrape_count = scrapes.join().expect("the scraper thread panicked");
    assert!(scrape_count > 0, "the scraper never completed a scrape");
    metrics.shutdown();

    // Every honest session closed itself; chaos opened none.
    assert_eq!(d.session_count(), 0, "leaked sessions before drain");
    let stats = d.stats();
    assert_eq!(stats.poisoned_total, 0, "chaos must not poison workers");
    assert!(
        stats.busy_total > 0,
        "the stalled sessions should have bounced at least one append"
    );
    assert_eq!(stats.appends_total, total_appends);
    // The garbage chaos thread guarantees frame rejections, so the flight
    // recorder must have seen at least that anomaly and counted it.
    assert!(
        stats.frames_rejected_total > 0,
        "garbage frames must be counted as rejections"
    );
    assert_eq!(d.shutdown(), 0, "drain must leak nothing");

    // Whatever bundles the chaos provoked must all be schema-valid and
    // renderable — a corrupt postmortem is worse than none.
    let pm_dir = slow_dir.join("postmortems");
    let mut bundles = 0usize;
    for dir in pctl_obs::flight::bundle_dirs(&pm_dir) {
        let bundle = pctl_obs::flight::validate_bundle(&dir)
            .unwrap_or_else(|err| panic!("bundle {dir:?} invalid: {err}"));
        let report = pctl_obs::flight::render_report(&bundle);
        assert!(report.contains("postmortem:"), "{report}");
        bundles += 1;
    }
    assert!(
        bundles > 0,
        "chaos (guaranteed frame rejections) must have dumped at least one bundle"
    );
    // `stats` was snapped before shutdown; the sampler may have dumped
    // once more since, so the counter is a floor for what's on disk.
    assert!(bundles >= stats.postmortems_total as usize);

    // The log-everything slow log captured the torture as structured JSONL.
    let text = std::fs::read_to_string(&slow_path).expect("slow log written");
    assert!(
        text.lines().count() as u64 >= total_appends,
        "every accepted append is a logged request"
    );
    for line in text.lines().take(50) {
        let v: serde_json::Value = serde_json::from_str(line).expect("slow-log line parses");
        assert!(v.as_object().is_some(), "record is an object: {line}");
    }
    std::fs::remove_dir_all(&slow_dir).ok();
}
