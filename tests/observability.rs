//! End-to-end observability: recorded simulator runs round-trip through
//! the JSONL log format, name deposet states and carry those states'
//! vector clocks (crashes included), and export valid Chrome `trace_event`
//! JSON.

use predicate_control::deposet::generator::{cs_workload, CsConfig};
use predicate_control::obs::{chrome, jsonl, stats::EventStats, timeline};
use predicate_control::prelude::*;

fn recorded_kmutex_sim() -> predicate_control::sim::SimResult {
    let cfg = WorkloadConfig {
        processes: 4,
        entries_per_process: 4,
        seed: 3,
        ..Default::default()
    };
    let r = run_antitoken_recorded(
        &cfg,
        pctl_core::online::PeerSelect::NextInRing,
        Box::new(RingRecorder::new(1 << 18)),
    );
    assert!(!r.deadlocked());
    r
}

fn recorded_kmutex_run() -> Vec<Event> {
    let events = recorded_kmutex_sim().events();
    assert!(!events.is_empty(), "recorded run must produce telemetry");
    events
}

/// A fault-tolerant anti-token run under 5% message loss, whose initial
/// scapegoat crashes at t = 25 and restarts 300 ticks later.
fn recorded_ft_crash_sim() -> predicate_control::sim::SimResult {
    let cfg = WorkloadConfig {
        processes: 4,
        entries_per_process: 6,
        seed: 3,
        ..Default::default()
    };
    let plan = FaultPlan::uniform_loss(0.05).with_crash(ProcessId(0), SimTime(25), Some(300));
    let r = run_ft_antitoken_recorded(
        &cfg,
        pctl_core::online::PeerSelect::NextInRing,
        FtParams::default(),
        plan,
        Box::new(RingRecorder::new(1 << 18)),
    );
    assert!(!r.deadlocked());
    assert_eq!(r.metrics.counter("crashes"), 1);
    assert_eq!(r.metrics.counter("restarts"), 1);
    assert!(r.metrics.counter("msgs_dropped") > 0);
    r
}

#[test]
fn recorded_run_round_trips_through_jsonl() {
    let events = recorded_kmutex_run();
    let text = jsonl::to_jsonl(&events);
    let parsed = jsonl::parse(&text).expect("own output parses");
    assert_eq!(events, parsed);
}

#[test]
fn telemetry_joins_the_deposet_crashes_included() {
    for r in [recorded_kmutex_sim(), recorded_ft_crash_sim()] {
        let dep = &r.deposet;
        let events = r.events();
        let mut sends: std::collections::BTreeMap<u64, StateId> = Default::default();
        let mut matched = 0usize;
        for ev in &events {
            let lane = ProcessId(ev.lane);
            let state = StateId::new(lane, ev.state.expect("simulator events name a state"));
            assert_eq!(
                ev.clock.as_deref(),
                Some(dep.clock(state).entries()),
                "{ev:?}"
            );
            match ev.kind {
                EventKind::MsgSend { id, .. } => {
                    sends.insert(id, state);
                }
                EventKind::MsgRecv { id, .. } => {
                    matched += 1;
                    assert!(dep.precedes(sends[&id], state), "flow {id}: {ev:?}");
                }
                _ => {}
            }
        }
        assert!(matched > 0, "the protocol exchanged messages");
    }
}

#[test]
fn vector_clocks_are_monotone_per_lane_and_tick_on_own_component() {
    for r in [recorded_kmutex_sim(), recorded_ft_crash_sim()] {
        let events = r.events();
        let mut last: std::collections::BTreeMap<u32, Vec<u32>> = Default::default();
        let mut clocked = 0usize;
        for ev in &events {
            let Some(clock) = &ev.clock else { continue };
            clocked += 1;
            if let Some(prev) = last.get(&ev.lane) {
                assert_eq!(prev.len(), clock.len());
                assert!(
                    prev.iter().zip(clock).all(|(a, b)| a <= b),
                    "lane {} clock went backwards: {prev:?} -> {clock:?}",
                    ev.lane
                );
                // The lane's own component strictly advances whenever the
                // clock changes at all.
                if prev != clock {
                    assert!(
                        prev[ev.lane as usize] < clock[ev.lane as usize],
                        "lane {} advanced without ticking its own component",
                        ev.lane
                    );
                }
            }
            last.insert(ev.lane, clock.clone());
        }
        assert!(clocked > 0, "simulator events must carry vector clocks");
    }
}

#[test]
fn message_sends_happen_before_their_receives() {
    for r in [recorded_kmutex_sim(), recorded_ft_crash_sim()] {
        let events = r.events();
        let mut sends: std::collections::BTreeMap<u64, &Event> = Default::default();
        let mut matched = 0usize;
        for ev in &events {
            match ev.kind {
                EventKind::MsgSend { id, .. } => {
                    sends.insert(id, ev);
                }
                EventKind::MsgRecv { id, .. } => {
                    let send = sends[&id];
                    matched += 1;
                    assert!(send.ts <= ev.ts, "recv before its send");
                    let (sc, rc) = (send.clock.as_ref().unwrap(), ev.clock.as_ref().unwrap());
                    // The receive's clock strictly dominates the send's.
                    assert!(
                        sc.iter().zip(rc).all(|(a, b)| a <= b) && sc != rc,
                        "flow {id}: send clock {sc:?} not < recv clock {rc:?}"
                    );
                }
                _ => {}
            }
        }
        assert!(matched > 0, "the protocol exchanged control messages");
    }
}

#[test]
fn recorded_replay_exports_valid_chrome_trace() {
    // The acceptance path: a k-mutex style trace, controlled, replayed
    // with a recorder, exported — the Chrome JSON must validate.
    let dep = cs_workload(
        &CsConfig {
            processes: 3,
            sections_per_process: 4,
            max_cs_len: 3,
            max_gap_len: 3,
        },
        11,
    );
    let pred = DisjunctivePredicate::at_least_one_not(3, "cs");
    let rel = control_disjunctive(&dep, &pred, OfflineOptions::default()).expect("feasible");
    let out = replay_recorded(
        &dep,
        &rel,
        &ReplayConfig::default(),
        Box::new(RingRecorder::new(1 << 18)),
    );
    assert!(out.completed() && out.fidelity(&dep));
    let events = out.sim.events();
    let json = chrome::chrome_trace(&events, &timeline::lane_names(&dep));
    chrome::validate_chrome_trace(&json).expect("replay telemetry renders as valid Chrome trace");
}

#[test]
fn deposet_timeline_exports_valid_chrome_trace_with_control_arrows() {
    let dep = cs_workload(
        &CsConfig {
            processes: 3,
            sections_per_process: 3,
            max_cs_len: 2,
            max_gap_len: 2,
        },
        5,
    );
    let pred = DisjunctivePredicate::at_least_one_not(3, "cs");
    let rel = control_disjunctive(&dep, &pred, OfflineOptions::default()).expect("feasible");
    let events = timeline::deposet_events(&dep, rel.pairs());
    let json = chrome::chrome_trace(&events, &timeline::lane_names(&dep));
    chrome::validate_chrome_trace(&json).expect("deposet timeline renders as valid Chrome trace");
}

#[test]
fn event_stats_summarize_spans_and_latencies() {
    let events = recorded_kmutex_run();
    let stats = EventStats::from_events(&events);
    assert!(
        stats.span_durations.contains_key("cs"),
        "driver cs spans recorded: {:?}",
        stats.span_durations.keys().collect::<Vec<_>>()
    );
    assert_eq!(stats.open_spans, 0, "a quiescent run closes every span");
    assert_eq!(stats.unmatched_sends, 0, "reliable channels: no lost sends");
    assert!(stats.msg_latencies.values().any(|v| !v.is_empty()));
    let report = stats.report();
    assert!(report.contains("events by kind"));
}

#[test]
fn ft_run_records_fault_and_recovery_telemetry() {
    let cfg = WorkloadConfig {
        processes: 3,
        entries_per_process: 3,
        seed: 1,
        ..Default::default()
    };
    let plan = FaultPlan::none().with_crash(
        predicate_control::deposet::ProcessId(0),
        SimTime(25),
        Some(200),
    );
    let r = run_ft_antitoken_recorded(
        &cfg,
        pctl_core::online::PeerSelect::NextInRing,
        FtParams::default(),
        plan,
        Box::new(RingRecorder::new(1 << 18)),
    );
    assert!(!r.deadlocked());
    let events = r.events();
    let names: std::collections::BTreeSet<&str> = events.iter().map(|e| e.name.as_str()).collect();
    assert!(names.contains("crash"), "crash instant recorded: {names:?}");
    assert!(
        names.contains("rejoin"),
        "rejoin instant recorded: {names:?}"
    );
}

/// One HTTP GET against a `/metrics` endpoint, returning (status line,
/// body). Plain `TcpStream`, like curl would do.
fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    let request = format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n");
    stream.write_all(request.as_bytes()).expect("send request");
    let mut resp = String::new();
    stream.read_to_string(&mut resp).expect("read response");
    let status = resp.lines().next().unwrap_or("").to_owned();
    let body = resp
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    (status, body)
}

/// The faulty_mutex example's `--metrics` path, driven through the same
/// library APIs: run the hardened workload with live publishing, then GET
/// /metrics and parse the exposition.
#[test]
fn live_metrics_endpoint_serves_parseable_prometheus_exposition() {
    use predicate_control::obs::prom::{validate_exposition, MetricsServer};

    let live = LiveMetrics::new();
    let srv = MetricsServer::spawn("127.0.0.1:0", live.renderer()).expect("bind");
    let addr = srv.local_addr();

    let cfg = WorkloadConfig {
        processes: 4,
        entries_per_process: 6,
        think: (20, 60),
        cs: (5, 15),
        seed: 3,
        delay: 10,
    };
    let plan = FaultPlan::uniform_loss(0.05)
        .with_partition(SimTime(120), SimTime(200), vec![ProcessId(1)])
        .with_crash(ProcessId(0), SimTime(25), Some(350));
    let r = run_ft_antitoken_with(
        &cfg,
        pctl_core::online::PeerSelect::NextInRing,
        FtParams::default(),
        plan,
        Box::new(NullRecorder),
        Some((live.clone(), 16)),
    );
    assert!(!r.deadlocked());

    // The endpoint serves whatever the simulation last published (its
    // final registry at minimum), in valid text exposition format 0.0.4.
    let (status, body) = http_get(addr, "/metrics");
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    let samples = validate_exposition(&body).expect("parseable exposition");
    assert!(samples > 0);
    assert!(
        body.contains("pctl_sim_entries_total 24"),
        "final entry count exposed:\n{body}"
    );
    assert!(
        body.contains("# TYPE pctl_sim_entries_total counter"),
        "{body}"
    );
    // Fault counters from the faulty run appear too.
    assert!(body.contains("pctl_sim_crashes_total"), "{body}");

    // Unknown paths 404 without killing the server.
    let (status, _) = http_get(addr, "/other");
    assert!(status.starts_with("HTTP/1.1 404"), "{status}");
    let (status, _) = http_get(addr, "/metrics");
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");

    srv.shutdown();
}

/// The same cell, read mid-run: publishing every few events means the cell
/// is non-empty long before the run finishes, so an in-flight scrape sees
/// a monotonically-growing registry rather than nothing.
#[test]
fn live_metrics_cell_is_populated_during_the_run_not_only_at_the_end() {
    let live = LiveMetrics::new();
    assert!(live.read().is_empty(), "nothing published before the run");
    let cfg = WorkloadConfig {
        processes: 3,
        entries_per_process: 2,
        seed: 7,
        ..Default::default()
    };
    let r = run_ft_antitoken_with(
        &cfg,
        pctl_core::online::PeerSelect::NextInRing,
        FtParams::default(),
        FaultPlan::none(),
        Box::new(NullRecorder),
        Some((live.clone(), 1)),
    );
    assert!(!r.deadlocked());
    let text = live.read();
    assert!(!text.is_empty());
    // Live publishing must not have perturbed the run: same metrics as an
    // unpublished run of the same seed.
    let r2 = run_ft_antitoken(
        &cfg,
        pctl_core::online::PeerSelect::NextInRing,
        FtParams::default(),
        FaultPlan::none(),
    );
    assert_eq!(
        serde_json::to_string(&r.metrics).unwrap(),
        serde_json::to_string(&r2.metrics).unwrap(),
        "live publishing is observational"
    );
}
