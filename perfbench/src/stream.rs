//! `stream_mixed`: the live path. Closed-loop clients stream seeded
//! computations into an in-process `pctld` one `Append` at a time, with
//! `Detect` and `Control` queries interleaved, and check each session's
//! final verdicts against a batch `PredicateEngine` over the source
//! computation.
//!
//! `Append` is acknowledged on enqueue; queries queue behind the appends
//! in the session worker, so query round trips, and the final reply that
//! stops each session's clock, include the apply work.

use crate::common::{
    latency, layer_table, peak_rss_mb, percentile, repeated_setup, sorted, span_totals, start_unit,
    traced_at, write_spans, Digest, Outcome, Tracer,
};
use crate::RunCfg;
use pctl_core::{OfflineOptions, PredicateEngine, StreamEngine};
use pctl_deposet::generator::{random_deposet, RandomConfig};
use pctl_deposet::{
    linearize, AppendOp, DisjunctivePredicate, LocalPredicate, PredicateClass, ProcessId,
    RegularPredicate,
};
use pctld::{
    encode_frame, Client, Config, Daemon, FrameDecoder, Request, RequestEnvelope, Response,
    ResponseEnvelope, DEFAULT_MAX_FRAME,
};
use std::io::{Read, Write};
use std::time::{Duration, Instant};

/// Closed-loop client connections (the machine has two cores).
const CONNECTIONS: usize = 2;
/// A `Detect` after every this many appends, a `Control` less often. A
/// segment is the appends up to a `Detect` and the queries after them.
const DETECT_EVERY: usize = 250;
const CONTROL_EVERY: usize = 1_000;
/// Attempts per append while the session queue answers `Busy`.
const BUSY_RETRIES: u32 = 200;

type Init = Vec<Vec<(String, i64)>>;

/// One session's input and the batch engine's answers for it.
struct Spec {
    class: PredicateClass,
    init: Init,
    ops: Vec<AppendOp>,
    states: usize,
    detect: Option<Vec<u32>>,
    control: Response,
}

/// Regular sessions look for `¬ok₀ ∧ ¬ok₁`; the others keep `∨ᵢ okᵢ`.
fn class_of(i: usize, n: usize) -> PredicateClass {
    if i % 4 == 3 {
        let not_ok = |p: u32| RegularPredicate::local(ProcessId(p), LocalPredicate::not_var("ok"));
        PredicateClass::regular(n as u32, RegularPredicate::And(vec![not_ok(0), not_ok(1)]))
    } else {
        PredicateClass::disjunctive(DisjunctivePredicate::at_least_one(n, "ok"))
    }
}

fn control_response(r: Result<pctl_core::ControlRelation, pctl_core::Infeasible>) -> Response {
    match r {
        Ok(rel) => Response::Control {
            relation: Some(rel),
            witness: None,
        },
        Err(inf) => Response::Control {
            relation: None,
            witness: Some(inf.witness),
        },
    }
}

fn specs(seed: u64, tiny: bool) -> (Vec<Spec>, u64) {
    let (count, events) = if tiny { (2, 400) } else { (4, 10_000) };
    let mut digest = Digest::new();
    let specs = (0..count)
        .map(|i| {
            let n = 3 + i % 4;
            let cfg = RandomConfig {
                processes: n,
                events,
                ..RandomConfig::default()
            };
            let dep = random_deposet(&cfg, seed.wrapping_mul(1_000_003).wrapping_add(i as u64));
            let class = class_of(i, n);
            let eng = PredicateEngine::for_class(&dep, &class).expect("class fits the computation");
            let (init, ops) = linearize(&dep);
            digest.bytes(
                serde_json::to_string(&(&class, &init, &ops))
                    .expect("inputs serialize")
                    .as_bytes(),
            );
            Spec {
                detect: eng.detect_violation().map(|g| g.indices().to_vec()),
                control: control_response(eng.control(OfflineOptions::default())),
                states: dep.total_states(),
                class,
                init,
                ops,
            }
        })
        .collect();
    (specs, digest.finish())
}

/// What one streamed session measured.
#[derive(Default)]
struct SessionStats {
    spec: usize,
    wall_ns: u64,
    states: usize,
    requests: u64,
    failures: u64,
    busy: u64,
    /// Round trip of every request in order, `Busy` retries included.
    rtt_ns: Vec<u64>,
    /// Where in `rtt_ns` each segment ends. A segment is [`DETECT_EVERY`]
    /// appends and the queries that follow them; the last one ends at the
    /// reply to the final query.
    segment_ends: Vec<usize>,
}

/// Per spec: the fastest round trip of each request over the untraced
/// sessions of that spec, and how many sessions those were. The requests
/// of a spec are the same in every session, so they line up.
#[derive(Clone, Default)]
struct Fastest {
    rtt_ns: Vec<u64>,
    segment_ends: Vec<usize>,
    repeats: usize,
}

impl Fastest {
    fn absorb(&mut self, rtt_ns: &[u64], segment_ends: &[usize], repeats: usize) {
        if self.repeats == 0 {
            self.rtt_ns = rtt_ns.to_vec();
            self.segment_ends = segment_ends.to_vec();
        } else {
            assert_eq!(
                self.rtt_ns.len(),
                rtt_ns.len(),
                "sessions of one spec differ"
            );
            for (a, &b) in self.rtt_ns.iter_mut().zip(rtt_ns) {
                *a = (*a).min(b);
            }
        }
        self.repeats += repeats;
    }
}

/// One request as the client sees it, with a span around each attempt,
/// retried while the session queue answers `Busy`. `None` on an I/O error.
fn ask(
    client: &mut Client,
    req: &Request,
    st: &mut SessionStats,
    t: &mut Tracer,
    span: &'static str,
    item: u64,
) -> Option<Response> {
    let start = Instant::now();
    let mut tries = 0;
    let resp = loop {
        st.requests += 1;
        let attempt = req.clone();
        match t.time(span, item, || client.request(attempt).ok()) {
            Some(Response::Busy { retry_after_ms }) if tries < BUSY_RETRIES => {
                st.busy += 1;
                tries += 1;
                std::thread::sleep(Duration::from_millis(retry_after_ms.clamp(1, 5)));
            }
            other => break other,
        }
    };
    st.rtt_ns.push(start.elapsed().as_nanos() as u64);
    resp
}

/// A `Detect` (or `Control`) round trip.
fn query(
    client: &mut Client,
    session: &str,
    st: &mut SessionStats,
    t: &mut Tracer,
    item: u64,
    detect: bool,
) -> Option<Response> {
    let session = session.to_owned();
    let (span, req) = if detect {
        ("pctld.detect", Request::Detect { session })
    } else {
        ("pctld.control", Request::Control { session })
    };
    ask(client, &req, st, t, span, item)
}

/// How a session's final verdicts are checked.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Check {
    Compare,
    /// Flip the final detect verdict before comparing it.
    Corrupt,
    /// Warm-up on a truncated spec: the batch answers do not apply.
    Skip,
}

/// Stream one spec as session `name`.
fn stream_session(
    client: &mut Client,
    name: &str,
    spec: &Spec,
    t: &mut Tracer,
    item: u64,
    check: Check,
) -> SessionStats {
    let start = Instant::now();
    let mut st = SessionStats {
        states: spec.states,
        ..SessionStats::default()
    };
    let session = name.to_owned();
    let bad = |st: &mut SessionStats, what: String| {
        eprintln!("stream_mixed: session {name}: {what}");
        st.failures += 1;
    };
    t.enter("bench.session", item);
    let hello = Request::Hello {
        session: session.clone(),
        locals: vec![],
        init: Some(spec.init.clone()),
        class: Some(spec.class.clone()),
    };
    let hello = ask(client, &hello, &mut st, t, "pctld.hello", item);
    if hello != Some(Response::Ok) {
        bad(&mut st, format!("hello answered {hello:?}"));
        t.exit();
        return st;
    }
    let mut periodic = Vec::new();
    for (k, op) in spec.ops.iter().enumerate() {
        let req = Request::Append {
            session: session.clone(),
            op: op.clone(),
        };
        let resp = ask(client, &req, &mut st, t, "pctld.append", item);
        if resp != Some(Response::Ok) {
            bad(&mut st, format!("append {k} answered {resp:?}"));
            t.exit();
            return st;
        }
        if (k + 1) % DETECT_EVERY == 0 {
            periodic.push(query(client, name, &mut st, t, item, true));
        }
        if (k + 1) % CONTROL_EVERY == 0 {
            periodic.push(query(client, name, &mut st, t, item, false));
        }
        // The last segment runs on to the reply to the final query.
        if (k + 1) % DETECT_EVERY == 0 && k + 1 < spec.ops.len() {
            st.segment_ends.push(st.rtt_ns.len());
        }
    }
    for resp in periodic {
        if !matches!(
            resp,
            Some(Response::Detect { .. } | Response::Control { .. })
        ) {
            bad(&mut st, format!("a periodic query answered {resp:?}"));
        }
    }
    let detect = query(client, name, &mut st, t, item, true);
    let control = query(client, name, &mut st, t, item, false);
    st.wall_ns = start.elapsed().as_nanos() as u64;
    st.segment_ends.push(st.rtt_ns.len());
    let mut got_detect = match detect {
        Some(Response::Detect { violation }) => Some(violation),
        _ => None,
    };
    if check == Check::Corrupt {
        if let Some(v) = &mut got_detect {
            *v = match v {
                Some(_) => None,
                None => Some(vec![0; spec.init.len()]),
            };
        }
    }
    if check != Check::Skip && got_detect.as_ref() != Some(&spec.detect) {
        bad(&mut st, "final Detect differs from the batch engine".into());
    }
    if check != Check::Skip && control.as_ref() != Some(&spec.control) {
        bad(
            &mut st,
            "final Control differs from the batch engine".into(),
        );
    }
    let close = Request::Close {
        session: session.clone(),
    };
    let close = ask(client, &close, &mut st, t, "pctld.close", item);
    if close != Some(Response::Ok) {
        bad(&mut st, format!("close answered {close:?}"));
    }
    t.exit();
    st
}

/// One connection's closed loop: sessions back to back until the deadline.
struct ConnResult {
    sessions: Vec<(bool, SessionStats)>,
    fastest: Vec<Fastest>,
    tracer: Tracer,
}

fn connection(
    conn: usize,
    addr: std::net::SocketAddr,
    specs: &[Spec],
    cfg: &RunCfg,
    epoch: Instant,
) -> ConnResult {
    let mut client = Client::connect(addr).expect("connect to the in-process daemon");
    let mut tracer = Tracer::new(false, epoch);
    let mut sessions = Vec::new();
    let mut fastest = vec![Fastest::default(); specs.len()];
    while start_unit(cfg, epoch, sessions.len()) {
        let j = sessions.len();
        let traced = traced_at(cfg, j);
        tracer.set_on(traced);
        let spec_index = (j + conn * specs.len() / CONNECTIONS) % specs.len();
        let spec = &specs[spec_index];
        let check = match cfg.corrupt && conn == 0 && j == 0 {
            true => Check::Corrupt,
            false => Check::Compare,
        };
        let item = (conn as u64) << 32 | j as u64;
        let mut st = stream_session(
            &mut client,
            &format!("c{conn}-s{j}"),
            spec,
            &mut tracer,
            item,
            check,
        );
        st.spec = spec_index;
        if !traced && st.failures == 0 {
            fastest[spec_index].absorb(&st.rtt_ns, &st.segment_ends, 1);
        }
        st.rtt_ns = Vec::new();
        let failed = st.failures > 0;
        sessions.push((traced, st));
        if failed {
            break;
        }
    }
    tracer.set_on(false);
    ConnResult {
        sessions,
        fastest,
        tracer,
    }
}

/// Replay one spec in-process through the layer functions the daemon
/// calls: request JSON, framing, `StreamEngine::apply` and the queries.
struct Replay {
    wall_ns: u64,
    ops: u64,
    frame_bytes: u64,
    queries: u64,
    cache_hits: u64,
    bytes_per_state: f64,
    matches: bool,
}

fn replay(spec: &Spec, t: &mut Tracer, item: u64) -> Replay {
    let start = Instant::now();
    t.enter("bench.replay", item);
    let mut eng =
        StreamEngine::for_class(spec.class.clone(), Some(&spec.init)).expect("class fits");
    let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME);
    let (mut frame_bytes, mut queries) = (0u64, 0u64);
    let session = "replay".to_owned();
    for (k, op) in spec.ops.iter().enumerate() {
        let env = RequestEnvelope {
            seq: k as u64 + 1,
            req: Request::Append {
                session: session.clone(),
                op: op.clone(),
            },
        };
        let json = t
            .time("pctld.json", item, || serde_json::to_string(&env))
            .expect("request serializes");
        let mut wire = Vec::with_capacity(json.len() + 4);
        let payload = t.time("pctld.frame", item, || {
            encode_frame(json.as_bytes(), &mut wire);
            decoder.push(&wire);
            decoder.next_frame()
        });
        frame_bytes += wire.len() as u64;
        let payload = payload.expect("frame decodes").expect("whole frame");
        let back: RequestEnvelope = t
            .time("pctld.json", item, || {
                serde_json::from_str(std::str::from_utf8(&payload).expect("frame is UTF-8"))
            })
            .expect("request parses");
        let Request::Append { op, .. } = back.req else {
            panic!("replayed frame is not an Append")
        };
        t.time("deposet.session_apply", item, || eng.apply(&op))
            .expect("replayed op applies");
        let ack = ResponseEnvelope {
            seq: back.seq,
            resp: Response::Ok,
        };
        let ack_json = t
            .time("pctld.json", item, || serde_json::to_string(&ack))
            .expect("response serializes");
        let _: ResponseEnvelope = t
            .time("pctld.json", item, || serde_json::from_str(&ack_json))
            .expect("response parses");
        if (k + 1) % DETECT_EVERY == 0 {
            queries += 1;
            t.time("core.stream_detect", item, || eng.detect_violation());
        }
        if (k + 1) % CONTROL_EVERY == 0 {
            queries += 1;
            let _ = t.time("core.stream_control", item, || {
                eng.control(OfflineOptions::default())
            });
        }
    }
    queries += 2;
    let detect = t.time("core.stream_detect", item, || eng.detect_violation());
    let control = t.time("core.stream_control", item, || {
        eng.control(OfflineOptions::default())
    });
    let matches = detect.map(|g| g.indices().to_vec()) == spec.detect
        && control_response(control) == spec.control;
    let cache_hits = eng.cache_hits();
    let bytes_per_state = eng.store().approx_bytes() as f64 / eng.store().total_states() as f64;
    drop(eng);
    t.exit();
    Replay {
        wall_ns: start.elapsed().as_nanos() as u64,
        ops: spec.ops.len() as u64,
        frame_bytes,
        queries,
        cache_hits,
        bytes_per_state,
        matches,
    }
}

/// Mean of a Prometheus histogram series in microseconds, `_sum` ÷
/// `_count`, e.g. `pctld_request_seconds` with `{verb="append"}`.
fn mean_us(text: &str, family: &str, labels: &str) -> f64 {
    let value = |suffix: &str| {
        let key = format!("{family}_{suffix}{labels} ");
        text.lines()
            .find_map(|l| l.strip_prefix(key.as_str()))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let count = value("count");
    if count == 0.0 {
        0.0
    } else {
        value("sum") / count * 1e6
    }
}

/// GET the daemon's `/metrics` page from its HTTP sidecar.
fn scrape_metrics(daemon: &Daemon) -> std::io::Result<String> {
    let server = daemon.spawn_metrics("127.0.0.1:0")?;
    let mut conn = std::net::TcpStream::connect(server.local_addr())?;
    conn.write_all(b"GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n")?;
    let mut body = String::new();
    conn.read_to_string(&mut body)?;
    server.shutdown();
    Ok(body)
}

/// Spawn the daemon and warm it up with one short session.
fn start_daemon(spec: &Spec) -> Daemon {
    let daemon = Daemon::spawn(Config::default()).expect("bind the in-process daemon");
    let mut client = Client::connect(daemon.local_addr()).expect("connect for warm-up");
    let warm = Spec {
        class: spec.class.clone(),
        init: spec.init.clone(),
        ops: spec.ops.iter().take(DETECT_EVERY).cloned().collect(),
        states: 0,
        detect: None,
        control: Response::Ok,
    };
    let mut t = Tracer::new(false, Instant::now());
    let st = stream_session(&mut client, "warm-up", &warm, &mut t, 0, Check::Skip);
    assert_eq!(st.failures, 0, "warm-up session failed");
    daemon
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let ((specs, daemon), setup_s, digest, digests_agree) = repeated_setup(|| {
        let (specs, digest) = specs(cfg.seed, cfg.tiny);
        let daemon = start_daemon(&specs[0]);
        ((specs, daemon), digest)
    });
    let states: usize = specs.iter().map(|s| s.states).sum();
    println!(
        "stream_mixed: seed {} {} session specs, {} states, digest {digest:016x}; \
         {CONNECTIONS} closed-loop connections",
        cfg.seed,
        specs.len(),
        states
    );
    let mut failed = u64::from(!digests_agree);
    let mut attempted = 1u64;

    let epoch = Instant::now();
    let addr = daemon.local_addr();
    let conns: Vec<ConnResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let specs = &specs;
                s.spawn(move || connection(c, addr, specs, cfg, epoch))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    let mut fastest = vec![Fastest::default(); specs.len()];
    for c in &conns {
        for (f, g) in fastest.iter_mut().zip(&c.fastest) {
            if g.repeats > 0 {
                f.absorb(&g.rtt_ns, &g.segment_ends, g.repeats);
            }
        }
    }
    let (mut traced_ns, mut traced_states, mut untraced_ns, mut untraced_states) =
        (0u64, 0usize, 0u64, 0usize);
    let mut busy = 0;
    for c in &conns {
        for (traced, s) in &c.sessions {
            attempted += s.requests;
            failed += s.failures;
            busy += s.busy;
            if *traced {
                traced_ns += s.wall_ns;
                traced_states += s.states;
            } else {
                untraced_ns += s.wall_ns;
                untraced_states += s.states;
            }
        }
    }
    let sessions: usize = conns.iter().map(|c| c.sessions.len()).sum();
    println!("{sessions} sessions streamed, {busy} Busy answers retried");

    if cfg.trace {
        let mut tracer = Tracer::new(false, epoch);
        for c in conns {
            tracer.absorb(c.tracer);
        }
        // The in-process replay: each of the first specs once untraced and
        // once traced, alternating which goes first.
        let mut replays = Vec::new();
        let (mut replay_traced_ns, mut replay_untraced_ns) = (0u64, 0u64);
        for (i, spec) in specs.iter().take(2).enumerate() {
            for traced in [i % 2 == 1, i % 2 == 0] {
                tracer.set_on(traced);
                let r = replay(spec, &mut tracer, 1 << 40 | i as u64);
                attempted += 1;
                if !r.matches {
                    eprintln!("stream_mixed: replay of spec {i} differs from the batch engine");
                    failed += 1;
                }
                if traced {
                    replay_traced_ns += r.wall_ns;
                    replays.push(r);
                } else {
                    replay_untraced_ns += r.wall_ns;
                }
            }
        }
        tracer.set_on(false);
        let untraced_per_state = untraced_ns as f64 / untraced_states.max(1) as f64;
        let overhead = (traced_ns + replay_traced_ns) as f64
            / (untraced_per_state * traced_states as f64 + replay_untraced_ns as f64)
            - 1.0;
        let wall = traced_ns + replay_traced_ns;
        let table = layer_table(tracer.spans(), wall, overhead);
        println!("{}", table.text);
        let path = cfg.spans_dir.join("stream_mixed.spans.tsv");
        if let Err(e) = write_spans(&path, tracer.spans()) {
            eprintln!("stream_mixed: writing spans: {e}");
        }
        let totals = span_totals(tracer.spans());
        let us = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_self_us());
        let append_us = sorted(
            tracer
                .spans()
                .iter()
                .filter(|s| s.name == "pctld.append")
                .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
                .collect(),
        );
        let queries = totals.get("pctld.detect").map_or(0, |t| t.count)
            + totals.get("pctld.control").map_or(0, |t| t.count);
        let query_ns = totals.get("pctld.detect").map_or(0, |t| t.total_ns)
            + totals.get("pctld.control").map_or(0, |t| t.total_ns);
        let ops: u64 = replays.iter().map(|r| r.ops).sum();
        let per_op =
            |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e3) / ops as f64;
        let metrics_text = scrape_metrics(&daemon).unwrap_or_else(|e| {
            eprintln!("stream_mixed: scraping /metrics: {e}");
            failed += 1;
            String::new()
        });
        attempted += 1;
        let stats = daemon.stats();
        let req = |verb: &str| {
            mean_us(
                &metrics_text,
                "pctld_request_seconds",
                &format!("{{verb=\"{verb}\"}}"),
            )
        };
        let metrics = vec![
            ("pctld.append_rtt_us_p50", percentile(&append_us, 0.5), "us"),
            (
                "pctld.append_rtt_us_p99",
                percentile(&append_us, 0.99),
                "us",
            ),
            (
                "pctld.query_rtt_us_mean",
                query_ns as f64 / 1e3 / queries.max(1) as f64,
                "us",
            ),
            (
                "pctld.queue_wait_us_mean",
                mean_us(&metrics_text, "pctld_append_queue_wait_seconds", ""),
                "us",
            ),
            (
                "pctld.apply_us_mean",
                mean_us(&metrics_text, "pctld_append_apply_seconds", ""),
                "us",
            ),
            ("pctld.request_us_mean.append", req("append"), "us"),
            ("pctld.request_us_mean.detect", req("detect"), "us"),
            ("pctld.request_us_mean.control", req("control"), "us"),
            (
                "pctld.busy_per_append",
                stats.busy_total as f64 / stats.appends_total.max(1) as f64,
                "share",
            ),
            (
                "pctld.frame_bytes_per_append",
                replays.iter().map(|r| r.frame_bytes).sum::<u64>() as f64 / ops as f64,
                "bytes",
            ),
            ("pctld.json_us", per_op("pctld.json"), "us"),
            ("pctld.frame_us", per_op("pctld.frame"), "us"),
            (
                "deposet.session_apply_us",
                us("deposet.session_apply"),
                "us",
            ),
            (
                "deposet.session_bytes_per_state",
                replays.iter().map(|r| r.bytes_per_state).sum::<f64>() / replays.len() as f64,
                "bytes",
            ),
            ("core.stream_detect_us", us("core.stream_detect"), "us"),
            ("core.stream_control_us", us("core.stream_control"), "us"),
            (
                "core.stream_cache_hit_share",
                replays.iter().map(|r| r.cache_hits).sum::<u64>() as f64
                    / replays.iter().map(|r| r.queries).sum::<u64>() as f64,
                "share",
            ),
            ("layers.sum_share", table.sum_share, "share"),
            ("layers.leftover_share", table.leftover_share, "share"),
            ("trace_overhead_share", overhead, "share"),
        ];
        daemon.shutdown();
        return Outcome {
            attempted,
            failed,
            metrics,
        };
    }
    daemon.shutdown();

    // A segment takes the sum of its requests' fastest round trips, and a
    // spec the sum of its segments, from Hello to the reply to the final
    // query. The connections stream side by side, so their rates add up.
    let (mut segments_ms, mut samples) = (Vec::new(), 0);
    let (mut streamed, mut busy_ns) = (0usize, 0u64);
    for (spec, f) in specs.iter().zip(&fastest) {
        if f.repeats == 0 {
            continue;
        }
        let mut from = 0;
        for &end in &f.segment_ends {
            segments_ms.push(f.rtt_ns[from..end].iter().sum::<u64>() as f64 / 1e6);
            from = end;
        }
        samples += f.repeats * f.segment_ends.len();
        streamed += spec.states;
        busy_ns += f.rtt_ns[..from].iter().sum::<u64>();
    }
    let (p50_ms, p90_ms) = latency(
        "segment (appends streamed and applied, then their verdicts)",
        segments_ms,
        samples,
    );
    let states_per_s = CONNECTIONS as f64 * streamed as f64 / (busy_ns.max(1) as f64 / 1e9);
    Outcome {
        attempted,
        failed,
        metrics: vec![
            ("setup_s", setup_s, "s"),
            ("states_per_s", states_per_s, "1/s"),
            ("latency_ms_p50", p50_ms, "ms"),
            ("latency_ms_p90", p90_ms, "ms"),
            ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ],
    }
}
