//! Byte-identity goldens for the JSON encoder and decoder.
//!
//! The fixtures under `tests/fixtures/json/` were written by the encoder
//! that built a value tree before rendering it. The streaming encoder must
//! emit the same bytes for the same values, decoding a fixture and encoding
//! it again must give the fixture back, and every proper prefix of a
//! fixture must be rejected (with an error, never a panic).

use pctl_core::{ControlRelation, PredicateEngine};
use pctl_deposet::generator::{
    cs_workload, pipelined_workload, random_deposet, CsConfig, RandomConfig,
};
use pctl_deposet::scenarios::replicated_servers;
use pctl_deposet::trace::{to_json, Trace};
use pctl_deposet::{
    AppendOp, CmpOp, Interval, LocalPredicate, PredicateClass, ProcessId, RegularPredicate, StateId,
};
use pctl_obs::{Event, EventKind};
use pctl_sim::Metrics;
use pctld::proto::{
    ErrorKind, Request, RequestEnvelope, Response, ResponseEnvelope, SessionStat, StatsSnapshot,
};
use serde::{Deserialize, Serialize};
use std::fmt::Debug;
use std::path::PathBuf;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/json")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The four traces: one per generator family plus the labelled Figure 4.
fn traces() -> Vec<(&'static str, Trace)> {
    let cs = CsConfig {
        processes: 3,
        sections_per_process: 2,
        max_cs_len: 2,
        max_gap_len: 2,
    };
    let random = RandomConfig {
        processes: 3,
        events: 24,
        ..RandomConfig::default()
    };
    vec![
        ("trace_random.json", random_deposet(&random, 5)),
        ("trace_cs.json", cs_workload(&cs, 6)),
        ("trace_pipelined.json", pipelined_workload(&cs, 7)),
        ("trace_figure4.json", replicated_servers().deposet),
    ]
    .into_iter()
    .map(|(name, dep)| (name, Trace::from_deposet(&dep)))
    .collect()
}

fn ops() -> Vec<AppendOp> {
    vec![
        AppendOp::Internal {
            process: 0,
            updates: vec![("cs".into(), 1), ("n".into(), -9_223_372_036_854_775_808)],
        },
        AppendOp::Send {
            process: 1,
            msg: u64::MAX,
            tag: "tab\there \"quoted\" é€𝄞 \u{1}".into(),
            updates: vec![],
        },
        AppendOp::Recv {
            process: 2,
            msg: 7,
            updates: vec![("ok".into(), 0)],
        },
    ]
}

/// One request per `Request` variant (three `Append`s, one per op, and a
/// `Hello` with and without its optional fields).
fn requests() -> Vec<RequestEnvelope> {
    let s = || "s1".to_string();
    let mut reqs = vec![
        Request::Hello {
            session: s(),
            locals: vec![
                LocalPredicate::True,
                LocalPredicate::False,
                LocalPredicate::var("ok"),
                LocalPredicate::cmp("x", CmpOp::Ge, -3),
                LocalPredicate::Not(Box::new(LocalPredicate::And(vec![
                    LocalPredicate::Or(vec![]),
                    LocalPredicate::not_var("cs"),
                ]))),
            ],
            init: Some(vec![vec![("ok".into(), 1)], vec![]]),
            class: None,
        },
        Request::Hello {
            session: s(),
            locals: vec![],
            init: None,
            class: Some(PredicateClass::regular(
                3,
                RegularPredicate::And(vec![
                    RegularPredicate::conj_var(&[0, 2], "cs"),
                    RegularPredicate::ChannelsEmpty,
                ]),
            )),
        },
        Request::Hello {
            session: s(),
            locals: vec![],
            init: None,
            class: Some(PredicateClass::disjunctive(
                pctl_deposet::DisjunctivePredicate::at_least_one_not(2, "cs"),
            )),
        },
    ];
    reqs.extend(
        ops()
            .into_iter()
            .map(|op| Request::Append { session: s(), op }),
    );
    reqs.extend([
        Request::Detect { session: s() },
        Request::Control { session: s() },
        Request::Verify { session: s() },
        Request::Snapshot { session: s() },
        Request::Close { session: s() },
        Request::Trace { session: s() },
        Request::Stats,
        Request::Shutdown,
        Request::Crash { session: s() },
        Request::Sleep {
            session: s(),
            ms: 250,
        },
    ]);
    reqs.into_iter()
        .enumerate()
        .map(|(i, req)| RequestEnvelope {
            seq: i as u64 + 1,
            req,
        })
        .collect()
}

fn events() -> Vec<Event> {
    vec![
        Event::instant(1, 0, "fault"),
        Event {
            ts: 2,
            lane: 1,
            name: "cs".into(),
            kind: EventKind::SpanBegin,
            clock: Some(vec![0, 1, 0]),
            state: None,
        },
        Event {
            ts: 3,
            lane: 1,
            name: "cs".into(),
            kind: EventKind::SpanEnd,
            clock: Some(vec![0, 2, 0]),
            state: None,
        },
        Event::counter(4, 2, "queue", -5),
        Event {
            ts: 5,
            lane: 0,
            name: "token".into(),
            kind: EventKind::MsgSend { id: 11, to: 2 },
            clock: None,
            state: None,
        },
        Event {
            ts: 6,
            lane: 2,
            name: "token".into(),
            kind: EventKind::MsgRecv { id: 11, from: 0 },
            clock: Some(vec![3, 2, 1]),
            state: None,
        },
    ]
}

/// One response per `Response` variant, with `Detect` and `Control` in
/// both of their shapes.
fn responses() -> Vec<ResponseEnvelope> {
    let fig = replicated_servers();
    let relation = PredicateEngine::new(&fig.deposet, fig.availability.clone())
        .control(Default::default())
        .expect("Figure 4 availability is controllable");
    let stat = |name: &str, queries| SessionStat {
        name: name.into(),
        appends: 120,
        approx_bytes: 4096,
        queue_depth: 2,
        idle_ms: 15,
        p50_us: 17,
        p95_us: 90,
        queries,
        cache_hits: queries / 2,
    };
    let resps = vec![
        Response::Ok,
        Response::Busy { retry_after_ms: 20 },
        Response::Err {
            kind: ErrorKind::UnknownSession,
            detail: "no session 's9'".into(),
        },
        Response::Err {
            kind: ErrorKind::Malformed,
            detail: "expected `,` or `}` at byte 12".into(),
        },
        Response::Detect {
            violation: Some(vec![1, 1, 1]),
        },
        Response::Detect { violation: None },
        Response::Control {
            relation: Some(relation),
            witness: None,
        },
        Response::Control {
            relation: Some(ControlRelation::from_pairs([(
                StateId {
                    process: ProcessId(0),
                    index: 3,
                },
                StateId {
                    process: ProcessId(2),
                    index: 1,
                },
            )])),
            witness: None,
        },
        Response::Control {
            relation: None,
            witness: Some(vec![
                Interval {
                    process: ProcessId(0),
                    lo: 1,
                    hi: 2,
                },
                Interval {
                    process: ProcessId(1),
                    lo: 0,
                    hi: 4,
                },
            ]),
        },
        Response::Verify {
            ok: true,
            detail: "relation verified".into(),
        },
        Response::Snapshot {
            trace: to_json(&fig.deposet),
        },
        Response::Stats {
            stats: StatsSnapshot {
                sessions: 2,
                appends_total: 240,
                busy_total: 1,
                evictions_total: 0,
                sessions_refused_total: 3,
                appends_refused_total: 0,
                poisoned_total: 1,
                approx_bytes: 8192,
                budget_bytes: 1 << 30,
                query_cache_hits_total: 5,
                frames_rejected_total: 0,
                anomalies_total: 2,
                postmortems_total: 1,
                snapshot_write_errors_total: 0,
                per_session: vec![stat("a", 10), stat("b", 0)],
            },
        },
        Response::Trace {
            events: events(),
            dropped: 4,
            processes: 3,
        },
        Response::Draining { leaked: 0 },
    ];
    resps
        .into_iter()
        .enumerate()
        .map(|(i, resp)| ResponseEnvelope {
            seq: i as u64 + 1,
            resp,
        })
        .collect()
}

fn metrics() -> Metrics {
    let mut m = Metrics::default();
    m.add("msgs", 12);
    m.add_labeled("retransmissions", "p2", 3);
    m.record("response_ticks", 40);
    m.record("response_ticks", 7);
    m
}

fn lines(text: &str) -> Vec<&str> {
    text.lines().filter(|l| !l.is_empty()).collect()
}

/// `golden` decodes to a value equal to `value`, and encodes back to
/// itself.
fn assert_identity<T>(golden: &str, value: &T, pretty: bool)
where
    T: Serialize + Deserialize + PartialEq + Debug,
{
    let encode = |v: &T| {
        if pretty {
            serde_json::to_string_pretty(v).unwrap()
        } else {
            serde_json::to_string(v).unwrap()
        }
    };
    assert_eq!(encode(value), golden, "encoder output changed");
    let back: T = serde_json::from_str(golden).expect("golden decodes");
    assert_eq!(&back, value);
    assert_eq!(encode(&back), golden, "decode → encode is not the identity");
    let back: T = serde_json::from_slice(golden.as_bytes()).expect("golden decodes from bytes");
    assert_eq!(&back, value);
}

/// Every proper prefix of `golden` is an `Err`. Prefixes are cut at
/// every byte, so some split a multi-byte character: those go through
/// `from_slice`, the others through `from_str` as well.
fn assert_prefixes_rejected<T>(golden: &str)
where
    T: Deserialize,
{
    let bytes = golden.as_bytes();
    for end in 0..bytes.len() {
        assert!(
            serde_json::from_slice::<T>(&bytes[..end]).is_err(),
            "prefix of {end} bytes decodes: {:?}",
            String::from_utf8_lossy(&bytes[..end])
        );
        if let Some(prefix) = golden.get(..end) {
            assert!(serde_json::from_str::<T>(prefix).is_err(), "{prefix:?}");
        }
    }
}

/// `Trace` has no `PartialEq`; compare traces through their fields.
fn trace_parts(t: &Trace) -> impl PartialEq + Debug + '_ {
    (t.version, &t.states, &t.events, &t.messages)
}

#[test]
fn traces_encode_byte_identically_and_round_trip() {
    for (name, trace) in traces() {
        let golden = fixture(name);
        assert_eq!(
            serde_json::to_string_pretty(&trace).unwrap(),
            golden,
            "{name}: encoder output changed"
        );
        let back: Trace = serde_json::from_str(&golden).expect(name);
        assert!(trace_parts(&back) == trace_parts(&trace), "{name}");
        assert_eq!(
            serde_json::to_string_pretty(&back).unwrap(),
            golden,
            "{name}"
        );
        let dep = back.into_deposet().expect(name);
        assert_eq!(to_json(&dep), golden, "{name}: to_json");
    }
}

#[test]
fn trace_prefixes_are_rejected() {
    for (name, _) in traces() {
        assert_prefixes_rejected::<Trace>(&fixture(name));
    }
}

#[test]
fn every_request_variant_round_trips_byte_identically() {
    let golden = fixture("requests.jsonl");
    let golden = lines(&golden);
    let reqs = requests();
    assert_eq!(golden.len(), reqs.len());
    for (line, req) in golden.iter().zip(&reqs) {
        assert_identity(line, req, false);
        assert_prefixes_rejected::<RequestEnvelope>(line);
    }
}

#[test]
fn every_response_variant_round_trips_byte_identically() {
    let golden = fixture("responses.jsonl");
    let golden = lines(&golden);
    let resps = responses();
    assert_eq!(golden.len(), resps.len());
    for (line, resp) in golden.iter().zip(&resps) {
        assert_identity(line, resp, false);
        assert_prefixes_rejected::<ResponseEnvelope>(line);
    }
}

#[test]
fn event_jsonl_line_round_trips_byte_identically() {
    let golden = fixture("events.jsonl");
    let golden = lines(&golden);
    let evs = events();
    assert_eq!(golden.len(), evs.len());
    for (line, ev) in golden.iter().zip(&evs) {
        assert_identity(line, ev, false);
        assert_prefixes_rejected::<Event>(line);
    }
}

#[test]
fn metrics_drop_only_the_empty_gauges() {
    // The one intended byte change: `gauges` is marked
    // `skip_serializing_if = "BTreeMap::is_empty"`, which the value-tree
    // encoder ignored, so the frozen form still carries `"gauges":{}`.
    let frozen = fixture("metrics.json");
    let frozen = frozen.trim_end();
    assert!(frozen.ends_with(",\"gauges\":{}}"), "{frozen}");
    let m = metrics();
    let now = serde_json::to_string(&m).unwrap();
    assert_eq!(now, frozen.replace(",\"gauges\":{}", ""));
    // Both forms decode to the same metrics.
    for json in [frozen, now.as_str()] {
        let back: Metrics = serde_json::from_str(json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), now);
    }
}

// ---- malformed input ----

/// `golden` with `entry` spliced in as the first entry of its top-level
/// object.
fn with_first_entry(golden: &str, entry: &str) -> String {
    assert!(golden.starts_with('{'));
    format!("{{{entry},{}", &golden[1..])
}

#[test]
fn unknown_fields_are_skipped_but_must_be_valid_json() {
    let golden = fixture("trace_figure4.json");
    let expect: Trace = serde_json::from_str(&golden).unwrap();
    let ok = with_first_entry(
        &golden,
        r#""x": [1, {"y": null, "z": [true, -2.5e3]}, "é\n"]"#,
    );
    let back: Trace = serde_json::from_str(&ok).expect("valid unknown field");
    assert!(trace_parts(&back) == trace_parts(&expect));
    for bad in [
        "[1,}",
        "[1,]",
        "[1 2]",
        r#"{"a" 1}"#,
        r#"{"a":1,}"#,
        "tru",
        "nul",
        r#""\q""#,
        r#""\ud800""#,
        "18446744073709551616",
        "-9223372036854775809",
        "-",
        "1e",
    ] {
        let doc = with_first_entry(&golden, &format!(r#""version":1,"x":{bad}"#));
        assert!(
            serde_json::from_str::<Trace>(&doc).is_err(),
            "skipped `{bad}` was accepted"
        );
    }
    let line = r#"{"seq":1,"x":[1,},"req":"Stats"}"#;
    assert!(serde_json::from_str::<RequestEnvelope>(line).is_err());
    let line = r#"{"seq":1,"x":{"a":[1,{}]},"req":"Stats"}"#;
    assert_eq!(
        serde_json::from_str::<RequestEnvelope>(line).unwrap().req,
        Request::Stats
    );
}

/// `Verify` carried a `limit` until verification became exact; a frame from
/// an older client still decodes, and the field is skipped.
#[test]
fn a_verify_frame_with_a_limit_still_decodes() {
    let line = r#"{"seq":9,"req":{"Verify":{"session":"s1","limit":2000000}}}"#;
    assert_eq!(
        serde_json::from_str::<RequestEnvelope>(line).unwrap().req,
        Request::Verify {
            session: "s1".into()
        }
    );
}

#[test]
fn duplicate_keys_keep_their_winners() {
    // Struct fields: the first occurrence wins, and a later duplicate is
    // only checked for syntax.
    let env: RequestEnvelope =
        serde_json::from_str(r#"{"seq":1,"seq":2,"req":"Stats","req":"Shutdown"}"#).unwrap();
    assert_eq!((env.seq, env.req), (1, Request::Stats));
    let env: RequestEnvelope =
        serde_json::from_str(r#"{"seq":3,"seq":"x","req":"Stats"}"#).unwrap();
    assert_eq!(env.seq, 3);
    assert!(serde_json::from_str::<RequestEnvelope>(r#"{"seq":3,"seq":[,"req":"Stats"}"#).is_err());
    // Variable names: the last value wins, as in a map.
    let state: pctl_deposet::LocalState =
        serde_json::from_str(r#"{"vars":{"ok":1,"cs":1,"ok":0}}"#).unwrap();
    assert_eq!(state.vars.get("ok"), Some(0));
    assert_eq!(state.vars.len(), 2);
    // An enum value is a single-key object.
    assert!(
        serde_json::from_str::<Response>(r#"{"Busy":{"retry_after_ms":1},"Ok":null}"#).is_err()
    );
    assert!(serde_json::from_str::<Response>("{}").is_err());
}

#[test]
fn out_of_range_integers_are_rejected() {
    let append =
        |op: &str| format!(r#"{{"seq":1,"req":{{"Append":{{"session":"s","op":{op}}}}}}}"#);
    let ok =
        append(r#"{"Recv":{"process":4294967295,"msg":0,"updates":[["x",-9223372036854775808]]}}"#);
    assert!(serde_json::from_str::<RequestEnvelope>(&ok).is_ok());
    for bad in [
        // `process` is a u32.
        r#"{"Recv":{"process":4294967296,"msg":0,"updates":[]}}"#,
        r#"{"Recv":{"process":-1,"msg":0,"updates":[]}}"#,
        // `msg` is a u64.
        r#"{"Recv":{"process":0,"msg":-1,"updates":[]}}"#,
        r#"{"Recv":{"process":0,"msg":18446744073709551616,"updates":[]}}"#,
        r#"{"Recv":{"process":0,"msg":1.0,"updates":[]}}"#,
        // Variable values are i64.
        r#"{"Recv":{"process":0,"msg":0,"updates":[["x",9223372036854775808]]}}"#,
        r#"{"Recv":{"process":0,"msg":0,"updates":[["x",-9223372036854775809]]}}"#,
    ] {
        assert!(
            serde_json::from_str::<RequestEnvelope>(&append(bad)).is_err(),
            "{bad} was accepted"
        );
    }
    assert!(serde_json::from_str::<RequestEnvelope>(r#"{"seq":-1,"req":"Stats"}"#).is_err());
}

#[test]
fn missing_fields_follow_the_field_rules() {
    // An absent `Option` reads as `None`; an absent required field fails.
    let ev: Event =
        serde_json::from_str(r#"{"ts":1,"lane":0,"name":"n","kind":"Instant"}"#).unwrap();
    assert_eq!(ev.clock, None);
    let err = serde_json::from_str::<Event>(r#"{"ts":1,"name":"n","kind":"Instant"}"#).unwrap_err();
    assert!(err.to_string().contains("missing field `lane`"), "{err}");
    // A present `null` is not an absent field.
    assert!(
        serde_json::from_str::<Event>(r#"{"ts":1,"lane":null,"name":"n","kind":"Instant"}"#)
            .is_err()
    );
}
