//! The daemon's request/response vocabulary.
//!
//! Every frame payload is one JSON envelope: requests carry a client-chosen
//! `seq` echoed verbatim in the response, so a client can correlate answers
//! without relying on connection ordering. The five verbs follow the
//! debugging-session lifecycle: `Hello` opens a per-session incremental
//! store, `Append` streams events into it, the query verbs
//! (`Detect`/`Control`/`Verify`) answer the paper's questions at the
//! current prefix, `Snapshot` exports the batch trace, `Close` ends the
//! session. `Stats` and `Shutdown` are admin verbs.
//!
//! Error reporting is structured and total: every failure mode a client can
//! trigger maps to an [`ErrorKind`], and overload maps to
//! [`Response::Busy`] with a retry hint — the daemon never answers a
//! well-framed request with silence or a dropped connection.

use pctl_core::ControlRelation;
use pctl_deposet::{AppendOp, Interval, LocalPredicate, PredicateClass};
use serde::{Deserialize, Serialize};

/// A client request, one per frame, wrapped in [`RequestEnvelope`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Open a new session: one local predicate per process, optional
    /// initial variable assignments per process.
    Hello {
        /// Unique session name (rejected if already live).
        session: String,
        /// The disjunctive predicate's locals, one per process. Ignored
        /// (may be empty) when `class` is set — the class carries its own
        /// predicate.
        locals: Vec<LocalPredicate>,
        /// Initial per-process variable assignments (empty = all unset).
        init: Option<Vec<Vec<(String, i64)>>>,
        /// Optional predicate class. `None` (the wire default, so frames
        /// from older clients still parse) means the classic disjunctive
        /// session over `locals`; `Some` routes the session's queries
        /// through the class-aware engine — in particular
        /// [`PredicateClass::Regular`] answers via computation slicing.
        #[serde(default)]
        class: Option<PredicateClass>,
    },
    /// Append one event to a session's computation.
    Append {
        /// Target session.
        session: String,
        /// The event.
        op: AppendOp,
    },
    /// Weak detection at the current prefix: a consistent cut where every
    /// local predicate is false.
    Detect {
        /// Target session.
        session: String,
    },
    /// Off-line control synthesis at the current prefix.
    Control {
        /// Target session.
        session: String,
    },
    /// Synthesize a control relation, then verify it against the current
    /// prefix (detection over the controlled store; exact, no budget). A
    /// `limit` field sent by an older client is skipped.
    Verify {
        /// Target session.
        session: String,
    },
    /// Export the session's current prefix as batch trace JSON.
    Snapshot {
        /// Target session.
        session: String,
    },
    /// End a session, flushing its snapshot if the daemon persists them.
    Close {
        /// Target session.
        session: String,
    },
    /// Pull the session's recent telemetry events (bounded ring,
    /// drop-oldest) for Chrome-trace export — `pctl trace --remote`.
    Trace {
        /// Target session.
        session: String,
    },
    /// Admin: daemon-wide counters and gauges.
    Stats,
    /// Admin: drain every live session (flushing snapshots) and stop.
    Shutdown,
    /// Fault injection (tests and chaos drills): panic the session's
    /// worker, exercising the poison/quarantine path.
    Crash {
        /// Target session.
        session: String,
    },
    /// Fault injection: stall the session's worker for `ms` milliseconds
    /// (fills the bounded queue deterministically for backpressure tests).
    Sleep {
        /// Target session.
        session: String,
        /// Stall duration in milliseconds.
        ms: u64,
    },
}

impl Request {
    /// The session a request addresses, if any.
    pub fn session(&self) -> Option<&str> {
        match self {
            Request::Hello { session, .. }
            | Request::Append { session, .. }
            | Request::Detect { session }
            | Request::Control { session }
            | Request::Verify { session }
            | Request::Snapshot { session }
            | Request::Close { session }
            | Request::Trace { session }
            | Request::Crash { session }
            | Request::Sleep { session, .. } => Some(session),
            Request::Stats | Request::Shutdown => None,
        }
    }

    /// The verb name, as used for the `verb` label on
    /// `pctld_request_seconds` and in the slow-request log.
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Hello { .. } => "hello",
            Request::Append { .. } => "append",
            Request::Detect { .. } => "detect",
            Request::Control { .. } => "control",
            Request::Verify { .. } => "verify",
            Request::Snapshot { .. } => "snapshot",
            Request::Close { .. } => "close",
            Request::Trace { .. } => "trace",
            Request::Stats => "stats",
            Request::Shutdown => "shutdown",
            Request::Crash { .. } => "crash",
            Request::Sleep { .. } => "sleep",
        }
    }
}

/// A request frame: client-chosen correlation id plus the request.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RequestEnvelope {
    /// Echoed verbatim in the response.
    pub seq: u64,
    /// The request.
    pub req: Request,
}

/// Machine-readable failure classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorKind {
    /// The frame decoded but its JSON payload did not parse as a request.
    Malformed,
    /// No live session by that name.
    UnknownSession,
    /// `Hello` with a name that is already live.
    SessionExists,
    /// New session refused: session or memory capacity exhausted and no
    /// idle session was evictable.
    Capacity,
    /// Append refused: the daemon is over its hard memory budget.
    Budget,
    /// An earlier append on this session failed; the session is wedged
    /// with that error until closed.
    Append,
    /// The session's worker panicked; its state is quarantined.
    Poisoned,
    /// The daemon is draining and accepts no new work.
    Draining,
    /// Internal invariant failure (bug surface, not client error).
    Internal,
}

/// A daemon response, one per request frame, wrapped in
/// [`ResponseEnvelope`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Success with no payload (`Hello`, `Append`, `Close`).
    Ok,
    /// Transient overload: the session's ingest queue is full. Retry after
    /// the hint (the client helper backs off exponentially from it).
    Busy {
        /// Suggested minimum delay before retrying.
        retry_after_ms: u64,
    },
    /// Structured failure.
    Err {
        /// Machine-readable class.
        kind: ErrorKind,
        /// Human-readable detail.
        detail: String,
    },
    /// Answer to [`Request::Detect`].
    Detect {
        /// Per-process state indices of the violating cut, if one exists.
        violation: Option<Vec<u32>>,
    },
    /// Answer to [`Request::Control`]: exactly one of the fields is set
    /// (the Lemma 2 duality).
    Control {
        /// The synthesized relation, when control is feasible.
        relation: Option<ControlRelation>,
        /// The overlapping false-interval witness, when it is not.
        witness: Option<Vec<Interval>>,
    },
    /// Answer to [`Request::Verify`].
    Verify {
        /// Whether a relation was synthesized and passed verification.
        ok: bool,
        /// Verdict detail (violation/infeasibility description).
        detail: String,
    },
    /// Answer to [`Request::Snapshot`]: the batch trace JSON.
    Snapshot {
        /// `pctl_deposet::trace` JSON of the current prefix.
        trace: String,
    },
    /// Answer to [`Request::Stats`].
    Stats {
        /// Counter/gauge snapshot.
        stats: StatsSnapshot,
    },
    /// Answer to [`Request::Trace`]: the session's recent telemetry
    /// events, oldest first.
    Trace {
        /// Surviving ring contents (oldest first). Receive events whose
        /// matching send was already evicted from the ring are included
        /// verbatim — exporters prune them
        /// ([`pctl_obs::chrome::prune_orphan_flows`]) before rendering.
        events: Vec<pctl_obs::Event>,
        /// Events dropped by the bounded ring since the session opened.
        dropped: u64,
        /// Process (lane) count of the session's computation.
        processes: u32,
    },
    /// Answer to [`Request::Shutdown`], sent after the drain completes.
    Draining {
        /// Sessions that failed to join cleanly during the drain.
        leaked: u64,
    },
}

/// Daemon-wide counters and gauges, as served to `Stats` and exported to
/// Prometheus.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Live sessions.
    pub sessions: u64,
    /// Total appends accepted (enqueued) since start.
    pub appends_total: u64,
    /// Appends bounced with `Busy` (queue full).
    pub busy_total: u64,
    /// Idle sessions evicted under memory/session pressure.
    pub evictions_total: u64,
    /// `Hello`s refused for capacity.
    pub sessions_refused_total: u64,
    /// Appends refused over the hard memory budget.
    pub appends_refused_total: u64,
    /// Sessions quarantined after a worker panic.
    pub poisoned_total: u64,
    /// Estimated bytes across live session stores.
    pub approx_bytes: u64,
    /// Configured hard memory budget.
    pub budget_bytes: u64,
    /// Queries answered from a session engine's memoized verdict instead
    /// of recomputing (the prefix had not changed since the same query
    /// last ran). `#[serde(default)]` so snapshots from daemons predating
    /// this field still parse.
    #[serde(default)]
    pub query_cache_hits_total: u64,
    /// Connections dropped after an unrecoverable framing error
    /// (oversized or corrupt frame declaration). `#[serde(default)]` for
    /// wire compatibility with older daemons.
    #[serde(default)]
    pub frames_rejected_total: u64,
    /// Anomalies the flight recorder detected (post rate limit).
    #[serde(default)]
    pub anomalies_total: u64,
    /// Postmortem bundles written.
    #[serde(default)]
    pub postmortems_total: u64,
    /// Session snapshots that could not be written to the snapshot
    /// directory. `#[serde(default)]` for wire compatibility, and left
    /// out of the JSON while zero, so snapshots without failures read
    /// the same as those of older daemons.
    #[serde(default, skip_serializing_if = "is_zero")]
    pub snapshot_write_errors_total: u64,
    /// Per-session breakdown, sorted by session name. `#[serde(default)]`
    /// so snapshots from daemons predating this field still parse.
    #[serde(default)]
    pub per_session: Vec<SessionStat>,
}

fn is_zero(n: &u64) -> bool {
    *n == 0
}

/// One session's slice of the [`StatsSnapshot`], as consumed by
/// `pctl top`.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionStat {
    /// Session name.
    pub name: String,
    /// Appends accepted (enqueued) for this session.
    pub appends: u64,
    /// Estimated bytes in this session's store.
    pub approx_bytes: u64,
    /// Commands currently waiting on the session's bounded queue.
    pub queue_depth: u64,
    /// Milliseconds since the session's last accepted command.
    pub idle_ms: u64,
    /// Exact nearest-rank p50 of recent append latencies (enqueue →
    /// applied), microseconds; 0 until the first append is applied.
    pub p50_us: u64,
    /// Exact nearest-rank p95 over the same window.
    pub p95_us: u64,
    /// Engine queries (Detect/Control/Verify/Snapshot) answered for this
    /// session. `#[serde(default)]` for wire compatibility.
    #[serde(default)]
    pub queries: u64,
    /// How many of those were answered from the engine's memoized
    /// verdict (`pctl top` renders the hit rate).
    #[serde(default)]
    pub cache_hits: u64,
}

/// A response frame: the request's `seq` plus the response.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ResponseEnvelope {
    /// The request's correlation id (0 when the request was unparseable).
    pub seq: u64,
    /// The response.
    pub resp: Response,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelopes_roundtrip_through_json() {
        let reqs = vec![
            RequestEnvelope {
                seq: 1,
                req: Request::Hello {
                    session: "s".into(),
                    locals: vec![LocalPredicate::var("ok")],
                    init: Some(vec![vec![("ok".into(), 1)]]),
                    class: None,
                },
            },
            RequestEnvelope {
                seq: 4,
                req: Request::Hello {
                    session: "r".into(),
                    locals: vec![],
                    init: None,
                    class: Some(PredicateClass::regular(
                        2,
                        pctl_deposet::RegularPredicate::conj_var(&[0, 1], "cs"),
                    )),
                },
            },
            RequestEnvelope {
                seq: 2,
                req: Request::Append {
                    session: "s".into(),
                    op: AppendOp::Send {
                        process: 0,
                        msg: 7,
                        tag: "m".into(),
                        updates: vec![("x".into(), -3)],
                    },
                },
            },
            RequestEnvelope {
                seq: 3,
                req: Request::Stats,
            },
        ];
        for r in reqs {
            let json = serde_json::to_string(&r).unwrap();
            let back: RequestEnvelope = serde_json::from_str(&json).unwrap();
            assert_eq!(back, r);
        }
        let resps = vec![
            Response::Ok,
            Response::Busy { retry_after_ms: 20 },
            Response::Err {
                kind: ErrorKind::UnknownSession,
                detail: "no session 'x'".into(),
            },
            Response::Detect {
                violation: Some(vec![0, 2, 1]),
            },
            Response::Stats {
                stats: StatsSnapshot {
                    sessions: 3,
                    ..StatsSnapshot::default()
                },
            },
        ];
        for resp in resps {
            let env = ResponseEnvelope { seq: 9, resp };
            let json = serde_json::to_string(&env).unwrap();
            let back: ResponseEnvelope = serde_json::from_str(&json).unwrap();
            assert_eq!(back, env);
        }
    }

    #[test]
    fn hello_without_class_field_still_parses() {
        // Frames from clients predating the predicate-class field omit
        // `class` entirely; `#[serde(default)]` must fill in `None`.
        let env = RequestEnvelope {
            seq: 7,
            req: Request::Hello {
                session: "old".into(),
                locals: vec![LocalPredicate::var("ok")],
                init: None,
                class: None,
            },
        };
        // The vendored serde omits `None` options on serialize, so this
        // IS the legacy wire form — no `class` key at all.
        let json = serde_json::to_string(&env).unwrap();
        assert!(!json.contains("class"), "legacy wire form: {json}");
        let back: RequestEnvelope = serde_json::from_str(&json).unwrap();
        assert_eq!(back, env);
    }

    #[test]
    fn default_fields_may_be_missing() {
        // A `SessionStat` from a daemon predating the query counters.
        let old = r#"{"name":"s","appends":3,"approx_bytes":9,"queue_depth":0,"idle_ms":1,"p50_us":4,"p95_us":8}"#;
        let stat: SessionStat = serde_json::from_str(old).unwrap();
        assert_eq!((stat.queries, stat.cache_hits), (0, 0));
        assert_eq!(stat.p95_us, 8);
        // A `StatsSnapshot` with only the fields every daemon sent.
        let old = r#"{"sessions":1,"appends_total":2,"busy_total":0,"evictions_total":0,"sessions_refused_total":0,"appends_refused_total":0,"poisoned_total":0,"approx_bytes":5,"budget_bytes":6}"#;
        let stats: StatsSnapshot = serde_json::from_str(old).unwrap();
        assert_eq!(
            stats,
            StatsSnapshot {
                sessions: 1,
                appends_total: 2,
                approx_bytes: 5,
                budget_bytes: 6,
                ..StatsSnapshot::default()
            }
        );
        // Fields without `default` are still required.
        let err = serde_json::from_str::<StatsSnapshot>(r#"{"sessions":1}"#).unwrap_err();
        assert!(
            err.to_string().contains("missing field `appends_total`"),
            "{err}"
        );
    }

    #[test]
    fn snapshot_write_errors_are_sent_only_when_nonzero() {
        let mut stats = StatsSnapshot::default();
        let json = serde_json::to_string(&stats).unwrap();
        assert!(!json.contains("snapshot_write_errors_total"), "{json}");
        stats.snapshot_write_errors_total = 3;
        let json = serde_json::to_string(&stats).unwrap();
        assert!(
            json.contains(r#""snapshot_write_errors_total":3"#),
            "{json}"
        );
        assert_eq!(serde_json::from_str::<StatsSnapshot>(&json).unwrap(), stats);
    }

    #[test]
    fn session_accessor_covers_all_verbs() {
        assert_eq!(
            Request::Detect {
                session: "a".into()
            }
            .session(),
            Some("a")
        );
        assert_eq!(Request::Shutdown.session(), None);
    }
}
