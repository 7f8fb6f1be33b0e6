//! The daemon: session registry, per-session workers, and the degradation
//! ladder.
//!
//! ## Threading model
//!
//! One accept-loop thread; one thread per connection (blocking reads
//! through a [`FrameDecoder`]); one worker thread per session owning that
//! session's [`StreamEngine`]. Connection threads never touch an engine —
//! they enqueue commands onto the session's **bounded** mailbox and the
//! worker applies them in FIFO order, which gives each client
//! read-your-writes: a query enqueued after appends observes them.
//!
//! ## Batching
//!
//! The worker runs per batch, not per command. A connection thread wakes
//! it only when the mailbox goes from empty to non-empty, when it reaches
//! half of [`Config::queue_depth`], or when a query, `Trace` or `Close`
//! arrives; each wake-up takes the whole mailbox. While only appends are
//! pending and the mailbox is below half full, the worker lingers up to
//! [`APPEND_LINGER`] for more before applying them. The contract: an
//! `Append` is acked on enqueue, and it is applied within the linger
//! bound, or before the next query or close on that session — whichever
//! comes first. Queue-wait telemetry and the per-session append
//! percentiles include that deliberate delay.
//!
//! ## Robustness surface
//!
//! * **Backpressure** — `Append` is acked on *enqueue*; when the bounded
//!   mailbox is full the daemon answers [`Response::Busy`] with a retry
//!   hint instead of buffering without bound.
//! * **Degradation ladder** — under session-count or memory pressure the
//!   daemon first evicts *idle* sessions (LRU by last activity, snapshots
//!   flushed), then refuses **new** sessions ([`ErrorKind::Capacity`]);
//!   live sessions are never evicted for a newcomer. Over the hard memory
//!   budget it refuses appends ([`ErrorKind::Budget`]) rather than dying.
//! * **Panic isolation** — each command runs under `catch_unwind`; a panic
//!   poisons only the owning session (engine dropped, memory released,
//!   [`ErrorKind::Poisoned`] tombstone until closed, and every command
//!   left in the batch or the mailbox answered with it). The accept loop
//!   and every other session keep running.
//! * **Hostile input** — malformed JSON in a well-framed payload gets a
//!   structured error on the same connection; an oversized/corrupt frame
//!   declaration closes only that connection (framing cannot resync).
//! * **Graceful drain** — [`Daemon::shutdown`] (or the admin `Shutdown`
//!   verb) closes every session, flushing snapshots when a snapshot
//!   directory is configured, joins every worker, and reports how many
//!   failed to drain cleanly.

use crate::frame::{encode_json_frame, FrameDecoder, DEFAULT_MAX_FRAME};
use crate::proto::{
    ErrorKind, Request, RequestEnvelope, Response, ResponseEnvelope, StatsSnapshot,
};
use pctl_core::offline::OfflineOptions;
use pctl_core::StreamEngine;
use pctl_deposet::{AppendOp, PredicateClass};
use pctl_obs::flight::{
    write_bundle, AnomalyDetector, AnomalyRecord, AnomalyThresholds, FlightFrame, FlightRecorder,
    SessionSample,
};
use pctl_obs::prom::{prof_families, Exposition, Histogram, EXPOSITION_CONTENT_TYPE};
use pctl_obs::{Event, EventKind, Recorder, RingRecorder};
use serde::Serialize;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon tuning knobs. [`Config::default`] is sized for tests and small
/// debugging sessions; production callers raise the budgets.
#[derive(Clone, Debug)]
pub struct Config {
    /// Bind address (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// Maximum live sessions before the eviction/refusal ladder engages.
    pub max_sessions: usize,
    /// Hard cap on estimated bytes across all session stores.
    pub memory_budget: usize,
    /// Bounded per-session command-queue depth (backpressure threshold;
    /// at least 1). Half of it queued wakes the session worker early.
    pub queue_depth: usize,
    /// A session is evictable once inactive this long.
    pub idle_timeout: Duration,
    /// Maximum frame payload size accepted from clients.
    pub max_frame: usize,
    /// Retry hint attached to `Busy` responses.
    pub retry_after_ms: u64,
    /// When set, closed/evicted/drained sessions write their batch trace
    /// JSON to `<dir>/<session>.json`.
    pub snapshot_dir: Option<PathBuf>,
    /// Serve the `Crash`/`Sleep` fault-injection verbs. Off by default:
    /// the port is unauthenticated, and these verbs exist for torture
    /// tests and chaos drills, not production clients.
    pub fault_injection: bool,
    /// Request telemetry (per-verb latency histograms, queue-wait/apply
    /// split, per-session latency windows, trace rings, slow log). On by
    /// default; turning it off leaves only the PR-6 counters/gauges —
    /// the bench suite measures the difference to keep observation
    /// honest about its cost.
    pub telemetry: bool,
    /// Capacity of each session's telemetry event ring (drop-oldest),
    /// served by the `Trace` verb. 0 disables the rings (`Trace` answers
    /// with an empty event list).
    pub trace_ring: usize,
    /// When set, requests at least [`Config::slow_ms`] slow append one
    /// JSONL record (`ts_ms`, `session`, `verb`, `latency_us`,
    /// `queue_depth`, `outcome`) to this file.
    pub slow_log: Option<PathBuf>,
    /// Slow-request threshold, milliseconds.
    pub slow_ms: u64,
    /// When > 0, the slow log rotates once it would exceed this many
    /// bytes: the current file is atomically renamed to `<path>.1`
    /// (replacing any previous `.1`) and a fresh file is started — at
    /// most ~2× the cap on disk, instead of unbounded growth.
    pub slow_log_max_bytes: u64,
    /// The flight recorder: a background sampler snapshots daemon state
    /// every [`Config::flight_interval`] into a bounded in-memory ring
    /// and scans consecutive snapshots for anomalies. On by default —
    /// strictly observational (the torture test pins verdicts
    /// bit-identical with it on, and the bench suite prices it).
    pub flight: bool,
    /// Interval between flight-recorder snapshots.
    pub flight_interval: Duration,
    /// Snapshots retained in the in-memory history ring (drop-oldest).
    /// The default covers 2 minutes at the default interval.
    pub flight_history: usize,
    /// When set, each detected anomaly (rate-limited per kind) dumps a
    /// self-contained postmortem bundle directory under this path.
    pub postmortem_dir: Option<PathBuf>,
    /// Per-anomaly-kind rate-limit window: one firing (and at most one
    /// bundle) per kind per window.
    pub anomaly_window: Duration,
    /// Append-latency SLO: a merged p95 above this many microseconds is
    /// an [`SloBurn`](pctl_obs::flight::AnomalyKind::SloBurn) anomaly.
    pub slo_p95_us: u64,
    /// `Busy` bounces per second above which a
    /// [`BusySpike`](pctl_obs::flight::AnomalyKind::BusySpike) fires.
    pub busy_spike_per_sec: f64,
}

/// Hard clamp on a client-requested `Sleep` stall, even with
/// [`Config::fault_injection`] enabled — a stalled worker delays queue
/// drain and session close.
pub const MAX_SLEEP_MS: u64 = 5_000;

impl Default for Config {
    fn default() -> Self {
        Config {
            addr: "127.0.0.1:0".into(),
            max_sessions: 64,
            memory_budget: 64 << 20,
            queue_depth: 128,
            idle_timeout: Duration::from_secs(30),
            max_frame: DEFAULT_MAX_FRAME,
            retry_after_ms: 20,
            snapshot_dir: None,
            fault_injection: false,
            telemetry: true,
            trace_ring: 256,
            slow_log: None,
            slow_ms: 100,
            slow_log_max_bytes: 0,
            flight: true,
            flight_interval: Duration::from_millis(500),
            flight_history: 240,
            postmortem_dir: None,
            anomaly_window: Duration::from_secs(30),
            slo_p95_us: 100_000,
            busy_spike_per_sec: 50.0,
        }
    }
}

/// How long a woken session worker waits for more appends when only
/// appends are pending and its mailbox is below half full. Bounds how long
/// an acked `Append` can stay unapplied while no query or close follows.
pub const APPEND_LINGER: Duration = Duration::from_millis(1);

/// Per-session append-latency window: enough samples for a stable p95
/// without unbounded growth (`Stats` percentiles are exact over this
/// window, nearest-rank).
const LATENCY_WINDOW: usize = 512;

/// What a query command asks of the session worker.
enum QueryKind {
    Detect,
    Control,
    Verify,
    Snapshot,
    /// Snapshot the session's telemetry event ring.
    Trace,
    /// Fault injection: panic inside the worker.
    Crash,
    /// Fault injection: stall the worker.
    Sleep(u64),
}

/// A command on a session's bounded mailbox.
enum Cmd {
    /// Already acked to the client; errors become the session's sticky
    /// error. The `Instant` is the enqueue time, stamped by the
    /// connection thread — the worker splits total append latency into
    /// queue wait (enqueue → apply start) and store apply from it.
    Apply(AppendOp, Instant),
    Query(QueryKind, mpsc::Sender<Response>),
    /// Flush + exit; the reply confirms the worker is done with its store.
    Close(mpsc::Sender<Response>),
}

/// Why [`Mailbox::push`] refused a command.
enum PushError {
    /// `queue_depth` commands are already waiting.
    Full,
    /// The session is being closed.
    Closing,
    /// The worker has exited after a panic; nothing reads the mailbox.
    Gone,
}

/// A session's bounded command queue, woken per batch (see the module
/// docs): connection threads push, the worker takes everything at once.
struct Mailbox {
    state: Mutex<MailState>,
    wake: Condvar,
    /// Client commands that may wait at once (`Config::queue_depth`).
    depth: usize,
    /// Queue length at which an append wakes the worker (`depth / 2`).
    wake_at: usize,
}

const MAILBOX_LOCK: &str = "no code panics while holding a mailbox lock";

#[derive(Default)]
struct MailState {
    queue: VecDeque<Cmd>,
    /// A non-`Apply` command is waiting: the worker must not linger.
    urgent: bool,
    /// The worker is blocked on `wake` (only then is a notify needed).
    idle: bool,
    /// `Close` is queued; nothing more is accepted.
    closing: bool,
    /// The worker exited after a panic.
    gone: bool,
}

impl Mailbox {
    fn new(depth: usize) -> Mailbox {
        let depth = depth.max(1);
        Mailbox {
            state: Mutex::new(MailState::default()),
            wake: Condvar::new(),
            depth,
            wake_at: (depth / 2).max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MailState> {
        self.state.lock().expect(MAILBOX_LOCK)
    }

    /// Commands waiting to be taken by the worker.
    fn len(&self) -> usize {
        self.lock().queue.len()
    }

    /// Enqueue one command. `Close` is exempt from the depth bound, so a
    /// close never waits behind a full mailbox; it is the last command
    /// the mailbox accepts.
    fn push(&self, cmd: Cmd) -> Result<(), PushError> {
        let mut st = self.lock();
        if st.gone {
            return Err(PushError::Gone);
        }
        if st.closing {
            return Err(PushError::Closing);
        }
        let apply = matches!(cmd, Cmd::Apply(..));
        let close = matches!(cmd, Cmd::Close(_));
        if !close && st.queue.len() >= self.depth {
            return Err(PushError::Full);
        }
        st.queue.push_back(cmd);
        st.urgent |= !apply;
        st.closing |= close;
        let len = st.queue.len();
        let wake = st.idle && (!apply || len == 1 || len == self.wake_at);
        drop(st);
        if wake {
            self.wake.notify_one();
        }
        Ok(())
    }

    /// Block until a command is waiting, linger up to [`APPEND_LINGER`]
    /// while only a few appends are, then swap the whole queue into
    /// `batch` (which the worker hands back empty, keeping its buffer).
    fn take(&self, batch: &mut VecDeque<Cmd>) {
        let mut st = self.lock();
        while st.queue.is_empty() {
            st.idle = true;
            st = self.wake.wait(st).expect(MAILBOX_LOCK);
            st.idle = false;
        }
        let deadline = Instant::now() + APPEND_LINGER;
        while !st.urgent && st.queue.len() < self.wake_at {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            st.idle = true;
            st = self.wake.wait_timeout(st, left).expect(MAILBOX_LOCK).0;
            st.idle = false;
        }
        st.urgent = false;
        std::mem::swap(&mut st.queue, batch);
    }

    /// Mark the worker gone and hand back everything still queued; later
    /// pushes fail with [`PushError::Gone`].
    fn abandon(&self) -> VecDeque<Cmd> {
        let mut st = self.lock();
        st.gone = true;
        std::mem::take(&mut st.queue)
    }
}

/// Registry entry shared between connection threads and the worker.
struct SessionShared {
    name: String,
    mailbox: Mailbox,
    worker: Mutex<Option<JoinHandle<()>>>,
    poisoned: AtomicBool,
    /// First append failure; wedges the session until closed.
    sticky_error: Mutex<Option<String>>,
    last_active: Mutex<Instant>,
    approx_bytes: AtomicUsize,
    /// Appends accepted (enqueued) for this session.
    appends: AtomicU64,
    /// Recent append latencies (enqueue → applied), microseconds, bounded
    /// to [`LATENCY_WINDOW`] (drop-oldest). `Stats` per-session p50/p95
    /// are exact nearest-rank percentiles over this window.
    lat_us: Mutex<VecDeque<u64>>,
    /// Engine queries (Detect/Control/Verify/Snapshot) answered by this
    /// session's worker.
    queries: AtomicU64,
    /// How many of those came from the engine's memoized verdict
    /// (mirrors the engine's monotone count; the global counter
    /// aggregates the deltas).
    cache_hits: AtomicU64,
}

impl SessionShared {
    fn touch(&self) {
        *self.last_active.lock().unwrap() = Instant::now();
    }

    fn idle_for(&self) -> Duration {
        self.last_active.lock().unwrap().elapsed()
    }
}

#[derive(Default)]
struct Stats {
    appends_total: AtomicU64,
    busy_total: AtomicU64,
    evictions_total: AtomicU64,
    sessions_refused_total: AtomicU64,
    appends_refused_total: AtomicU64,
    poisoned_total: AtomicU64,
    approx_bytes: AtomicUsize,
    /// Queries answered from a session engine's memoized verdict
    /// (aggregated from per-worker deltas after every query).
    query_cache_hits_total: AtomicU64,
    /// Connections dropped after an unrecoverable framing error
    /// (oversized or corrupt frame declaration).
    frames_rejected_total: AtomicU64,
    /// Anomalies the flight recorder detected (post rate limit).
    anomalies_total: AtomicU64,
    /// Postmortem bundles successfully written.
    postmortems_total: AtomicU64,
    /// Session snapshots that failed to reach the snapshot directory.
    snapshot_write_errors_total: AtomicU64,
}

/// Request-telemetry state: per-verb latency histograms, the queue-wait /
/// store-apply split for appends, and the slow-request log sink.
///
/// Everything here is strictly observational — no verb branches on it —
/// so disabling it (`Config::telemetry = false`) changes no verdict, a
/// property the torture test pins by comparing daemon verdicts against
/// batch engines with telemetry on.
struct Telemetry {
    enabled: bool,
    /// `pctld_request_seconds{verb=...}`: wall time of `dispatch`, i.e.
    /// what the client waits for past framing.
    request_seconds: Mutex<BTreeMap<&'static str, Histogram>>,
    /// `pctld_append_queue_wait_seconds`: enqueue → worker dequeue.
    queue_wait_seconds: Mutex<Histogram>,
    /// `pctld_append_apply_seconds`: store apply proper.
    apply_seconds: Mutex<Histogram>,
    slow_log: Option<Mutex<SlowLogWriter>>,
    slow_threshold: Duration,
    /// The last [`RECENT_SLOW`] slow-record lines (drop-oldest), kept
    /// even without a slow-log file so postmortem bundles can include
    /// them.
    recent_slow: Mutex<VecDeque<String>>,
}

/// Recent slow-record lines retained in memory for postmortem bundles.
const RECENT_SLOW: usize = 128;

/// The slow-request log sink: a buffered appender with optional
/// size-capped rotation. When `max_bytes > 0` and the next line would
/// push the current file past the cap, the file is atomically renamed to
/// `<path>.1` (replacing any previous rotation) and a fresh file is
/// started — the log holds at most ~2× the cap on disk.
struct SlowLogWriter {
    path: PathBuf,
    out: std::io::BufWriter<std::fs::File>,
    bytes: u64,
    max_bytes: u64,
}

impl SlowLogWriter {
    fn open(path: &PathBuf, max_bytes: u64) -> std::io::Result<SlowLogWriter> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let bytes = file.metadata().map_or(0, |m| m.len());
        Ok(SlowLogWriter {
            path: path.clone(),
            out: std::io::BufWriter::new(file),
            bytes,
            max_bytes,
        })
    }

    /// Append one record line, rotating first when it would cross the
    /// cap. Write errors are swallowed (the log is diagnostics, never a
    /// reason to fail a request); rotation errors fall back to appending
    /// in place.
    fn write_line(&mut self, line: &str) {
        let incoming = line.len() as u64 + 1;
        if self.max_bytes > 0 && self.bytes > 0 && self.bytes + incoming > self.max_bytes {
            let _ = self.out.flush();
            let mut rotated = self.path.clone().into_os_string();
            rotated.push(".1");
            if std::fs::rename(&self.path, &rotated).is_ok() {
                if let Ok(file) = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&self.path)
                {
                    self.out = std::io::BufWriter::new(file);
                    self.bytes = 0;
                }
            }
        }
        let _ = writeln!(self.out, "{line}");
        let _ = self.out.flush();
        self.bytes += incoming;
    }
}

impl Telemetry {
    fn new(cfg: &Config) -> std::io::Result<Telemetry> {
        let slow_log = match (&cfg.slow_log, cfg.telemetry) {
            (Some(path), true) => Some(Mutex::new(SlowLogWriter::open(
                path,
                cfg.slow_log_max_bytes,
            )?)),
            _ => None,
        };
        Ok(Telemetry {
            enabled: cfg.telemetry,
            request_seconds: Mutex::new(BTreeMap::new()),
            queue_wait_seconds: Mutex::new(Histogram::latency_seconds()),
            apply_seconds: Mutex::new(Histogram::latency_seconds()),
            slow_log,
            slow_threshold: Duration::from_millis(cfg.slow_ms),
            recent_slow: Mutex::new(VecDeque::new()),
        })
    }

    fn observe_request(&self, verb: &'static str, dt: Duration) {
        self.request_seconds
            .lock()
            .unwrap()
            .entry(verb)
            .or_insert_with(Histogram::latency_seconds)
            .observe_duration(dt);
    }
}

/// One slow-request log record (JSONL). Owned fields: the vendored
/// serde derive does not handle generic (borrowing) structs.
#[derive(Serialize)]
struct SlowRecord {
    /// Unix milliseconds at the time of logging.
    ts_ms: u64,
    session: Option<String>,
    verb: String,
    latency_us: u64,
    /// The session's queue depth right after the request finished (0 for
    /// admin verbs and vanished sessions).
    queue_depth: u64,
    outcome: String,
}

/// Recent anomaly records retained for bundles, health, and reports.
const RECENT_ANOMALIES: usize = 32;

/// Flight-recorder state: the snapshot ring, the stateful anomaly
/// detector, and the recent-anomaly ring. `None` when `Config::flight`
/// is off — every hook then costs one `Option` check.
struct FlightState {
    recorder: Mutex<FlightRecorder>,
    detector: Mutex<AnomalyDetector>,
    recent: Mutex<VecDeque<AnomalyRecord>>,
    /// Daemon start, anchoring frame `uptime_ms`.
    epoch: Instant,
    /// Bundle sequence number, for unique directory names.
    bundle_seq: AtomicU64,
}

struct Inner {
    cfg: Config,
    addr: SocketAddr,
    stop: AtomicBool,
    draining: AtomicBool,
    sessions: Mutex<HashMap<String, Arc<SessionShared>>>,
    stats: Stats,
    telemetry: Telemetry,
    flight: Option<FlightState>,
}

/// A running daemon. Dropping it drains and stops the listener.
pub struct Daemon {
    inner: Arc<Inner>,
    accept: Option<JoinHandle<()>>,
    flight: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Bind and start serving.
    pub fn spawn(cfg: Config) -> std::io::Result<Daemon> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let telemetry = Telemetry::new(&cfg)?;
        let flight_state = cfg.flight.then(|| FlightState {
            recorder: Mutex::new(FlightRecorder::new(cfg.flight_history.max(1))),
            detector: Mutex::new(AnomalyDetector::new(
                AnomalyThresholds {
                    busy_per_sec: cfg.busy_spike_per_sec,
                    slo_p95_us: cfg.slo_p95_us,
                },
                cfg.anomaly_window,
            )),
            recent: Mutex::new(VecDeque::new()),
            epoch: Instant::now(),
            bundle_seq: AtomicU64::new(0),
        });
        let inner = Arc::new(Inner {
            cfg,
            addr,
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            sessions: Mutex::new(HashMap::new()),
            stats: Stats::default(),
            telemetry,
            flight: flight_state,
        });
        let inner2 = Arc::clone(&inner);
        let accept = std::thread::Builder::new()
            .name("pctld-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if inner2.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let conn_inner = Arc::clone(&inner2);
                    // Connection threads are detached: they exit on client
                    // EOF/error, and at process exit. A failed spawn only
                    // drops this connection.
                    let _ = std::thread::Builder::new()
                        .name("pctld-conn".into())
                        .spawn(move || serve_connection(stream, conn_inner));
                }
            })?;
        let flight = match inner.flight.is_some() {
            true => {
                let flight_inner = Arc::clone(&inner);
                Some(
                    std::thread::Builder::new()
                        .name("pctld-flight".into())
                        .spawn(move || flight_loop(flight_inner))?,
                )
            }
            false => None,
        };
        Ok(Daemon {
            inner,
            accept: Some(accept),
            flight,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Drain every session (flushing snapshots), stop the accept loop, and
    /// return the number of sessions that failed to drain cleanly.
    pub fn shutdown(mut self) -> u64 {
        let leaked = self.stop_and_drain();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.flight.take() {
            let _ = h.join();
        }
        leaked
    }

    /// Whether the daemon has been asked to stop — by a local
    /// [`Daemon::shutdown`] or by a client's `Shutdown` verb. The CLI's
    /// foreground loop polls this so a remote shutdown also ends
    /// `pctl serve`.
    pub fn is_stopped(&self) -> bool {
        self.inner.stop.load(Ordering::SeqCst)
    }

    /// Live session count (drain asserts this reaches zero).
    pub fn session_count(&self) -> usize {
        self.inner.sessions.lock().unwrap().len()
    }

    /// Counter/gauge snapshot, as served to the `Stats` verb.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats_snapshot()
    }

    /// The raw append-latency window (microseconds, oldest first) behind
    /// a session's `Stats` percentiles. Diagnostic surface: tests use it
    /// to assert the served p50/p95 are *exact* nearest-rank percentiles
    /// of the recorded timings, not approximations.
    pub fn session_append_latencies(&self, name: &str) -> Option<Vec<u64>> {
        let sess = self.inner.sessions.lock().unwrap().get(name).cloned()?;
        let lat = sess.lat_us.lock().unwrap();
        Some(lat.iter().copied().collect())
    }

    /// Fold the daemon's gauges/counters into a Prometheus exposition
    /// (`pctld_*` families), for mounting on the existing `/metrics`
    /// server.
    pub fn prom_families(&self, exp: &mut Exposition) {
        self.inner.prom_families(exp);
    }

    /// Spawn the daemon's HTTP sidecar: `/metrics` (and `/`) render this
    /// daemon's families plus the hot-path profiler's; `/healthz` answers
    /// a JSON health report (ladder state, SLO burn, poisoned count);
    /// `/readyz` answers `200 ready` until a drain starts, then
    /// `503 draining` — load balancers stop routing before the listener
    /// dies.
    pub fn spawn_metrics(&self, addr: &str) -> std::io::Result<pctl_obs::prom::MetricsServer> {
        let inner = Arc::clone(&self.inner);
        pctl_obs::prom::MetricsServer::spawn_routes(
            addr,
            Arc::new(move |path: &str| match path {
                "/metrics" | "/" => {
                    let mut exp = Exposition::new();
                    inner.prom_families(&mut exp);
                    prof_families(&pctl_prof::report(), &mut exp);
                    Some((200, EXPOSITION_CONTENT_TYPE.to_owned(), exp.render()))
                }
                "/healthz" => Some((
                    200,
                    "application/json".to_owned(),
                    inner.health_json() + "\n",
                )),
                "/readyz" => match inner.draining.load(Ordering::SeqCst)
                    || inner.stop.load(Ordering::SeqCst)
                {
                    false => Some((200, "text/plain".to_owned(), "ready\n".to_owned())),
                    true => Some((503, "text/plain".to_owned(), "draining\n".to_owned())),
                },
                _ => None,
            }),
        )
    }

    /// The daemon's JSON health report, as served on `/healthz`.
    pub fn health_json(&self) -> String {
        self.inner.health_json()
    }

    /// The flight recorder's in-memory history, oldest first (empty when
    /// the recorder is disabled).
    pub fn flight_history(&self) -> Vec<FlightFrame> {
        self.inner
            .flight
            .as_ref()
            .map(|f| f.recorder.lock().unwrap().history())
            .unwrap_or_default()
    }

    fn stop_and_drain(&mut self) -> u64 {
        self.inner.draining.store(true, Ordering::SeqCst);
        let leaked = self.inner.drain_all();
        self.inner.stop.store(true, Ordering::SeqCst);
        // Unblock accept() with a throwaway connection.
        let _ = TcpStream::connect(self.inner.addr);
        leaked
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop_and_drain();
            if let Some(h) = self.accept.take() {
                let _ = h.join();
            }
        }
        if let Some(h) = self.flight.take() {
            let _ = h.join();
        }
    }
}

impl Inner {
    fn stats_snapshot(&self) -> StatsSnapshot {
        let mut per_session: Vec<crate::proto::SessionStat> = self
            .sessions
            .lock()
            .unwrap()
            .values()
            .map(|sess| {
                let lat: Vec<u64> = {
                    let l = sess.lat_us.lock().unwrap();
                    l.iter().copied().collect()
                };
                let pct = pctl_obs::stats::Percentiles::of(&lat);
                crate::proto::SessionStat {
                    name: sess.name.clone(),
                    appends: sess.appends.load(Ordering::SeqCst),
                    approx_bytes: sess.approx_bytes.load(Ordering::SeqCst) as u64,
                    queue_depth: sess.mailbox.len() as u64,
                    idle_ms: sess.idle_for().as_millis() as u64,
                    p50_us: pct.as_ref().map_or(0, |p| p.p50),
                    p95_us: pct.as_ref().map_or(0, |p| p.p95),
                    queries: sess.queries.load(Ordering::SeqCst),
                    cache_hits: sess.cache_hits.load(Ordering::SeqCst),
                }
            })
            .collect();
        per_session.sort_by(|a, b| a.name.cmp(&b.name));
        StatsSnapshot {
            sessions: per_session.len() as u64,
            appends_total: self.stats.appends_total.load(Ordering::SeqCst),
            busy_total: self.stats.busy_total.load(Ordering::SeqCst),
            evictions_total: self.stats.evictions_total.load(Ordering::SeqCst),
            sessions_refused_total: self.stats.sessions_refused_total.load(Ordering::SeqCst),
            appends_refused_total: self.stats.appends_refused_total.load(Ordering::SeqCst),
            poisoned_total: self.stats.poisoned_total.load(Ordering::SeqCst),
            approx_bytes: self.stats.approx_bytes.load(Ordering::SeqCst) as u64,
            budget_bytes: self.cfg.memory_budget as u64,
            query_cache_hits_total: self.stats.query_cache_hits_total.load(Ordering::SeqCst),
            frames_rejected_total: self.stats.frames_rejected_total.load(Ordering::SeqCst),
            anomalies_total: self.stats.anomalies_total.load(Ordering::SeqCst),
            postmortems_total: self.stats.postmortems_total.load(Ordering::SeqCst),
            snapshot_write_errors_total: self
                .stats
                .snapshot_write_errors_total
                .load(Ordering::SeqCst),
            per_session,
        }
    }

    fn prom_families(&self, exp: &mut Exposition) {
        let s = self.stats_snapshot();
        exp.gauge("pctld_sessions", "Live sessions", &[], s.sessions as f64);
        exp.gauge(
            "pctld_memory_bytes",
            "Estimated bytes across live session stores",
            &[],
            s.approx_bytes as f64,
        );
        exp.gauge(
            "pctld_memory_budget_bytes",
            "Configured hard memory budget",
            &[],
            s.budget_bytes as f64,
        );
        exp.counter(
            "pctld_appends_total",
            "Appends accepted (enqueued)",
            &[],
            s.appends_total as f64,
        );
        exp.counter(
            "pctld_busy_total",
            "Appends bounced with Busy (queue full)",
            &[],
            s.busy_total as f64,
        );
        exp.counter(
            "pctld_evictions_total",
            "Idle sessions evicted under pressure",
            &[],
            s.evictions_total as f64,
        );
        exp.counter(
            "pctld_sessions_refused_total",
            "Hello requests refused for capacity",
            &[],
            s.sessions_refused_total as f64,
        );
        exp.counter(
            "pctld_appends_refused_total",
            "Appends refused over the hard memory budget",
            &[],
            s.appends_refused_total as f64,
        );
        exp.counter(
            "pctld_poisoned_total",
            "Sessions quarantined after a worker panic",
            &[],
            s.poisoned_total as f64,
        );
        exp.counter(
            "pctld_query_cache_hits_total",
            "Queries answered from a session engine's memoized verdict",
            &[],
            s.query_cache_hits_total as f64,
        );
        exp.counter(
            "pctld_frames_rejected_total",
            "Connections dropped after an unrecoverable framing error",
            &[],
            s.frames_rejected_total as f64,
        );
        exp.counter(
            "pctld_anomalies_total",
            "Anomalies detected by the flight recorder (post rate limit)",
            &[],
            s.anomalies_total as f64,
        );
        exp.counter(
            "pctld_postmortems_total",
            "Postmortem bundles written",
            &[],
            s.postmortems_total as f64,
        );
        exp.counter(
            "pctld_snapshot_write_errors_total",
            "Session snapshots that could not be written",
            &[],
            s.snapshot_write_errors_total as f64,
        );
        for sess in self.sessions.lock().unwrap().values() {
            exp.gauge(
                "pctld_queue_depth",
                "Commands waiting on each session's bounded queue",
                &[("session", sess.name.as_str())],
                sess.mailbox.len() as f64,
            );
        }
        if self.telemetry.enabled {
            for (verb, h) in self.telemetry.request_seconds.lock().unwrap().iter() {
                exp.histogram(
                    "pctld_request_seconds",
                    "Request dispatch latency by verb, seconds",
                    &[("verb", verb)],
                    h,
                );
            }
            exp.histogram(
                "pctld_append_queue_wait_seconds",
                "Append latency spent waiting on the session queue (enqueue to worker dequeue), seconds",
                &[],
                &self.telemetry.queue_wait_seconds.lock().unwrap(),
            );
            exp.histogram(
                "pctld_append_apply_seconds",
                "Append latency spent applying to the session store, seconds",
                &[],
                &self.telemetry.apply_seconds.lock().unwrap(),
            );
        }
    }

    /// Record one slow request: append to the slow-log file (when
    /// configured, with rotation) and to the in-memory recent-slow ring
    /// that postmortem bundles include. Called only when telemetry is on
    /// and the request crossed the threshold.
    fn write_slow_log(
        &self,
        verb: &'static str,
        session: Option<&str>,
        dt: Duration,
        resp: &Response,
    ) {
        let queue_depth = session
            .and_then(|n| self.sessions.lock().unwrap().get(n).cloned())
            .map_or(0, |s| s.mailbox.len() as u64);
        let outcome = match resp {
            Response::Busy { .. } => "busy".to_owned(),
            Response::Err { kind, .. } => format!("err:{kind:?}"),
            _ => "ok".to_owned(),
        };
        let record = SlowRecord {
            ts_ms: unix_ms(),
            session: session.map(str::to_owned),
            verb: verb.to_owned(),
            latency_us: dt.as_micros() as u64,
            queue_depth,
            outcome,
        };
        if let Ok(json) = serde_json::to_string(&record) {
            if let Some(log) = &self.telemetry.slow_log {
                log.lock().unwrap().write_line(&json);
            }
            let mut recent = self.telemetry.recent_slow.lock().unwrap();
            if recent.len() == RECENT_SLOW {
                recent.pop_front();
            }
            recent.push_back(json);
        }
    }

    /// Close one session: remove it from the registry, ask the worker to
    /// flush + exit, and join it. The worker releases the session's global
    /// memory accounting itself on exit, *after* draining whatever appends
    /// were still queued — subtracting here would leak their deltas into
    /// the global gauge. Returns whether the worker drained cleanly.
    fn close_session(&self, name: &str) -> Option<bool> {
        let sess = self.sessions.lock().unwrap().remove(name)?;
        // `Close` skips the depth bound, so it queues even behind a full
        // mailbox and a stalled worker; only a worker that already exited
        // (poisoned) refuses it, and then there is nothing to wait for.
        let (tx, rx) = mpsc::channel();
        if sess.mailbox.push(Cmd::Close(tx)).is_ok() {
            let _ = rx.recv_timeout(Duration::from_secs(10));
        }
        let handle = sess.worker.lock().unwrap().take();
        match handle {
            Some(h) => Some(h.join().is_ok()),
            None => Some(true),
        }
    }

    /// Evict the least-recently-active session that has been idle past the
    /// timeout. Live sessions are never touched. Returns whether one went.
    fn evict_one_idle(&self, protect: Option<&str>) -> bool {
        let candidate = {
            let map = self.sessions.lock().unwrap();
            map.values()
                .filter(|s| Some(s.name.as_str()) != protect)
                .filter(|s| s.idle_for() >= self.cfg.idle_timeout)
                .max_by_key(|s| s.idle_for())
                .map(|s| s.name.clone())
        };
        match candidate {
            Some(name) => {
                self.close_session(&name);
                self.stats.evictions_total.fetch_add(1, Ordering::SeqCst);
                true
            }
            None => false,
        }
    }

    fn over_budget(&self) -> bool {
        self.stats.approx_bytes.load(Ordering::SeqCst) > self.cfg.memory_budget
    }

    fn drain_all(&self) -> u64 {
        let names: Vec<String> = self.sessions.lock().unwrap().keys().cloned().collect();
        let mut leaked = 0u64;
        for name in names {
            if self.close_session(&name) == Some(false) {
                leaked += 1;
            }
        }
        leaked
    }

    /// Snapshot the daemon into one [`FlightFrame`]: every counter and
    /// gauge, the merged append-latency percentiles, and per-session
    /// detail. Read-only over the same state `/metrics` scrapes — this is
    /// what keeps the recorder strictly observational.
    fn flight_frame(&self, epoch: Instant) -> FlightFrame {
        let s = self.stats_snapshot();
        let merged: Vec<u64> = {
            let map = self.sessions.lock().unwrap();
            map.values()
                .flat_map(|sess| {
                    let lat = sess.lat_us.lock().unwrap();
                    lat.iter().copied().collect::<Vec<u64>>()
                })
                .collect()
        };
        let pct = pctl_obs::stats::Percentiles::of(&merged);
        let counters: BTreeMap<String, u64> = [
            ("appends_total", s.appends_total),
            ("busy_total", s.busy_total),
            ("evictions_total", s.evictions_total),
            ("sessions_refused_total", s.sessions_refused_total),
            ("appends_refused_total", s.appends_refused_total),
            ("poisoned_total", s.poisoned_total),
            ("query_cache_hits_total", s.query_cache_hits_total),
            ("frames_rejected_total", s.frames_rejected_total),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v))
        .collect();
        let gauges: BTreeMap<String, u64> = [
            ("sessions", s.sessions),
            ("memory_bytes", s.approx_bytes),
            ("memory_budget_bytes", s.budget_bytes),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v))
        .collect();
        FlightFrame {
            ts_ms: unix_ms(),
            uptime_ms: epoch.elapsed().as_millis() as u64,
            counters,
            gauges,
            append_p50_us: pct.as_ref().map_or(0, |p| p.p50),
            append_p95_us: pct.as_ref().map_or(0, |p| p.p95),
            sessions: s
                .per_session
                .iter()
                .map(|p| SessionSample {
                    name: p.name.clone(),
                    appends: p.appends,
                    approx_bytes: p.approx_bytes,
                    queue_depth: p.queue_depth,
                    idle_ms: p.idle_ms,
                    p50_us: p.p50_us,
                    p95_us: p.p95_us,
                    queries: p.queries,
                    cache_hits: p.cache_hits,
                })
                .collect(),
        }
    }

    /// Best-effort snapshot of a session's trace ring, for a postmortem
    /// bundle. Goes through the worker queue like any `Trace` verb; a
    /// busy, closing, or poisoned session simply contributes no events —
    /// a bundle must never wait on (or wedge) the thing it is documenting.
    fn bundle_trace(&self, session: Option<&str>) -> (Vec<Event>, u32) {
        let Some(name) = session else {
            return (Vec::new(), 1);
        };
        let Some(sess) = self.sessions.lock().unwrap().get(name).cloned() else {
            return (Vec::new(), 1);
        };
        let (tx, rx) = mpsc::channel();
        if sess.mailbox.push(Cmd::Query(QueryKind::Trace, tx)).is_ok() {
            if let Ok(Response::Trace {
                events, processes, ..
            }) = rx.recv_timeout(Duration::from_secs(1))
            {
                return (events, processes.max(1));
            }
        }
        (Vec::new(), 1)
    }

    /// React to one rate-limited anomaly: remember it, count it, and —
    /// when a postmortem directory is configured — dump a bundle.
    fn handle_anomaly(&self, anomaly: AnomalyRecord) {
        let Some(flight) = &self.flight else { return };
        self.stats.anomalies_total.fetch_add(1, Ordering::SeqCst);
        {
            let mut recent = flight.recent.lock().unwrap();
            if recent.len() == RECENT_ANOMALIES {
                recent.pop_front();
            }
            recent.push_back(anomaly.clone());
        }
        let Some(root) = &self.cfg.postmortem_dir else {
            return;
        };
        let (history, dropped) = {
            let rec = flight.recorder.lock().unwrap();
            (rec.history(), rec.dropped())
        };
        let recent: Vec<AnomalyRecord> = flight.recent.lock().unwrap().iter().cloned().collect();
        let (events, processes) = self.bundle_trace(anomaly.session.as_deref());
        let slow: Vec<String> = self
            .telemetry
            .recent_slow
            .lock()
            .unwrap()
            .iter()
            .cloned()
            .collect();
        let seq = flight.bundle_seq.fetch_add(1, Ordering::SeqCst);
        let dir = root.join(format!("{}-{}-{}", anomaly.ts_ms, seq, anomaly.kind.slug()));
        if write_bundle(
            &dir, &anomaly, &history, dropped, &recent, &events, processes, &slow,
        )
        .is_ok()
        {
            self.stats.postmortems_total.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// The `/healthz` body: ladder state, SLO burn, poison count, and the
    /// last anomaly, small enough for a probe to parse every second.
    fn health_json(&self) -> String {
        let s = self.stats_snapshot();
        let draining = self.draining.load(Ordering::SeqCst) || self.stop.load(Ordering::SeqCst);
        let append_p95_us = match &self.flight {
            Some(f) => f
                .recorder
                .lock()
                .unwrap()
                .latest()
                .map_or(0, |fr| fr.append_p95_us),
            None => 0,
        };
        let last_anomaly = self.flight.as_ref().and_then(|f| {
            f.recent
                .lock()
                .unwrap()
                .back()
                .map(|a| format!("{} at t={}ms", a.kind, a.ts_ms))
        });
        let report = HealthReport {
            status: if draining { "draining" } else { "ok" }.to_owned(),
            sessions: s.sessions,
            max_sessions: self.cfg.max_sessions as u64,
            memory_bytes: s.approx_bytes,
            memory_budget_bytes: s.budget_bytes,
            over_budget: s.approx_bytes > s.budget_bytes,
            poisoned_total: s.poisoned_total,
            append_p95_us,
            slo_p95_us: self.cfg.slo_p95_us,
            slo_burn: append_p95_us > self.cfg.slo_p95_us,
            anomalies_total: s.anomalies_total,
            postmortems_total: s.postmortems_total,
            last_anomaly,
        };
        serde_json::to_string(&report).unwrap_or_else(|_| "{}".to_owned())
    }
}

/// The `/healthz` response body. Owned fields (vendored serde derive).
#[derive(Serialize)]
struct HealthReport {
    status: String,
    sessions: u64,
    max_sessions: u64,
    memory_bytes: u64,
    memory_budget_bytes: u64,
    over_budget: bool,
    poisoned_total: u64,
    append_p95_us: u64,
    slo_p95_us: u64,
    slo_burn: bool,
    anomalies_total: u64,
    postmortems_total: u64,
    last_anomaly: Option<String>,
}

fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

/// The flight sampler ("pctld-flight" thread): every
/// [`Config::flight_interval`], snapshot the daemon into a frame, scan it
/// against the previous one, record it, and hand any rate-limited
/// anomalies to [`Inner::handle_anomaly`]. Sleeps in short chunks so
/// shutdown joins promptly.
fn flight_loop(inner: Arc<Inner>) {
    let Some(flight) = &inner.flight else { return };
    let epoch = flight.epoch;
    while !inner.stop.load(Ordering::SeqCst) {
        let frame = inner.flight_frame(epoch);
        let anomalies = flight
            .detector
            .lock()
            .unwrap()
            .observe(&frame, Instant::now());
        flight.recorder.lock().unwrap().record(frame);
        for anomaly in anomalies {
            inner.handle_anomaly(anomaly);
        }
        let mut remaining = inner.cfg.flight_interval;
        while !remaining.is_zero() && !inner.stop.load(Ordering::SeqCst) {
            let chunk = remaining.min(Duration::from_millis(25));
            std::thread::sleep(chunk);
            remaining = remaining.saturating_sub(chunk);
        }
    }
}

fn err(kind: ErrorKind, detail: impl Into<String>) -> Response {
    Response::Err {
        kind,
        detail: detail.into(),
    }
}

fn serve_connection(mut stream: TcpStream, inner: Arc<Inner>) {
    let mut decoder = FrameDecoder::new(inner.cfg.max_frame);
    let mut buf = [0u8; 8192];
    let mut shutdown_requested = false;
    'conn: loop {
        match decoder.next_frame() {
            Ok(Some(payload)) => {
                let (env, done) = handle_payload(&payload, &inner);
                if write_response(&mut stream, &env).is_err() {
                    break 'conn;
                }
                if done {
                    shutdown_requested = true;
                    break 'conn;
                }
                continue;
            }
            Ok(None) => {}
            Err(e) => {
                // Framing is unrecoverable: answer once, drop only this
                // connection. The accept loop and all sessions live on.
                inner
                    .stats
                    .frames_rejected_total
                    .fetch_add(1, Ordering::SeqCst);
                let env = ResponseEnvelope {
                    seq: 0,
                    resp: err(ErrorKind::Malformed, e.to_string()),
                };
                let _ = write_response(&mut stream, &env);
                break 'conn;
            }
        }
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break 'conn,
            Ok(n) => decoder.push(&buf[..n]),
        }
    }
    if shutdown_requested {
        inner.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(inner.addr);
    }
}

fn write_response(stream: &mut TcpStream, env: &ResponseEnvelope) -> std::io::Result<()> {
    // Room for a typical response in one allocation.
    let mut wire = Vec::with_capacity(128);
    encode_json_frame(env, &mut wire);
    stream.write_all(&wire)
}

/// Decode and dispatch one frame payload. The boolean asks the connection
/// loop to stop (after a `Shutdown` drain completed).
fn handle_payload(payload: &[u8], inner: &Arc<Inner>) -> (ResponseEnvelope, bool) {
    // Invalid UTF-8 is a JSON error like any other malformed payload.
    let env: RequestEnvelope = match serde_json::from_slice(payload) {
        Ok(e) => e,
        Err(e) => {
            return (
                ResponseEnvelope {
                    seq: 0,
                    resp: err(ErrorKind::Malformed, format!("bad request JSON: {e}")),
                },
                false,
            )
        }
    };
    let seq = env.seq;
    let (resp, done) = dispatch(env.req, inner);
    (ResponseEnvelope { seq, resp }, done)
}

/// Dispatch one request, timing it into `pctld_request_seconds{verb=...}`
/// and the slow-request log. The telemetry wrapper is strictly
/// observational: the response comes from [`dispatch_verb`] untouched.
fn dispatch(req: Request, inner: &Arc<Inner>) -> (Response, bool) {
    let _prof = pctl_prof::span("pctld_dispatch");
    if !inner.telemetry.enabled {
        return dispatch_verb(req, inner);
    }
    let verb = req.verb();
    // The session name outlives `req` only when a slow sink (the log
    // file, or the bundle-feeding recent ring under the flight recorder)
    // might need it — the common path stays allocation-free.
    let slow_sink = inner.telemetry.slow_log.is_some() || inner.flight.is_some();
    let session = if slow_sink {
        req.session().map(str::to_owned)
    } else {
        None
    };
    let start = Instant::now();
    let (resp, done) = dispatch_verb(req, inner);
    let dt = start.elapsed();
    inner.telemetry.observe_request(verb, dt);
    if slow_sink && dt >= inner.telemetry.slow_threshold {
        inner.write_slow_log(verb, session.as_deref(), dt, &resp);
    }
    (resp, done)
}

fn dispatch_verb(req: Request, inner: &Arc<Inner>) -> (Response, bool) {
    match req {
        Request::Hello {
            session,
            locals,
            init,
            class,
        } => (handle_hello(session, locals, init, class, inner), false),
        Request::Append { session, op } => (handle_append(&session, op, inner), false),
        Request::Detect { session } => (query(&session, QueryKind::Detect, inner), false),
        Request::Control { session } => (query(&session, QueryKind::Control, inner), false),
        Request::Verify { session } => (query(&session, QueryKind::Verify, inner), false),
        Request::Snapshot { session } => (query(&session, QueryKind::Snapshot, inner), false),
        Request::Trace { session } => (query(&session, QueryKind::Trace, inner), false),
        Request::Close { session } => (handle_close(&session, inner), false),
        Request::Stats => (
            Response::Stats {
                stats: inner.stats_snapshot(),
            },
            false,
        ),
        Request::Shutdown => {
            inner.draining.store(true, Ordering::SeqCst);
            let leaked = inner.drain_all();
            (Response::Draining { leaked }, true)
        }
        // Fault-injection verbs share the unauthenticated port with
        // production verbs, so they are opt-in per daemon and Sleep's
        // client-chosen stall is clamped.
        Request::Crash { session } => {
            if !inner.cfg.fault_injection {
                (fault_injection_disabled(), false)
            } else {
                (query(&session, QueryKind::Crash, inner), false)
            }
        }
        Request::Sleep { session, ms } => {
            if !inner.cfg.fault_injection {
                (fault_injection_disabled(), false)
            } else {
                (
                    query(&session, QueryKind::Sleep(ms.min(MAX_SLEEP_MS)), inner),
                    false,
                )
            }
        }
    }
}

fn fault_injection_disabled() -> Response {
    err(
        ErrorKind::Malformed,
        "fault-injection verbs (Crash/Sleep) are disabled on this daemon",
    )
}

fn handle_hello(
    name: String,
    locals: Vec<pctl_deposet::LocalPredicate>,
    init: Option<Vec<Vec<(String, i64)>>>,
    class: Option<PredicateClass>,
    inner: &Arc<Inner>,
) -> Response {
    if inner.draining.load(Ordering::SeqCst) {
        return err(ErrorKind::Draining, "daemon is draining");
    }
    // With an explicit class the class is the predicate and carries its
    // own arity; `locals` is legacy-wire baggage and may be empty (but
    // must agree when present). Without one, the classic rule holds.
    let processes = match &class {
        Some(c) => {
            if !locals.is_empty() && locals.len() != c.arity() {
                return err(
                    ErrorKind::Malformed,
                    format!(
                        "locals cover {} processes, class arity is {}",
                        locals.len(),
                        c.arity()
                    ),
                );
            }
            c.arity()
        }
        None => locals.len(),
    };
    if processes == 0 {
        return err(ErrorKind::Malformed, "at least one local predicate");
    }
    // Names become snapshot filenames and metric labels: keep them tame.
    let name_ok = !name.is_empty()
        && name.len() <= 128
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'));
    if !name_ok {
        return err(
            ErrorKind::Malformed,
            "session names are [A-Za-z0-9._-], 1..=128 chars",
        );
    }
    if let Some(init) = &init {
        if init.len() != processes {
            return err(
                ErrorKind::Malformed,
                format!(
                    "init covers {} processes, predicate arity is {processes}",
                    init.len()
                ),
            );
        }
    }
    // Build the engine before taking the sessions lock: class validation
    // errors (bad process index, arity mismatch inside the class) are the
    // client's fault and must answer Malformed, not Capacity.
    let engine = match class {
        Some(class) => match StreamEngine::for_class(class, init.as_deref()) {
            Ok(engine) => engine,
            Err(e) => return err(ErrorKind::Malformed, format!("bad predicate class: {e}")),
        },
        None => match &init {
            Some(init) => StreamEngine::new_with_init(locals, init),
            None => StreamEngine::new(locals),
        },
    };
    let mut engine = Some(engine);
    // Admission ladder: evict idle LRU sessions while over a capacity
    // limit; once nothing idle remains, refuse the *newcomer* — live
    // sessions are never sacrificed for a new one.
    loop {
        {
            let mut map = inner.sessions.lock().unwrap();
            if map.contains_key(&name) {
                return err(
                    ErrorKind::SessionExists,
                    format!("session '{name}' is live"),
                );
            }
            if map.len() < inner.cfg.max_sessions && !inner.over_budget() {
                // A failed thread spawn (fd/thread exhaustion — exactly the
                // degraded conditions this daemon must survive) is a
                // capacity refusal, never a panic under the sessions lock.
                return match spawn_session(
                    name.clone(),
                    engine.take().expect("hello spawns at most once"),
                    processes as u32,
                    inner,
                ) {
                    Ok(sess) => {
                        map.insert(name, sess);
                        Response::Ok
                    }
                    Err(e) => {
                        inner
                            .stats
                            .sessions_refused_total
                            .fetch_add(1, Ordering::SeqCst);
                        err(
                            ErrorKind::Capacity,
                            format!("cannot spawn session worker: {e}"),
                        )
                    }
                };
            }
        }
        if !inner.evict_one_idle(None) {
            inner
                .stats
                .sessions_refused_total
                .fetch_add(1, Ordering::SeqCst);
            return err(
                ErrorKind::Capacity,
                "session/memory capacity exhausted and no idle session to evict",
            );
        }
    }
}

fn spawn_session(
    name: String,
    engine: StreamEngine,
    processes: u32,
    inner: &Arc<Inner>,
) -> std::io::Result<Arc<SessionShared>> {
    let sess = Arc::new(SessionShared {
        name: name.clone(),
        mailbox: Mailbox::new(inner.cfg.queue_depth),
        worker: Mutex::new(None),
        poisoned: AtomicBool::new(false),
        sticky_error: Mutex::new(None),
        last_active: Mutex::new(Instant::now()),
        approx_bytes: AtomicUsize::new(0),
        appends: AtomicU64::new(0),
        lat_us: Mutex::new(VecDeque::new()),
        queries: AtomicU64::new(0),
        cache_hits: AtomicU64::new(0),
    });
    let worker_sess = Arc::clone(&sess);
    let worker_inner = Arc::clone(inner);
    let handle = std::thread::Builder::new()
        .name(format!("pctld-sess-{name}"))
        .spawn(move || worker_loop(engine, worker_sess, worker_inner, processes))?;
    *sess.worker.lock().unwrap() = Some(handle);
    Ok(sess)
}

fn handle_append(name: &str, op: AppendOp, inner: &Arc<Inner>) -> Response {
    if inner.draining.load(Ordering::SeqCst) {
        return err(ErrorKind::Draining, "daemon is draining");
    }
    let Some(sess) = inner.sessions.lock().unwrap().get(name).cloned() else {
        return err(ErrorKind::UnknownSession, format!("no session '{name}'"));
    };
    if sess.poisoned.load(Ordering::SeqCst) {
        return err(ErrorKind::Poisoned, "session worker panicked");
    }
    if let Some(e) = sess.sticky_error.lock().unwrap().clone() {
        return err(ErrorKind::Append, e);
    }
    // Hard budget: shed idle load first, then refuse the append.
    while inner.over_budget() {
        if !inner.evict_one_idle(Some(name)) {
            inner
                .stats
                .appends_refused_total
                .fetch_add(1, Ordering::SeqCst);
            return err(ErrorKind::Budget, "daemon over hard memory budget");
        }
    }
    match sess.mailbox.push(Cmd::Apply(op, Instant::now())) {
        Ok(()) => {
            sess.touch();
            sess.appends.fetch_add(1, Ordering::SeqCst);
            inner.stats.appends_total.fetch_add(1, Ordering::SeqCst);
            Response::Ok
        }
        Err(e) => refused(name, e, inner),
    }
}

/// The answer to a command the session's mailbox refused.
fn refused(name: &str, e: PushError, inner: &Inner) -> Response {
    match e {
        PushError::Full => {
            inner.stats.busy_total.fetch_add(1, Ordering::SeqCst);
            Response::Busy {
                retry_after_ms: inner.cfg.retry_after_ms,
            }
        }
        PushError::Closing => err(
            ErrorKind::UnknownSession,
            format!("session '{name}' is closing"),
        ),
        PushError::Gone => err(
            ErrorKind::Poisoned,
            "session worker exited; close and re-open",
        ),
    }
}

fn query(name: &str, kind: QueryKind, inner: &Arc<Inner>) -> Response {
    let Some(sess) = inner.sessions.lock().unwrap().get(name).cloned() else {
        return err(ErrorKind::UnknownSession, format!("no session '{name}'"));
    };
    if sess.poisoned.load(Ordering::SeqCst) {
        return err(ErrorKind::Poisoned, "session worker panicked");
    }
    if let Some(e) = sess.sticky_error.lock().unwrap().clone() {
        return err(ErrorKind::Append, e);
    }
    let (tx, rx) = mpsc::channel();
    if let Err(e) = sess.mailbox.push(Cmd::Query(kind, tx)) {
        return refused(name, e, inner);
    }
    sess.touch();
    match rx.recv_timeout(Duration::from_secs(30)) {
        Ok(resp) => resp,
        Err(_) => err(ErrorKind::Internal, "session worker did not answer"),
    }
}

fn handle_close(name: &str, inner: &Arc<Inner>) -> Response {
    match inner.close_session(name) {
        None => err(ErrorKind::UnknownSession, format!("no session '{name}'")),
        Some(true) => Response::Ok,
        Some(false) => err(ErrorKind::Internal, "session worker did not join"),
    }
}

/// Session-worker telemetry: the trace ring the `Trace` verb serves, a
/// `msg id → sender lane` map so receive events can name their source, and
/// the session epoch that anchors ring timestamps.
struct WorkerTelemetry {
    ring: Option<RingRecorder>,
    senders: HashMap<u64, u32>,
    epoch: Instant,
    processes: u32,
}

impl WorkerTelemetry {
    fn new(cfg: &Config, processes: u32) -> WorkerTelemetry {
        WorkerTelemetry {
            ring: (cfg.telemetry && cfg.trace_ring > 0).then(|| RingRecorder::new(cfg.trace_ring)),
            senders: HashMap::new(),
            epoch: Instant::now(),
            processes,
        }
    }

    /// Record one applied op into the ring: message ops become flow
    /// events keyed by the deposet's message id, and every variable
    /// update becomes a counter sample (predicate truth renders as a
    /// step function in trace viewers). A send's destination is unknown
    /// until delivery in the deposet model, so it is recorded as
    /// `u32::MAX`; the matching receive names its true source lane.
    fn record(&mut self, op: &AppendOp) {
        let Some(ring) = &mut self.ring else { return };
        let ts = self.epoch.elapsed().as_micros() as u64;
        let lane = op.process();
        let (kind, name, updates) = match op {
            AppendOp::Internal { updates, .. } => (EventKind::Instant, "internal", updates),
            AppendOp::Send {
                msg, tag, updates, ..
            } => {
                self.senders.insert(*msg, lane);
                (
                    EventKind::MsgSend {
                        id: *msg,
                        to: u32::MAX,
                    },
                    tag.as_str(),
                    updates,
                )
            }
            AppendOp::Recv { msg, updates, .. } => (
                EventKind::MsgRecv {
                    id: *msg,
                    from: self.senders.get(msg).copied().unwrap_or(u32::MAX),
                },
                "recv",
                updates,
            ),
        };
        ring.record(Event {
            ts,
            lane,
            name: name.to_owned(),
            kind,
            clock: None,
        });
        for (var, value) in updates {
            ring.record(Event::counter(ts, lane, var, *value));
        }
    }

    fn trace_response(&self) -> Response {
        Response::Trace {
            events: self.ring.as_ref().map(|r| r.snapshot()).unwrap_or_default(),
            dropped: self.ring.as_ref().map(|r| r.dropped()).unwrap_or(0),
            processes: self.processes,
        }
    }
}

/// Append observations a worker holds until its next reply or the end of
/// its batch, so the shared histograms, the latency window and the memory
/// gauges are updated once per batch instead of once per append.
#[derive(Default)]
struct Held {
    /// `(queue wait, apply)` of each applied append, in order (telemetry
    /// on only).
    timings: Vec<(Duration, Duration)>,
    /// An append grew the store since the last publish.
    grew: bool,
}

impl Held {
    /// Publish the held timings and, given the engine, the store's size.
    /// A poisoned worker passes `None`: its engine is not read again, and
    /// the gauges keep only what was published, which `release_memory`
    /// then subtracts exactly.
    fn publish(&mut self, engine: Option<&StreamEngine>, sess: &SessionShared, inner: &Inner) {
        if let (true, Some(engine)) = (self.grew, engine) {
            let now = engine.store().approx_bytes();
            let before = sess.approx_bytes.swap(now, Ordering::SeqCst);
            inner
                .stats
                .approx_bytes
                .fetch_add(now - before, Ordering::SeqCst);
        }
        self.grew = false;
        if self.timings.is_empty() {
            return;
        }
        let t = &inner.telemetry;
        {
            let mut wait = t.queue_wait_seconds.lock().unwrap();
            for (w, _) in &self.timings {
                wait.observe_duration(*w);
            }
        }
        {
            let mut apply = t.apply_seconds.lock().unwrap();
            for (_, a) in &self.timings {
                apply.observe_duration(*a);
            }
        }
        let mut lat = sess.lat_us.lock().unwrap();
        for (w, a) in self.timings.drain(..) {
            if lat.len() == LATENCY_WINDOW {
                lat.pop_front();
            }
            lat.push_back((w + a).as_micros() as u64);
        }
    }
}

fn worker_loop(
    mut engine: StreamEngine,
    sess: Arc<SessionShared>,
    inner: Arc<Inner>,
    processes: u32,
) {
    let telemetry = inner.telemetry.enabled;
    let mut wt = WorkerTelemetry::new(&inner.cfg, processes);
    let mut cache_hits_seen = 0u64;
    let mut held = Held::default();
    // The first append failure, mirrored into `sess.sticky_error`.
    let mut sticky: Option<String> = None;
    let mut batch = VecDeque::new();
    loop {
        sess.mailbox.take(&mut batch);
        while let Some(cmd) = batch.pop_front() {
            match cmd {
                Cmd::Apply(op, enqueued) => {
                    if sticky.is_some() {
                        continue; // wedged: drop queued appends, keep answering
                    }
                    let queue_wait = enqueued.elapsed();
                    let apply_start = Instant::now();
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        let _prof = pctl_prof::span("pctld_apply");
                        engine.apply(&op)
                    }));
                    let apply_dt = apply_start.elapsed();
                    match outcome {
                        Ok(Ok(())) => {
                            held.grew = true;
                            if telemetry {
                                held.timings.push((queue_wait, apply_dt));
                                wt.record(&op);
                            }
                        }
                        Ok(Err(e)) => {
                            let e = e.to_string();
                            *sess.sticky_error.lock().unwrap() = Some(e.clone());
                            sticky = Some(e);
                        }
                        Err(_) => {
                            poison(&sess, &inner, &mut held, std::mem::take(&mut batch));
                            return;
                        }
                    }
                }
                Cmd::Query(kind, reply) => {
                    held.publish(Some(&engine), &sess, &inner);
                    if let Some(e) = &sticky {
                        // Queued behind the failing append: answer as the
                        // connection thread answers once the error is set.
                        let _ = reply.send(err(ErrorKind::Append, e.clone()));
                        continue;
                    }
                    if let QueryKind::Trace = kind {
                        // Answered from worker-local state; no engine
                        // involvement, so it cannot panic the session.
                        let _ = reply.send(wt.trace_response());
                        continue;
                    }
                    let outcome = catch_unwind(AssertUnwindSafe(|| run_query(&mut engine, &kind)));
                    match outcome {
                        Ok(resp) => {
                            // Fold this query's cache-hit delta into the
                            // daemon-wide counter; the engine's own count is
                            // monotone over the session's lifetime. The
                            // per-session mirrors feed `Stats` (and the
                            // `pctl top` hit-rate column).
                            let now = engine.cache_hits();
                            inner
                                .stats
                                .query_cache_hits_total
                                .fetch_add(now - cache_hits_seen, Ordering::SeqCst);
                            cache_hits_seen = now;
                            sess.queries.fetch_add(1, Ordering::SeqCst);
                            sess.cache_hits.store(now, Ordering::SeqCst);
                            let _ = reply.send(resp);
                        }
                        Err(_) => {
                            let _ = reply.send(err(ErrorKind::Poisoned, "query panicked"));
                            poison(&sess, &inner, &mut held, std::mem::take(&mut batch));
                            return;
                        }
                    }
                }
                Cmd::Close(reply) => {
                    held.publish(Some(&engine), &sess, &inner);
                    flush_snapshot(&engine, &sess.name, &inner);
                    release_memory(&sess, &inner);
                    let _ = reply.send(Response::Ok);
                    return;
                }
            }
        }
        held.publish(Some(&engine), &sess, &inner);
    }
}

/// Subtract this session's final byte estimate from the global gauge,
/// exactly once (the swap zeroes the per-session gauge). Only the worker
/// (or `poison`, on the worker thread) calls this, after its last
/// `approx_bytes` update — so queued appends drained on the way out are
/// fully accounted before the subtraction.
fn release_memory(sess: &SessionShared, inner: &Inner) {
    inner.stats.approx_bytes.fetch_sub(
        sess.approx_bytes.swap(0, Ordering::SeqCst),
        Ordering::SeqCst,
    );
}

/// Quarantine the session after a panic: flag it, count it, release its
/// memory accounting, and answer every command left in the panicking
/// batch (`rest`) and in the mailbox, which then refuses new commands.
/// The engine is dropped by the caller returning — memory is actually
/// released.
fn poison(sess: &SessionShared, inner: &Inner, held: &mut Held, rest: VecDeque<Cmd>) {
    held.publish(None, sess, inner);
    sess.poisoned.store(true, Ordering::SeqCst);
    inner.stats.poisoned_total.fetch_add(1, Ordering::SeqCst);
    release_memory(sess, inner);
    for cmd in rest.into_iter().chain(sess.mailbox.abandon()) {
        match cmd {
            Cmd::Apply(..) => {}
            Cmd::Query(_, reply) => {
                let _ = reply.send(err(ErrorKind::Poisoned, "session worker panicked"));
            }
            Cmd::Close(reply) => {
                let _ = reply.send(Response::Ok);
            }
        }
    }
}

fn run_query(engine: &mut StreamEngine, kind: &QueryKind) -> Response {
    match kind {
        QueryKind::Detect => {
            let _prof = pctl_prof::span("pctld_detect");
            Response::Detect {
                violation: engine.detect_violation().map(|g| g.indices().to_vec()),
            }
        }
        QueryKind::Control => {
            let _prof = pctl_prof::span("pctld_control");
            match engine.control(OfflineOptions::default()) {
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
        QueryKind::Verify => {
            let _prof = pctl_prof::span("pctld_verify");
            let verdict = match engine.control(OfflineOptions::default()) {
                Ok(rel) => engine
                    .verify(&rel)
                    .map(|()| format!("relation of {} pairs verified", rel.len()))
                    .map_err(|e| e.to_string()),
                Err(inf) => Err(inf.to_string()),
            };
            Response::Verify {
                ok: verdict.is_ok(),
                detail: verdict.unwrap_or_else(|e| e),
            }
        }
        QueryKind::Snapshot => {
            let _prof = pctl_prof::span("pctld_snapshot");
            Response::Snapshot {
                trace: pctl_deposet::trace::to_json(&engine.snapshot()),
            }
        }
        // Intercepted by the worker loop (answered from worker-local
        // telemetry, not the engine).
        QueryKind::Trace => unreachable!("Trace never reaches run_query"),
        QueryKind::Crash => panic!("injected fault (Request::Crash)"),
        QueryKind::Sleep(ms) => {
            std::thread::sleep(Duration::from_millis(*ms));
            Response::Ok
        }
    }
}

fn flush_snapshot(engine: &StreamEngine, name: &str, inner: &Arc<Inner>) {
    let Some(dir) = &inner.cfg.snapshot_dir else {
        return;
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let _prof = pctl_prof::span("pctld_flush");
        pctl_deposet::trace::to_json(&engine.snapshot())
    }));
    if let Ok(json) = outcome {
        let path = dir.join(format!("{name}.json"));
        let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json));
        if let Err(e) = written {
            let before = inner
                .stats
                .snapshot_write_errors_total
                .fetch_add(1, Ordering::SeqCst);
            // Report the first failure; later ones only count, so a bad
            // snapshot directory cannot flood stderr.
            if before == 0 {
                eprintln!(
                    "pctld: cannot write snapshot {}: {e} (further failures are counted in \
                     pctld_snapshot_write_errors_total)",
                    path.display()
                );
            }
        }
    }
}
