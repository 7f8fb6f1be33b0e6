//! Flight recorder: bounded in-memory history of daemon-state snapshots,
//! anomaly detection over consecutive snapshots, and self-contained
//! postmortem bundles.
//!
//! The paper's thesis is *active* debugging — catch the system in the act
//! instead of reconstructing the crime afterwards. A long-running daemon
//! deserves the same treatment: by the time someone scrapes `/metrics`
//! after a worker poisons or a `Busy` storm hits, the interesting state is
//! gone. This module keeps a drop-oldest ring of [`FlightFrame`]s (cheap,
//! bounded, always on), scans consecutive frames for [`AnomalyKind`]s, and
//! — rate-limited per kind — dumps everything it knows into one
//! **postmortem bundle** directory that is useful on its own: manifest,
//! metrics history JSONL, per-session stats, a Chrome trace of recent
//! events, and recent slow-log lines.
//!
//! Everything here is strictly observational: recording a frame reads
//! counters, it never feeds back into any verdict. The daemon's torture
//! test pins that property by running with the recorder on and asserting
//! verdicts bit-identical to batch engines.

use crate::event::Event;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Manifest schema identifier; bump on breaking bundle-layout changes.
pub const BUNDLE_SCHEMA: &str = "pctl-flight-v1";

/// Bundle file: the manifest itself.
pub const MANIFEST_FILE: &str = "manifest.json";
/// Bundle file: one [`FlightFrame`] JSON object per line, oldest first.
pub const HISTORY_FILE: &str = "history.jsonl";
/// Bundle file: the triggering [`AnomalyRecord`].
pub const ANOMALY_FILE: &str = "anomaly.json";
/// Bundle file: per-session stats at dump time (`Vec<SessionSample>`).
pub const SESSIONS_FILE: &str = "sessions.json";
/// Bundle file: Chrome `trace_event` JSON of recent trace-ring events.
pub const TRACE_FILE: &str = "trace.json";
/// Bundle file: recent slow-request log lines (JSONL, possibly empty).
pub const SLOW_FILE: &str = "slow.jsonl";
/// Name prefix of the staging directory a bundle is written into before
/// it is renamed into place. Readers of a postmortem root skip such names
/// (and the leading dot hides them from shell globs).
const STAGING_PREFIX: &str = ".tmp-";

/// One session's slice of a [`FlightFrame`].
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionSample {
    /// Session name.
    pub name: String,
    /// Appends accepted so far.
    pub appends: u64,
    /// Estimated bytes in the session store.
    pub approx_bytes: u64,
    /// Commands waiting on the session's bounded queue.
    pub queue_depth: u64,
    /// Milliseconds since the last accepted command.
    pub idle_ms: u64,
    /// Exact nearest-rank p50 of recent append latencies, microseconds.
    pub p50_us: u64,
    /// Exact nearest-rank p95 over the same window.
    pub p95_us: u64,
    /// Engine queries answered so far.
    #[serde(default)]
    pub queries: u64,
    /// Queries answered from the engine's memoized verdict.
    #[serde(default)]
    pub cache_hits: u64,
}

/// One periodic snapshot of daemon state — a point on every counter and
/// gauge, plus per-session detail. Consecutive frames are what the
/// anomaly scan differentiates.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FlightFrame {
    /// Unix milliseconds when the frame was captured.
    pub ts_ms: u64,
    /// Milliseconds since the recorder started.
    pub uptime_ms: u64,
    /// Monotone counters by name (`appends_total`, `busy_total`,
    /// `poisoned_total`, `evictions_total`, `appends_refused_total`,
    /// `frames_rejected_total`, ...).
    pub counters: BTreeMap<String, u64>,
    /// Instantaneous gauges by name (`sessions`, `memory_bytes`,
    /// `memory_budget_bytes`, ...).
    pub gauges: BTreeMap<String, u64>,
    /// Exact p50 of the merged per-session append-latency windows,
    /// microseconds (0 with no samples).
    pub append_p50_us: u64,
    /// Exact p95 over the same merged window.
    pub append_p95_us: u64,
    /// Per-session detail, sorted by name.
    pub sessions: Vec<SessionSample>,
}

impl FlightFrame {
    /// A counter's value, 0 when the frame predates the counter.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's value, 0 when absent.
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }
}

/// Bounded drop-oldest ring of [`FlightFrame`]s — the in-memory history
/// behind `/healthz` trend data and postmortem bundles. Same contract as
/// [`crate::RingRecorder`]: with `n > cap` recorded frames the ring holds
/// the last `cap` in arrival order and counts the rest as dropped.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    buf: VecDeque<FlightFrame>,
    cap: usize,
    dropped: u64,
}

impl FlightRecorder {
    /// A ring holding at most `cap` frames (`cap ≥ 1`).
    pub fn new(cap: usize) -> FlightRecorder {
        assert!(cap >= 1);
        FlightRecorder {
            buf: VecDeque::with_capacity(cap.min(1024)),
            cap,
            dropped: 0,
        }
    }

    /// Record one frame, dropping the oldest when full.
    pub fn record(&mut self, frame: FlightFrame) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(frame);
    }

    /// Surviving frames, oldest first.
    pub fn history(&self) -> Vec<FlightFrame> {
        self.buf.iter().cloned().collect()
    }

    /// The most recent frame, if any.
    pub fn latest(&self) -> Option<&FlightFrame> {
        self.buf.back()
    }

    /// Frames dropped by the bounded ring.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Frames currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no frames.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// The anomaly classes the frame-delta scan recognizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AnomalyKind {
    /// `poisoned_total` advanced: a session worker panicked and was
    /// quarantined.
    WorkerPoisoned,
    /// `evictions_total` advanced: an idle session was sacrificed under
    /// session/memory pressure.
    SessionEvicted,
    /// `busy_total` advanced faster than the configured per-second rate:
    /// bounded queues are bouncing appends in a storm.
    BusySpike,
    /// The merged append p95 crossed the latency SLO.
    SloBurn,
    /// `memory_bytes` crossed `memory_budget_bytes` (the daemon starts
    /// refusing appends past this point).
    BudgetBreach,
    /// `frames_rejected_total` advanced: a connection was dropped after an
    /// unrecoverable framing error (oversized/corrupt declaration).
    FrameRejected,
}

impl AnomalyKind {
    /// Every kind, in scan order.
    pub const ALL: [AnomalyKind; 6] = [
        AnomalyKind::WorkerPoisoned,
        AnomalyKind::SessionEvicted,
        AnomalyKind::BusySpike,
        AnomalyKind::SloBurn,
        AnomalyKind::BudgetBreach,
        AnomalyKind::FrameRejected,
    ];

    /// Stable kebab-case slug (bundle directory names, report lines).
    pub fn slug(&self) -> &'static str {
        match self {
            AnomalyKind::WorkerPoisoned => "worker-poisoned",
            AnomalyKind::SessionEvicted => "session-evicted",
            AnomalyKind::BusySpike => "busy-spike",
            AnomalyKind::SloBurn => "slo-burn",
            AnomalyKind::BudgetBreach => "budget-breach",
            AnomalyKind::FrameRejected => "frame-rejected",
        }
    }
}

impl std::fmt::Display for AnomalyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.slug())
    }
}

/// One detected anomaly: what, when, how bad, and (when attributable)
/// which session.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AnomalyRecord {
    /// Unix milliseconds of the frame that surfaced the anomaly.
    pub ts_ms: u64,
    /// The anomaly class.
    pub kind: AnomalyKind,
    /// The session the anomaly is attributed to, when one stands out
    /// (deepest queue for a busy spike, slowest p95 for an SLO burn,
    /// biggest store for a budget breach).
    pub session: Option<String>,
    /// Human-readable summary.
    pub detail: String,
    /// The measured value that crossed the threshold.
    pub value: f64,
    /// The threshold it crossed.
    pub threshold: f64,
}

/// Thresholds for the level/rate-based detectors. The delta detectors
/// (poison, eviction, frame rejection) fire on any advance.
#[derive(Clone, Copy, Debug)]
pub struct AnomalyThresholds {
    /// `Busy` bounces per second above which a [`AnomalyKind::BusySpike`]
    /// fires.
    pub busy_per_sec: f64,
    /// Merged append-p95 (µs) above which a [`AnomalyKind::SloBurn`]
    /// fires.
    pub slo_p95_us: u64,
}

impl Default for AnomalyThresholds {
    fn default() -> Self {
        AnomalyThresholds {
            busy_per_sec: 50.0,
            slo_p95_us: 100_000,
        }
    }
}

/// Scan one pair of consecutive frames for anomalies. Pure — no clock, no
/// rate limiting — so every detector is unit-testable on synthetic frames;
/// [`AnomalyDetector`] adds the per-kind rate limit on top.
pub fn scan(
    prev: &FlightFrame,
    cur: &FlightFrame,
    thresholds: &AnomalyThresholds,
) -> Vec<AnomalyRecord> {
    let mut out = Vec::new();
    let delta = |name: &str| cur.counter(name).saturating_sub(prev.counter(name));
    let record =
        |kind, session: Option<String>, detail: String, value: f64, threshold: f64| AnomalyRecord {
            ts_ms: cur.ts_ms,
            kind,
            session,
            detail,
            value,
            threshold,
        };

    let poisoned = delta("poisoned_total");
    if poisoned > 0 {
        out.push(record(
            AnomalyKind::WorkerPoisoned,
            None,
            format!("{poisoned} session worker(s) panicked and were quarantined"),
            poisoned as f64,
            0.0,
        ));
    }
    let evicted = delta("evictions_total");
    if evicted > 0 {
        out.push(record(
            AnomalyKind::SessionEvicted,
            None,
            format!("{evicted} idle session(s) evicted under pressure"),
            evicted as f64,
            0.0,
        ));
    }
    // Busy rate over the real inter-frame interval, not the nominal one:
    // a stalled sampler must not inflate the rate.
    let dt_s = (cur.ts_ms.saturating_sub(prev.ts_ms)).max(1) as f64 / 1000.0;
    let busy_rate = delta("busy_total") as f64 / dt_s;
    if busy_rate > thresholds.busy_per_sec {
        let deepest = cur
            .sessions
            .iter()
            .max_by_key(|s| s.queue_depth)
            .filter(|s| s.queue_depth > 0);
        out.push(record(
            AnomalyKind::BusySpike,
            deepest.map(|s| s.name.clone()),
            format!("{busy_rate:.0} Busy bounce(s)/s across bounded session queues"),
            busy_rate,
            thresholds.busy_per_sec,
        ));
    }
    if cur.append_p95_us > thresholds.slo_p95_us {
        let slowest = cur.sessions.iter().max_by_key(|s| s.p95_us);
        out.push(record(
            AnomalyKind::SloBurn,
            slowest.map(|s| s.name.clone()),
            format!(
                "append p95 {}µs over the {}µs SLO",
                cur.append_p95_us, thresholds.slo_p95_us
            ),
            cur.append_p95_us as f64,
            thresholds.slo_p95_us as f64,
        ));
    }
    let budget = cur.gauge("memory_budget_bytes");
    let memory = cur.gauge("memory_bytes");
    if budget > 0 && memory > budget {
        let biggest = cur.sessions.iter().max_by_key(|s| s.approx_bytes);
        out.push(record(
            AnomalyKind::BudgetBreach,
            biggest.map(|s| s.name.clone()),
            format!("{memory} bytes across session stores over the {budget}-byte budget"),
            memory as f64,
            budget as f64,
        ));
    }
    let rejected = delta("frames_rejected_total");
    if rejected > 0 {
        out.push(record(
            AnomalyKind::FrameRejected,
            None,
            format!("{rejected} connection(s) dropped after unrecoverable framing errors"),
            rejected as f64,
            0.0,
        ));
    }
    out
}

/// Per-kind rate limiter: a kind that fired at `t` is suppressed until
/// `t + window`. Takes the clock as an argument so tests drive it with
/// synthetic instants.
#[derive(Clone, Debug)]
pub struct RateLimiter {
    window: Duration,
    last: BTreeMap<&'static str, Instant>,
}

impl RateLimiter {
    /// A limiter allowing one firing per kind per `window`.
    pub fn new(window: Duration) -> RateLimiter {
        RateLimiter {
            window,
            last: BTreeMap::new(),
        }
    }

    /// Whether `kind` may fire at `now`; records the firing when allowed.
    pub fn allow(&mut self, kind: AnomalyKind, now: Instant) -> bool {
        match self.last.get(kind.slug()) {
            Some(&t) if now.duration_since(t) < self.window => false,
            _ => {
                self.last.insert(kind.slug(), now);
                true
            }
        }
    }
}

/// The stateful detector the daemon's sampler drives: keeps the previous
/// frame, scans each new one, and rate-limits per anomaly kind.
#[derive(Clone, Debug)]
pub struct AnomalyDetector {
    thresholds: AnomalyThresholds,
    limiter: RateLimiter,
    prev: Option<FlightFrame>,
}

impl AnomalyDetector {
    /// A detector with the given thresholds and per-kind rate-limit
    /// window.
    pub fn new(thresholds: AnomalyThresholds, window: Duration) -> AnomalyDetector {
        AnomalyDetector {
            thresholds,
            limiter: RateLimiter::new(window),
            prev: None,
        }
    }

    /// Scan `frame` against the previous one and return the anomalies
    /// that pass the rate limit at `now`. The first frame establishes the
    /// baseline and never fires.
    pub fn observe(&mut self, frame: &FlightFrame, now: Instant) -> Vec<AnomalyRecord> {
        let fired = match &self.prev {
            Some(prev) => scan(prev, frame, &self.thresholds)
                .into_iter()
                .filter(|a| self.limiter.allow(a.kind, now))
                .collect(),
            None => Vec::new(),
        };
        self.prev = Some(frame.clone());
        fired
    }
}

// ------------------------------------------------------------- bundles --

/// The `manifest.json` at the root of a postmortem bundle.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BundleManifest {
    /// Always [`BUNDLE_SCHEMA`].
    pub schema: String,
    /// Unix milliseconds when the bundle was written.
    pub created_ms: u64,
    /// The anomaly that triggered the dump.
    pub anomaly: AnomalyRecord,
    /// Frames in `history.jsonl`.
    pub frames: u64,
    /// Frames the bounded history ring had already dropped.
    pub frames_dropped: u64,
    /// Recent anomalies (bounded, oldest first, including the trigger).
    pub recent_anomalies: Vec<AnomalyRecord>,
    /// Files in the bundle directory, relative names.
    pub files: Vec<String>,
}

fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

/// Write one self-contained postmortem bundle directory.
///
/// The files go into a `.tmp-`-prefixed sibling of `dir`, which is
/// renamed to `dir` as the last step, so a reader never sees a bundle
/// without its manifest ([`bundle_dirs`] skips the staging names). `trace_events` are recent trace-ring events of
/// the attributed session (may be empty — the trace file is still written
/// and still validates); `slow_lines` are recent slow-request log lines.
/// Fails only on I/O — callers treat a failure as "no bundle", never as a
/// daemon error.
#[allow(clippy::too_many_arguments)]
pub fn write_bundle(
    dir: &Path,
    anomaly: &AnomalyRecord,
    history: &[FlightFrame],
    frames_dropped: u64,
    recent_anomalies: &[AnomalyRecord],
    trace_events: &[Event],
    processes: u32,
    slow_lines: &[String],
) -> std::io::Result<()> {
    let io_err = |e: String| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
    let name = dir.file_name().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "bundle dir has no name")
    })?;
    let mut history_jsonl = String::new();
    for frame in history {
        history_jsonl
            .push_str(&serde_json::to_string(frame).map_err(|e| io_err(format!("frame: {e:?}")))?);
        history_jsonl.push('\n');
    }
    let anomaly_json =
        serde_json::to_string_pretty(anomaly).map_err(|e| io_err(format!("anomaly: {e:?}")))?;
    let sessions: &[SessionSample] = history.last().map(|f| f.sessions.as_slice()).unwrap_or(&[]);
    let sessions_json = serde_json::to_string_pretty(&sessions.to_vec())
        .map_err(|e| io_err(format!("sessions: {e:?}")))?;
    let mut events = trace_events.to_vec();
    crate::chrome::prune_orphan_flows(&mut events);
    let lanes: Vec<String> = (0..processes.max(1)).map(|i| format!("p{i}")).collect();
    let trace_json = crate::chrome::chrome_trace(&events, &lanes);
    let mut slow = String::new();
    for line in slow_lines {
        slow.push_str(line);
        slow.push('\n');
    }
    let manifest = BundleManifest {
        schema: BUNDLE_SCHEMA.to_owned(),
        created_ms: unix_ms(),
        anomaly: anomaly.clone(),
        frames: history.len() as u64,
        frames_dropped,
        recent_anomalies: recent_anomalies.to_vec(),
        files: vec![
            MANIFEST_FILE.to_owned(),
            HISTORY_FILE.to_owned(),
            ANOMALY_FILE.to_owned(),
            SESSIONS_FILE.to_owned(),
            TRACE_FILE.to_owned(),
            SLOW_FILE.to_owned(),
        ],
    };
    let manifest_json =
        serde_json::to_string_pretty(&manifest).map_err(|e| io_err(format!("manifest: {e:?}")))?;
    let files = [
        (HISTORY_FILE, history_jsonl),
        (ANOMALY_FILE, anomaly_json),
        (SESSIONS_FILE, sessions_json),
        (TRACE_FILE, trace_json),
        (SLOW_FILE, slow),
        (MANIFEST_FILE, manifest_json),
    ];
    let staging = dir.with_file_name(format!("{STAGING_PREFIX}{}", name.to_string_lossy()));
    std::fs::create_dir_all(&staging)?;
    let written = files
        .iter()
        .try_for_each(|(file, text)| std::fs::write(staging.join(file), text))
        .and_then(|()| std::fs::rename(&staging, dir));
    if written.is_err() {
        let _ = std::fs::remove_dir_all(&staging);
    }
    written
}

/// The published bundle directories under a postmortem root, sorted by
/// name; staging directories of bundles still being written are skipped.
/// A missing root lists nothing.
pub fn bundle_dirs(root: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(root) else {
        return Vec::new();
    };
    let mut dirs: Vec<PathBuf> = entries
        .flatten()
        .filter(|e| !e.file_name().to_string_lossy().starts_with(STAGING_PREFIX))
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    dirs
}

/// A validated bundle, loaded back for rendering.
#[derive(Clone, Debug)]
pub struct Bundle {
    /// The parsed manifest.
    pub manifest: BundleManifest,
    /// The parsed metrics history, oldest first.
    pub history: Vec<FlightFrame>,
    /// The per-session stats at dump time.
    pub sessions: Vec<SessionSample>,
}

/// Validate a bundle directory against the `pctl-flight-v1` schema and
/// load it.
///
/// Checks: the manifest parses and declares [`BUNDLE_SCHEMA`]; every file
/// it lists exists; every `history.jsonl` line parses as a [`FlightFrame`]
/// and the count matches the manifest; `anomaly.json` parses and agrees
/// with the manifest's trigger; `sessions.json` parses; `trace.json` is a
/// schema-valid Chrome trace; every `slow.jsonl` line is a JSON object.
pub fn validate_bundle(dir: &Path) -> Result<Bundle, String> {
    let read =
        |name: &str| std::fs::read_to_string(dir.join(name)).map_err(|e| format!("{name}: {e}"));
    let manifest: BundleManifest = serde_json::from_str(&read(MANIFEST_FILE)?)
        .map_err(|e| format!("{MANIFEST_FILE}: {e:?}"))?;
    if manifest.schema != BUNDLE_SCHEMA {
        return Err(format!(
            "{MANIFEST_FILE}: schema {:?}, expected {BUNDLE_SCHEMA:?}",
            manifest.schema
        ));
    }
    for name in &manifest.files {
        if !dir.join(name).is_file() {
            return Err(format!("manifest lists missing file {name:?}"));
        }
    }
    let mut history = Vec::new();
    for (i, line) in read(HISTORY_FILE)?.lines().enumerate() {
        let frame: FlightFrame = serde_json::from_str(line)
            .map_err(|e| format!("{HISTORY_FILE} line {}: {e:?}", i + 1))?;
        history.push(frame);
    }
    if history.len() as u64 != manifest.frames {
        return Err(format!(
            "{HISTORY_FILE} holds {} frame(s), manifest says {}",
            history.len(),
            manifest.frames
        ));
    }
    for w in history.windows(2) {
        if w[0].ts_ms > w[1].ts_ms {
            return Err(format!("{HISTORY_FILE}: frames are not oldest-first"));
        }
    }
    let anomaly: AnomalyRecord =
        serde_json::from_str(&read(ANOMALY_FILE)?).map_err(|e| format!("{ANOMALY_FILE}: {e:?}"))?;
    if anomaly != manifest.anomaly {
        return Err(format!(
            "{ANOMALY_FILE} disagrees with the manifest trigger ({} vs {})",
            anomaly.kind, manifest.anomaly.kind
        ));
    }
    let sessions: Vec<SessionSample> = serde_json::from_str(&read(SESSIONS_FILE)?)
        .map_err(|e| format!("{SESSIONS_FILE}: {e:?}"))?;
    crate::chrome::validate_chrome_trace(&read(TRACE_FILE)?)
        .map_err(|e| format!("{TRACE_FILE}: {e}"))?;
    for (i, line) in read(SLOW_FILE)?.lines().enumerate() {
        let v: serde_json::Value =
            serde_json::from_str(line).map_err(|e| format!("{SLOW_FILE} line {}: {e:?}", i + 1))?;
        if v.as_object().is_none() {
            return Err(format!("{SLOW_FILE} line {}: not an object", i + 1));
        }
    }
    Ok(Bundle {
        manifest,
        history,
        sessions,
    })
}

/// Render a validated bundle as a human-readable incident report: the
/// trigger, a timeline of recent anomalies, the p50/p95 trajectory over
/// the recorded history, and the top sessions by queue depth at dump
/// time. This is what `pctl postmortem <bundle>` prints.
pub fn render_report(bundle: &Bundle) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let m = &bundle.manifest;
    let a = &m.anomaly;
    let _ = writeln!(out, "postmortem: {} at t={}ms", a.kind, a.ts_ms);
    let _ = writeln!(
        out,
        "  trigger : {} (value {:.1}, threshold {:.1}{})",
        a.detail,
        a.value,
        a.threshold,
        a.session
            .as_deref()
            .map(|s| format!(", session '{s}'"))
            .unwrap_or_default()
    );
    let _ = writeln!(
        out,
        "  history : {} frame(s) recorded, {} dropped by the bounded ring",
        m.frames, m.frames_dropped
    );
    let _ = writeln!(out, "  timeline (t relative to the trigger):");
    for rec in &m.recent_anomalies {
        let dt_s = (rec.ts_ms as i64 - a.ts_ms as i64) as f64 / 1000.0;
        let _ = writeln!(
            out,
            "    {dt_s:>+8.1}s  {:<16} {}{}",
            rec.kind.slug(),
            rec.detail,
            rec.session
                .as_deref()
                .map(|s| format!(" [session '{s}']"))
                .unwrap_or_default()
        );
    }
    if m.recent_anomalies.is_empty() {
        let _ = writeln!(out, "    (no earlier anomalies recorded)");
    }
    let _ = writeln!(out, "  append p50/p95 trajectory (µs), oldest first:");
    let frames = &bundle.history;
    let shown = frames.len().min(10);
    for f in &frames[frames.len() - shown..] {
        let dt_s = (f.ts_ms as i64 - a.ts_ms as i64) as f64 / 1000.0;
        let _ = writeln!(
            out,
            "    {dt_s:>+8.1}s  p50 {:>8}  p95 {:>8}  sessions {:>3}  busy_total {:>6}",
            f.append_p50_us,
            f.append_p95_us,
            f.gauge("sessions"),
            f.counter("busy_total"),
        );
    }
    if frames.is_empty() {
        let _ = writeln!(out, "    (empty history)");
    }
    let _ = writeln!(out, "  top sessions by queue depth at dump time:");
    let mut sessions = bundle.sessions.clone();
    sessions.sort_by(|x, y| {
        y.queue_depth
            .cmp(&x.queue_depth)
            .then(y.p95_us.cmp(&x.p95_us))
            .then(x.name.cmp(&y.name))
    });
    for s in sessions.iter().take(8) {
        let _ = writeln!(
            out,
            "    {:<20} queue {:>4}  appends {:>7}  p95 {:>8}µs  bytes {:>10}",
            s.name, s.queue_depth, s.appends, s.p95_us, s.approx_bytes
        );
    }
    if sessions.is_empty() {
        let _ = writeln!(out, "    (no live sessions at dump time)");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(ts_ms: u64, counters: &[(&str, u64)], gauges: &[(&str, u64)]) -> FlightFrame {
        FlightFrame {
            ts_ms,
            uptime_ms: ts_ms,
            counters: counters
                .iter()
                .map(|(k, v)| ((*k).to_owned(), *v))
                .collect(),
            gauges: gauges.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
            append_p50_us: 10,
            append_p95_us: 20,
            sessions: Vec::new(),
        }
    }

    #[test]
    fn recorder_drops_oldest_and_counts() {
        let mut r = FlightRecorder::new(3);
        for i in 0..7u64 {
            r.record(frame(i, &[], &[]));
        }
        assert_eq!(r.dropped(), 4);
        assert_eq!(
            r.history().iter().map(|f| f.ts_ms).collect::<Vec<_>>(),
            vec![4, 5, 6],
            "in-order tail retained"
        );
        assert_eq!(r.latest().unwrap().ts_ms, 6);
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
    }

    #[test]
    fn delta_detectors_fire_on_any_advance() {
        let t = AnomalyThresholds::default();
        let prev = frame(
            1000,
            &[
                ("poisoned_total", 1),
                ("evictions_total", 2),
                ("frames_rejected_total", 3),
            ],
            &[],
        );
        let cur = frame(
            2000,
            &[
                ("poisoned_total", 2),
                ("evictions_total", 4),
                ("frames_rejected_total", 5),
            ],
            &[],
        );
        let kinds: Vec<AnomalyKind> = scan(&prev, &cur, &t).iter().map(|a| a.kind).collect();
        assert_eq!(
            kinds,
            vec![
                AnomalyKind::WorkerPoisoned,
                AnomalyKind::SessionEvicted,
                AnomalyKind::FrameRejected,
            ]
        );
        // No advance → no anomalies.
        assert!(scan(&cur, &cur, &t).is_empty());
    }

    #[test]
    fn rate_and_level_detectors_honor_thresholds() {
        let t = AnomalyThresholds {
            busy_per_sec: 10.0,
            slo_p95_us: 1000,
        };
        // 20 bounces in 1s = 20/s > 10/s; p95 stays under the SLO.
        let prev = frame(1000, &[("busy_total", 0)], &[]);
        let mut cur = frame(2000, &[("busy_total", 20)], &[]);
        cur.append_p95_us = 999;
        cur.sessions = vec![SessionSample {
            name: "deep".into(),
            queue_depth: 7,
            ..SessionSample::default()
        }];
        let found = scan(&prev, &cur, &t);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].kind, AnomalyKind::BusySpike);
        assert_eq!(found[0].session.as_deref(), Some("deep"));
        assert!((found[0].value - 20.0).abs() < 1e-9);

        // Same delta over 10s = 2/s: under the threshold.
        let slow = frame(11_000, &[("busy_total", 20)], &[]);
        assert!(scan(&prev, &slow, &t).is_empty());

        // SLO burn is level-based and names the slowest session.
        let mut burn = frame(2000, &[], &[]);
        burn.append_p95_us = 1500;
        burn.sessions = vec![
            SessionSample {
                name: "fast".into(),
                p95_us: 10,
                ..SessionSample::default()
            },
            SessionSample {
                name: "slow".into(),
                p95_us: 1500,
                ..SessionSample::default()
            },
        ];
        let found = scan(&frame(1000, &[], &[]), &burn, &t);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].kind, AnomalyKind::SloBurn);
        assert_eq!(found[0].session.as_deref(), Some("slow"));

        // Budget breach compares the gauges and names the biggest store.
        let mut breach = frame(
            2000,
            &[],
            &[("memory_bytes", 2048), ("memory_budget_bytes", 1024)],
        );
        breach.sessions = vec![SessionSample {
            name: "fat".into(),
            approx_bytes: 2000,
            ..SessionSample::default()
        }];
        let found = scan(&frame(1000, &[], &[]), &breach, &t);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].kind, AnomalyKind::BudgetBreach);
        assert_eq!(found[0].session.as_deref(), Some("fat"));
        // Under budget: silent.
        let under = frame(
            2000,
            &[],
            &[("memory_bytes", 512), ("memory_budget_bytes", 1024)],
        );
        assert!(scan(&frame(1000, &[], &[]), &under, &t).is_empty());
    }

    #[test]
    fn each_detector_fires_exactly_once_per_rate_limit_window() {
        // A persistent condition of every kind, sampled repeatedly inside
        // one window, yields exactly one record per kind; the next window
        // yields exactly one more.
        let window = Duration::from_secs(60);
        let thresholds = AnomalyThresholds {
            busy_per_sec: 1.0,
            slo_p95_us: 1,
        };
        let mut det = AnomalyDetector::new(thresholds, window);
        let base = Instant::now();
        let everything_wrong = |ts_ms: u64, total: u64| {
            let mut f = frame(
                ts_ms,
                &[
                    ("poisoned_total", total),
                    ("evictions_total", total),
                    ("busy_total", total * 1000),
                    ("frames_rejected_total", total),
                ],
                &[("memory_bytes", 4096), ("memory_budget_bytes", 1)],
            );
            f.append_p95_us = 999_999;
            f
        };
        assert!(
            det.observe(&everything_wrong(0, 0), base).is_empty(),
            "the first frame is the baseline and never fires"
        );
        let mut fired: Vec<AnomalyKind> = Vec::new();
        for tick in 1..=10u64 {
            let now = base + Duration::from_secs(tick);
            fired.extend(
                det.observe(&everything_wrong(tick * 1000, tick), now)
                    .iter()
                    .map(|a| a.kind),
            );
        }
        for kind in AnomalyKind::ALL {
            assert_eq!(
                fired.iter().filter(|k| **k == kind).count(),
                1,
                "{kind} must fire exactly once inside the rate-limit window"
            );
        }
        // Step past the window: each persistent condition fires once more.
        let now = base + window + Duration::from_secs(11);
        let again = det.observe(&everything_wrong(12_000, 12), now);
        let kinds: Vec<AnomalyKind> = again.iter().map(|a| a.kind).collect();
        for kind in AnomalyKind::ALL {
            assert_eq!(
                kinds.iter().filter(|k| **k == kind).count(),
                1,
                "{kind} fires exactly once in the next window"
            );
        }
    }

    #[test]
    fn bundle_roundtrips_validate_and_render() {
        let root = std::env::temp_dir().join(format!("pctl_flight_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let dir = root.join("bundle");
        let mut history = Vec::new();
        for i in 0..5u64 {
            let mut f = frame(
                1_000 + i * 500,
                &[("busy_total", i * 10)],
                &[("sessions", 2)],
            );
            f.sessions = vec![
                SessionSample {
                    name: "a".into(),
                    appends: i,
                    queue_depth: i,
                    p95_us: 100 * i,
                    queries: 4,
                    cache_hits: 2,
                    ..SessionSample::default()
                },
                SessionSample {
                    name: "b".into(),
                    ..SessionSample::default()
                },
            ];
            history.push(f);
        }
        let anomaly = AnomalyRecord {
            ts_ms: 3_000,
            kind: AnomalyKind::BusySpike,
            session: Some("a".into()),
            detail: "40 Busy bounce(s)/s".into(),
            value: 40.0,
            threshold: 10.0,
        };
        let events = vec![
            Event::instant(5, 0, "internal"),
            Event::counter(6, 0, "ok", 1),
        ];
        let slow = vec![r#"{"verb":"append","latency_us":123}"#.to_owned()];
        write_bundle(
            &dir,
            &anomaly,
            &history,
            7,
            std::slice::from_ref(&anomaly),
            &events,
            3,
            &slow,
        )
        .expect("bundle written");
        assert_eq!(
            bundle_dirs(&root),
            vec![dir.clone()],
            "staging renamed away"
        );
        // A bundle still being written is not listed.
        std::fs::create_dir_all(root.join(format!("{STAGING_PREFIX}next"))).unwrap();
        assert_eq!(bundle_dirs(&root), vec![dir.clone()]);
        let bundle = validate_bundle(&dir).expect("bundle validates");
        assert_eq!(bundle.manifest.frames, 5);
        assert_eq!(bundle.manifest.frames_dropped, 7);
        assert_eq!(bundle.manifest.anomaly, anomaly);
        assert_eq!(bundle.history.len(), 5);
        assert_eq!(bundle.sessions.len(), 2, "latest frame's sessions");
        let report = render_report(&bundle);
        assert!(report.contains("busy-spike"), "{report}");
        assert!(report.contains("session 'a'"), "{report}");
        assert!(report.contains("trajectory"), "{report}");

        // Corrupt the manifest schema: validation must refuse.
        let manifest_path = dir.join(MANIFEST_FILE);
        let text = std::fs::read_to_string(&manifest_path).unwrap();
        std::fs::write(
            &manifest_path,
            text.replace(BUNDLE_SCHEMA, "pctl-flight-v0"),
        )
        .unwrap();
        assert!(
            validate_bundle(&dir).is_err(),
            "bad schema must not validate"
        );
        // Restore, then truncate the history: the frame count check fires.
        std::fs::write(&manifest_path, text).unwrap();
        std::fs::write(dir.join(HISTORY_FILE), "").unwrap();
        let err = validate_bundle(&dir).unwrap_err();
        assert!(err.contains("0 frame(s)"), "{err}");
        let _ = std::fs::remove_dir_all(&root);
    }
}
