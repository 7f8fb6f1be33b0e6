//! Pieces every workload shares: the in-memory span recorder and the
//! per-layer table built from it, order statistics, the input digest and
//! the peak-RSS probe.

use crate::RunCfg;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. `item` is the trace, session or run the span works
/// on; `parent` indexes the enclosing span in the same recorder.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub item: u64,
}

/// Records spans around calls into the program's public functions. A
/// disabled recorder does nothing, so the timed code path is the same in
/// traced and untraced passes apart from the recording itself.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggled tracing inside a span");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    #[inline]
    pub fn enter(&mut self, name: &'static str, item: u64) {
        if !self.on {
            return;
        }
        let id = u32::try_from(self.spans.len()).expect("span count exceeds u32");
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            item,
        });
        self.stack.push(id);
    }

    /// Close the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        let id = self.stack.pop().expect("exit without enter");
        self.spans[id as usize].end_ns = end;
    }

    /// Run `f` inside a span.
    #[inline]
    pub fn time<R>(&mut self, name: &'static str, item: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, item);
        let out = f();
        self.exit();
        out
    }

    /// Record a child of the innermost open span whose duration was measured
    /// elsewhere (the program's own profiler). It is placed to end now; only
    /// its duration is meaningful.
    pub fn child(&mut self, name: &'static str, item: u64, dur_ns: u64) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: end.saturating_sub(dur_ns),
            end_ns: end,
            parent: self.stack.last().copied(),
            item,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Move another recorder's spans (a second client thread) into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let base = u32::try_from(self.spans.len()).expect("span count exceeds u32");
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SpanTotals {
    pub fn mean_self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Self time of every span (its duration minus its direct children's),
/// summed per span name.
pub fn span_totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child);
    }
    out
}

/// The layer a span belongs to: the part of its name before the first dot.
/// Spans named `bench.*` are the benchmark's own glue, not a layer.
fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Layer self time as a share of the traced wall time, and the leftover
/// share the layers do not account for.
pub struct LayerTable {
    pub text: String,
    pub sum_share: f64,
    pub leftover_share: f64,
}

pub fn layer_table(spans: &[Span], traced_wall_ns: u64, overhead_share: f64) -> LayerTable {
    let totals = span_totals(spans);
    let mut layers: BTreeMap<&str, u64> = BTreeMap::new();
    let mut text = String::new();
    let _ = writeln!(
        text,
        "{:<34} {:>9} {:>12} {:>12} {:>8}",
        "span", "count", "total_ms", "self_ms", "self%"
    );
    let wall = traced_wall_ns.max(1) as f64;
    for (name, t) in &totals {
        let _ = writeln!(
            text,
            "{:<34} {:>9} {:>12.3} {:>12.3} {:>7.2}%",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            100.0 * t.self_ns as f64 / wall
        );
        if layer_of(name) != "bench" {
            *layers.entry(layer_of(name)).or_default() += t.self_ns;
        }
    }
    let _ = writeln!(text, "{:<34} {:>12}", "layer", "self%");
    for (layer, ns) in &layers {
        let _ = writeln!(text, "{:<34} {:>11.2}%", layer, 100.0 * *ns as f64 / wall);
    }
    let sum: u64 = layers.values().sum();
    let sum_share = sum as f64 / wall;
    let leftover_share = 1.0 - sum_share;
    let _ = writeln!(
        text,
        "layers.sum_share {:.4}  leftover {:.4} of traced wall {:.3} ms  trace_overhead_share {:.4}",
        sum_share,
        leftover_share,
        traced_wall_ns as f64 / 1e6,
        overhead_share
    );
    LayerTable {
        text,
        sum_share,
        leftover_share,
    }
}

/// Write spans as tab-separated lines under a header:
/// `id parent name item start_ns end_ns`, with `-` for no parent.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\tname\titem\tstart_ns\tend_ns")?;
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
        writeln!(
            w,
            "{id}\t{parent}\t{}\t{}\t{}\t{}",
            s.name, s.item, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

/// Nearest-rank percentile of `sorted` (ascending), `q` in (0, 1].
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Per-input latency: each input (a trace, a run, a stream segment) is
/// timed on many repeats spread over the run, and its fastest repeat stands
/// for it. The percentiles are taken over the inputs.
///
/// The fastest repeat, not the median: on a shared host the machine
/// switches between a fast and a contended state (1.5–1.7× slower) every few
/// seconds, in proportions that change from minute to minute. The median
/// repeat follows the proportion and moved whole runs by up to 45%; the
/// fastest of many short repeats finds the fast state in every run.
pub struct Latency {
    pub p50_ms: f64,
    pub p90_ms: f64,
    /// Fastest time of each input that was timed at least once, in input
    /// order.
    pub fastest_ms: Vec<Option<f64>>,
}

pub fn input_latency(what: &str, per_input_ms: &[Vec<f64>]) -> Latency {
    let fastest_ms: Vec<Option<f64>> = per_input_ms
        .iter()
        .map(|v| (!v.is_empty()).then(|| v.iter().copied().fold(f64::INFINITY, f64::min)))
        .collect();
    let samples: usize = per_input_ms.iter().map(Vec::len).sum();
    let (p50_ms, p90_ms) = latency(
        what,
        fastest_ms.iter().flatten().copied().collect(),
        samples,
    );
    Latency {
        p50_ms,
        p90_ms,
        fastest_ms,
    }
}

/// p50 and p90 over the inputs' fastest times, printed with the count of
/// `samples` (timed repeats) behind them.
pub fn latency(what: &str, fastest_ms: Vec<f64>, samples: usize) -> (f64, f64) {
    let lat = sorted(fastest_ms);
    // The highest of p99/p90/p50 that leaves at least ten inputs above it.
    let highest = [99u32, 90, 50]
        .into_iter()
        .find(|&p| lat.len() as f64 * f64::from(100 - p) / 100.0 >= 10.0);
    let (p50_ms, p90_ms) = (percentile(&lat, 0.5), percentile(&lat, 0.9));
    println!(
        "{what} latency: fastest repeat of {} inputs ({samples} timed samples); \
         p50 {p50_ms:.4} ms, p90 {p90_ms:.4} ms; highest percentile with >= 10 inputs beyond it: {}",
        lat.len(),
        highest.map_or("none".to_owned(), |p| format!("p{p}"))
    );
    (p50_ms, p90_ms)
}

/// FNV-1a, 64 bit: the input digest that must repeat for one seed.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seeded splitmix64, for the benchmark's own choices of input shape.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// Whether unit `k` of work (a pass or a session) is traced. A traced run
/// alternates untraced and traced units (U T T U ...), so the tracing
/// overhead is measured on the same machine state.
pub fn traced_at(cfg: &RunCfg, k: usize) -> bool {
    cfg.trace && [false, true, true, false][k % 4]
}

/// Whether to start unit `k` of work: always the first, then until the
/// run's time is up, and in a traced run on to a whole U T T U group.
pub fn start_unit(cfg: &RunCfg, epoch: Instant, k: usize) -> bool {
    k == 0 || epoch.elapsed().as_secs_f64() < cfg.seconds || (cfg.trace && !k.is_multiple_of(4))
}

/// What one workload run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 9;

/// Run `setup` [`SETUP_REPEATS`] times; return the last result, the median
/// set-up time, and whether every repeat produced the same digest.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> (T, u64)) -> (T, f64, u64, bool) {
    let mut times = Vec::new();
    let mut digests = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous repeat's inputs first, so peak memory holds one
        // copy of the inputs.
        drop(last.take());
        let t0 = Instant::now();
        let (value, digest) = setup();
        times.push(t0.elapsed().as_secs_f64());
        digests.push(digest);
        last = Some(value);
    }
    let same = digests.iter().all(|&d| d == digests[0]);
    (
        last.expect("at least one set-up"),
        median(&times),
        digests[0],
        same,
    )
}
