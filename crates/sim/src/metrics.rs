//! Simulation metrics: a registry of named counters (plain and labeled),
//! gauges, and sample series with percentile summaries.
//!
//! The benchmark harness reads these to reproduce the paper's analytic
//! claims (control messages per critical-section entry, response-time
//! bounds `[2T, 2T + E_max]`, …).
//!
//! Counters and sample series sit on the simulator's per-event path
//! (`add("msgs_total")`, `record("enter_p3")`, audit reads), so they are
//! hash tables looked up by `&str`, with a small multiplicative hasher
//! local to this module. A run makes a few dozen of them, so a registry
//! keeps all its names in one buffer, and every sample series lives in
//! one shared pool of values: a run's registry allocates only to grow
//! those few buffers, however many series it holds. Every output — the
//! JSON form, `Debug`, [`Metrics::to_prometheus`], the `*_names` iterators
//! and [`Metrics::summaries`] — sorts by name, so nothing observable
//! depends on hash order. Gauges are cold and stay in a `BTreeMap`.

use pctl_obs::stats::nearest_rank;
use serde::{DeError, Deserialize, Reader, Serialize, Writer};
use std::collections::BTreeMap;
use std::fmt;
use std::hash::Hasher;

/// Accumulated metrics for one simulation run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Metrics {
    counters: Registry<u64>,
    samples: Samples,
    #[serde(default, skip_serializing_if = "BTreeMap::is_empty")]
    gauges: BTreeMap<String, i64>,
}

/// The Fx hash (a rotate, xor and multiply per word): fast on the short,
/// trusted keys of a metrics registry. std's SipHash measured no faster
/// than a `BTreeMap` here.
#[derive(Clone, Copy, Default)]
struct FxHasher(u64);

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, mut bytes: &[u8]) {
        // Fixed-width reads only: zero-padding the tail into a buffer
        // compiles to a `memcpy` call per hash.
        while let Some((w, rest)) = bytes.split_first_chunk::<8>() {
            self.add(u64::from_le_bytes(*w));
            bytes = rest;
        }
        if let Some((w, rest)) = bytes.split_first_chunk::<4>() {
            self.add(u64::from(u32::from_le_bytes(*w)));
            bytes = rest;
        }
        if let Some((w, rest)) = bytes.split_first_chunk::<2>() {
            self.add(u64::from(u16::from_le_bytes(*w)));
            bytes = rest;
        }
        if let Some(&b) = bytes.first() {
            self.add(u64::from(b));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Fx hash of one name.
fn hash_name(name: &str) -> usize {
    let mut h = FxHasher::default();
    h.write(name.as_bytes());
    h.finish() as usize
}

/// A name-keyed table whose every rendering (JSON, `Debug`) is sorted by
/// name, exactly as a `BTreeMap` renders. The names share one buffer, and
/// the index is open-addressed, so a registry allocates only to grow
/// those two and its entry list.
#[derive(Clone)]
struct Registry<V> {
    /// Every name, back to back, in insertion order.
    names: String,
    /// `(start, end, value)` per name, in insertion order: the name is
    /// `names[start..end]`.
    entries: Vec<(usize, usize, V)>,
    /// Entry index + 1 per slot, 0 when empty, probed linearly from a
    /// name's hash. Empty, or a power of two at least twice the entries.
    slots: Vec<u32>,
}

impl<V> Default for Registry<V> {
    fn default() -> Self {
        Registry {
            names: String::new(),
            entries: Vec::new(),
            slots: Vec::new(),
        }
    }
}

impl<V> Registry<V> {
    /// Slots of the first table. It holds half as many names, and the
    /// name buffer starts with room for that many names of
    /// [`NAME_BYTES`](Self::NAME_BYTES), so a run's registry is usually
    /// made once and never grows.
    const FIRST_SLOTS: usize = 64;
    const NAME_BYTES: usize = 16;

    fn name(&self, e: usize) -> &str {
        let (start, end, _) = self.entries[e];
        &self.names[start..end]
    }

    /// [`name`](Self::name) as bytes, for probing without the char
    /// boundary checks of slicing a `str`.
    fn name_bytes(&self, e: usize) -> &[u8] {
        let (start, end, _) = self.entries[e];
        &self.names.as_bytes()[start..end]
    }

    /// The slot holding `name`, or the empty slot where it would go, and
    /// its entry if present. `slots` must be non-empty.
    fn probe(&self, name: &str) -> (usize, Option<usize>) {
        let mask = self.slots.len() - 1;
        let mut i = hash_name(name) & mask;
        loop {
            match self.slots[i] {
                0 => return (i, None),
                e if self.name_bytes(e as usize - 1) == name.as_bytes() => {
                    return (i, Some(e as usize - 1))
                }
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn get(&self, name: &str) -> Option<&V> {
        if self.slots.is_empty() {
            return None;
        }
        let e = self.probe(name).1?;
        Some(&self.entries[e].2)
    }

    fn get_mut(&mut self, name: &str) -> Option<&mut V> {
        if self.slots.is_empty() {
            return None;
        }
        let e = self.probe(name).1?;
        Some(&mut self.entries[e].2)
    }

    /// The value of `name`, inserting `make()` first if absent.
    fn get_or_insert(&mut self, name: &str, make: impl FnOnce() -> V) -> &mut V {
        if self.slots.len() < 2 * (self.entries.len() + 1) {
            self.grow();
        }
        let e = match self.probe(name) {
            (_, Some(e)) => e,
            (slot, None) => {
                let start = self.names.len();
                self.names.push_str(name);
                self.entries.push((start, self.names.len(), make()));
                self.slots[slot] = u32::try_from(self.entries.len()).expect("registry size");
                self.entries.len() - 1
            }
        };
        &mut self.entries[e].2
    }

    /// Double the table (or make the first one) and re-index every entry.
    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(Self::FIRST_SLOTS);
        if self.slots.is_empty() {
            self.names.reserve(Self::NAME_BYTES * len / 2);
            self.entries.reserve(len / 2);
        }
        self.slots = vec![0; len];
        for e in 0..self.entries.len() {
            let slot = self.probe(self.name(e)).0;
            self.slots[slot] = e as u32 + 1;
        }
    }

    /// `(name, value)` pairs in name order.
    fn sorted(&self) -> Vec<(&str, &V)> {
        let mut kv: Vec<(&str, &V)> = (0..self.entries.len())
            .map(|e| (self.name(e), &self.entries[e].2))
            .collect();
        kv.sort_unstable_by_key(|&(k, _)| k);
        kv
    }
}

impl<V: fmt::Debug> fmt::Debug for Registry<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.sorted()).finish()
    }
}

/// Write name-sorted pairs as one JSON object, as a `BTreeMap` writes.
fn serialize_sorted<V: Serialize + ?Sized>(w: &mut Writer<'_>, kv: Vec<(&str, &V)>) {
    w.begin_object();
    for (k, v) in kv {
        w.key(k);
        v.serialize(w);
    }
    w.end_object();
}

impl<V: Serialize> Serialize for Registry<V> {
    fn serialize(&self, w: &mut Writer<'_>) {
        serialize_sorted(w, self.sorted());
    }
}

impl<V: Deserialize + Copy> Deserialize for Registry<V> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        let mut map = Registry::default();
        r.object("map", |r, key| {
            let v = V::deserialize(r).map_err(|e| e.context(&key))?;
            *map.get_or_insert(&key, || v) = v;
            Ok(())
        })?;
        Ok(map)
    }
}

/// Where one sample series sits in the shared pool.
#[derive(Clone, Copy, Debug, Default)]
struct Series {
    start: usize,
    len: usize,
    cap: usize,
}

/// The sample series: a registry of [`Series`] over one pool of values.
/// A full series moves to the end of the pool with twice its room (or
/// grows in place when it already ends there), so the pool is the only
/// allocation the values make.
#[derive(Clone, Default)]
struct Samples {
    series: Registry<Series>,
    pool: Vec<u64>,
}

impl Samples {
    fn get(&self, name: &str) -> Option<&[u64]> {
        self.series
            .get(name)
            .map(|s| &self.pool[s.start..s.start + s.len])
    }

    /// Append `values` to series `name`, creating it (empty) if absent.
    fn extend(&mut self, name: &str, values: impl IntoIterator<Item = u64>) {
        let s = self.series.get_or_insert(name, Series::default);
        for value in values {
            Self::push_into(s, &mut self.pool, value);
        }
    }

    fn push_into(s: &mut Series, pool: &mut Vec<u64>, value: u64) {
        if s.len == s.cap {
            let cap = (2 * s.cap).max(4);
            if s.start + s.cap != pool.len() {
                let start = pool.len();
                pool.extend_from_within(s.start..s.start + s.len);
                s.start = start;
            }
            if pool.capacity() == 0 {
                // Room for the first table's series at 8 values each.
                pool.reserve(4 * Registry::<Series>::FIRST_SLOTS);
            }
            pool.resize(s.start + cap, 0);
            s.cap = cap;
        }
        pool[s.start + s.len] = value;
        s.len += 1;
    }

    /// `(name, samples)` pairs in name order.
    fn sorted(&self) -> Vec<(&str, &[u64])> {
        (self.series.sorted().into_iter())
            .map(|(k, s)| (k, &self.pool[s.start..s.start + s.len]))
            .collect()
    }
}

impl fmt::Debug for Samples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.sorted()).finish()
    }
}

impl Serialize for Samples {
    fn serialize(&self, w: &mut Writer<'_>) {
        serialize_sorted(w, self.sorted());
    }
}

impl Deserialize for Samples {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        let mut samples = Samples::default();
        r.object("map", |r, key| {
            let values = Vec::<u64>::deserialize(r).map_err(|e| e.context(&key))?;
            // A repeated key replaces the series, as a map insert does.
            if let Some(s) = samples.series.get_mut(&key) {
                s.len = 0;
            }
            samples.extend(&key, values);
            Ok(())
        })?;
        Ok(samples)
    }
}

/// Summary statistics over one sample series.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Minimum.
    pub min: u64,
    /// Maximum.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (nearest-rank 50th percentile).
    pub p50: u64,
    /// Nearest-rank 95th percentile.
    pub p95: u64,
    /// Nearest-rank 99th percentile.
    pub p99: u64,
}

impl Metrics {
    /// Increment counter `name` by `by`. Saturates at `u64::MAX` instead of
    /// wrapping (release builds don't check `+=`, and a wrapped counter is
    /// silently, catastrophically wrong in a report). The key is looked up
    /// by `&str` and allocated only on first insert.
    pub fn add(&mut self, name: &str, by: u64) {
        let c = self.counters.get_or_insert(name, || 0);
        *c = c.saturating_add(by);
    }

    /// Increment a labeled counter: the registry key is `name{label}`, so
    /// e.g. `add_labeled("retransmissions", "p2", 1)` tracks
    /// `retransmissions{p2}` separately from the plain total. Saturating,
    /// like [`Metrics::add`].
    pub fn add_labeled(&mut self, name: &str, label: &str, by: u64) {
        self.add(&format!("{name}{{{label}}}"), by);
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a labeled counter (see [`Metrics::add_labeled`]).
    pub fn counter_labeled(&self, name: &str, label: &str) -> u64 {
        self.counter(&format!("{name}{{{label}}}"))
    }

    /// Set gauge `name` to `value` (last write wins; unlike counters, a
    /// gauge tracks a level — queue depth, processes blocked, tokens held).
    pub fn set_gauge(&mut self, name: &str, value: i64) {
        self.gauges.insert(name.to_owned(), value);
    }

    /// Current value of gauge `name`, or `None` if never set.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// Record one latency/size sample under `name`.
    pub fn record(&mut self, name: &str, value: u64) {
        self.samples.extend(name, [value]);
    }

    /// Raw samples for `name`.
    pub fn samples(&self, name: &str) -> &[u64] {
        self.samples.get(name).unwrap_or(&[])
    }

    /// Summary statistics for `name`, or `None` when no samples exist.
    pub fn summary(&self, name: &str) -> Option<Summary> {
        let s = self.samples.get(name)?;
        if s.is_empty() {
            return None;
        }
        let mut sorted = s.to_vec();
        sorted.sort_unstable();
        let sum: u128 = sorted.iter().map(|&v| u128::from(v)).sum();
        Some(Summary {
            count: sorted.len(),
            min: sorted[0],
            max: *sorted.last().unwrap(),
            mean: sum as f64 / sorted.len() as f64,
            p50: nearest_rank(&sorted, 50),
            p95: nearest_rank(&sorted, 95),
            p99: nearest_rank(&sorted, 99),
        })
    }

    /// All counter names (sorted).
    pub fn counter_names(&self) -> impl Iterator<Item = &str> {
        self.counters.sorted().into_iter().map(|(k, _)| k)
    }

    /// All sample series names (sorted).
    pub fn sample_names(&self) -> impl Iterator<Item = &str> {
        self.samples.series.sorted().into_iter().map(|(k, _)| k)
    }

    /// All gauge names (sorted).
    pub fn gauge_names(&self) -> impl Iterator<Item = &str> {
        self.gauges.keys().map(String::as_str)
    }

    /// `(name, summary)` for every sample series, in name order.
    pub fn summaries(&self) -> impl Iterator<Item = (&str, Summary)> {
        (self.samples.series.sorted().into_iter()).filter_map(|(k, _)| Some((k, self.summary(k)?)))
    }

    /// Merge another run's metrics into this one (for aggregation across
    /// seeds). Counters add, samples concatenate, gauges take the other
    /// run's final level.
    pub fn merge(&mut self, other: &Metrics) {
        for (k, &v) in other.counters.sorted() {
            self.add(k, v);
        }
        for (k, values) in other.samples.sorted() {
            self.samples.extend(k, values.iter().copied());
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
    }

    /// `(name, value)` pairs of the standard fault counters
    /// ([`FAULT_COUNTERS`]), including zero entries, in a fixed order —
    /// what summary output should print for a faulty run.
    pub fn fault_counters(&self) -> Vec<(&'static str, u64)> {
        FAULT_COUNTERS
            .iter()
            .map(|&n| (n, self.counter(n)))
            .collect()
    }

    /// One-line rendering of [`fault_counters`](Self::fault_counters), e.g.
    /// `msgs_dropped=3 msgs_duplicated=0 retransmissions=2 crashes=1
    /// restarts=1 rejoins=1 regenerations=0 aborted_cs=0`.
    pub fn fault_line(&self) -> String {
        self.fault_counters()
            .iter()
            .map(|(n, v)| format!("{n}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Render the registry as Prometheus text exposition (format 0.0.4).
    ///
    /// Plain counters become `{prefix}{name}_total`; labeled counters
    /// (registry keys of the form `name{label}`, see
    /// [`Metrics::add_labeled`]) become one family with a
    /// `label="..."` dimension; gauges become `{prefix}{name}` gauges;
    /// sample series become summaries with 0.5/0.95/0.99 quantiles plus
    /// `_sum`/`_count`.
    pub fn to_prometheus(&self, prefix: &str) -> String {
        let mut exp = pctl_obs::prom::Exposition::new();
        for (key, &v) in self.counters.sorted() {
            let (name, label) = match key.split_once('{') {
                Some((name, rest)) => (name, rest.strip_suffix('}')),
                None => (key, None),
            };
            let family = format!("{prefix}{name}_total");
            match label {
                Some(l) => exp.counter(&family, "Simulation counter", &[("label", l)], v as f64),
                None => exp.counter(&family, "Simulation counter", &[], v as f64),
            }
        }
        for (name, &v) in &self.gauges {
            exp.gauge(
                &format!("{prefix}{name}"),
                "Simulation gauge",
                &[],
                v as f64,
            );
        }
        for (name, s) in self.samples.sorted() {
            let Some(sm) = self.summary(name) else {
                continue;
            };
            let sum: u128 = s.iter().map(|&v| u128::from(v)).sum();
            exp.summary(
                &format!("{prefix}{name}"),
                "Simulation sample series",
                &[],
                &[
                    (0.5, sm.p50 as f64),
                    (0.95, sm.p95 as f64),
                    (0.99, sm.p99 as f64),
                ],
                sum as f64,
                sm.count as u64,
            );
        }
        exp.render()
    }
}

/// A shared cell holding the latest Prometheus rendering of a running
/// simulation's metrics.
///
/// The simulation thread periodically re-renders into the cell (see
/// [`crate::Simulation::publish_live`]); a `/metrics` endpoint (e.g.
/// [`pctl_obs::prom::MetricsServer`]) reads it on demand. Publishing is
/// strictly observational — it only reads the registry and never touches
/// simulation state or RNG streams.
#[derive(Clone, Default)]
pub struct LiveMetrics {
    cell: std::sync::Arc<std::sync::Mutex<String>>,
}

impl LiveMetrics {
    /// A new, empty cell.
    pub fn new() -> LiveMetrics {
        LiveMetrics::default()
    }

    /// Replace the published exposition text.
    pub fn publish(&self, text: String) {
        *self.cell.lock().unwrap() = text;
    }

    /// The most recently published exposition text (empty before the first
    /// publish).
    pub fn read(&self) -> String {
        self.cell.lock().unwrap().clone()
    }

    /// A render closure suitable for
    /// [`pctl_obs::prom::MetricsServer::spawn`].
    pub fn renderer(&self) -> std::sync::Arc<dyn Fn() -> String + Send + Sync> {
        let cell = self.clone();
        std::sync::Arc::new(move || cell.read())
    }
}

impl std::fmt::Debug for LiveMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LiveMetrics({} bytes)", self.cell.lock().unwrap().len())
    }
}

/// The counters every fault-injected run reports: what the simulator's
/// fault layer charges (`msgs_dropped`, `msgs_duplicated`, `crashes`,
/// `restarts`) plus what the hardened protocol layer charges
/// (`retransmissions`, `rejoins`, `regenerations`, `aborted_cs`).
pub const FAULT_COUNTERS: &[&str] = &[
    "msgs_dropped",
    "msgs_duplicated",
    "retransmissions",
    "crashes",
    "restarts",
    "rejoins",
    "regenerations",
    "aborted_cs",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::default();
        assert_eq!(m.counter("msgs"), 0);
        m.add("msgs", 2);
        m.add("msgs", 3);
        assert_eq!(m.counter("msgs"), 5);
    }

    #[test]
    fn summary_statistics() {
        let mut m = Metrics::default();
        for v in [10, 20, 30] {
            m.record("lat", v);
        }
        let s = m.summary("lat").unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 30);
        assert!((s.mean - 20.0).abs() < 1e-9);
        assert_eq!(s.p50, 20);
        assert_eq!(s.p95, 30);
        assert_eq!(s.p99, 30);
        assert!(m.summary("nothing").is_none());
    }

    #[test]
    fn percentiles_follow_nearest_rank() {
        let mut m = Metrics::default();
        for v in 1..=100 {
            m.record("lat", v);
        }
        let s = m.summary("lat").unwrap();
        assert_eq!((s.p50, s.p95, s.p99), (50, 95, 99));
        // Single sample: every percentile is that sample.
        let mut one = Metrics::default();
        one.record("x", 7);
        let s = one.summary("x").unwrap();
        assert_eq!((s.p50, s.p95, s.p99), (7, 7, 7));
    }

    #[test]
    fn gauges_hold_levels_and_labeled_counters_split() {
        let mut m = Metrics::default();
        assert_eq!(m.gauge("depth"), None);
        m.set_gauge("depth", 3);
        m.set_gauge("depth", 1);
        assert_eq!(m.gauge("depth"), Some(1));
        m.add_labeled("retransmissions", "p0", 2);
        m.add_labeled("retransmissions", "p1", 1);
        assert_eq!(m.counter_labeled("retransmissions", "p0"), 2);
        assert_eq!(m.counter_labeled("retransmissions", "p1"), 1);
        assert_eq!(m.counter("retransmissions"), 0, "labels are separate keys");
        assert_eq!(m.gauge_names().collect::<Vec<_>>(), vec!["depth"]);

        let mut other = Metrics::default();
        other.set_gauge("depth", 9);
        m.merge(&other);
        assert_eq!(m.gauge("depth"), Some(9), "merge takes the later level");
    }

    #[test]
    fn fault_counters_render_in_fixed_order_with_zeros() {
        let mut m = Metrics::default();
        m.add("msgs_dropped", 3);
        m.add("crashes", 1);
        let fc = m.fault_counters();
        assert_eq!(fc.len(), FAULT_COUNTERS.len());
        assert_eq!(fc[0], ("msgs_dropped", 3));
        assert!(fc.contains(&("crashes", 1)));
        assert!(fc.contains(&("retransmissions", 0)));
        let line = m.fault_line();
        assert!(line.starts_with("msgs_dropped=3 msgs_duplicated=0"));
        assert!(line.contains("crashes=1"));
    }

    #[test]
    fn prometheus_exposition_covers_all_registry_kinds() {
        let mut m = Metrics::default();
        m.add("msgs", 5);
        m.add_labeled("retransmissions", "p2", 3);
        m.set_gauge("queue_depth", 4);
        for v in [10, 20, 30] {
            m.record("latency_us", v);
        }
        let text = m.to_prometheus("pctl_sim_");
        assert!(
            text.contains("# TYPE pctl_sim_msgs_total counter"),
            "{text}"
        );
        assert!(text.contains("pctl_sim_msgs_total 5"), "{text}");
        assert!(
            text.contains("pctl_sim_retransmissions_total{label=\"p2\"} 3"),
            "{text}"
        );
        assert!(text.contains("# TYPE pctl_sim_queue_depth gauge"), "{text}");
        assert!(text.contains("pctl_sim_queue_depth 4"), "{text}");
        assert!(
            text.contains("# TYPE pctl_sim_latency_us summary"),
            "{text}"
        );
        assert!(
            text.contains("pctl_sim_latency_us{quantile=\"0.5\"} 20"),
            "{text}"
        );
        assert!(text.contains("pctl_sim_latency_us_sum 60"), "{text}");
        assert!(text.contains("pctl_sim_latency_us_count 3"), "{text}");
        let n = pctl_obs::prom::validate_exposition(&text).expect("valid exposition");
        // 1 plain counter + 1 labeled counter + 1 gauge + 5 summary samples.
        assert_eq!(n, 8, "{text}");
    }

    #[test]
    fn summary_is_exact_near_u64_max() {
        // Mirrors the PR 5 `Percentiles::of` regression: accumulating in
        // u64 (or f64) would overflow / lose the sum for samples near
        // u64::MAX; the u128 accumulator must keep mean and percentiles
        // exact.
        let mut m = Metrics::default();
        let big = u64::MAX - 4;
        for v in [big, big + 1, big + 2, big + 3, big + 4] {
            m.record("huge", v);
        }
        let s = m.summary("huge").unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.min, big);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.p50, big + 2);
        assert_eq!((s.p95, s.p99), (u64::MAX, u64::MAX));
        // Exact u128 mean is big+2; f64 can't hold every u64 exactly, so
        // compare in ULP-scale terms.
        let want = (big + 2) as f64;
        assert!(
            (s.mean - want).abs() <= want * 1e-9,
            "mean {} drifted from {want}",
            s.mean
        );
        // And the Prometheus sum survives the same widening.
        let text = m.to_prometheus("x_");
        assert!(text.contains("x_huge_count 5"), "{text}");
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let mut m = Metrics::default();
        m.add("c", u64::MAX - 1);
        m.add("c", 5);
        assert_eq!(m.counter("c"), u64::MAX, "add saturates");
        m.add_labeled("c", "p0", u64::MAX);
        m.add_labeled("c", "p0", 1);
        assert_eq!(m.counter_labeled("c", "p0"), u64::MAX, "labeled saturates");
        let mut other = Metrics::default();
        other.add("c", 7);
        m.merge(&other);
        assert_eq!(m.counter("c"), u64::MAX, "merge saturates");
    }

    #[test]
    fn merge_combines_runs() {
        let mut a = Metrics::default();
        a.add("c", 1);
        a.record("x", 5);
        let mut b = Metrics::default();
        b.add("c", 2);
        b.record("x", 7);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.samples("x"), &[5, 7]);
        assert_eq!(a.counter_names().collect::<Vec<_>>(), vec!["c"]);
        assert_eq!(a.sample_names().collect::<Vec<_>>(), vec!["x"]);
    }

    #[test]
    fn empty_gauges_are_left_out_and_may_be_missing() {
        let mut m = Metrics::default();
        m.add("c", 2);
        let json = serde_json::to_string(&m).unwrap();
        assert_eq!(json, r#"{"counters":{"c":2},"samples":{}}"#);
        let back: Metrics = serde_json::from_str(&json).unwrap();
        assert_eq!(back.counter("c"), 2);
        assert_eq!(back.gauge("g"), None);
        m.set_gauge("g", -1);
        let json = serde_json::to_string(&m).unwrap();
        assert!(json.ends_with(r#","gauges":{"g":-1}}"#), "{json}");
        let back: Metrics = serde_json::from_str(&json).unwrap();
        assert_eq!(back.gauge("g"), Some(-1));
    }
}
