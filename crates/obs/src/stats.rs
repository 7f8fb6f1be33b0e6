//! Aggregate statistics over an event log — the engine behind `pctl stats`.

use crate::event::{Event, EventKind};
use std::collections::BTreeMap;
use std::fmt;

/// Percentile summary of a duration/value series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Percentiles {
    /// Number of samples.
    pub count: usize,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Arithmetic mean, rounded down.
    pub mean: u64,
    /// 50th percentile (nearest-rank).
    pub p50: u64,
    /// 95th percentile (nearest-rank).
    pub p95: u64,
    /// 99th percentile (nearest-rank).
    pub p99: u64,
}

/// Nearest-rank percentile over a sorted slice: the smallest sample with at
/// least `p`% of the distribution at or below it.
pub fn nearest_rank<T: Copy>(sorted: &[T], p: u32) -> T {
    assert!(!sorted.is_empty() && (1..=100).contains(&p));
    // Widened: `len * p` overflows u64 for series past ~2^57 samples.
    let rank = (sorted.len() as u128 * u128::from(p)).div_ceil(100) as usize;
    sorted[rank - 1]
}

impl Percentiles {
    /// Summarize a series; returns `None` when empty.
    pub fn of(samples: &[u64]) -> Option<Percentiles> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        // Accumulate in u128: a long profiled run of u64 nanosecond samples
        // can exceed u64::MAX in total. The mean is rounded to nearest
        // rather than truncated; it still fits u64 (mean ≤ max).
        let sum: u128 = sorted.iter().map(|&v| v as u128).sum();
        let count = sorted.len() as u128;
        Some(Percentiles {
            count: sorted.len(),
            min: sorted[0],
            max: *sorted.last().unwrap(),
            mean: ((sum + count / 2) / count) as u64,
            p50: nearest_rank(&sorted, 50),
            p95: nearest_rank(&sorted, 95),
            p99: nearest_rank(&sorted, 99),
        })
    }
}

impl fmt::Display for Percentiles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} min={} mean={} p50={} p95={} p99={} max={}",
            self.count, self.min, self.mean, self.p50, self.p95, self.p99, self.max
        )
    }
}

/// Statistics extracted from an event log.
#[derive(Clone, Debug, Default)]
pub struct EventStats {
    /// Total events by kind tag (`instant`, `span`, `counter`, `send`,
    /// `recv`).
    pub by_kind: BTreeMap<&'static str, u64>,
    /// Instant occurrences by name.
    pub instants: BTreeMap<String, u64>,
    /// Completed span durations by name (`end.ts − begin.ts`, per lane,
    /// innermost-first).
    pub span_durations: BTreeMap<String, Vec<u64>>,
    /// Span begins left unmatched at end of log.
    pub open_spans: u64,
    /// Delivered messages by name, with send→recv latency when the matching
    /// send is in the log.
    pub msg_latencies: BTreeMap<String, Vec<u64>>,
    /// Sends whose flow id never saw a recv (dropped or still in flight).
    pub unmatched_sends: u64,
    /// Events per lane.
    pub per_lane: BTreeMap<u32, u64>,
}

impl EventStats {
    /// Scan an event log.
    pub fn from_events(events: &[Event]) -> EventStats {
        let mut st = EventStats::default();
        // (lane, name) → stack of begin timestamps.
        let mut open: BTreeMap<(u32, String), Vec<u64>> = BTreeMap::new();
        // flow id → send timestamp.
        let mut sends: BTreeMap<u64, u64> = BTreeMap::new();
        for ev in events {
            *st.per_lane.entry(ev.lane).or_default() += 1;
            match &ev.kind {
                EventKind::Instant => {
                    *st.by_kind.entry("instant").or_default() += 1;
                    *st.instants.entry(ev.name.clone()).or_default() += 1;
                }
                EventKind::SpanBegin => {
                    *st.by_kind.entry("span").or_default() += 1;
                    open.entry((ev.lane, ev.name.clone()))
                        .or_default()
                        .push(ev.ts);
                }
                EventKind::SpanEnd => {
                    match open.get_mut(&(ev.lane, ev.name.clone())).and_then(Vec::pop) {
                        Some(begin) => st
                            .span_durations
                            .entry(ev.name.clone())
                            .or_default()
                            .push(ev.ts.saturating_sub(begin)),
                        None => st.open_spans += 1, // end without begin
                    }
                }
                EventKind::Counter { .. } => {
                    *st.by_kind.entry("counter").or_default() += 1;
                }
                EventKind::MsgSend { id, .. } => {
                    *st.by_kind.entry("send").or_default() += 1;
                    sends.insert(*id, ev.ts);
                }
                EventKind::MsgRecv { id, .. } => {
                    *st.by_kind.entry("recv").or_default() += 1;
                    if let Some(sent) = sends.remove(id) {
                        st.msg_latencies
                            .entry(ev.name.clone())
                            .or_default()
                            .push(ev.ts.saturating_sub(sent));
                    }
                }
            }
        }
        st.open_spans += open.values().map(|v| v.len() as u64).sum::<u64>();
        st.unmatched_sends = sends.len() as u64;
        st
    }

    /// Human-readable report (the `pctl stats` output).
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str("events by kind:\n");
        for (kind, n) in &self.by_kind {
            out.push_str(&format!("  {kind:<8} {n}\n"));
        }
        out.push_str("events by lane:\n");
        for (lane, n) in &self.per_lane {
            out.push_str(&format!("  lane {lane:<4} {n}\n"));
        }
        if !self.instants.is_empty() {
            out.push_str("instants:\n");
            for (name, n) in &self.instants {
                out.push_str(&format!("  {name:<24} {n}\n"));
            }
        }
        // Always print the percentile sections — an empty or instant-only
        // log gets an explicit zero-sample line rather than a silently
        // missing section, so consumers can grep for the header
        // unconditionally.
        out.push_str("span durations:\n");
        if self.span_durations.is_empty() {
            out.push_str("  (no samples) n=0\n");
        }
        for (name, samples) in &self.span_durations {
            if let Some(p) = Percentiles::of(samples) {
                out.push_str(&format!("  {name:<24} {p}\n"));
            }
        }
        out.push_str("message latencies:\n");
        if self.msg_latencies.is_empty() {
            out.push_str("  (no samples) n=0\n");
        }
        for (name, samples) in &self.msg_latencies {
            if let Some(p) = Percentiles::of(samples) {
                out.push_str(&format!("  {name:<24} {p}\n"));
            }
        }
        if self.open_spans > 0 {
            out.push_str(&format!("open/unmatched spans: {}\n", self.open_spans));
        }
        if self.unmatched_sends > 0 {
            out.push_str(&format!("sends without a recv: {}\n", self.unmatched_sends));
        }
        out
    }

    /// The same statistics as Prometheus text exposition (format 0.0.4) —
    /// the `pctl stats --prom` output. Duration/latency series become
    /// summaries with 0.5/0.95/0.99 quantiles; counts become counters.
    /// Simulator timestamps are unitless ticks, hence the `_ticks` suffix.
    pub fn to_prometheus(&self) -> String {
        let mut exp = crate::prom::Exposition::new();
        for (kind, n) in &self.by_kind {
            exp.counter(
                "pctl_events_total",
                "Telemetry events by kind",
                &[("kind", kind)],
                *n as f64,
            );
        }
        for (lane, n) in &self.per_lane {
            exp.counter(
                "pctl_lane_events_total",
                "Telemetry events by lane",
                &[("lane", &lane.to_string())],
                *n as f64,
            );
        }
        for (name, n) in &self.instants {
            exp.counter(
                "pctl_instants_total",
                "Instant occurrences by name",
                &[("name", name)],
                *n as f64,
            );
        }
        for (family, help, series) in [
            (
                "pctl_span_duration_ticks",
                "Completed span durations in sim ticks",
                &self.span_durations,
            ),
            (
                "pctl_msg_latency_ticks",
                "Send-to-receive latencies in sim ticks",
                &self.msg_latencies,
            ),
        ] {
            for (name, samples) in series {
                let Some(p) = Percentiles::of(samples) else {
                    continue;
                };
                // Same overflow hazard as Percentiles::of — sum in u128.
                let sum: u128 = samples.iter().map(|&v| v as u128).sum();
                exp.summary(
                    family,
                    help,
                    &[("name", name)],
                    &[
                        (0.5, p.p50 as f64),
                        (0.95, p.p95 as f64),
                        (0.99, p.p99 as f64),
                    ],
                    sum as f64,
                    p.count as u64,
                );
            }
        }
        exp.gauge(
            "pctl_open_spans",
            "Span begins left unmatched at end of log",
            &[],
            self.open_spans as f64,
        );
        exp.gauge(
            "pctl_unmatched_sends",
            "Sends whose flow never saw a receive",
            &[],
            self.unmatched_sends as f64,
        );
        exp.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&s, 50), 50);
        assert_eq!(nearest_rank(&s, 95), 95);
        assert_eq!(nearest_rank(&s, 99), 99);
        assert_eq!(nearest_rank(&s, 100), 100);
        assert_eq!(nearest_rank(&[7], 50), 7);
        assert_eq!(nearest_rank(&[1, 2], 50), 1);
        assert_eq!(nearest_rank(&[0.5, 1.5, 2.5, 3.5], 75), 2.5);
    }

    #[test]
    fn spans_and_latencies_are_paired() {
        let events = vec![
            Event {
                ts: 10,
                lane: 0,
                name: "cs".into(),
                kind: EventKind::SpanBegin,
                clock: None,
            },
            Event {
                ts: 12,
                lane: 1,
                name: "req".into(),
                kind: EventKind::MsgSend { id: 1, to: 0 },
                clock: None,
            },
            Event {
                ts: 17,
                lane: 0,
                name: "req".into(),
                kind: EventKind::MsgRecv { id: 1, from: 1 },
                clock: None,
            },
            Event {
                ts: 25,
                lane: 0,
                name: "cs".into(),
                kind: EventKind::SpanEnd,
                clock: None,
            },
            Event {
                ts: 30,
                lane: 1,
                name: "req".into(),
                kind: EventKind::MsgSend { id: 2, to: 0 },
                clock: None,
            },
        ];
        let st = EventStats::from_events(&events);
        assert_eq!(st.span_durations["cs"], vec![15]);
        assert_eq!(st.msg_latencies["req"], vec![5]);
        assert_eq!(st.unmatched_sends, 1);
        assert_eq!(st.open_spans, 0);
        let report = st.report();
        assert!(report.contains("sends without a recv: 1"), "{report}");
    }

    #[test]
    fn zero_sample_report_keeps_percentile_sections() {
        // Empty log.
        let report = EventStats::from_events(&[]).report();
        assert!(
            report.contains("span durations:\n  (no samples) n=0"),
            "{report}"
        );
        assert!(
            report.contains("message latencies:\n  (no samples) n=0"),
            "{report}"
        );

        // Instant-only log: still no duration/latency samples.
        let events = vec![Event::instant(1, 0, "tick"), Event::instant(2, 0, "tick")];
        let report = EventStats::from_events(&events).report();
        assert!(report.contains("instants:"), "{report}");
        assert!(
            report.contains("span durations:\n  (no samples) n=0"),
            "{report}"
        );
        assert!(
            report.contains("message latencies:\n  (no samples) n=0"),
            "{report}"
        );
    }

    #[test]
    fn prometheus_view_covers_counts_series_and_gauges() {
        let events = vec![
            Event {
                ts: 10,
                lane: 0,
                name: "cs".into(),
                kind: EventKind::SpanBegin,
                clock: None,
            },
            Event {
                ts: 25,
                lane: 0,
                name: "cs".into(),
                kind: EventKind::SpanEnd,
                clock: None,
            },
            Event::instant(30, 1, "crash"),
        ];
        let text = EventStats::from_events(&events).to_prometheus();
        assert!(crate::prom::validate_exposition(&text).is_ok(), "{text}");
        assert!(
            text.contains("pctl_events_total{kind=\"span\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("pctl_instants_total{name=\"crash\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("pctl_span_duration_ticks{name=\"cs\",quantile=\"0.5\"} 15"),
            "{text}"
        );
        assert!(
            text.contains("pctl_span_duration_ticks_count{name=\"cs\"} 1"),
            "{text}"
        );
        assert!(text.contains("pctl_open_spans 0"), "{text}");

        // Zero-event logs still expose the gauges (never an empty document).
        let text = EventStats::from_events(&[]).to_prometheus();
        assert!(crate::prom::validate_exposition(&text).is_ok(), "{text}");
        assert!(text.contains("pctl_unmatched_sends 0"), "{text}");
    }

    #[test]
    fn percentiles_of_empty_is_none() {
        assert!(Percentiles::of(&[]).is_none());
        let p = Percentiles::of(&[4, 2, 9]).unwrap();
        assert_eq!((p.min, p.max, p.mean, p.p50), (2, 9, 5, 4));
    }

    #[test]
    fn percentiles_survive_near_u64_max_samples() {
        // Three samples near u64::MAX sum far past u64: the old u64
        // accumulator wrapped (or panicked in debug). The u128 path keeps
        // the exact mean.
        let a = u64::MAX - 2;
        let b = u64::MAX - 1;
        let c = u64::MAX;
        let p = Percentiles::of(&[a, b, c]).unwrap();
        assert_eq!(p.count, 3);
        assert_eq!(p.min, a);
        assert_eq!(p.max, c);
        assert_eq!(p.mean, b, "exact mean of three consecutive values");
        assert_eq!(p.p50, b);
    }

    #[test]
    fn mean_is_rounded_not_truncated() {
        // mean(1, 2) = 1.5 → rounds to 2 (the truncating version said 1).
        assert_eq!(Percentiles::of(&[1, 2]).unwrap().mean, 2);
        assert_eq!(Percentiles::of(&[1, 1, 2]).unwrap().mean, 1);
    }
}
