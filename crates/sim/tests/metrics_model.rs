//! `Metrics` against a `BTreeMap`-backed reference model.
//!
//! The registry keeps counters and sample series in hash maps, so every
//! rendering has to sort by name to come out as a `BTreeMap` renders. The
//! model below is the registry as it was before hashing: the same fields,
//! derives and rendering code over `BTreeMap`s. Random sequences of
//! `add`, `record`, `add_labeled`, `set_gauge` and `merge` must leave both
//! with the same values, the same JSON bytes, the same `Debug` text, the
//! same Prometheus text and the same name order.
//!
//! The name pool holds labeled keys and names that collide once
//! Prometheus-sanitized (`a.b`, `a-b`, `a b`; `x` and `x{`): colliding
//! samples keep their insertion order in one family, so an unsorted walk
//! of the hash map shows in the exposition text.

use pctl_sim::{Metrics, Summary};
use proptest::prelude::*;

const NAMES: &[&str] = &[
    "msgs_total",
    "enter_p0",
    "enter_p10",
    "enter_p2",
    "a.b",
    "a-b",
    "a b",
    "9lives",
    "x{p0}",
    "x{",
    "x",
    "λ",
    "",
];
const LABELS: &[&str] = &["p0", "p1", "q\"uote", "a}b"];

mod model {
    use pctl_obs::stats::nearest_rank;
    use pctl_sim::Summary;
    use serde::Serialize;
    use std::collections::BTreeMap;

    /// Named `Metrics` so that its derived `Debug` text is comparable.
    #[derive(Debug, Default, Serialize)]
    pub struct Metrics {
        pub counters: BTreeMap<String, u64>,
        pub samples: BTreeMap<String, Vec<u64>>,
        #[serde(default, skip_serializing_if = "BTreeMap::is_empty")]
        pub gauges: BTreeMap<String, i64>,
    }

    impl Metrics {
        pub fn add(&mut self, name: &str, by: u64) {
            let c = self.counters.entry(name.to_owned()).or_insert(0);
            *c = c.saturating_add(by);
        }

        pub fn add_labeled(&mut self, name: &str, label: &str, by: u64) {
            self.add(&format!("{name}{{{label}}}"), by);
        }

        pub fn record(&mut self, name: &str, value: u64) {
            self.samples.entry(name.to_owned()).or_default().push(value);
        }

        pub fn set_gauge(&mut self, name: &str, value: i64) {
            self.gauges.insert(name.to_owned(), value);
        }

        pub fn merge(&mut self, other: &Metrics) {
            for (k, &v) in &other.counters {
                self.add(k, v);
            }
            for (k, v) in &other.samples {
                self.samples
                    .entry(k.clone())
                    .or_default()
                    .extend_from_slice(v);
            }
            for (k, &v) in &other.gauges {
                self.gauges.insert(k.clone(), v);
            }
        }

        pub fn summary(&self, name: &str) -> Option<Summary> {
            let mut sorted = self.samples.get(name)?.clone();
            if sorted.is_empty() {
                return None;
            }
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

        pub fn to_prometheus(&self, prefix: &str) -> String {
            let mut exp = pctl_obs::prom::Exposition::new();
            for (key, &v) in &self.counters {
                let (name, label) = match key.split_once('{') {
                    Some((name, rest)) => (name, rest.strip_suffix('}')),
                    None => (key.as_str(), None),
                };
                let family = format!("{prefix}{name}_total");
                match label {
                    Some(l) => {
                        exp.counter(&family, "Simulation counter", &[("label", l)], v as f64)
                    }
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
            for (name, s) in &self.samples {
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
}

/// One registry operation: `(kind, target, name, label, value)`. Kind 4
/// merges the second registry into the first.
type Op = (u8, usize, usize, usize, u64);

fn op() -> impl Strategy<Value = Op> {
    let value = (0u8..4, 0u64..1000).prop_map(|(k, v)| if k == 0 { u64::MAX - v } else { v });
    (0u8..5, 0usize..2, 0..NAMES.len(), 0..LABELS.len(), value)
}

fn apply(real: &mut [Metrics; 2], model: &mut [model::Metrics; 2], (kind, t, n, l, v): Op) {
    let (name, label) = (NAMES[n], LABELS[l]);
    match kind {
        0 => {
            real[t].add(name, v);
            model[t].add(name, v);
        }
        1 => {
            real[t].record(name, v);
            model[t].record(name, v);
        }
        2 => {
            real[t].add_labeled(name, label, v);
            model[t].add_labeled(name, label, v);
        }
        3 => {
            real[t].set_gauge(name, v as i64);
            model[t].set_gauge(name, v as i64);
        }
        _ => {
            let other = real[1].clone();
            real[0].merge(&other);
            let [a, b] = model;
            a.merge(b);
        }
    }
}

fn check(real: &Metrics, model: &model::Metrics) -> Result<(), TestCaseError> {
    for &name in NAMES {
        prop_assert_eq!(
            real.counter(name),
            model.counters.get(name).copied().unwrap_or(0)
        );
        for &label in LABELS {
            let key = format!("{name}{{{label}}}");
            prop_assert_eq!(
                real.counter_labeled(name, label),
                model.counters.get(&key).copied().unwrap_or(0)
            );
        }
        let want: &[u64] = model.samples.get(name).map_or(&[], Vec::as_slice);
        prop_assert_eq!(real.samples(name), want);
        prop_assert_eq!(real.summary(name), model.summary(name));
        prop_assert_eq!(real.gauge(name), model.gauges.get(name).copied());
    }
    let json = serde_json::to_string(real).unwrap();
    prop_assert_eq!(&json, &serde_json::to_string(model).unwrap());
    let back: Metrics = serde_json::from_str(&json).unwrap();
    prop_assert_eq!(serde_json::to_string(&back).unwrap(), json);
    prop_assert_eq!(format!("{real:?}"), format!("{model:?}"));
    prop_assert_eq!(
        real.to_prometheus("pctl_sim_"),
        model.to_prometheus("pctl_sim_")
    );
    let names: Vec<&str> = real.counter_names().collect();
    prop_assert_eq!(
        names,
        model
            .counters
            .keys()
            .map(String::as_str)
            .collect::<Vec<_>>()
    );
    let names: Vec<&str> = real.sample_names().collect();
    prop_assert_eq!(
        names,
        model.samples.keys().map(String::as_str).collect::<Vec<_>>()
    );
    let sums: Vec<(&str, Summary)> = real.summaries().collect();
    let want: Vec<(&str, Summary)> = model
        .samples
        .keys()
        .filter_map(|k| Some((k.as_str(), model.summary(k)?)))
        .collect();
    prop_assert_eq!(sums, want);
    Ok(())
}

proptest! {
    #[test]
    fn metrics_match_the_btreemap_model(ops in proptest::collection::vec(op(), 0..80)) {
        let mut real = [Metrics::default(), Metrics::default()];
        let mut model = [model::Metrics::default(), model::Metrics::default()];
        for op in ops {
            apply(&mut real, &mut model, op);
        }
        check(&real[0], &model[0])?;
        check(&real[1], &model[1])?;
    }
}
