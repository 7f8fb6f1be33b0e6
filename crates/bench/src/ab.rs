//! The regression gate: two builds of one benchmark, run interleaved.
//!
//! The `ab` binary runs two executables in [`PAIRS`] pairs, alternating
//! which side runs first, and reads each run's last stdout line, a
//! [`RunLine`]. This module judges every metric those runs print.
//!
//! A metric is judged by its declaration: whether lower or higher is
//! better, and an optional bound. A run line may declare both for a metric
//! (`bench_suite`'s does); a metric its run line leaves undeclared takes
//! its declaration from `BENCHMARK.json` (the end-to-end metrics with
//! their bounds, the per-layer ones without).
//!
//! Per pair, the ratio B/A is oriented so that a value above 1 is worse.
//! Pairing cancels the drift that interleaving spreads over both sides,
//! and the order statistics `r` and `k + 1 − r` of the `k` ratios bound
//! their median with at least [`CONFIDENCE`] (a sign-test interval, which
//! assumes nothing about the noise's shape). Ratios are taken only when
//! every value of both sides is positive. Then:
//!
//! * a metric in [`EXACT_UNIT`] is *exact*: it reads *changed* when B's
//!   value differs from A's in any pair, and *same* otherwise;
//! * a metric with a bound has *regressed* when the whole interval lies
//!   above `1 + bound`, is *unresolved* when the interval contains
//!   `1 + bound`, and is *ok* otherwise. It is also a *gain* when B wins
//!   at least nine tenths of the pairs and B's median beats A's by more
//!   than A's interquartile range;
//! * any other metric is an attribution row, with no verdict.
//!
//! A metric that reads 0 on every run of both sides belongs to a layer the
//! workload does not reach, and gets no row.

use pctl_obs::stats::nearest_rank;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Pairs of runs per invocation.
pub const PAIRS: usize = 10;

/// Least coverage of the sign-test interval.
pub const CONFIDENCE: f64 = 0.90;

/// The unit of an exact metric: a count that the code under test fixes,
/// so that any difference between the sides is a change of behaviour.
pub const EXACT_UNIT: &str = "count";

#[derive(Deserialize)]
struct Declared {
    name: String,
    better: String,
    bound: Option<f64>,
}

#[derive(Deserialize)]
struct Benchmark {
    end_to_end: Vec<Declared>,
    per_layer: Vec<Declared>,
}

/// `BENCHMARK.json`'s declaration of metric `name`: (better, bound).
fn benchmark_declaration(name: &str) -> Option<(String, Option<f64>)> {
    let declared: Benchmark = serde_json::from_str(include_str!("../../../BENCHMARK.json"))
        .expect("BENCHMARK.json declares its metrics");
    let mut all = declared.end_to_end.into_iter().chain(declared.per_layer);
    all.find(|d| d.name == name).map(|d| (d.better, d.bound))
}

/// One metric of a run line.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Measured value.
    pub value: f64,
    /// Its unit.
    pub unit: String,
    /// `lower` or `higher`: which is better, when the run line declares it.
    pub better: Option<String>,
    /// Fraction by which B may be worse than A, when the run line declares
    /// one.
    pub bound: Option<f64>,
}

/// The last stdout line of one benchmark run. perfbench prints all three
/// fields; `bench_suite` prints only `metrics`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunLine {
    /// Operations attempted.
    pub attempted: Option<u64>,
    /// Operations that failed.
    pub failed: Option<u64>,
    /// Metrics by name.
    pub metrics: BTreeMap<String, Metric>,
}

/// Read a run's [`RunLine`] from its stdout: the last non-empty line.
///
/// A run that exited non-zero is kept, as data, when that line reports
/// failed operations: perfbench prints its run line and then exits 1
/// whenever one failed, and a higher failed share on B is a regression.
/// Any other non-zero exit, and a line that is no run line, is an error.
pub fn read_run(exited_ok: bool, stdout: &str) -> Result<RunLine, String> {
    let line = stdout.lines().rev().find(|l| !l.trim().is_empty());
    let run = serde_json::from_str::<RunLine>(line.unwrap_or(""));
    if !exited_ok && !run.as_ref().is_ok_and(|r| r.failed.unwrap_or(0) > 0) {
        return Err("exited non-zero and reported no failed operation".into());
    }
    run.map_err(|e| match line {
        None => "printed nothing".into(),
        Some(_) => format!("printed a last line that is no run line: {e}"),
    })
}

/// Serialize a report as one JSON line, validated by parsing it back.
///
/// # Panics
/// Panics if the line does not round-trip.
pub fn json_line<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(report: &T) -> String {
    let json = serde_json::to_string(report).expect("report serializes");
    let back: T = serde_json::from_str(&json).expect("report JSON parses back");
    assert_eq!(&back, report, "report JSON must round-trip losslessly");
    json
}

/// A metric's verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// The interval lies below `1 + bound`.
    Ok,
    /// The interval contains `1 + bound`: the spread is too wide to tell.
    Unresolved,
    /// The whole interval lies above `1 + bound`.
    Regressed,
    /// An exact metric reads the same on both sides in every pair.
    Same,
    /// An exact metric reads differently on the sides in some pair.
    Changed,
}

/// The pair ratios of one metric.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Paired {
    /// Per pair, in run order: B/A oriented so that above 1 is worse.
    pub ratios: Vec<f64>,
    /// Median of `ratios`.
    pub median: f64,
    /// Sign-test interval of that median.
    pub interval: (f64, f64),
    /// Pairs in which B read better than A (ties count for neither).
    pub b_wins: usize,
}

/// The comparison of one metric.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricReport {
    /// Metric name.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// Fraction by which B may be worse than A; none for an exact metric
    /// or an attribution row.
    pub bound: Option<f64>,
    /// Side A's runs: (first quartile, median, third quartile).
    pub a: (f64, f64, f64),
    /// Side B's runs, likewise, after any injected slowdown.
    pub b: (f64, f64, f64),
    /// The pair ratios, when every value of both sides is positive.
    pub paired: Option<Paired>,
    /// The verdict; none for an attribution row.
    pub verdict: Option<Verdict>,
    /// A bounded metric on which B wins at least nine tenths of the pairs,
    /// and whose median on B beats A's by more than A's interquartile
    /// range.
    pub gain: bool,
}

/// The report of one `ab` invocation, printed as its last line.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AbReport {
    /// Pairs run.
    pub pairs: usize,
    /// Slowdown injected into side B (percent); non-zero only in gate
    /// self-tests.
    pub injected_slowdown_pct: f64,
    /// Operations each run of A attempted, in pair order (0 when the
    /// benchmark does not count them). perfbench's `peak_rss_mb` grows
    /// with the passes a run completes, so this explains its spread.
    pub a_attempted: Vec<u64>,
    /// Likewise for B.
    pub b_attempted: Vec<u64>,
    /// Failed over attempted operations, over all of A's runs.
    pub a_failed_share: f64,
    /// Likewise for B; above A's, it counts as a regression.
    pub b_failed_share: f64,
    /// One entry per metric the runs report, in name order, but for those
    /// in `not_reached`.
    pub metrics: Vec<MetricReport>,
    /// Metrics that read 0 on every run of both sides.
    pub not_reached: Vec<String>,
    /// Regressed and changed metrics, plus one if B's failed share is
    /// above A's.
    pub regressions: usize,
}

/// The rank `r` of the sign-test interval `[x(r), x(k+1−r)]` for the
/// median of `k` samples: the largest `r` whose coverage
/// `1 − 2·P(Bin(k, ½) < r)` is at least [`CONFIDENCE`], and at least 1.
pub fn sign_test_rank(k: usize) -> usize {
    let total = 2f64.powi(k as i32);
    // `choose` = C(k, j); `below` = 2^k · P(Bin(k, ½) ≤ j).
    let (mut choose, mut below, mut rank) = (1.0, 0.0, 1);
    for j in 0..k / 2 {
        below += choose;
        if 1.0 - 2.0 * below / total < CONFIDENCE {
            break;
        }
        rank = j + 1;
        choose = choose * (k - j) as f64 / (j + 1) as f64;
    }
    rank
}

/// (first quartile, median, third quartile), nearest-rank.
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |p| nearest_rank(&v, p);
    (q(25), q(50), q(75))
}

/// One side's readings of metric `name`; the error names the side and
/// pair of a run that lacks it or reads it as no finite number.
fn column<'r>(side: &str, runs: &'r [RunLine], name: &str) -> Result<Vec<&'r Metric>, String> {
    let metric = |(pair, run): (usize, &'r RunLine)| match run.metrics.get(name) {
        Some(m) if m.value.is_finite() => Ok(m),
        got => Err(format!(
            "side {side}, pair {}: {name} reads {:?}",
            pair + 1,
            got.map(|m| m.value)
        )),
    };
    runs.iter().enumerate().map(metric).collect()
}

/// Metric `name`'s declaration, from its readings on both sides: whether
/// lower is better, and its bound. Every run must declare it as side A's
/// first run does; the error names the first run that does not.
fn declaration(name: &str, a: &[&Metric], b: &[&Metric]) -> Result<(bool, Option<f64>), String> {
    let declared = |m: &Metric| (m.unit.clone(), m.better.clone(), m.bound);
    let first = declared(a[0]);
    for (side, column) in [("A", a), ("B", b)] {
        if let Some(pair) = column.iter().position(|m| declared(m) != first) {
            return Err(format!(
                "side {side}, pair {}: {name} is declared {:?}, but side A, pair 1 declares {first:?}",
                pair + 1,
                declared(column[pair])
            ));
        }
    }
    let (better, bound) = match first.1 {
        Some(better) => (better, first.2),
        None => benchmark_declaration(name).ok_or_else(|| {
            format!("{name} is declared neither by its run line nor by BENCHMARK.json")
        })?,
    };
    match better.as_str() {
        "lower" | "higher" => Ok((better == "lower", bound)),
        other => Err(format!("{name}: better is {other:?}, not lower or higher")),
    }
}

impl Paired {
    fn of(lower_is_better: bool, a: &[f64], b: &[f64]) -> Self {
        let ratios: Vec<f64> = a
            .iter()
            .zip(b)
            .map(|(a, b)| if lower_is_better { b / a } else { a / b })
            .collect();
        let mut sorted = ratios.clone();
        sorted.sort_by(f64::total_cmp);
        let (k, r) = (sorted.len(), sign_test_rank(sorted.len()));
        Paired {
            median: nearest_rank(&sorted, 50),
            interval: (sorted[r - 1], sorted[k - r]),
            b_wins: ratios.iter().filter(|&&r| r < 1.0).count(),
            ratios,
        }
    }
}

impl MetricReport {
    /// Judge one metric; the error names a bounded one that does not read
    /// positive on every run.
    fn of(
        name: String,
        unit: &str,
        lower_is_better: bool,
        bound: Option<f64>,
        a: &[f64],
        b: &[f64],
    ) -> Result<Self, String> {
        let positive = a.iter().chain(b).all(|&v| v > 0.0);
        let paired = positive.then(|| Paired::of(lower_is_better, a, b));
        let (qa, qb) = (quartiles(a), quartiles(b));
        let (mut verdict, mut gain) = (None, false);
        if unit == EXACT_UNIT {
            verdict = Some(if a == b {
                Verdict::Same
            } else {
                Verdict::Changed
            });
        } else if let Some(bound) = bound {
            let p = paired.as_ref().ok_or_else(|| {
                format!("{name} has a bound, so it must read positive on every run")
            })?;
            verdict = Some(match 1.0 + bound {
                limit if p.interval.0 > limit => Verdict::Regressed,
                limit if p.interval.1 >= limit => Verdict::Unresolved,
                _ => Verdict::Ok,
            });
            let better_by = if lower_is_better {
                qa.1 - qb.1
            } else {
                qb.1 - qa.1
            };
            gain = p.b_wins * 10 >= a.len() * 9 && better_by > qa.2 - qa.0;
        }
        Ok(MetricReport {
            name,
            unit: unit.into(),
            bound: bound.filter(|_| unit != EXACT_UNIT),
            a: qa,
            b: qb,
            paired,
            verdict,
            gain,
        })
    }
}

impl AbReport {
    /// Judge the runs of A and B, one of each per pair and in pair order,
    /// after scaling B's metrics `inject_slowdown_pct` percent in their
    /// worse direction.
    ///
    /// Every run must report each metric that any run reports, as a finite
    /// number, declared as side A's first run declares it; a bounded
    /// metric must read positive; and some metric must read other than 0.
    ///
    /// # Panics
    /// Panics if the sides ran different numbers of runs, or none.
    pub fn of(a: &[RunLine], b: &[RunLine], inject_slowdown_pct: f64) -> Result<AbReport, String> {
        assert!(
            !a.is_empty() && a.len() == b.len(),
            "one run per side per pair"
        );
        let slow = 1.0 + inject_slowdown_pct / 100.0;
        let names: BTreeSet<&String> = a.iter().chain(b).flat_map(|r| r.metrics.keys()).collect();
        let (mut metrics, mut not_reached) = (Vec::new(), Vec::new());
        for name in names {
            let (col_a, col_b) = (column("A", a, name)?, column("B", b, name)?);
            let (lower, bound) = declaration(name, &col_a, &col_b)?;
            let unit = &col_a[0].unit;
            let worse = if lower { slow } else { 1.0 / slow };
            let va: Vec<f64> = col_a.iter().map(|m| m.value).collect();
            let vb: Vec<f64> = col_b.iter().map(|m| m.value * worse).collect();
            if va.iter().chain(&vb).all(|&v| v == 0.0) {
                not_reached.push(name.clone());
                continue;
            }
            metrics.push(MetricReport::of(
                name.clone(),
                unit,
                lower,
                bound,
                &va,
                &vb,
            )?);
        }
        if metrics.is_empty() {
            return Err("the runs report no metric that reads other than 0".into());
        }
        let attempted = |runs: &[RunLine]| -> Vec<u64> {
            runs.iter().map(|r| r.attempted.unwrap_or(0)).collect()
        };
        let failed_share = |runs: &[RunLine]| {
            let failed: u64 = runs.iter().map(|r| r.failed.unwrap_or(0)).sum();
            failed as f64 / attempted(runs).iter().sum::<u64>().max(1) as f64
        };
        let (a_failed_share, b_failed_share) = (failed_share(a), failed_share(b));
        let regressed = metrics
            .iter()
            .filter(|m| matches!(m.verdict, Some(Verdict::Regressed | Verdict::Changed)));
        Ok(AbReport {
            pairs: a.len(),
            injected_slowdown_pct: inject_slowdown_pct,
            a_attempted: attempted(a),
            b_attempted: attempted(b),
            a_failed_share,
            b_failed_share,
            regressions: regressed.count() + usize::from(b_failed_share > a_failed_share),
            metrics,
            not_reached,
        })
    }

    /// The report as a Markdown table in the layout of the A/B tables in
    /// EXPERIMENTS.md, with a summary below it.
    pub fn render(&self) -> String {
        let r = sign_test_rank(self.pairs);
        let mut out = format!(
            "{} pairs, alternating which side ran first. Medians, with quartiles in brackets. \
             ratio = B/A, oriented so that above 1 is worse; its interval is order statistics \
             {r} and {} of the pair ratios (sign test, >= {:.0}%), taken when every value is \
             positive. A row with no verdict is attribution only.\n\n\
             | metric | A | B | ratio (interval) | B better | verdict |\n|---|---:|---:|---:|---:|---|\n",
            self.pairs,
            self.pairs + 1 - r,
            CONFIDENCE * 100.0
        );
        let spread = |(q1, median, q3)| format!("{} ({}–{})", num(median), num(q1), num(q3));
        for m in &self.metrics {
            let (ratio, wins) = match &m.paired {
                Some(p) => (
                    format!("{:.3}× ({:.3}–{:.3})", p.median, p.interval.0, p.interval.1),
                    format!("{}/{}", p.b_wins, self.pairs),
                ),
                None => ("–".into(), "–".into()),
            };
            let verdict = match (m.verdict, m.bound) {
                (None, _) => "–".to_string(),
                (Some(Verdict::Same), _) => "same (exact)".into(),
                (Some(Verdict::Changed), _) => "CHANGED (exact)".into(),
                (Some(v), bound) => format!(
                    "{} (bound {:.0}%){}",
                    match v {
                        Verdict::Ok => "ok",
                        Verdict::Unresolved => "unresolved",
                        _ => "REGRESSED",
                    },
                    bound.unwrap_or(0.0) * 100.0,
                    if m.gain { ", gain" } else { "" }
                ),
            };
            out += &format!(
                "| `{}` | {} | {} | {ratio} | {wins} | {verdict} |\n",
                m.name,
                spread(m.a),
                spread(m.b)
            );
        }
        if !self.not_reached.is_empty() {
            out += &format!(
                "\nnot reached (0 on every run): {}\n",
                self.not_reached.join(", ")
            );
        }
        let more_failed = self.b_failed_share > self.a_failed_share;
        out += &format!(
            "\nfailed share: A {:.6}, B {:.6}{}\nattempted per run: A {:?}, B {:?}\n",
            self.a_failed_share,
            self.b_failed_share,
            if more_failed { " REGRESSED" } else { "" },
            self.a_attempted,
            self.b_attempted
        );
        if self.injected_slowdown_pct != 0.0 {
            out += &format!("injected slowdown on B: {}%\n", self.injected_slowdown_pct);
        }
        out + &format!("{} regression(s)\n", self.regressions)
    }
}

/// Four significant digits below 1,000 in magnitude; whole numbers with
/// thousands separators from there up.
fn num(v: f64) -> String {
    let magnitude = v.abs();
    if magnitude < 1000.0 {
        let decimals = if magnitude == 0.0 {
            0
        } else {
            (3 - magnitude.log10().floor() as i32).max(0) as usize
        };
        return format!("{v:.decimals$}");
    }
    let digits = format!("{magnitude:.0}");
    let mut out = String::from(if v < 0.0 { "-" } else { "" });
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i) % 3 == 0 {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seven metrics, in the order their names sort, with which direction
    /// is better. [`run`] declares each with a 25% bound.
    const NAMES: [(&str, &str); 7] = [
        ("a_total_ms", "lower"),
        ("b_states_per_s", "higher"),
        ("c_p50_us", "lower"),
        ("d_p95_us", "lower"),
        ("e_construct_us", "lower"),
        ("f_control_us", "lower"),
        ("g_pruning_ratio", "higher"),
    ];

    /// A metric as a run line prints it.
    fn metric(value: f64, unit: &str, better: Option<&str>, bound: Option<f64>) -> Metric {
        let (unit, better) = (unit.to_string(), better.map(str::to_string));
        Metric {
            value,
            unit,
            better,
            bound,
        }
    }

    /// A run line of `metrics`.
    fn line<'n>(metrics: impl IntoIterator<Item = (&'n str, Metric)>) -> RunLine {
        let metrics = metrics.into_iter().map(|(n, m)| (n.to_string(), m));
        RunLine {
            attempted: None,
            failed: None,
            metrics: metrics.collect(),
        }
    }

    /// A run line with `values` under the first names of [`NAMES`].
    fn run(values: &[f64]) -> RunLine {
        let declared = |(&(name, better), &v): (&(&'static str, &str), &f64)| {
            (name, metric(v, "u", Some(better), Some(0.25)))
        };
        line(NAMES.iter().zip(values).map(declared))
    }

    fn paired(m: &MetricReport) -> &Paired {
        m.paired.as_ref().expect("every value is positive")
    }

    const BASE: [f64; 7] = [100.0, 1e6, 1000.0, 2000.0, 120.0, 60.0, 25.0];

    /// Judge ten pairs: A reads [`BASE`], B reads it scaled per metric by
    /// `factor`, and both wobble by up to ±1% from pair to pair.
    fn judge(factor: [f64; 7], inject: f64) -> AbReport {
        let side = |scale: [f64; 7], shift: usize| -> Vec<RunLine> {
            let wobble = |i: usize| 1.0 + (((i + shift) % PAIRS) as f64 - 4.5) / 450.0;
            let values = |i| BASE.iter().zip(scale).map(move |(v, s)| v * s * wobble(i));
            (0..PAIRS)
                .map(|i| run(&values(i).collect::<Vec<_>>()))
                .collect()
        };
        AbReport::of(&side([1.0; 7], 0), &side(factor, 3), inject).unwrap()
    }

    fn verdicts(r: &AbReport) -> Vec<Verdict> {
        let verdict = |m: &MetricReport| m.verdict.expect("a bounded metric");
        r.metrics.iter().map(verdict).collect()
    }

    #[test]
    fn the_interval_is_the_2nd_to_9th_of_ten() {
        // Coverage 1 − 2·11/1024 ≈ 97.9% at r = 2; r = 3 would give
        // 1 − 2·56/1024 ≈ 89.1%, under 90%.
        assert_eq!(sign_test_rank(10), 2);
        assert_eq!(sign_test_rank(20), 6);
        assert_eq!(sign_test_rank(4), 1);
        let a = vec![run(&[100.0]); PAIRS];
        let b: Vec<_> = (1..=PAIRS)
            .rev()
            .map(|i| run(&[100.0 + i as f64]))
            .collect();
        let r = AbReport::of(&a, &b, 0.0).unwrap();
        let p = paired(&r.metrics[0]);
        assert_eq!((p.interval, p.median), ((1.02, 1.09), 1.05));
        assert_eq!(p.ratios[0], 1.1, "ratios stay in pair order");
    }

    #[test]
    fn a_change_within_the_bound_passes_in_both_directions() {
        // 10% worse on every metric, each in its own direction.
        let r = judge([1.1, 1.0 / 1.1, 1.1, 1.1, 1.1, 1.1, 1.0 / 1.1], 0.0);
        assert_eq!(verdicts(&r), [Verdict::Ok; 7], "{r:?}");
        assert!(r.metrics.iter().all(|m| paired(m).b_wins == 0 && !m.gain));
        // Twice as fast never regresses, and reads as a gain.
        let r = judge([0.5, 2.0, 0.5, 0.5, 0.5, 0.5, 2.0], 0.0);
        assert_eq!(r.regressions, 0);
        assert!(r.metrics.iter().all(|m| m.gain && paired(m).median < 0.6));
    }

    #[test]
    fn a_change_past_the_bound_is_flagged() {
        // 50% slower on the first four; the rest unchanged.
        let r = judge([1.5, 1.0 / 1.5, 1.5, 1.5, 1.0, 1.0, 1.0], 0.0);
        assert_eq!(verdicts(&r)[..4], [Verdict::Regressed; 4], "{r:?}");
        assert_eq!(
            (verdicts(&r)[4..].to_vec(), r.regressions),
            (vec![Verdict::Ok; 3], 4)
        );
        assert!((paired(&r.metrics[0]).median - 1.5).abs() < 0.03);
    }

    #[test]
    fn each_metric_is_judged_in_its_own_direction() {
        // A doubled time regresses (lower is better), and so does a
        // collapsed ratio (higher is better).
        let r = judge([1.0, 1.0, 1.0, 1.0, 2.0, 1.0, 0.2], 0.0);
        let ok = Verdict::Ok;
        assert_eq!(
            verdicts(&r),
            [ok, ok, ok, ok, Verdict::Regressed, ok, Verdict::Regressed]
        );
        // A doubled throughput or ratio is a gain.
        let r = judge([1.0, 2.0, 1.0, 1.0, 1.0, 1.0, 2.0], 0.0);
        let gains: Vec<bool> = r.metrics.iter().map(|m| m.gain).collect();
        assert_eq!(gains, [false, true, false, false, false, false, true]);
    }

    #[test]
    fn injection_worsens_every_metric_and_the_report_round_trips() {
        let (clean, slowed) = (judge([1.0; 7], 0.0), judge([1.0; 7], 30.0));
        assert_eq!((clean.regressions, slowed.regressions), (0, 7));
        for (m, c) in slowed.metrics.iter().zip(&clean.metrics) {
            let ratio = paired(m).median / paired(c).median;
            assert!((ratio - 1.3).abs() < 1e-9, "{m:?}");
        }
        // B's times are multiplied, its throughput divided.
        assert!(slowed.metrics[0].b.1 > clean.metrics[0].b.1);
        assert!(slowed.metrics[1].b.1 < clean.metrics[1].b.1);
        let back: AbReport = serde_json::from_str(&json_line(&slowed)).unwrap();
        assert_eq!(back, slowed);
        let table = slowed.render();
        let rows = table
            .lines()
            .filter(|l| l.contains("REGRESSED (bound 25%)"));
        assert_eq!(rows.count(), 7, "{table}");
        assert_eq!(
            (num(0.09031), num(2_255_123.0), num(-1234.6), num(0.0)),
            (
                "0.09031".into(),
                "2,255,123".into(),
                "-1,235".into(),
                "0".into()
            )
        );
    }

    #[test]
    fn a_wide_spread_is_unresolved_not_regressed() {
        // Median ratio 1.3, past a 25% bound, but two pairs read better
        // than A: the interval reaches below 1.25.
        let ratios = [1.3, 0.9, 1.3, 1.35, 1.2, 1.3, 1.4, 0.95, 1.3, 1.5];
        let a = vec![run(&[100.0]); PAIRS];
        let b = |floor: f64| -> Vec<RunLine> {
            ratios
                .iter()
                .map(|r: &f64| run(&[100.0 * r.max(floor)]))
                .collect()
        };
        let wide = AbReport::of(&a, &b(0.0), 0.0).unwrap();
        assert_eq!(
            (wide.metrics[0].verdict, wide.regressions),
            (Some(Verdict::Unresolved), 0)
        );
        // Lift the low pairs past the bound and it regresses.
        let narrow = AbReport::of(&a, &b(1.26), 0.0).unwrap();
        assert_eq!(narrow.metrics[0].verdict, Some(Verdict::Regressed));
    }

    #[test]
    fn a_run_that_failed_operations_is_data_and_any_other_failure_an_error() {
        let counted = r#"{"correct":false,"attempted":9,"failed":1,"metrics":{}}"#;
        let clean = r#"{"attempted":9,"failed":0,"metrics":{}}"#;
        let table = format!("table\n{counted}\n\n");
        assert_eq!(read_run(false, &table).unwrap().failed, Some(1));
        assert_eq!(read_run(true, clean).unwrap().failed, Some(0));
        // A non-zero exit without failed operations, or no run line.
        for stdout in [clean, "{}", ""] {
            assert!(read_run(false, stdout).is_err(), "{stdout:?}");
        }
        assert!(read_run(true, "{}").is_err());
        assert_eq!(read_run(true, "").unwrap_err(), "printed nothing");
    }

    #[test]
    fn more_failures_on_b_regress_and_runs_must_agree_on_every_metric() {
        let counted = |attempted, failed| RunLine {
            attempted: Some(attempted),
            failed: Some(failed),
            ..run(&[1.0])
        };
        let a = vec![counted(100, 0); PAIRS];
        let mut b = a.clone();
        b[3] = counted(80, 1);
        let r = AbReport::of(&a, &b, 0.0).unwrap();
        assert_eq!((r.regressions, r.b_attempted[3]), (1, 80));
        assert!(r.render().contains("B 0.001020 REGRESSED"));
        b[3] = run(&[]);
        let e = AbReport::of(&a, &b, 0.0).unwrap_err();
        assert_eq!(e, "side B, pair 4: a_total_ms reads None");
        // A bounded metric must read positive.
        b[3] = run(&[0.0]);
        let e = AbReport::of(&a, &b, 0.0).unwrap_err();
        assert!(e.starts_with("a_total_ms has a bound"), "{e}");
        // B may not flip the direction A declares.
        b[3] = run(&[1.0]);
        b[3].metrics.get_mut("a_total_ms").unwrap().better = Some("higher".into());
        let e = AbReport::of(&a, &b, 0.0).unwrap_err();
        assert!(
            e.starts_with("side B, pair 4: a_total_ms is declared"),
            "{e}"
        );
        let none = vec![run(&[]); PAIRS];
        assert!(AbReport::of(&none, &none, 0.0).is_err());
    }

    #[test]
    fn declarations_come_from_the_run_line_then_the_benchmark() {
        // BENCHMARK.json gives undeclared end-to-end metrics its bounds and
        // per-layer ones none, and a `count` is exact.
        let undeclared = |name, unit| (name, metric(2.0, unit, None, None));
        let a = vec![
            line([
                undeclared("deposet.index_us", "us"),
                undeclared("deposet.states", EXACT_UNIT),
                ("mine", metric(2.0, "x", Some("higher"), Some(0.5))),
                undeclared("peak_rss_mb", "MiB"),
            ]);
            PAIRS
        ];
        let mut b = a.clone();
        b.iter_mut()
            .for_each(|run| run.metrics.values_mut().for_each(|m| m.value = 3.0));
        // B's count differs from A's in the first pair only.
        b.iter_mut()
            .skip(1)
            .for_each(|run| run.metrics.get_mut("deposet.states").unwrap().value = 2.0);
        let r = AbReport::of(&a, &b, 0.0).unwrap();
        let bounds: Vec<Option<f64>> = r.metrics.iter().map(|m| m.bound).collect();
        assert_eq!(bounds, [None, None, Some(0.5), Some(0.15)]);
        let verdicts: Vec<Option<Verdict>> = r.metrics.iter().map(|m| m.verdict).collect();
        let changed = Some(Verdict::Changed);
        let (ok, regressed) = (Some(Verdict::Ok), Some(Verdict::Regressed));
        assert_eq!(verdicts, [None, changed, ok, regressed]);
        assert_eq!((paired(&r.metrics[0]).median, r.regressions), (1.5, 2));
        assert!(r.render().contains("| CHANGED (exact) |"));
        // A metric that neither declares, or a direction other than lower
        // or higher, cannot be judged.
        let mystery = vec![line([undeclared("mystery", "us")]); PAIRS];
        let e = AbReport::of(&mystery, &mystery, 0.0).unwrap_err();
        assert!(e.starts_with("mystery is declared neither"), "{e}");
        let sideways = vec![line([("x", metric(1.0, "us", Some("up"), None))]); PAIRS];
        assert!(AbReport::of(&sideways, &sideways, 0.0).is_err());
    }

    #[test]
    fn traced_runs_are_attributed_without_a_verdict() {
        // Per-layer metrics only, none bounded. A layer at 0 everywhere
        // gets no row, and a share that reads negative gets a row without
        // ratios.
        let traced = |i: usize| {
            let share = if i.is_multiple_of(2) { -0.0012 } else { 0.003 };
            line([
                ("deposet.index_us", metric(7.0 + i as f64, "us", None, None)),
                ("sim.run_us", metric(0.0, "us", None, None)),
                ("trace_overhead_share", metric(share, "share", None, None)),
            ])
        };
        let a: Vec<RunLine> = (0..PAIRS).map(traced).collect();
        let b: Vec<RunLine> = (0..PAIRS).rev().map(traced).collect();
        let r = AbReport::of(&a, &b, 0.0).unwrap();
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["deposet.index_us", "trace_overhead_share"]);
        assert_eq!(
            (&r.not_reached[..], r.regressions),
            (&["sim.run_us".into()][..], 0)
        );
        assert!(r.metrics.iter().all(|m| m.verdict.is_none() && !m.gain));
        assert!(r.metrics[0].paired.is_some() && r.metrics[1].paired.is_none());
        let table = r.render();
        let row = "| `trace_overhead_share` | -0.001200 (-0.001200–0.003000) |";
        assert!(table.contains(row), "{table}");
        assert!(table.contains("| – | – | – |\n"), "{table}");
        assert!(table.contains("not reached (0 on every run): sim.run_us"));
        let back: AbReport = serde_json::from_str(&json_line(&r)).unwrap();
        assert_eq!(back, r);
    }
}
