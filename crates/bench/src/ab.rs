//! The regression gate: two builds of one benchmark, run interleaved.
//!
//! The `ab` binary runs two executables in [`PAIRS`] pairs, alternating
//! which side runs first, and reads each run's last stdout line, a
//! [`RunLine`]. This module judges those runs.
//!
//! Each gated metric is judged by its per-pair ratio B/A, oriented so that
//! a value above 1 is worse. Pairing cancels the drift that interleaving
//! spreads over both sides, and the order statistics `r` and `k + 1 − r`
//! of the `k` ratios bound their median with at least [`CONFIDENCE`] (a
//! sign-test interval, which assumes nothing about the noise's shape). A
//! metric has *regressed* when the whole interval lies above `1 + bound`,
//! is *unresolved* when the interval contains `1 + bound`, and is *ok*
//! otherwise. It is also a *gain* when B wins at least nine tenths of the
//! pairs and B's median beats A's by more than A's interquartile range.

use pctl_obs::stats::nearest_rank;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Pairs of runs per invocation.
pub const PAIRS: usize = 10;

/// Least coverage of the sign-test interval.
pub const CONFIDENCE: f64 = 0.90;

/// The `bench_suite` metrics the gate checks, each with whether lower is
/// better. Each may worsen by [`SUITE_BOUND`].
pub const SUITE: [(&str, bool); 7] = [
    ("sweep_total_ms", true),
    ("sweep_states_per_sec", false),
    ("sweep_per_seed_p50_us", true),
    ("sweep_per_seed_p95_us", true),
    ("slicing_construct_p50_us", true),
    ("slicing_control_p50_us", true),
    // Deterministic for the fixed workload: a drop means the slice got
    // less selective, which is a correctness smell as much as a perf one.
    ("slicing_pruning_ratio", false),
];

/// How much worse than A a [`SUITE`] metric may read before it regresses.
pub const SUITE_BOUND: f64 = 0.25;

#[derive(Deserialize)]
struct Declared {
    name: String,
    better: String,
    bound: f64,
}

#[derive(Deserialize)]
struct Benchmark {
    end_to_end: Vec<Declared>,
}

/// Every gated metric as (name, lower is better, bound): the end-to-end
/// metrics `BENCHMARK.json` declares, with its bounds, then [`SUITE`].
pub fn gates() -> Vec<(String, bool, f64)> {
    let declared: Benchmark = serde_json::from_str(include_str!("../../../BENCHMARK.json"))
        .expect("BENCHMARK.json declares its end-to-end metrics");
    let benchmark = declared.end_to_end.into_iter().map(|d| {
        assert!(
            ["lower", "higher"].contains(&d.better.as_str()),
            "{}",
            d.name
        );
        (d.name, d.better == "lower", d.bound)
    });
    let suite = SUITE.map(|(name, lower)| (name.to_string(), lower, SUITE_BOUND));
    benchmark.chain(suite).collect()
}

/// One metric of a run line.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Measured value.
    pub value: f64,
    /// Its unit.
    pub unit: String,
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

/// A metric's verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// The interval lies below `1 + bound`.
    Ok,
    /// The interval contains `1 + bound`: the spread is too wide to tell.
    Unresolved,
    /// The whole interval lies above `1 + bound`.
    Regressed,
}

/// The comparison of one gated metric.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricReport {
    /// Metric name.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// Fraction by which B may be worse than A.
    pub bound: f64,
    /// Side A's runs: (first quartile, median, third quartile).
    pub a: (f64, f64, f64),
    /// Side B's runs, likewise, after any injected slowdown.
    pub b: (f64, f64, f64),
    /// Per pair, in run order: B/A oriented so that above 1 is worse.
    pub ratios: Vec<f64>,
    /// Median of `ratios`.
    pub ratio_median: f64,
    /// Sign-test interval of that median.
    pub interval: (f64, f64),
    /// Pairs in which B read better than A (ties count for neither).
    pub b_wins: usize,
    /// The verdict against `bound`.
    pub verdict: Verdict,
    /// B wins at least nine tenths of the pairs, and its median beats A's
    /// by more than A's interquartile range.
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
    /// One entry per gated metric the runs report.
    pub metrics: Vec<MetricReport>,
    /// Regressed metrics, plus one if B's failed share is above A's.
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

/// One side's values of metric `name`; the error names the side and pair
/// of a run that lacks it or reads it as anything but a positive number.
fn values(side: &str, runs: &[RunLine], name: &str) -> Result<Vec<f64>, String> {
    let value = |(pair, run): (usize, &RunLine)| match run.metrics.get(name) {
        Some(m) if m.value.is_finite() && m.value > 0.0 => Ok(m.value),
        got => Err(format!(
            "side {side}, pair {}: {name} reads {got:?}",
            pair + 1
        )),
    };
    runs.iter().enumerate().map(value).collect()
}

impl MetricReport {
    fn of(
        name: String,
        lower_is_better: bool,
        bound: f64,
        unit: &str,
        a: &[f64],
        b: &[f64],
    ) -> Self {
        let ratios: Vec<f64> = a
            .iter()
            .zip(b)
            .map(|(a, b)| if lower_is_better { b / a } else { a / b })
            .collect();
        let mut sorted = ratios.clone();
        sorted.sort_by(f64::total_cmp);
        let (k, r) = (sorted.len(), sign_test_rank(sorted.len()));
        let interval = (sorted[r - 1], sorted[k - r]);
        let verdict = match 1.0 + bound {
            limit if interval.0 > limit => Verdict::Regressed,
            limit if interval.1 >= limit => Verdict::Unresolved,
            _ => Verdict::Ok,
        };
        let b_wins = ratios.iter().filter(|&&r| r < 1.0).count();
        let (a, b) = (quartiles(a), quartiles(b));
        let better_by = if lower_is_better {
            a.1 - b.1
        } else {
            b.1 - a.1
        };
        MetricReport {
            name,
            unit: unit.into(),
            bound,
            gain: b_wins * 10 >= k * 9 && better_by > a.2 - a.0,
            a,
            b,
            ratio_median: nearest_rank(&sorted, 50),
            ratios,
            interval,
            b_wins,
            verdict,
        }
    }
}

impl AbReport {
    /// Judge the runs of A and B, one of each per pair and in pair order,
    /// after scaling B's metrics `inject_slowdown_pct` percent in their
    /// worse direction.
    ///
    /// Every run must report each gated metric that any run reports, as a
    /// positive number, and at least one gated metric must be reported;
    /// the error names the side and pair that does not.
    ///
    /// # Panics
    /// Panics if the sides ran different numbers of runs, or none.
    pub fn of(a: &[RunLine], b: &[RunLine], inject_slowdown_pct: f64) -> Result<AbReport, String> {
        assert!(
            !a.is_empty() && a.len() == b.len(),
            "one run per side per pair"
        );
        let slow = 1.0 + inject_slowdown_pct / 100.0;
        let mut metrics = Vec::new();
        for (name, lower, bound) in gates() {
            let Some(m) = a.iter().chain(b).find_map(|run| run.metrics.get(&name)) else {
                continue;
            };
            let worse = if lower { slow } else { 1.0 / slow };
            let b: Vec<f64> = values("B", b, &name)?.iter().map(|v| v * worse).collect();
            let a = values("A", a, &name)?;
            metrics.push(MetricReport::of(name, lower, bound, &m.unit, &a, &b));
        }
        if metrics.is_empty() {
            return Err("the runs report no gated metric".into());
        }
        let attempted = |runs: &[RunLine]| -> Vec<u64> {
            runs.iter().map(|r| r.attempted.unwrap_or(0)).collect()
        };
        let failed_share = |runs: &[RunLine]| {
            let failed: u64 = runs.iter().map(|r| r.failed.unwrap_or(0)).sum();
            failed as f64 / attempted(runs).iter().sum::<u64>().max(1) as f64
        };
        let (a_failed_share, b_failed_share) = (failed_share(a), failed_share(b));
        let regressed = metrics.iter().filter(|m| m.verdict == Verdict::Regressed);
        Ok(AbReport {
            pairs: a.len(),
            injected_slowdown_pct: inject_slowdown_pct,
            a_attempted: attempted(a),
            b_attempted: attempted(b),
            a_failed_share,
            b_failed_share,
            regressions: regressed.count() + usize::from(b_failed_share > a_failed_share),
            metrics,
        })
    }

    /// The report as a Markdown table in the layout of the A/B tables in
    /// EXPERIMENTS.md, with a summary below it.
    pub fn render(&self) -> String {
        let r = sign_test_rank(self.pairs);
        let mut out = format!(
            "{} pairs, alternating which side ran first. Medians, with quartiles in brackets. \
             ratio = B/A, oriented so that above 1 is worse; its interval is order statistics \
             {r} and {} of the pair ratios (sign test, >= {:.0}%).\n\n\
             | metric | A | B | ratio (interval) | B better | verdict |\n|---|---:|---:|---:|---:|---|\n",
            self.pairs,
            self.pairs + 1 - r,
            CONFIDENCE * 100.0
        );
        let spread = |(q1, median, q3)| format!("{} ({}–{})", num(median), num(q1), num(q3));
        for m in &self.metrics {
            let verdict = match m.verdict {
                Verdict::Ok => "ok",
                Verdict::Unresolved => "unresolved",
                Verdict::Regressed => "REGRESSED",
            };
            out += &format!(
                "| `{}` | {} | {} | {:.3}× ({:.3}–{:.3}) | {}/{} | {verdict} (bound {:.0}%){} |\n",
                m.name,
                spread(m.a),
                spread(m.b),
                m.ratio_median,
                m.interval.0,
                m.interval.1,
                m.b_wins,
                self.pairs,
                m.bound * 100.0,
                if m.gain { ", gain" } else { "" }
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

/// Four significant digits below 1,000; whole numbers with thousands
/// separators from there up.
fn num(v: f64) -> String {
    if v < 1000.0 {
        let decimals = (3 - v.log10().floor() as i32).max(0) as usize;
        return format!("{v:.decimals$}");
    }
    let digits = format!("{v:.0}");
    let mut out = String::new();
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

    /// A run line with `values` under the first names of [`SUITE`].
    fn run(values: &[f64]) -> RunLine {
        let metric = |(&(name, _), &value): (&(&str, bool), &f64)| {
            let unit = "u".to_string();
            (name.to_string(), Metric { value, unit })
        };
        let metrics = SUITE.iter().zip(values).map(metric).collect();
        RunLine {
            attempted: None,
            failed: None,
            metrics,
        }
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
        r.metrics.iter().map(|m| m.verdict).collect()
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
        let m = &AbReport::of(&a, &b, 0.0).unwrap().metrics[0];
        assert_eq!((m.interval, m.ratio_median), ((1.02, 1.09), 1.05));
        assert_eq!(m.ratios[0], 1.1, "ratios stay in pair order");
    }

    #[test]
    fn a_change_within_the_bound_passes_in_both_directions() {
        // 10% worse on every metric, each in its own direction.
        let r = judge([1.1, 1.0 / 1.1, 1.1, 1.1, 1.1, 1.1, 1.0 / 1.1], 0.0);
        assert_eq!(verdicts(&r), [Verdict::Ok; 7], "{r:?}");
        assert!(r.metrics.iter().all(|m| m.b_wins == 0 && !m.gain));
        // Twice as fast never regresses, and reads as a gain.
        let r = judge([0.5, 2.0, 0.5, 0.5, 0.5, 0.5, 2.0], 0.0);
        assert_eq!(r.regressions, 0);
        assert!(r.metrics.iter().all(|m| m.gain && m.ratio_median < 0.6));
    }

    #[test]
    fn a_change_past_the_bound_is_flagged() {
        // 50% slower on the sweep; slicing unchanged.
        let r = judge([1.5, 1.0 / 1.5, 1.5, 1.5, 1.0, 1.0, 1.0], 0.0);
        assert_eq!(verdicts(&r)[..4], [Verdict::Regressed; 4], "{r:?}");
        assert_eq!(
            (verdicts(&r)[4..].to_vec(), r.regressions),
            (vec![Verdict::Ok; 3], 4)
        );
        assert!((r.metrics[0].ratio_median - 1.5).abs() < 0.03);
    }

    #[test]
    fn each_metric_is_judged_in_its_own_direction() {
        // Doubled slice construction regresses (lower is better), and so
        // does a collapsed pruning ratio (higher is better).
        let r = judge([1.0, 1.0, 1.0, 1.0, 2.0, 1.0, 0.2], 0.0);
        let ok = Verdict::Ok;
        assert_eq!(
            verdicts(&r),
            [ok, ok, ok, ok, Verdict::Regressed, ok, Verdict::Regressed]
        );
        // A doubled throughput or pruning ratio is a gain.
        let r = judge([1.0, 2.0, 1.0, 1.0, 1.0, 1.0, 2.0], 0.0);
        let gains: Vec<bool> = r.metrics.iter().map(|m| m.gain).collect();
        assert_eq!(gains, [false, true, false, false, false, false, true]);
    }

    #[test]
    fn injection_worsens_every_metric_and_the_report_round_trips() {
        let (clean, slowed) = (judge([1.0; 7], 0.0), judge([1.0; 7], 30.0));
        assert_eq!((clean.regressions, slowed.regressions), (0, 7));
        for (m, c) in slowed.metrics.iter().zip(&clean.metrics) {
            assert!(
                (m.ratio_median / c.ratio_median - 1.3).abs() < 1e-9,
                "{m:?}"
            );
        }
        // B's times are multiplied, its throughput divided.
        assert!(slowed.metrics[0].b.1 > clean.metrics[0].b.1);
        assert!(slowed.metrics[1].b.1 < clean.metrics[1].b.1);
        let back: AbReport = serde_json::from_str(&crate::report::json_line(&slowed)).unwrap();
        assert_eq!(back, slowed);
        let table = slowed.render();
        let rows = table
            .lines()
            .filter(|l| l.contains("REGRESSED (bound 25%)"));
        assert_eq!(rows.count(), 7, "{table}");
        assert_eq!(
            (num(0.09031), num(2_255_123.0)),
            ("0.09031".into(), "2,255,123".into())
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
            (Verdict::Unresolved, 0)
        );
        // Lift the low pairs past the bound and it regresses.
        let narrow = AbReport::of(&a, &b(1.26), 0.0).unwrap();
        assert_eq!(narrow.metrics[0].verdict, Verdict::Regressed);
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
    fn more_failures_on_b_regress_and_runs_must_carry_every_metric() {
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
        assert_eq!(e, "side B, pair 4: sweep_total_ms reads None");
        b[3] = run(&[0.0]);
        assert!(AbReport::of(&a, &b, 0.0).is_err());
        let none = vec![run(&[]); PAIRS];
        assert!(AbReport::of(&none, &none, 0.0).is_err());
    }

    #[test]
    fn gates_are_the_benchmarks_then_the_suites() {
        let gates = gates();
        let names: Vec<&str> = gates.iter().map(|g| g.0.as_str()).collect();
        assert_eq!((names[0], names[4]), ("setup_s", "peak_rss_mb"));
        assert_eq!(names[5..], SUITE.map(|(n, _)| n));
        assert_eq!((gates[1].1, gates[4].1, gates[4].2), (false, true, 0.15));
    }
}
