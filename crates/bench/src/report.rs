//! Machine-readable bench reports (`BENCH_offline.json`, `BENCH_sweep.json`).
//!
//! Every harness run of `bench_suite` persists its numbers in a stable JSON
//! schema so the perf trajectory of the repository is recorded PR over PR.
//! The schema is round-trip tested: a report is only written after it parses
//! back identically, so a committed `BENCH_*.json` is valid by construction
//! (the CI bench-smoke job re-validates on every push).

use pctl_obs::stats::Percentiles;
use serde::{Deserialize, Serialize};

/// Schema tag written into every report.
pub const SCHEMA: &str = "pctl-bench-v1";

/// Wall-time summary of repeated measurements, in fractional
/// microseconds (sampled at nanosecond resolution, so a sub-µs case does
/// not read 0).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WallStats {
    /// Number of samples.
    pub reps: usize,
    /// Smallest sample (µs).
    pub min_us: f64,
    /// 50th percentile (µs, nearest-rank).
    pub p50_us: f64,
    /// 95th percentile (µs, nearest-rank).
    pub p95_us: f64,
    /// Largest sample (µs).
    pub max_us: f64,
}

impl WallStats {
    /// Summarize a series of wall times in **nanoseconds**.
    ///
    /// # Panics
    /// Panics if `samples_ns` is empty.
    pub fn of(samples_ns: &[u64]) -> WallStats {
        let p = Percentiles::of(samples_ns).expect("at least one sample");
        let us = |ns: u64| ns as f64 / 1e3;
        WallStats {
            reps: p.count,
            min_us: us(p.min),
            p50_us: us(p.p50),
            p95_us: us(p.p95),
            max_us: us(p.max),
        }
    }
}

/// One measured configuration of the off-line control algorithm.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OfflineCase {
    /// Case label, e.g. `cs_n8_p16/optimized`.
    pub name: String,
    /// ValidPairs engine (`optimized` / `naive`).
    pub engine: String,
    /// Process count `n`.
    pub processes: usize,
    /// False intervals per process (the paper's `p`).
    pub intervals_per_process: usize,
    /// Total local states in the workload.
    pub states: usize,
    /// Wall-time distribution of (interval extraction + control synthesis).
    pub wall: WallStats,
    /// States processed per second at the median wall time.
    pub states_per_sec: f64,
    /// Synthesized control tuples (`|C→|`), 0 when infeasible.
    pub control_tuples: usize,
    /// Whether the instance was feasible.
    pub feasible: bool,
}

/// The pathological many-intervals `find_overlap` case: the worklist
/// search over `T` total intervals that the quadratic rescan made `O(T·n²)`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OverlapCase {
    /// Workload label.
    pub workload: String,
    /// Process count `n`.
    pub processes: usize,
    /// Total local states.
    pub states: usize,
    /// Total false intervals across all processes (the paper's `T`).
    pub intervals_total: usize,
    /// Wall-time distribution of `find_overlap` alone.
    pub wall: WallStats,
    /// Whether an overlapping set (infeasibility witness) exists.
    pub found: bool,
}

/// The `streaming` section: what request telemetry and the flight
/// recorder cost the daemon's append path. One computation is appended
/// over loopback TCP to three daemons — the default config, telemetry off,
/// flight off — interleaved per append in rotating order, so drift on the
/// host reaches every configuration alike. End-to-end daemon latency is
/// not measured here: perfbench's `stream_mixed` workload owns it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StreamingBench {
    /// Workload label, e.g. `random_n4_e1200`.
    pub workload: String,
    /// Process count of the streamed computation.
    pub processes: usize,
    /// Appends per round and configuration.
    pub events: usize,
    /// Rounds; each streams the computation into a fresh session on every
    /// daemon.
    pub rounds: usize,
    /// Append throughput with the default config (telemetry and flight
    /// recorder on) at its median round trip (client → TCP → enqueue →
    /// ack), events per second.
    pub append_events_per_sec: f64,
    /// Append throughput with `Config::telemetry = false`, likewise.
    pub append_events_per_sec_telemetry_off: f64,
    /// Append throughput with `Config::flight = false`, likewise.
    pub append_events_per_sec_flight_off: f64,
    /// Percent more time the default config's append round trip takes
    /// than the telemetry-off one sent beside it: the median over rounds
    /// of each round's median per-append ratio.
    pub telemetry_overhead_pct: f64,
    /// Percent more time the default config's append round trip takes
    /// than the flight-off one sent beside it, likewise: the input of the
    /// flight recorder's 5% budget.
    pub flight_overhead_pct: f64,
}

/// The `slicing` section: what the computation-slicing fast path buys on a
/// regular (conjunctive-of-locals) predicate. `pruning_ratio` is the
/// honest headline — consistent cuts in the full lattice over consistent
/// cuts surviving in the slice, both counted by exhaustive (budgeted)
/// enumeration, so an "exponential pruning" claim is a measured number.
/// The sliced and unsliced timings answer the *same* question: find a
/// satisfying cut of the violation (the sliced path additionally
/// synthesizes the control relation; the unsliced path is the brute-force
/// lattice BFS, the only way to answer without a slice).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SlicingBench {
    /// Workload label, e.g. `cs_n4_p8`.
    pub workload: String,
    /// Process count of the sliced computation.
    pub processes: usize,
    /// Total local states.
    pub states: usize,
    /// Consistent cuts in the full lattice (exhaustive count).
    pub lattice_cuts: usize,
    /// Consistent cuts surviving in the slice (exhaustive count).
    pub slice_cuts: usize,
    /// `lattice_cuts / max(slice_cuts, 1)` — the lattice-pruning factor.
    pub pruning_ratio: f64,
    /// Local states surviving in the slice.
    pub surviving_states: usize,
    /// Join-irreducible equivalence classes in the slice.
    pub classes: usize,
    /// Wall-time distribution of `SlicedDeposet::build` alone (µs).
    pub slice_construct: WallStats,
    /// Wall-time of slice-then-delegate detect + control synthesis on a
    /// prebuilt engine (µs).
    pub sliced_control: WallStats,
    /// Wall-time of the brute-force unsliced answer: BFS over the full cut
    /// lattice until a satisfying cut is found (µs).
    pub unsliced_control: WallStats,
    /// Whether control synthesis found a feasible strategy.
    pub feasible: bool,
}

/// The `BENCH_offline.json` payload.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OfflineReport {
    /// Schema tag ([`SCHEMA`]).
    pub schema: String,
    /// Always `"offline"`.
    pub bench: String,
    /// Whether the run used `--smoke` sizes.
    pub smoke: bool,
    /// Measured cases.
    pub cases: Vec<OfflineCase>,
    /// Pathological `find_overlap` case.
    pub overlap: OverlapCase,
    /// Telemetry and flight-recorder A/B section.
    pub streaming: StreamingBench,
    /// Computation-slicing section.
    pub slicing: SlicingBench,
}

/// One execution mode of the multi-seed sweep bench.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepMode {
    /// `sequential` or `parallel`.
    pub mode: String,
    /// Worker threads used (1 for sequential).
    pub threads: usize,
    /// Distribution of per-seed wall times (construction + sweep).
    pub per_seed: WallStats,
    /// End-to-end wall time for the whole sweep (ms).
    pub total_ms: f64,
    /// Local states processed per second over the whole sweep.
    pub states_per_sec: f64,
}

/// Recorded numbers from a previous run used as the comparison baseline.
/// Keys of retired scenarios are skipped as unknown fields, so an older
/// baseline file keeps comparing on the scenarios that remain.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Baseline {
    /// Free-form label of when/what was recorded.
    pub recorded: String,
    /// End-to-end sequential wall time of the baseline run (ms).
    pub total_ms: f64,
    /// Baseline throughput (states/sec).
    pub states_per_sec: f64,
    /// Baseline per-seed p50 (µs).
    pub per_seed_p50_us: f64,
    /// Baseline per-seed p95 (µs).
    pub per_seed_p95_us: f64,
    /// Baseline slice-construction p50 of the `slicing` section (µs).
    pub slicing_construct_p50_us: f64,
    /// Baseline slice-then-delegate detect + control p50 (µs).
    pub slicing_control_p50_us: f64,
    /// Baseline lattice-pruning ratio (higher is better; deterministic for
    /// a fixed workload, so any drop signals a slicing-engine change).
    pub slicing_pruning_ratio: f64,
}

/// The `BENCH_sweep.json` payload.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// Schema tag ([`SCHEMA`]).
    pub schema: String,
    /// Always `"sweep"`.
    pub bench: String,
    /// Whether the run used `--smoke` sizes.
    pub smoke: bool,
    /// Number of seeds swept.
    pub seeds: usize,
    /// Process count per seed.
    pub processes: usize,
    /// Events per seed workload.
    pub events_per_seed: usize,
    /// Total local states across all seeds.
    pub states_total: usize,
    /// Sequential numbers (this is the pre-refactor-comparable code path).
    pub sequential: SweepMode,
    /// Parallel numbers (std::thread::scope fan-out, deterministic merge).
    pub parallel: SweepMode,
    /// Whether the parallel sweep produced bit-identical results to the
    /// sequential sweep (hard-asserted by the harness before writing).
    pub deterministic: bool,
    /// The `--compare` baseline, when one was given.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub baseline: Option<Baseline>,
    /// `baseline.total_ms / sequential.total_ms`, when a baseline was given.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub speedup_vs_baseline: Option<f64>,
}

/// One scenario of a baseline comparison (`BENCH_compare.json`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CompareCase {
    /// Scenario label (`sweep_total_ms`, `sweep_states_per_sec`, …).
    pub scenario: String,
    /// Measurement unit (`ms`, `us`, `states/s`).
    pub unit: String,
    /// Value recorded in the committed baseline.
    pub baseline: f64,
    /// Value measured by this run (after any injected slowdown).
    pub current: f64,
    /// Whether smaller values are better for this scenario.
    pub lower_is_better: bool,
    /// Signed percent change in the *worse* direction: positive means the
    /// current run is worse than the baseline by that much.
    pub worse_pct: f64,
    /// `worse_pct > threshold_pct`.
    pub regressed: bool,
}

/// The `BENCH_compare.json` payload: structured per-scenario deltas of the
/// current run against a committed [`Baseline`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CompareReport {
    /// Schema tag ([`SCHEMA`]).
    pub schema: String,
    /// Always `"compare"`.
    pub bench: String,
    /// Whether the run used `--smoke` sizes (smoke numbers are not
    /// comparable to a full-size baseline, so the gate only warns).
    pub smoke: bool,
    /// Path of the baseline file compared against.
    pub baseline_path: String,
    /// Free-form label of the baseline (its `recorded` field).
    pub baseline_recorded: String,
    /// Regression threshold in percent (a scenario regresses when it is
    /// more than this much worse than the baseline).
    pub threshold_pct: f64,
    /// Synthetic slowdown injected into the current numbers (percent);
    /// non-zero only in gate self-tests.
    pub injected_slowdown_pct: f64,
    /// Per-scenario deltas.
    pub cases: Vec<CompareCase>,
    /// Number of regressed scenarios.
    pub regressions: usize,
    /// `regressions == 0`.
    pub passed: bool,
}

impl CompareReport {
    /// Build the comparison between a committed [`Baseline`] and the
    /// current sequential sweep and slicing numbers, applying
    /// `inject_slowdown_pct` (a synthetic worsening, for gate self-tests)
    /// to the current values first.
    pub fn of(
        baseline: &Baseline,
        baseline_path: &str,
        current: &SweepMode,
        slicing: &SlicingBench,
        threshold_pct: f64,
        inject_slowdown_pct: f64,
        smoke: bool,
    ) -> CompareReport {
        let slow = 1.0 + inject_slowdown_pct / 100.0;
        let case = |scenario: &str, unit: &str, base: f64, cur: f64, lower: bool| {
            // Injection always worsens: inflate lower-is-better values,
            // deflate higher-is-better ones.
            let cur = if lower { cur * slow } else { cur / slow };
            let worse_pct = if base.abs() < 1e-12 {
                0.0
            } else if lower {
                (cur - base) / base * 100.0
            } else {
                (base - cur) / base * 100.0
            };
            CompareCase {
                scenario: scenario.into(),
                unit: unit.into(),
                baseline: base,
                current: cur,
                lower_is_better: lower,
                worse_pct,
                regressed: worse_pct > threshold_pct,
            }
        };
        // The pruning ratio is higher-is-better: a drop means the slice got
        // *less* selective on the identical workload, which is a
        // correctness smell as much as a perf one.
        let cases = vec![
            case(
                "sweep_total_ms",
                "ms",
                baseline.total_ms,
                current.total_ms,
                true,
            ),
            case(
                "sweep_states_per_sec",
                "states/s",
                baseline.states_per_sec,
                current.states_per_sec,
                false,
            ),
            case(
                "sweep_per_seed_p50_us",
                "us",
                baseline.per_seed_p50_us,
                current.per_seed.p50_us,
                true,
            ),
            case(
                "sweep_per_seed_p95_us",
                "us",
                baseline.per_seed_p95_us,
                current.per_seed.p95_us,
                true,
            ),
            case(
                "slicing_construct_p50_us",
                "us",
                baseline.slicing_construct_p50_us,
                slicing.slice_construct.p50_us,
                true,
            ),
            case(
                "slicing_control_p50_us",
                "us",
                baseline.slicing_control_p50_us,
                slicing.sliced_control.p50_us,
                true,
            ),
            case(
                "slicing_pruning_ratio",
                "ratio",
                baseline.slicing_pruning_ratio,
                slicing.pruning_ratio,
                false,
            ),
        ];
        let regressions = cases.iter().filter(|c| c.regressed).count();
        CompareReport {
            schema: SCHEMA.into(),
            bench: "compare".into(),
            smoke,
            baseline_path: baseline_path.into(),
            baseline_recorded: baseline.recorded.clone(),
            threshold_pct,
            injected_slowdown_pct: inject_slowdown_pct,
            cases,
            regressions,
            passed: regressions == 0,
        }
    }
}

/// Serialize a report, validate it by parsing it back, then write it.
///
/// Returns the serialized JSON. Panics (and therefore fails the bench job)
/// if the payload does not round-trip — a committed report is valid by
/// construction.
pub fn write_validated<T>(path: &std::path::Path, report: &T) -> std::io::Result<String>
where
    T: Serialize + serde::Deserialize + PartialEq + std::fmt::Debug,
{
    let json = serde_json::to_string_pretty(report).expect("report serializes");
    let back: T = serde_json::from_str(&json).expect("report JSON parses back");
    assert_eq!(&back, report, "report JSON must round-trip losslessly");
    std::fs::write(path, format!("{json}\n"))?;
    Ok(json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_stats_summarizes() {
        let w = WallStats::of(&[5_000, 1_000, 9_000, 3_000, 7_000]);
        assert_eq!(w.reps, 5);
        assert_eq!(w.min_us, 1.0);
        assert_eq!(w.p50_us, 5.0);
        assert_eq!(w.max_us, 9.0);
        // Sub-microsecond cases keep their resolution instead of reading 0.
        let fast = WallStats::of(&[400, 600, 800]);
        assert_eq!(fast.p50_us, 0.6);
        assert!(fast.min_us > 0.0);
    }

    fn baseline() -> Baseline {
        Baseline {
            recorded: "test".into(),
            total_ms: 100.0,
            states_per_sec: 1e6,
            per_seed_p50_us: 1000.0,
            per_seed_p95_us: 2000.0,
            slicing_construct_p50_us: 120.0,
            slicing_control_p50_us: 60.0,
            slicing_pruning_ratio: 25.0,
        }
    }

    #[test]
    fn sweep_report_roundtrips() {
        let mode = |m: &str| SweepMode {
            mode: m.into(),
            threads: 1,
            per_seed: WallStats::of(&[10, 20]),
            total_ms: 0.03,
            states_per_sec: 1e6,
        };
        let r = SweepReport {
            schema: SCHEMA.into(),
            bench: "sweep".into(),
            smoke: true,
            seeds: 2,
            processes: 4,
            events_per_seed: 100,
            states_total: 208,
            sequential: mode("sequential"),
            parallel: mode("parallel"),
            deterministic: true,
            baseline: Some(baseline()),
            speedup_vs_baseline: Some(3.0),
        };
        let json = serde_json::to_string_pretty(&r).unwrap();
        let back: SweepReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    fn mode(total_ms: f64, sps: f64, p50: f64, p95: f64) -> SweepMode {
        SweepMode {
            mode: "sequential".into(),
            threads: 1,
            per_seed: WallStats {
                reps: 1,
                min_us: p50,
                p50_us: p50,
                p95_us: p95,
                max_us: p95,
            },
            total_ms,
            states_per_sec: sps,
        }
    }

    fn slicing_section(construct_p50: f64, control_p50: f64, ratio: f64) -> SlicingBench {
        SlicingBench {
            workload: "cs_n4_p6".into(),
            processes: 4,
            states: 100,
            lattice_cuts: 5000,
            slice_cuts: (5000.0 / ratio) as usize,
            pruning_ratio: ratio,
            surviving_states: 40,
            classes: 30,
            slice_construct: WallStats {
                reps: 5,
                min_us: construct_p50 / 2.0,
                p50_us: construct_p50,
                p95_us: construct_p50 * 2.0,
                max_us: construct_p50 * 3.0,
            },
            sliced_control: WallStats {
                reps: 5,
                min_us: control_p50 / 2.0,
                p50_us: control_p50,
                p95_us: control_p50 * 2.0,
                max_us: control_p50 * 3.0,
            },
            unsliced_control: WallStats::of(&[(control_p50 * 20e3) as u64]),
            feasible: true,
        }
    }

    /// The baseline's own slicing numbers: the slicing scenarios read 0%.
    fn same_slicing() -> SlicingBench {
        slicing_section(120.0, 60.0, 25.0)
    }

    const SCENARIOS: [&str; 7] = [
        "sweep_total_ms",
        "sweep_states_per_sec",
        "sweep_per_seed_p50_us",
        "sweep_per_seed_p95_us",
        "slicing_construct_p50_us",
        "slicing_control_p50_us",
        "slicing_pruning_ratio",
    ];

    fn scenarios(r: &CompareReport) -> Vec<&str> {
        r.cases.iter().map(|c| c.scenario.as_str()).collect()
    }

    #[test]
    fn compare_passes_within_threshold_in_both_directions() {
        // 10% worse on time, 10% worse on throughput: under a 25% gate.
        let cur = mode(110.0, 0.9e6, 1100.0, 2200.0);
        let r = CompareReport::of(
            &baseline(),
            "b.json",
            &cur,
            &slicing_section(132.0, 66.0, 22.5),
            25.0,
            0.0,
            false,
        );
        assert!(r.passed, "{r:?}");
        assert_eq!(r.regressions, 0);
        assert_eq!(scenarios(&r), SCENARIOS);
        // A faster run must never "regress" the lower-is-better scenarios.
        let fast = mode(50.0, 2e6, 500.0, 900.0);
        let r = CompareReport::of(
            &baseline(),
            "b.json",
            &fast,
            &slicing_section(60.0, 30.0, 50.0),
            25.0,
            0.0,
            false,
        );
        assert!(r.passed);
        assert!(r.cases.iter().all(|c| c.worse_pct < 0.0), "{r:?}");
    }

    #[test]
    fn compare_flags_regressions_past_threshold() {
        // 50% slower end to end; slicing unchanged.
        let cur = mode(150.0, 0.6e6, 1600.0, 3100.0);
        let r = CompareReport::of(
            &baseline(),
            "b.json",
            &cur,
            &same_slicing(),
            25.0,
            0.0,
            false,
        );
        assert!(!r.passed);
        assert_eq!(r.regressions, 4, "{r:?}");
        let c = &r.cases[0];
        assert_eq!(c.scenario, "sweep_total_ms");
        assert!((c.worse_pct - 50.0).abs() < 1e-9);
    }

    #[test]
    fn slicing_scenarios_gate_in_their_own_direction() {
        let cur = mode(100.0, 1e6, 1000.0, 2000.0);
        // The pruning ratio is higher-is-better: a slice that stops
        // pruning (ratio collapses toward 1) regresses the gate.
        let lax = slicing_section(120.0, 60.0, 5.0);
        let r = CompareReport::of(&baseline(), "b.json", &cur, &lax, 25.0, 0.0, false);
        assert_eq!(r.regressions, 1, "{r:?}");
        let c = r
            .cases
            .iter()
            .find(|c| c.scenario == "slicing_pruning_ratio")
            .unwrap();
        assert!(c.regressed && !c.lower_is_better, "{c:?}");
        // Slice construction is lower-is-better.
        let slow = slicing_section(240.0, 60.0, 25.0);
        let r = CompareReport::of(&baseline(), "b.json", &cur, &slow, 25.0, 0.0, false);
        assert_eq!(r.regressions, 1, "{r:?}");
        assert!(r.cases[4].regressed && r.cases[4].lower_is_better);
    }

    #[test]
    fn injected_slowdown_worsens_every_scenario() {
        // Bit-identical to the baseline, but with a 100% injected slowdown:
        // every scenario must trip a 25% gate, including the
        // higher-is-better ones (which get *divided*).
        let cur = mode(100.0, 1e6, 1000.0, 2000.0);
        let clean = CompareReport::of(
            &baseline(),
            "b.json",
            &cur,
            &same_slicing(),
            25.0,
            0.0,
            false,
        );
        assert!(clean.passed);
        let slowed = CompareReport::of(
            &baseline(),
            "b.json",
            &cur,
            &same_slicing(),
            25.0,
            100.0,
            false,
        );
        assert!(!slowed.passed);
        assert_eq!(slowed.regressions, 7, "{slowed:?}");
        assert!((slowed.injected_slowdown_pct - 100.0).abs() < 1e-12);
    }

    #[test]
    fn compare_report_roundtrips() {
        let cur = mode(150.0, 0.6e6, 1600.0, 3100.0);
        let r = CompareReport::of(
            &baseline(),
            "b.json",
            &cur,
            &same_slicing(),
            25.0,
            0.0,
            true,
        );
        let json = serde_json::to_string_pretty(&r).unwrap();
        let back: CompareReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn committed_prerefactor_baseline_still_compares() {
        // The committed baseline still carries the keys of retired
        // scenarios (shard construction, streaming, sim_core); unknown
        // keys are ignored, so it parses and gates exactly the seven
        // remaining scenarios.
        let b: Baseline =
            serde_json::from_str(include_str!("../../../docs/results/BENCH_prerefactor.json"))
                .unwrap();
        let cur = mode(100.0, 1e6, 1000.0, 2000.0);
        let r = CompareReport::of(
            &b,
            "BENCH_prerefactor.json",
            &cur,
            &slicing_section(20.0, 1.0, 5.0),
            25.0,
            0.0,
            false,
        );
        assert_eq!(scenarios(&r), SCENARIOS);
    }

    #[test]
    fn offline_report_roundtrips() {
        let r = OfflineReport {
            schema: SCHEMA.into(),
            bench: "offline".into(),
            smoke: false,
            cases: vec![OfflineCase {
                name: "cs_n4_p8/optimized".into(),
                engine: "optimized".into(),
                processes: 4,
                intervals_per_process: 8,
                states: 321,
                wall: WallStats::of(&[100]),
                states_per_sec: 3.21e6,
                control_tuples: 12,
                feasible: true,
            }],
            overlap: OverlapCase {
                workload: "pipelined_n8_p256".into(),
                processes: 8,
                states: 16000,
                intervals_total: 2048,
                wall: WallStats::of(&[55]),
                found: false,
            },
            streaming: StreamingBench {
                workload: "random_n4_e1200".into(),
                processes: 4,
                events: 1200,
                rounds: 9,
                append_events_per_sec: 25_000.0,
                append_events_per_sec_telemetry_off: 26_500.0,
                append_events_per_sec_flight_off: 26_000.0,
                telemetry_overhead_pct: 6.1,
                flight_overhead_pct: 3.9,
            },
            slicing: same_slicing(),
        };
        let json = serde_json::to_string_pretty(&r).unwrap();
        let back: OfflineReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
