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
pub const SCHEMA: &str = "pctl-bench-v2";

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
    /// Wall-time of slice-then-delegate `PredicateEngine::for_class` +
    /// detect + control synthesis, on a fresh engine every rep (µs).
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
    /// Distribution of per-seed wall times (construction + sweep).
    pub per_seed: WallStats,
    /// Wall time of the fastest round over every seed (ms).
    pub total_ms: f64,
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
    let json = round_trip(
        serde_json::to_string_pretty(report).expect("report serializes"),
        report,
    );
    std::fs::write(path, format!("{json}\n"))?;
    Ok(json)
}

/// Serialize a report as one JSON line, validated by parsing it back.
///
/// # Panics
/// Panics if the line does not round-trip.
pub fn json_line<T>(report: &T) -> String
where
    T: Serialize + serde::Deserialize + PartialEq + std::fmt::Debug,
{
    round_trip(
        serde_json::to_string(report).expect("report serializes"),
        report,
    )
}

fn round_trip<T>(json: String, report: &T) -> String
where
    T: serde::Deserialize + PartialEq + std::fmt::Debug,
{
    let back: T = serde_json::from_str(&json).expect("report JSON parses back");
    assert_eq!(&back, report, "report JSON must round-trip losslessly");
    json
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

    #[test]
    fn sweep_report_roundtrips() {
        let r = SweepReport {
            schema: SCHEMA.into(),
            bench: "sweep".into(),
            smoke: true,
            seeds: 2,
            processes: 4,
            events_per_seed: 100,
            states_total: 208,
            per_seed: WallStats::of(&[10, 20]),
            total_ms: 0.03,
        };
        let json = serde_json::to_string_pretty(&r).unwrap();
        let back: SweepReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
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
            slicing: SlicingBench {
                workload: "cs_n4_p6".into(),
                processes: 4,
                states: 100,
                lattice_cuts: 5000,
                slice_cuts: 200,
                pruning_ratio: 25.0,
                surviving_states: 40,
                classes: 30,
                slice_construct: WallStats::of(&[60_000, 120_000, 240_000]),
                sliced_control: WallStats::of(&[30_000, 60_000, 120_000]),
                unsliced_control: WallStats::of(&[1_200_000]),
                feasible: true,
            },
        };
        let json = serde_json::to_string_pretty(&r).unwrap();
        let back: OfflineReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
