//! Experiment E2 (paper Figure 2 + Section 5 Evaluation):
//! the off-line disjunctive control algorithm.
//!
//! Reproduced claims:
//!
//! * the optimized engine runs in **O(n²p)** and the naive engine in
//!   **O(n³p)** — verified by empirical scaling exponents of both wall
//!   time and `crossable()` operation counts (the dominant cost);
//! * the output satisfies **|C→| ≤ np** (≤ one control message per crossed
//!   false interval);
//! * for two-process mutual exclusion, at most **one message per critical
//!   section** in the worst case;
//! * every synthesized relation verifies: Garg–Waldecker detection on the
//!   controlled computation finds no consistent global state violating
//!   `B`, an exact verdict at every size.
//!
//! Workload notes: the adversarial case for ValidPairs maintenance is a
//! *concurrent* workload (no cross-process causality): crossings spread
//! over all `n` processes, the loop runs ≈ `n·p` times, and the paper's
//! `select()` (here `SelectPolicy::Random`) must consider the full
//! candidate set each round. Message-rich (pipelined) workloads are also
//! reported: causality lets the advancement step cross intervals passively,
//! so the loop runs ≈ `p` times — faster in practice, same bounds.

use pctl_bench::{cell, loglog_slope, median_time, Table};
use pctl_core::offline::{control_intervals, Engine, OfflineOptions, SelectPolicy};
use pctl_core::verify::verify_disjunctive;
use pctl_deposet::generator::{cs_workload, pipelined_workload, CsConfig};
use pctl_deposet::{DisjunctivePredicate, FalseIntervals};

fn opts(engine: Engine) -> OfflineOptions {
    OfflineOptions {
        policy: SelectPolicy::Random { seed: 3 },
        engine,
    }
}

fn main() {
    println!("E2: off-line disjunctive control (paper Fig. 2, Section 5)\n");

    // --- adversarial concurrent workload: time vs n at fixed p -------------
    let p = 32usize;
    println!("concurrent workload (no causal help), p = {p}:\n");
    let mut table = Table::new(&[
        "n",
        "iters",
        "|C|",
        "|C|<=np",
        "optimized",
        "naive",
        "opt checks",
        "naive checks",
    ]);
    let mut t_opt_pts: Vec<(f64, f64)> = Vec::new();
    let mut t_naive_pts: Vec<(f64, f64)> = Vec::new();
    let mut c_opt_pts: Vec<(f64, f64)> = Vec::new();
    let mut c_naive_pts: Vec<(f64, f64)> = Vec::new();
    for n in [4usize, 8, 16, 32, 64] {
        let cfg = CsConfig {
            processes: n,
            sections_per_process: p,
            max_cs_len: 2,
            max_gap_len: 2,
        };
        let dep = cs_workload(&cfg, 7);
        let pred = DisjunctivePredicate::at_least_one_not(n, "cs");
        let iv = FalseIntervals::extract(&dep, &pred);
        let ((res_o, stats_o), t_opt) =
            median_time(3, || control_intervals(&dep, &iv, opts(Engine::Optimized)));
        let ((res_n, stats_n), t_naive) =
            median_time(3, || control_intervals(&dep, &iv, opts(Engine::Naive)));
        let rel = res_o.expect("cs workload always feasible");
        assert!(res_n.is_ok());
        assert!(rel.len() <= n * p);
        table.row(vec![
            cell(n),
            cell(stats_o.iterations),
            cell(rel.len()),
            cell(rel.len() <= n * p),
            cell(format!("{:.3?}", t_opt)),
            cell(format!("{:.3?}", t_naive)),
            cell(stats_o.pair_checks),
            cell(stats_n.pair_checks),
        ]);
        t_opt_pts.push((n as f64, t_opt.as_secs_f64()));
        t_naive_pts.push((n as f64, t_naive.as_secs_f64()));
        c_opt_pts.push((n as f64, stats_o.pair_checks as f64));
        c_naive_pts.push((n as f64, stats_n.pair_checks as f64));
    }
    table.print();
    println!("\nscaling exponents in n (fixed p={p}):");
    println!(
        "  optimized: time n^{:.2}, checks n^{:.2}   (paper O(n^2 p): ≈ 2)",
        loglog_slope(&t_opt_pts[1..]),
        loglog_slope(&c_opt_pts[1..])
    );
    println!(
        "  naive:     time n^{:.2}, checks n^{:.2}   (paper O(n^3 p): ≈ 3)",
        loglog_slope(&t_naive_pts[1..]),
        loglog_slope(&c_naive_pts[1..])
    );

    // --- time vs p at fixed n ----------------------------------------------
    let n = 16usize;
    let mut table_p = Table::new(&["p", "iters", "|C|", "optimized", "checks"]);
    let mut pts_p: Vec<(f64, f64)> = Vec::new();
    for p in [16usize, 32, 64, 128, 256, 512] {
        let cfg = CsConfig {
            processes: n,
            sections_per_process: p,
            max_cs_len: 2,
            max_gap_len: 2,
        };
        let dep = cs_workload(&cfg, 11);
        let pred = DisjunctivePredicate::at_least_one_not(n, "cs");
        let iv = FalseIntervals::extract(&dep, &pred);
        let ((res, stats), t) =
            median_time(3, || control_intervals(&dep, &iv, opts(Engine::Optimized)));
        let rel = res.expect("feasible");
        table_p.row(vec![
            cell(p),
            cell(stats.iterations),
            cell(rel.len()),
            cell(format!("{:.3?}", t)),
            cell(stats.pair_checks),
        ]);
        pts_p.push((p as f64, t.as_secs_f64()));
    }
    println!("\nconcurrent workload, n = {n}, sweep p:\n");
    table_p.print();
    println!(
        "\nscaling exponent in p (fixed n={n}): p^{:.2}   (paper: linear -> ≈ 1)",
        loglog_slope(&pts_p[1..])
    );

    // --- message-rich workload (ring causality) -----------------------------
    println!("\npipelined (message-rich) workload, p = 16:\n");
    let mut table_r = Table::new(&["n", "feasible", "iters", "|C|", "optimized", "verified"]);
    for n in [4usize, 8, 16, 32] {
        let cfg = CsConfig {
            processes: n,
            sections_per_process: 16,
            max_cs_len: 2,
            max_gap_len: 2,
        };
        let dep = pipelined_workload(&cfg, 5);
        let pred = DisjunctivePredicate::at_least_one_not(n, "cs");
        let iv = FalseIntervals::extract(&dep, &pred);
        let ((res, stats), t) =
            median_time(3, || control_intervals(&dep, &iv, opts(Engine::Optimized)));
        let (feasible, clen, verified) = match &res {
            Ok(rel) => (
                true,
                rel.len(),
                verify_disjunctive(&dep, &pred, rel, 0).is_ok(),
            ),
            Err(_) => (false, 0, true),
        };
        assert!(verified);
        table_r.row(vec![
            cell(n),
            cell(feasible),
            cell(stats.iterations),
            cell(clen),
            cell(format!("{:.3?}", t)),
            cell(verified),
        ]);
    }
    table_r.print();

    // --- two-process mutual exclusion: ≤ 1 message per CS -------------------
    let mut table_m = Table::new(&["seed", "critical sections", "|C| (messages)", "verified"]);
    for seed in 0..5u64 {
        let cfg = CsConfig {
            processes: 2,
            sections_per_process: 10,
            max_cs_len: 3,
            max_gap_len: 3,
        };
        let dep = cs_workload(&cfg, seed);
        let pred = DisjunctivePredicate::at_least_one_not(2, "cs");
        let iv = FalseIntervals::extract(&dep, &pred);
        let (res, _) = control_intervals(&dep, &iv, opts(Engine::Optimized));
        let rel = res.expect("feasible");
        let total_cs = iv.total();
        assert!(
            rel.len() <= total_cs,
            "one message per CS worst case (Section 5)"
        );
        let verified = verify_disjunctive(&dep, &pred, &rel, 0).is_ok();
        assert!(verified);
        table_m.row(vec![
            cell(seed),
            cell(total_cs),
            cell(rel.len()),
            cell(verified),
        ]);
    }
    println!("\ntwo-process mutual exclusion (Section 5 Evaluation):");
    table_m.print();
}
