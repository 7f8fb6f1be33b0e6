//! Experiments E4 + E5 (paper Figure 3 + Section 6 Evaluation):
//! the on-line scapegoat strategy and the k-mutual-exclusion comparison.
//!
//! Reproduced claims:
//!
//! * no deadlock under assumptions A1/A2;
//! * amortized control cost ≈ **2 messages per n CS entries** (only the
//!   scapegoat's own entries pay for a handover);
//! * handover **response time ∈ [2T, 2T + E_max]** (free entries respond
//!   instantly);
//! * the broadcast variant trades messages for response time;
//! * at `k = n − 1` the anti-token beats a centralized coordinator
//!   (3 msgs/entry) and a k-token Suzuki–Kasami baseline (Θ(n) per
//!   contended entry).

use pctl_bench::{cell, Table};
use pctl_mutex::compare::{compare_all, compare_at_k};
use pctl_mutex::driver::WorkloadConfig;

/// Seeds averaged per row.
const SEEDS: u64 = 5;

fn main() {
    println!("E4/E5: on-line control as (n-1)-mutex (paper Fig. 3, Section 6)\n");

    // --- overhead vs n for the anti-token ---------------------------------
    let delay = 10u64;
    let e_max = 15u64;
    let mut table = Table::new(&[
        "n",
        "entries",
        "ctrl msgs",
        "msgs/entry",
        "msgs per n entries",
        "resp min",
        "resp mean",
        "resp p50/p95/p99",
        "resp max",
        "2T",
        "2T+Emax",
    ]);
    for n in [2usize, 4, 8, 16, 32] {
        // Aggregate over seeds for stable means.
        let mut entries = 0u64;
        let mut ctrl = 0u64;
        let mut responses: Vec<u64> = Vec::new();
        for seed in 0..SEEDS {
            let cfg = WorkloadConfig {
                processes: n,
                entries_per_process: 8,
                think: (20, 60),
                cs: (5, e_max),
                seed,
                delay,
            };
            let r = pctl_mutex::run_antitoken(&cfg, pctl_core::online::PeerSelect::Random);
            assert!(!r.deadlocked(), "no deadlock under A1/A2");
            entries += r.metrics.counter("entries");
            ctrl += r.metrics.counter("msgs_ctrl");
            responses.extend(r.metrics.samples("response"));
        }
        // Handover responses only (free entries respond instantly); a
        // Metrics registry computes the nearest-rank percentiles.
        let mut agg = pctl_sim::Metrics::default();
        for v in responses.iter().copied().filter(|&r| r > 0) {
            agg.record("response", v);
        }
        let s = agg.summary("response");
        let (rmin, rmean, rpcts, rmax) = match s {
            Some(s) => (
                s.min,
                s.mean,
                format!("{}/{}/{}", s.p50, s.p95, s.p99),
                s.max,
            ),
            None => (0, 0.0, "-".to_string(), 0),
        };
        table.row(vec![
            cell(n),
            cell(entries),
            cell(ctrl),
            cell(format!("{:.3}", ctrl as f64 / entries as f64)),
            cell(format!("{:.2}", ctrl as f64 * n as f64 / entries as f64)),
            cell(rmin),
            cell(format!("{rmean:.1}")),
            cell(rpcts),
            cell(rmax),
            cell(2 * delay),
            cell(2 * delay + e_max),
        ]);
    }
    table.print();
    println!(
        "\n(\"msgs per n entries\" ≈ 2 is the paper's amortized claim; handover\n\
         response times start at exactly 2T and mostly fall in [2T, 2T+Emax])"
    );

    // --- algorithm comparison at k = n-1 (Section 6) -----------------------
    println!("\ncomparison at k = n-1 (same workload, 5 seeds averaged):\n");
    let mut cmp = Table::new(&[
        "algo",
        "n",
        "k",
        "msgs/entry",
        "resp mean",
        "resp max",
        "max conc",
        "ok",
    ]);
    for n in [4usize, 8, 16] {
        // Average across seeds per algorithm.
        let mut acc: Vec<(String, f64, f64, u64, usize, bool, usize)> = Vec::new();
        for seed in 0..SEEDS {
            let cfg = WorkloadConfig {
                processes: n,
                entries_per_process: 6,
                think: (20, 60),
                cs: (5, e_max),
                seed,
                delay,
            };
            for (i, rep) in compare_all(&cfg).into_iter().enumerate() {
                if acc.len() <= i {
                    acc.push((rep.algo.clone(), 0.0, 0.0, 0, rep.k, true, 0));
                }
                let slot = &mut acc[i];
                slot.1 += rep.msgs_per_entry;
                if let Some(s) = rep.response {
                    slot.2 += s.mean;
                    slot.3 = slot.3.max(s.max);
                }
                slot.5 &= !rep.deadlocked && rep.max_concurrent <= rep.k;
                slot.6 = slot.6.max(rep.max_concurrent);
            }
        }
        for (algo, mpe, rmean, rmax, k, ok, conc) in acc {
            cmp.row(vec![
                cell(algo),
                cell(n),
                cell(k),
                cell(format!("{:.3}", mpe / 5.0)),
                cell(format!("{:.1}", rmean / 5.0)),
                cell(rmax),
                cell(conc),
                cell(ok),
            ]);
        }
    }
    cmp.print();
    println!(
        "\n(anti-token: cheapest messages; broadcast variant: more messages, lower\n\
         response; centralized: exactly 3 msgs/entry; k-token Suzuki-Kasami: Θ(n)\n\
         per contended entry — the paper's Section 6 argument for large k)"
    );

    // --- crossover: general k, m = n-k anti-tokens vs k tokens --------------
    let n = 12usize;
    println!("\ncrossover at n = {n}: m = n-k anti-tokens vs k privilege tokens\n");
    let mut cross = Table::new(&[
        "k",
        "m",
        "anti-token-m msgs/entry",
        "suzuki-k msgs/entry",
        "centralized",
        "winner",
    ]);
    for k in [1usize, 2, 4, 6, 8, 10, 11] {
        let mut anti = 0.0;
        let mut suz = 0.0;
        let mut cen = 0.0;
        for seed in 0..SEEDS {
            let cfg = WorkloadConfig {
                processes: n,
                entries_per_process: 6,
                think: (20, 60),
                cs: (5, e_max),
                seed,
                delay,
            };
            let reports = compare_at_k(&cfg, k);
            for rep in &reports {
                assert!(
                    !rep.deadlocked && rep.max_concurrent <= rep.k,
                    "{} k={k}",
                    rep.algo
                );
            }
            anti += reports[0].msgs_per_entry;
            cen += reports[1].msgs_per_entry;
            suz += reports[2].msgs_per_entry;
        }
        let count = SEEDS as f64;
        let (a, s_, c) = (anti / count, suz / count, cen / count);
        let winner = if a <= s_ && a <= c {
            "anti-token-m"
        } else if s_ <= c {
            "suzuki-k"
        } else {
            "centralized"
        };
        cross.row(vec![
            cell(k),
            cell(n - k),
            cell(format!("{a:.2}")),
            cell(format!("{s_:.2}")),
            cell(format!("{c:.2}")),
            cell(winner),
        ]);
    }
    cross.print();
    println!(
        "\n(the paper's conjecture: anti-tokens (liabilities) win for large k,\n\
         privilege tokens for small k — the winner column shows the crossover)"
    );
}
