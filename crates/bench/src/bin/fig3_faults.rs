//! Experiment E7: the Figure-3 strategy under injected faults.
//!
//! The paper assumes reliable channels and immortal processes; this sweep
//! measures what the hardened protocol (`pctl_core::online::ft` driving the
//! k-mutex workload of `pctl_mutex::ft_antitoken`) pays to drop those
//! assumptions:
//!
//! * **loss sweep** — message-drop rates from 0% to 20%: every run must
//!   still complete its full entry quota with `max_concurrent ≤ n−1`, and
//!   the post-run sweep must find *no* consistent cut without a live
//!   witness (loss alone never breaks `B`); the cost shows up as
//!   retransmissions and control-message overhead;
//! * **crash recovery** — the initial scapegoat crashes mid-run (with and
//!   without restart): the anti-token must be regenerated or rejoined, the
//!   run must finish, and any unwitnessed cut must contain the crashed
//!   process (`safe_modulo_crashes`).

use pctl_bench::{cell, Table};
use pctl_core::online::ft::FtParams;
use pctl_core::online::PeerSelect;
use pctl_core::verify::sweep_faulty_run;
use pctl_deposet::{LocalPredicate, ProcessId};
use pctl_mutex::driver::{max_concurrent, WorkloadConfig};
use pctl_mutex::run_ft_antitoken;
use pctl_sim::{FaultPlan, SimTime};

const SEEDS: u64 = 5;

fn workload(n: usize, seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        processes: n,
        entries_per_process: 6,
        think: (20, 60),
        cs: (5, 15),
        seed,
        delay: 10,
    }
}

fn main() {
    println!("E7: hardened scapegoat protocol under injected faults (n = 4, k = 3)\n");

    // --- message-loss sweep -------------------------------------------------
    let n = 4usize;
    let mut table = Table::new(&[
        "drop %",
        "entries",
        "dropped",
        "retrans",
        "ctrl msgs",
        "msgs/entry",
        "resp mean",
        "resp p50/p95/p99",
        "max conc",
        "fully safe",
    ]);
    for drop_pct in [0u32, 2, 5, 10, 20] {
        let mut entries = 0u64;
        let mut dropped = 0u64;
        let mut retrans = 0u64;
        let mut ctrl = 0u64;
        let mut responses: Vec<u64> = Vec::new();
        let mut conc = 0usize;
        let mut safe = 0u64;
        for seed in 0..SEEDS {
            let plan = FaultPlan::uniform_loss(f64::from(drop_pct) / 100.0);
            let r = run_ft_antitoken(
                &workload(n, seed),
                PeerSelect::NextInRing,
                FtParams::default(),
                plan,
            );
            assert!(!r.deadlocked(), "drop={drop_pct}% seed={seed}: deadlock");
            let report = sweep_faulty_run(&r.deposet, &LocalPredicate::not_var("cs"));
            assert!(
                report.safe_modulo_crashes(),
                "drop={drop_pct}% seed={seed}: clean violation {report:?}"
            );
            entries += r.metrics.counter("entries");
            dropped += r.metrics.counter("msgs_dropped");
            retrans += r.metrics.counter("retransmissions");
            ctrl += r.metrics.counter("msgs_ctrl");
            responses.extend(r.metrics.samples("response"));
            conc = conc.max(max_concurrent(&r.metrics, n));
            safe += u64::from(report.fully_safe());
        }
        let mut agg = pctl_sim::Metrics::default();
        for &v in &responses {
            agg.record("response", v);
        }
        let (rmean, rpcts) = match agg.summary("response") {
            Some(s) => (s.mean, format!("{}/{}/{}", s.p50, s.p95, s.p99)),
            None => (0.0, "-".to_string()),
        };
        table.row(vec![
            cell(drop_pct),
            cell(entries),
            cell(dropped),
            cell(retrans),
            cell(ctrl),
            cell(format!("{:.3}", ctrl as f64 / entries as f64)),
            cell(format!("{rmean:.1}")),
            cell(rpcts),
            cell(conc),
            cell(format!("{safe}/{SEEDS}")),
        ]);
    }
    table.print();
    println!(
        "\n(loss alone never violates B — \"fully safe\" must be {SEEDS}/{SEEDS} on every\n\
         row; the price of unreliable channels is retransmissions and a higher\n\
         msgs/entry than the paper's 2-per-handover)"
    );

    // --- crash of the initial scapegoat -------------------------------------
    println!("\ncrash of the initial scapegoat P0 at t=25:\n");
    let mut crash_table = Table::new(&[
        "restart",
        "entries",
        "rejoins",
        "regens",
        "aborted cs",
        "max conc",
        "safe mod crashes",
        "fault counters (seed 0)",
    ]);
    for restart in [None, Some(300u64)] {
        let mut entries = 0u64;
        let mut rejoins = 0u64;
        let mut regens = 0u64;
        let mut aborted = 0u64;
        let mut conc = 0usize;
        let mut safe = 0u64;
        let mut first_line = String::new();
        for seed in 0..SEEDS {
            let plan = FaultPlan::none().with_crash(ProcessId(0), SimTime(25), restart);
            let r = run_ft_antitoken(
                &workload(n, seed),
                PeerSelect::NextInRing,
                FtParams::default(),
                plan,
            );
            // `deadlocked()` is useless here: a crashed-for-good P0 never
            // reports done, so every no-restart run trips it. The refined
            // predicate separates the dead process (expected) from live
            // processes starving mid-protocol (a real liveness bug).
            assert!(
                !r.protocol_deadlock(),
                "restart={restart:?} seed={seed}: live processes starved: {:?}",
                r.outcomes()
            );
            let report = sweep_faulty_run(&r.deposet, &LocalPredicate::not_var("cs"));
            entries += r.metrics.counter("entries");
            rejoins += r.metrics.counter("rejoins");
            regens += r.metrics.counter("regenerations");
            aborted += r.metrics.counter("aborted_cs");
            conc = conc.max(max_concurrent(&r.metrics, n));
            safe += u64::from(report.safe_modulo_crashes());
            if seed == 0 {
                first_line = r.metrics.fault_line();
            }
        }
        crash_table.row(vec![
            cell(match restart {
                Some(t) => format!("after {t}"),
                None => "never".to_string(),
            }),
            cell(entries),
            cell(rejoins),
            cell(regens),
            cell(aborted),
            cell(conc),
            cell(format!("{safe}/{SEEDS}")),
            cell(first_line),
        ]);
    }
    crash_table.print();
    println!(
        "\n(a crash can suppress B only on cuts containing the dead process, for at\n\
         most one watchdog window — \"safe mod crashes\" must be {SEEDS}/{SEEDS}; without a\n\
         restart the quota of the dead process is forfeited, with one it is met\n\
         minus entries aborted inside the CS)"
    );
}
