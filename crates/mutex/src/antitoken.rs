//! (n−1)-mutual exclusion via the paper's on-line control strategy.
//!
//! With local predicates `lᵢ = ¬csᵢ`, the disjunctive predicate
//! `∨ᵢ ¬csᵢ` says *at least one process is outside its critical section* —
//! exactly (n−1)-mutual exclusion. The scapegoat protocol solves it with a
//! single *anti-token* (the scapegoat role is a liability: its holder must
//! stay out of the CS until someone takes it), versus the `k` privileged
//! tokens of classical k-mutex algorithms. Expected overhead: 2 control
//! messages per handover, and a handover only when the scapegoat itself
//! wants the CS — the paper's "2 messages per n CS entries".
//!
//! The worker is `pctl_core::online::Host` running a
//! [`ScapegoatController`] under the shared workload [`Driver`].

use crate::driver::{Driver, WorkloadConfig};
use pctl_core::online::{CtrlMsg, Host, PeerSelect, ScapegoatController};
use pctl_deposet::ProcessId;
use pctl_sim::{DelayModel, Process, SimConfig, SimResult, Simulation};

/// Run the anti-token workload; `k = n − 1`.
pub fn run_antitoken(cfg: &WorkloadConfig, select: PeerSelect) -> SimResult {
    run_antitoken_recorded(cfg, select, Box::new(pctl_sim::NullRecorder))
}

/// [`run_antitoken`] with a telemetry recorder attached; the recorder
/// comes back in [`SimResult::recorder`] after the run flushes it.
pub fn run_antitoken_recorded(
    cfg: &WorkloadConfig,
    select: PeerSelect,
    recorder: Box<dyn pctl_sim::Recorder>,
) -> SimResult {
    let n = cfg.processes;
    assert!(n >= 2);
    let procs: Vec<Box<dyn Process<CtrlMsg>>> = (0..n)
        .map(|i| {
            let me = ProcessId(i as u32);
            let ctrl = ScapegoatController::new(me, i == 0);
            Box::new(Host::new(ctrl, Driver::new(me, cfg), n, Some(select)))
                as Box<dyn Process<CtrlMsg>>
        })
        .collect();
    let sim_cfg = SimConfig {
        seed: cfg.seed,
        delay: DelayModel::Fixed(cfg.delay),
        ..SimConfig::default()
    };
    Simulation::with_recorder(sim_cfg, procs, recorder).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::max_concurrent;

    #[test]
    fn antitoken_maintains_k_mutex() {
        for seed in 0..8 {
            let cfg = WorkloadConfig {
                processes: 4,
                seed,
                ..WorkloadConfig::default()
            };
            let r = run_antitoken(&cfg, PeerSelect::NextInRing);
            assert!(!r.deadlocked(), "seed {seed}");
            assert_eq!(r.metrics.counter("entries"), 20);
            assert!(
                max_concurrent(&r.metrics, 4) <= 3,
                "seed {seed}: more than n-1 processes in CS"
            );
        }
    }

    #[test]
    fn two_process_antitoken_is_full_mutex() {
        // n = 2 ⇒ k = 1: classic mutual exclusion.
        for seed in 0..8 {
            let cfg = WorkloadConfig {
                processes: 2,
                seed,
                ..WorkloadConfig::default()
            };
            let r = run_antitoken(&cfg, PeerSelect::NextInRing);
            assert!(!r.deadlocked());
            assert_eq!(max_concurrent(&r.metrics, 2).max(1), 1, "seed {seed}");
        }
    }

    #[test]
    fn response_time_bounds_hold_for_handovers() {
        // The paper: response time of a scapegoat handover lies in
        // [2T, 2T + E_max]; free entries respond in 0.
        let cfg = WorkloadConfig {
            processes: 3,
            entries_per_process: 10,
            delay: 10,
            cs: (5, 15),
            seed: 42,
            ..WorkloadConfig::default()
        };
        let r = run_antitoken(&cfg, PeerSelect::NextInRing);
        assert!(!r.deadlocked());
        let t = 10u64;
        let e_max = 15u64;
        let mut in_paper_band = 0usize;
        let mut handovers = 0usize;
        for &resp in r.metrics.samples("response") {
            // Free entries are instantaneous; every handover costs at least
            // the req + ack round trip.
            assert!(resp == 0 || resp >= 2 * t, "response {resp} under 2T");
            if resp > 0 {
                handovers += 1;
                if resp <= 2 * t + e_max {
                    in_paper_band += 1;
                }
            }
        }
        assert!(handovers > 0, "workload never exercised a handover");
        // The paper's [2T, 2T + E_max] band assumes the responder is free
        // or in its CS; deferral chains can exceed it, but the band must
        // dominate.
        assert!(
            in_paper_band * 2 >= handovers,
            "band {in_paper_band}/{handovers}"
        );
    }

    #[test]
    fn no_consistent_cut_violation_at_scale() {
        // Regression for the ack-before-exit trace-ordering bug: check the
        // consistent-cut guarantee with the polynomial GW detector on
        // larger systems and all peer-selection policies.
        use pctl_deposet::{DisjunctivePredicate, LocalPredicate};
        for n in [4usize, 6, 8] {
            for select in [
                PeerSelect::NextInRing,
                PeerSelect::Random,
                PeerSelect::Broadcast,
            ] {
                for seed in 0..4u64 {
                    let cfg = WorkloadConfig {
                        processes: n,
                        entries_per_process: 8,
                        think: (20, 60),
                        cs: (5, 15),
                        seed,
                        delay: 10,
                    };
                    let r = run_antitoken(&cfg, select);
                    assert!(!r.deadlocked(), "n={n} {select:?} seed={seed}");
                    let all_in_cs: Vec<LocalPredicate> =
                        (0..n).map(|_| LocalPredicate::var("cs")).collect();
                    let hit = pctl_deposet::store::possibly_conjunction(&r.deposet, &all_in_cs);
                    assert_eq!(
                        hit, None,
                        "n={n} {select:?} seed={seed}: consistent cut with all in CS"
                    );
                    let _ = DisjunctivePredicate::at_least_one_not(n, "cs");
                }
            }
        }
    }

    #[test]
    fn trace_satisfies_disjunctive_predicate_exhaustively() {
        use pctl_deposet::lattice::consistent_global_states;
        use pctl_deposet::DisjunctivePredicate;
        let cfg = WorkloadConfig {
            processes: 3,
            entries_per_process: 2,
            seed: 5,
            ..WorkloadConfig::default()
        };
        let r = run_antitoken(&cfg, PeerSelect::NextInRing);
        let pred = DisjunctivePredicate::at_least_one_not(3, "cs");
        for g in consistent_global_states(&r.deposet, 3_000_000).unwrap() {
            assert!(pred.eval(&r.deposet, &g), "violating consistent cut {g:?}");
        }
    }
}
