//! System-level tests of the on-line strategy and the mutex algorithms:
//! safety on consistent cuts of real simulated traces, liveness, and the
//! Theorem 3 impossibility boundary.

use predicate_control::control::online::{phased_system, PeerSelect, Phase};
use predicate_control::deposet::LocalPredicate;
use predicate_control::prelude::*;
use predicate_control::sim::Simulation;

fn scripts(n: usize, phases: usize) -> Vec<Vec<Phase>> {
    (0..n)
        .map(|i| {
            (0..phases)
                .map(|k| Phase {
                    true_len: 12 + 5 * i as u64 + 2 * k as u64,
                    false_len: Some(6 + (k as u64 % 3)),
                })
                .collect()
        })
        .collect()
}

#[test]
fn online_strategy_safe_across_policies_sizes_and_delays() {
    for n in [2usize, 3, 5, 8] {
        for select in [
            PeerSelect::NextInRing,
            PeerSelect::Random,
            PeerSelect::Broadcast,
        ] {
            for (seed, delay) in [
                (0u64, DelayModel::Fixed(5)),
                (1, DelayModel::Uniform { min: 1, max: 20 }),
            ] {
                let procs = phased_system(n, scripts(n, 4), select);
                let cfg = SimConfig {
                    seed,
                    delay,
                    ..SimConfig::default()
                };
                let r = Simulation::new(cfg, procs).run();
                assert!(!r.deadlocked(), "n={n} {select:?} seed={seed}");
                let all_false: Vec<LocalPredicate> =
                    (0..n).map(|_| LocalPredicate::not_var("ok")).collect();
                assert_eq!(
                    possibly_conjunction(&r.deposet, &all_false),
                    None,
                    "n={n} {select:?} seed={seed}: some consistent cut is all-false"
                );
            }
        }
    }
}

#[test]
fn online_traces_can_be_recontrolled_offline() {
    // Close the loop: trace an on-line run, then run the OFF-LINE algorithm
    // on the produced deposet. The predicate already holds, so the offline
    // answer must be feasible and its output must verify.
    let procs = phased_system(3, scripts(3, 3), PeerSelect::NextInRing);
    let cfg = SimConfig {
        seed: 3,
        delay: DelayModel::Fixed(5),
        ..SimConfig::default()
    };
    let r = Simulation::new(cfg, procs).run();
    let pred = DisjunctivePredicate::at_least_one(3, "ok");
    let rel = control_disjunctive(&r.deposet, &pred, OfflineOptions::default())
        .expect("already-safe trace is feasible");
    verify_disjunctive(&r.deposet, &pred, &rel, 3_000_000).unwrap();
}

#[test]
fn impossibility_without_a1_but_safety_never_broken() {
    // Theorem 3's boundary: violating A1 (a process stays false forever)
    // deadlocks the strategy — but the strategy fails *safe*.
    let scripts = vec![
        vec![Phase {
            true_len: 40,
            false_len: Some(10),
        }],
        vec![Phase {
            true_len: 8,
            false_len: None,
        }], // violates A1
    ];
    let procs = phased_system(2, scripts, PeerSelect::NextInRing);
    let cfg = SimConfig {
        seed: 0,
        delay: DelayModel::Fixed(5),
        ..SimConfig::default()
    };
    let r = Simulation::new(cfg, procs).run();
    assert!(r.deadlocked());
    let all_false: Vec<LocalPredicate> = (0..2).map(|_| LocalPredicate::not_var("ok")).collect();
    assert_eq!(possibly_conjunction(&r.deposet, &all_false), None);
}

#[test]
fn mutex_algorithms_all_safe_and_comparable() {
    for seed in 0..3u64 {
        let cfg = WorkloadConfig {
            processes: 5,
            entries_per_process: 6,
            think: (15, 50),
            cs: (5, 12),
            seed,
            delay: 8,
        };
        let reports = compare_all(&cfg);
        assert_eq!(reports.len(), 4);
        let total_entries = 5 * 6;
        for rep in &reports {
            assert!(!rep.deadlocked, "{} seed {seed}", rep.algo);
            assert_eq!(rep.entries, total_entries, "{} seed {seed}", rep.algo);
            assert!(rep.max_concurrent <= rep.k, "{} seed {seed}", rep.algo);
        }
        // The headline comparison: anti-token strictly cheapest in messages.
        let anti = reports.iter().find(|r| r.algo == "anti-token").unwrap();
        let central = reports.iter().find(|r| r.algo == "centralized").unwrap();
        let suzuki = reports
            .iter()
            .find(|r| r.algo == "suzuki-kasami-k")
            .unwrap();
        assert!(anti.msgs_per_entry < central.msgs_per_entry, "seed {seed}");
        assert!(anti.msgs_per_entry < suzuki.msgs_per_entry, "seed {seed}");
    }
}

#[test]
fn antitoken_trace_is_valid_deposet_and_roundtrips() {
    use predicate_control::deposet::trace;
    let cfg = WorkloadConfig {
        processes: 4,
        entries_per_process: 5,
        think: (10, 30),
        cs: (4, 10),
        seed: 2,
        delay: 6,
    };
    let r = run_antitoken(&cfg, PeerSelect::Random);
    let json = trace::to_json(&r.deposet);
    let back = trace::from_json(&json).unwrap();
    assert_eq!(back.total_states(), r.deposet.total_states());
    assert_eq!(back.messages().len(), r.deposet.messages().len());
}
