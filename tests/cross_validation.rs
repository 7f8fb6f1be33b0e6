//! Cross-crate validation: the fast algorithms agree with the exhaustive
//! oracles on randomized instances.

mod common;

use predicate_control::control::offline::{Engine, SelectPolicy};
use predicate_control::control::verify::agrees_with_oracle;
use predicate_control::deposet::generator::{
    pipelined_workload, random_deposet, CsConfig, RandomConfig,
};
use predicate_control::deposet::sequences::find_satisfying_interleaving;
use predicate_control::prelude::*;

use common::lattice_violation;

fn all_opts() -> Vec<OfflineOptions> {
    vec![
        OfflineOptions {
            policy: SelectPolicy::First,
            engine: Engine::Optimized,
        },
        OfflineOptions {
            policy: SelectPolicy::First,
            engine: Engine::Naive,
        },
        OfflineOptions {
            policy: SelectPolicy::Random { seed: 5 },
            engine: Engine::Optimized,
        },
        OfflineOptions {
            policy: SelectPolicy::Random { seed: 5 },
            engine: Engine::Naive,
        },
    ]
}

#[test]
fn offline_algorithm_agrees_with_oracle_on_random_traces() {
    for seed in 0..25u64 {
        let dep = random_deposet(
            &RandomConfig {
                processes: 3,
                events: 16,
                send_prob: 0.35,
                flip_prob: 0.45,
            },
            seed,
        );
        let pred = DisjunctivePredicate::at_least_one(3, "ok");
        for opts in all_opts() {
            assert!(
                agrees_with_oracle(&dep, &pred, opts, 3_000_000).unwrap(),
                "seed {seed} opts {opts:?}: feasibility disagreement"
            );
        }
    }
}

#[test]
fn every_feasible_random_instance_verifies_exhaustively() {
    for seed in 0..25u64 {
        let dep = random_deposet(
            &RandomConfig {
                processes: 3,
                events: 18,
                send_prob: 0.3,
                flip_prob: 0.4,
            },
            seed,
        );
        let pred = DisjunctivePredicate::at_least_one(3, "ok");
        for opts in all_opts() {
            if let Ok(rel) = control_disjunctive(&dep, &pred, opts) {
                verify_disjunctive(&dep, &pred, &rel, 3_000_000)
                    .unwrap_or_else(|e| panic!("seed {seed} opts {opts:?}: {e}"));
                let bad = lattice_violation(&dep, &pred, &rel);
                assert!(bad.is_none(), "seed {seed} opts {opts:?}: {bad:?} violates");
                let structure = chain_structure(&dep, &pred, &rel);
                assert!(structure.holds(), "seed {seed}: bad chain {structure:?}");
            }
        }
    }
}

#[test]
fn infeasibility_certificates_are_genuine_overlaps() {
    use predicate_control::control::overlap::is_overlapping;
    let mut found = 0;
    for seed in 0..60u64 {
        let dep = random_deposet(
            &RandomConfig {
                processes: 3,
                events: 14,
                send_prob: 0.5,
                flip_prob: 0.5,
            },
            seed,
        );
        let pred = DisjunctivePredicate::at_least_one(3, "ok");
        if let Err(inf) = control_disjunctive(&dep, &pred, OfflineOptions::default()) {
            found += 1;
            assert!(is_overlapping(&dep, &inf.witness), "seed {seed}");
            // And no satisfying interleaving exists (exhaustive).
            let p2 = pred.clone();
            let seq =
                find_satisfying_interleaving(&dep, 3_000_000, move |d, g| p2.eval(d, g)).unwrap();
            assert!(
                seq.is_none(),
                "seed {seed}: certificate for a feasible instance"
            );
        }
    }
    assert!(
        found >= 3,
        "workload too easy: only {found} infeasible instances"
    );
}

#[test]
fn strong_detector_matches_control_feasibility() {
    // store::definitely_all_false ⟺ control infeasible (Lemma 2 closure).
    for seed in 0..30u64 {
        let cfg = CsConfig {
            processes: 3,
            sections_per_process: 3,
            max_cs_len: 2,
            max_gap_len: 2,
        };
        let dep = pipelined_workload(&cfg, seed);
        let pred = DisjunctivePredicate::at_least_one_not(3, "cs");
        let infeasible = control_disjunctive(&dep, &pred, OfflineOptions::default()).is_err();
        let overlap = definitely_all_false(&dep, &pred).is_some();
        assert_eq!(infeasible, overlap, "seed {seed}");
    }
}

#[test]
fn weak_detector_agrees_with_verification_failure() {
    // If GW finds no violation, the empty relation already verifies; if it
    // finds one, verification of the empty relation must fail at some cut.
    // Both verdicts are held to the exhaustive walk of the lattice.
    for seed in 0..25u64 {
        let dep = random_deposet(
            &RandomConfig {
                processes: 3,
                events: 15,
                send_prob: 0.3,
                flip_prob: 0.4,
            },
            seed,
        );
        let pred = DisjunctivePredicate::at_least_one(3, "ok");
        let gw = detect_disjunctive_violation(&dep, &pred);
        let empty = ControlRelation::empty();
        let empty_ok = verify_disjunctive(&dep, &pred, &empty, 3_000_000).is_ok();
        let walked_ok = lattice_violation(&dep, &pred, &empty).is_none();
        assert_eq!(gw.is_none(), walked_ok, "seed {seed}");
        assert_eq!(empty_ok, walked_ok, "seed {seed}");
    }
}

#[test]
fn sat_reduction_matches_dpll_full_pipeline() {
    use predicate_control::control::reduction::{extract_assignment, reduce_sat_to_sgsd};
    use predicate_control::control::sat::{satisfiable, Cnf};
    for seed in 0..15u64 {
        let cnf = Cnf::random_ksat(5, 21, 3, seed);
        let inst = reduce_sat_to_sgsd(&cnf);
        match sgsd(&inst.deposet, &inst.predicate, usize::MAX).unwrap() {
            SgsdOutcome::Satisfiable(seq) => {
                assert!(satisfiable(&cnf), "seed {seed}: SGSD sat but DPLL unsat");
                let a = extract_assignment(&seq, 5).unwrap();
                assert!(cnf.eval(&a), "seed {seed}: extracted non-model");
            }
            SgsdOutcome::Unsatisfiable => {
                assert!(!satisfiable(&cnf), "seed {seed}: SGSD unsat but DPLL sat");
            }
        }
    }
}
