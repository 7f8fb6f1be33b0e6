//! Cross-crate property-based tests: the paper's theorems as properties
//! over random computations.

use predicate_control::control::offline::{Engine, SelectPolicy};
use predicate_control::deposet::generator::{random_deposet, RandomConfig};
use predicate_control::deposet::sequences::find_satisfying_interleaving;
use predicate_control::prelude::*;
use proptest::prelude::*;

mod common;
use common::lattice_violation;

fn arb_world() -> impl Strategy<Value = (RandomConfig, u64)> {
    (2usize..5, 6usize..24, 0u64..100_000, 2u32..6).prop_map(|(n, ev, seed, flip)| {
        (
            RandomConfig {
                processes: n,
                events: ev,
                send_prob: 0.35,
                flip_prob: f64::from(flip) / 10.0,
            },
            seed,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Theorem 2 (soundness): whenever the off-line algorithm returns a
    /// relation, the controlled computation satisfies B on every consistent
    /// global state: `verify_disjunctive` passes it, and so does the
    /// exhaustive walk of the controlled lattice.
    #[test]
    fn theorem2_soundness((cfg, seed) in arb_world()) {
        let dep = random_deposet(&cfg, seed);
        let pred = DisjunctivePredicate::at_least_one(cfg.processes, "ok");
        for engine in [Engine::Optimized, Engine::Naive] {
            let opts = OfflineOptions { policy: SelectPolicy::Random { seed }, engine };
            if let Ok(rel) = control_disjunctive(&dep, &pred, opts) {
                prop_assert!(verify_disjunctive(&dep, &pred, &rel, 3_000_000).is_ok());
                let bad = lattice_violation(&dep, &pred, &rel);
                prop_assert!(bad.is_none(), "{:?} violates under {}", bad, rel);
            }
        }
    }

    /// Theorem 2 (completeness against the interleaving oracle — the
    /// enforceable semantics): the algorithm says "No Controller Exists"
    /// exactly when no satisfying interleaving exists.
    #[test]
    fn theorem2_completeness((cfg, seed) in arb_world()) {
        let dep = random_deposet(&cfg, seed);
        let pred = DisjunctivePredicate::at_least_one(cfg.processes, "ok");
        let algo = control_disjunctive(&dep, &pred, OfflineOptions::default());
        let p2 = pred.clone();
        let oracle = find_satisfying_interleaving(&dep, 3_000_000, move |d, g| p2.eval(d, g));
        let Ok(oracle) = oracle else { return Ok(()); }; // budget: skip
        prop_assert_eq!(algo.is_ok(), oracle.is_some());
        if let Err(inf) = algo {
            prop_assert!(predicate_control::control::overlap::is_overlapping(
                &dep,
                &inf.witness
            ));
        }
    }

    /// Lemma 2 both ways via the detect crate's independent implementation
    /// (interleaving / enforceable semantics).
    #[test]
    fn lemma2_overlap_iff_infeasible((cfg, seed) in arb_world()) {
        let dep = random_deposet(&cfg, seed);
        let pred = DisjunctivePredicate::at_least_one(cfg.processes, "ok");
        let overlap = definitely_all_false(&dep, &pred).is_some();
        let p2 = pred.clone();
        let Ok(seq) = find_satisfying_interleaving(&dep, 3_000_000, move |d, g| p2.eval(d, g))
        else { return Ok(()); };
        prop_assert_eq!(overlap, seq.is_none());
    }

    /// Replay of any traced computation (no control) is faithful and
    /// reproduces the message structure.
    #[test]
    fn replay_identity((cfg, seed) in arb_world()) {
        let dep = random_deposet(&cfg, seed);
        let out = replay(&dep, &ControlRelation::empty(), &ReplayConfig::default());
        prop_assert!(out.completed());
        prop_assert!(out.fidelity(&dep));
        prop_assert_eq!(
            out.sim.metrics.counter("msgs_app") as usize,
            dep.messages().len()
        );
    }

    /// Controlled replay: enforce any synthesized relation; the replay
    /// completes (non-interference ⇒ no deadlock), stays faithful, and the
    /// replayed trace satisfies B on every consistent cut (via GW).
    #[test]
    fn controlled_replay_safety((cfg, seed) in arb_world()) {
        let dep = random_deposet(&cfg, seed);
        let pred = DisjunctivePredicate::at_least_one(cfg.processes, "ok");
        if let Ok(rel) = control_disjunctive(&dep, &pred, OfflineOptions::default()) {
            let out = replay(&dep, &rel, &ReplayConfig::default());
            prop_assert!(out.completed(), "replay deadlocked");
            prop_assert!(out.fidelity(&dep));
            prop_assert!(detect_disjunctive_violation(out.deposet(), &pred).is_none());
        }
    }

    /// The GW weak detector agrees with exhaustive search over the lattice
    /// on arbitrary mixed-polarity conjunctions.
    #[test]
    fn gw_detection_exact((cfg, seed) in arb_world()) {
        use predicate_control::deposet::lattice::find_all_consistent;
        let dep = random_deposet(&cfg, seed);
        let n = cfg.processes;
        let locals: Vec<LocalPredicate> = (0..n)
            .map(|i| {
                if (seed as usize + i).is_multiple_of(2) {
                    LocalPredicate::var("ok")
                } else {
                    LocalPredicate::not_var("ok")
                }
            })
            .collect();
        let fast = possibly_conjunction(&dep, &locals);
        let slow = find_all_consistent(&dep, 3_000_000, |d, g| {
            locals
                .iter()
                .enumerate()
                .all(|(i, l)| l.eval(d.state(g.state_of(pctl_ids::pid(i)))))
        });
        let Ok(slow) = slow else { return Ok(()); };
        prop_assert_eq!(fast.is_some(), !slow.is_empty());
        if let Some(g) = fast {
            prop_assert!(slow.contains(&g));
        }
    }
}

mod pctl_ids {
    pub fn pid(i: usize) -> predicate_control::causality::ProcessId {
        predicate_control::causality::ProcessId(i as u32)
    }
}
