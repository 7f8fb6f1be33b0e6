//! Property-based cross-validation of the computation-store fast paths
//! against the layer-local reference implementations they replaced.
//!
//! The store (`pctl_deposet::store`) is now the single home of the Lemma 2
//! overlap primitives; these tests pin it to the exponential brute-force
//! searcher kept in `pctl_core::overlap` and to the engine built on top.
//! Extended clocks (`ControlledDeposet`) are pinned to an explicit
//! transitive closure over chains, messages and control pairs.

use pctl_causality::{Dag, StateId};
use pctl_core::offline::{OfflineOptions, SelectPolicy};
use pctl_core::overlap::{find_overlap_brute, is_overlapping};
use pctl_core::{ControlError, ControlRelation, ControlledDeposet, PredicateEngine};
use pctl_deposet::generator::{random_deposet, RandomConfig};
use pctl_deposet::{store, Deposet, DisjunctivePredicate, FalseIntervals};
use proptest::prelude::*;

/// Small universes: `find_overlap_brute` is O(pⁿ·n²).
fn arb_config() -> impl Strategy<Value = (RandomConfig, u64)> {
    (1usize..5, 0usize..24, 0u64..1_000_000).prop_map(|(n, events, seed)| {
        (
            RandomConfig {
                processes: n,
                events,
                send_prob: 0.4,
                flip_prob: 0.4,
            },
            seed,
        )
    })
}

/// The extended relation `im ∪ ; ∪ C→` as an explicit graph over the flat
/// rows `offsets[p] + k`.
fn extended_dag(dep: &Deposet, rel: &ControlRelation) -> Dag {
    let mut g = Dag::new(dep.total_states());
    for p in dep.processes() {
        let base = dep.offsets()[p.index()];
        for k in 0..dep.len_of(p) - 1 {
            g.add_edge(base + k, base + k + 1);
        }
    }
    for m in dep.messages() {
        g.add_edge(dep.row_of(m.from), dep.row_of(m.to));
    }
    for &(x, y) in rel.pairs() {
        g.add_edge(dep.row_of(x), dep.row_of(y));
    }
    g
}

/// Whether every consecutive pair of `cycle`, the last back to the first
/// included, is a local step, a message or a control pair of `rel`.
fn is_genuine_cycle(dep: &Deposet, rel: &ControlRelation, cycle: &[StateId]) -> bool {
    !cycle.is_empty()
        && cycle.iter().enumerate().all(|(k, &x)| {
            let y = cycle[(k + 1) % cycle.len()];
            let local = x.process == y.process && x.index + 1 == y.index;
            let message = dep.messages().iter().any(|m| (m.from, m.to) == (x, y));
            local || message || rel.pairs().contains(&(x, y))
        })
}

/// Up to four control pairs, each endpoint drawn as a raw number and mapped
/// onto the computation's states.
fn arb_pairs() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0u64..1 << 32, 0u64..1 << 32), 0..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The store's front-advance `find_overlap` and the brute-force
    /// odometer agree on the *verdict* for every random computation, and
    /// any witness either returns is a genuinely overlapping set.
    #[test]
    fn store_overlap_search_matches_brute_force((cfg, seed) in arb_config()) {
        let dep = random_deposet(&cfg, seed);
        let pred = DisjunctivePredicate::at_least_one(dep.process_count(), "ok");
        let iv = FalseIntervals::extract(&dep, &pred);
        let fast = store::find_overlap(&dep, &iv);
        let brute = find_overlap_brute(&dep, &iv);
        prop_assert_eq!(fast.is_some(), brute.is_some(),
            "store and brute-force disagree on overlap existence");
        if let Some(w) = &fast {
            prop_assert!(is_overlapping(&dep, w), "fast witness does not overlap");
        }
        if let Some(w) = &brute {
            prop_assert!(store::set_overlaps(&dep, w), "brute witness rejected by store");
        }
    }

    /// Engine-level duality on the same store: control synthesis fails
    /// exactly when an overlapping set exists (Lemma 2 under the
    /// enforceable semantics), for every random computation.
    #[test]
    fn engine_infeasibility_is_exactly_overlap((cfg, seed) in arb_config()) {
        let dep = random_deposet(&cfg, seed);
        let pred = DisjunctivePredicate::at_least_one(dep.process_count(), "ok");
        let engine = PredicateEngine::new(&dep, pred);
        let res = engine.control(OfflineOptions {
            policy: SelectPolicy::First,
            ..OfflineOptions::default()
        });
        let witness = engine.infeasibility_witness();
        prop_assert_eq!(res.is_err(), witness.is_some(),
            "control verdict and overlap witness must be dual");
        if let Some(w) = &witness {
            prop_assert!(is_overlapping(&dep, w));
        }
    }

    /// `ControlledDeposet::new` accepts a control relation exactly when the
    /// extended relation is acyclic; on success its `precedes` is the
    /// transitive closure of chains + messages + control pairs, and on
    /// interference the named cycle is made of genuine edges.
    #[test]
    fn controlled_precedes_matches_extended_transitive_closure(
        (cfg, seed) in arb_config(),
        raw in arb_pairs(),
    ) {
        let dep = random_deposet(&cfg, seed);
        let ids: Vec<StateId> = dep.state_ids().collect();
        let pick = |r: u64| ids[(r % ids.len() as u64) as usize];
        let rel = ControlRelation::from_pairs(raw.iter().map(|&(x, y)| (pick(x), pick(y))));
        let closure = extended_dag(&dep, &rel).transitive_closure();
        match ControlledDeposet::new(&dep, rel.clone()) {
            Ok(cd) => {
                let reach = closure.expect("accepted relation must be acyclic");
                for &s in &ids {
                    for &t in &ids {
                        let truth = s != t && reach.reaches(dep.row_of(s), dep.row_of(t));
                        prop_assert_eq!(
                            cd.precedes(s, t),
                            truth,
                            "precedes({:?},{:?}) under {}", s, t, &rel
                        );
                    }
                }
            }
            Err(ControlError::Interference { cycle }) => {
                prop_assert!(closure.is_err(), "rejected an acyclic relation {}", &rel);
                prop_assert!(
                    is_genuine_cycle(&dep, &rel, &cycle),
                    "cycle {:?} is not in the extended relation of {}", cycle, &rel
                );
            }
            Err(e) => prop_assert!(false, "unexpected error {}", e),
        }
    }
}
