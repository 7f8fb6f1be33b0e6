//! Property-based cross-validation of the computation-store fast paths
//! against the layer-local reference implementations they replaced.
//!
//! The store (`pctl_deposet::store`) is now the single home of the Lemma 2
//! overlap primitives; these tests pin it to the exponential brute-force
//! searcher kept in `pctl_core::overlap` and to the engine built on top.
//! Extended clocks (`ControlledDeposet`) are pinned to an explicit
//! transitive closure over chains, messages and control pairs, and so is the
//! generic lattice walk run over the controlled store.

use pctl_causality::{Dag, ProcessId, StateId};
use pctl_core::offline::{OfflineOptions, SelectPolicy};
use pctl_core::overlap::{find_overlap_brute, is_overlapping};
use pctl_core::{ControlError, ControlRelation, ControlledDeposet, PredicateEngine};
use pctl_deposet::generator::{pipelined_workload, random_deposet, CsConfig, RandomConfig};
use pctl_deposet::{
    lattice, store, CausalStore, Deposet, DisjunctivePredicate, FalseIntervals, GlobalState,
};
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

/// The local chains `im` as an explicit graph over the flat rows
/// `offsets[p] + k`.
fn chains(dep: &Deposet) -> Dag {
    let mut g = Dag::new(dep.total_states());
    for p in dep.processes() {
        let base = dep.offsets()[p.index()];
        for k in 0..dep.len_of(p) - 1 {
            g.add_edge(base + k, base + k + 1);
        }
    }
    g
}

/// The extended relation `im ∪ ; ∪ C→` as an explicit graph.
fn extended_dag(dep: &Deposet, rel: &ControlRelation) -> Dag {
    let mut g = chains(dep);
    for m in dep.messages() {
        g.add_edge(dep.row_of(m.from), dep.row_of(m.to));
    }
    for &(x, y) in rel.pairs() {
        g.add_edge(dep.row_of(x), dep.row_of(y));
    }
    g
}

/// The same relation as an order on *events*: the node of state `s` is the
/// event entering it, and `x ; y` or `x C→ y` orders the event leaving `x`
/// (the one entering its successor) before the event entering `y`. A final
/// state has no leaving event, so its control pairs add no edge. A relation
/// can be acyclic on states and still cyclic here: state `x` may reach its
/// own successor through other processes. Such a relation is unrealizable,
/// and the cuts past the event cycle are consistent yet unreachable.
fn event_dag(dep: &Deposet, rel: &ControlRelation) -> Dag {
    let mut g = chains(dep);
    let arrows = dep.messages().iter().map(|m| (m.from, m.to));
    for (x, y) in arrows.chain(rel.pairs().iter().copied()) {
        let exit = x.successor();
        if dep.contains(exit) && exit != y {
            g.add_edge(dep.row_of(exit), dep.row_of(y));
        }
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

/// A store seen through `precedes` alone: its `clock_entry` is the
/// trait's default binary search along the chain.
struct PrecedesOnly<'a, C>(&'a C);

impl<C: CausalStore> CausalStore for PrecedesOnly<'_, C> {
    fn process_count(&self) -> usize {
        self.0.process_count()
    }

    fn len_of(&self, p: ProcessId) -> usize {
        self.0.len_of(p)
    }

    fn precedes(&self, s: StateId, t: StateId) -> bool {
        self.0.precedes(s, t)
    }
}

/// Up to four control pairs, each endpoint drawn as a raw number and mapped
/// onto the computation's states.
fn arb_pairs() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0u64..1 << 32, 0u64..1 << 32), 0..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The store's front-advance `find_overlap` and the brute-force
    /// odometer agree on the *verdict* for every computation of two input
    /// families — random traces under `∨ ok`, pipelined critical sections
    /// under `∨ ¬cs` — and any witness either returns is a genuinely
    /// overlapping set.
    #[test]
    fn store_overlap_search_matches_brute_force((cfg, seed) in arb_config()) {
        let random = random_deposet(&cfg, seed);
        let pipelined = pipelined_workload(
            &CsConfig {
                processes: cfg.processes,
                sections_per_process: 3,
                ..CsConfig::default()
            },
            seed,
        );
        let inputs = [
            (random, DisjunctivePredicate::at_least_one(cfg.processes, "ok")),
            (pipelined, DisjunctivePredicate::at_least_one_not(cfg.processes, "cs")),
        ];
        for (dep, pred) in &inputs {
            let iv = FalseIntervals::extract(dep, pred);
            let fast = store::find_overlap(dep, &iv);
            let brute = find_overlap_brute(dep, &iv);
            prop_assert_eq!(fast.is_some(), brute.is_some(),
                "store and brute-force disagree on overlap existence under {:?}", pred);
            if let Some(w) = &fast {
                prop_assert!(is_overlapping(dep, w), "fast witness does not overlap");
            }
            if let Some(w) = &brute {
                prop_assert!(store::set_overlaps(dep, w), "brute witness rejected by store");
            }
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
    /// extended relation is acyclic and no pair targets an initial state;
    /// on success its `precedes` is the
    /// transitive closure of chains + messages + control pairs, its
    /// `clock_entry` override agrees with the one derived from `precedes`,
    /// and the generic lattice walk over it yields the base cuts whose
    /// members are pairwise unordered by that closure: all of them when the
    /// event order is acyclic, a subset otherwise (see [`event_dag`]). On
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
                    for q in dep.processes() {
                        prop_assert_eq!(
                            cd.clock_entry(s, q),
                            PrecedesOnly(&cd).clock_entry(s, q),
                            "clock_entry({:?},{:?}) under {}", s, q, &rel
                        );
                    }
                }
                let unordered = |g: &GlobalState| {
                    g.states().all(|s| {
                        g.states().all(|t| s == t || !reach.reaches(dep.row_of(s), dep.row_of(t)))
                    })
                };
                let mut consistent: Vec<GlobalState> =
                    lattice::consistent_global_states(&dep, 1_000_000)
                        .unwrap()
                        .into_iter()
                        .filter(unordered)
                        .collect();
                let mut walked = lattice::consistent_global_states(&cd, 1_000_000).unwrap();
                consistent.sort();
                walked.sort();
                if event_dag(&dep, &rel).topo_sort().is_ok() {
                    prop_assert_eq!(walked, consistent, "controlled cuts under {}", &rel);
                } else {
                    prop_assert!(
                        walked.iter().all(|g| consistent.binary_search(g).is_ok()),
                        "walked an inconsistent cut under {}", &rel
                    );
                }
            }
            Err(ControlError::Interference { cycle }) => {
                prop_assert!(closure.is_err(), "rejected an acyclic relation {}", &rel);
                prop_assert!(
                    is_genuine_cycle(&dep, &rel, &cycle),
                    "cycle {:?} is not in the extended relation of {}", cycle, &rel
                );
            }
            Err(ControlError::InitialTarget(x, y)) => {
                prop_assert!(closure.is_ok(), "{} interferes, yet was rejected for its target", &rel);
                prop_assert_eq!(y.index, 0, "rejected a pair into a non-initial state");
                prop_assert!(rel.pairs().contains(&(x, y)), "rejected a pair not in {}", &rel);
            }
            Err(e) => prop_assert!(false, "unexpected error {}", e),
        }
    }
}
