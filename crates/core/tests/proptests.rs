//! Property-based cross-validation of the computation-store fast paths
//! against the layer-local reference implementations they replaced.
//!
//! The store (`pctl_deposet::store`) is now the single home of the Lemma 2
//! overlap primitives; these tests pin it to the exponential brute-force
//! searcher kept in `pctl_core::overlap` and to the engine built on top.
//! Extended clocks (`ControlledDeposet`) are pinned to an explicit
//! transitive closure over chains, messages and control pairs, and so is the
//! generic lattice walk run over the controlled store. The worklist
//! Garg–Waldecker detector is pinned to the quadratic-rescan loop it
//! replaced, on base and controlled stores, and to its `precedes` budget.

use pctl_causality::{ProcessId, StateId};
use pctl_core::offline::{OfflineOptions, SelectPolicy};
use pctl_core::overlap::{find_overlap_brute, is_overlapping};
use pctl_core::verify::{verify_disjunctive, verify_regular, VerifyError};
use pctl_core::{ControlError, ControlRelation, ControlledDeposet, PredicateEngine};
use pctl_deposet::generator::{pipelined_workload, random_deposet, CsConfig, RandomConfig};
use pctl_deposet::{
    lattice, store, CausalStore, Deposet, DeposetBuilder, DisjunctivePredicate, FalseIntervals,
    GlobalState, LocalPredicate, PredicateClass, RegularPredicate,
};
use proptest::prelude::*;
use std::cell::Cell;

mod common;
use common::{controlled_cuts, event_dag, extended_dag, meet};

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

/// Whether every consecutive pair of `cycle`, the last back to the first
/// included, is a local step, a message or a control pair of `rel`; with
/// `events`, whether the event entering each state is ordered before the
/// one entering the next by a local step, or by a message or control pair
/// out of the state it leaves.
fn is_genuine_cycle(dep: &Deposet, rel: &ControlRelation, cycle: &[StateId], events: bool) -> bool {
    let arrow = |x: StateId, y: StateId| {
        dep.messages().iter().any(|m| (m.from, m.to) == (x, y)) || rel.pairs().contains(&(x, y))
    };
    !cycle.is_empty()
        && cycle.iter().enumerate().all(|(k, &x)| {
            let y = cycle[(k + 1) % cycle.len()];
            let local = x.process == y.process && x.index + 1 == y.index;
            let from = if events { x.predecessor() } else { Some(x) };
            local || from.is_some_and(|f| arrow(f, y))
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

/// A store that counts its `precedes` calls.
struct Counting<'a, C> {
    inner: &'a C,
    calls: Cell<u64>,
}

impl<'a, C: CausalStore> Counting<'a, C> {
    fn new(inner: &'a C) -> Self {
        Counting {
            inner,
            calls: Cell::new(0),
        }
    }

    /// `possibly_from_queues` over this store, with its `precedes` count.
    fn run(&self, queues: &[Vec<u32>]) -> (Option<GlobalState>, u64) {
        let cut = store::possibly_from_queues(self, queues);
        (cut, self.calls.get())
    }
}

impl<C: CausalStore> CausalStore for Counting<'_, C> {
    fn process_count(&self) -> usize {
        self.inner.process_count()
    }

    fn len_of(&self, p: ProcessId) -> usize {
        self.inner.len_of(p)
    }

    fn precedes(&self, s: StateId, t: StateId) -> bool {
        self.calls.set(self.calls.get() + 1);
        self.inner.precedes(s, t)
    }
}

/// Garg–Waldecker as a quadratic rescan: after every elimination the pair
/// scan restarts from `(0, 0)` — O(n²·T) `precedes` checks for `T`
/// candidates. The reference the worklist detector must match.
fn rescan_detector<C: CausalStore>(dep: &C, queues: &[Vec<u32>]) -> Option<GlobalState> {
    let n = queues.len();
    if queues.iter().any(Vec::is_empty) {
        return None;
    }
    let mut head = vec![0usize; n];
    let cand = |head: &[usize], i: usize| StateId::new(ProcessId(i as u32), queues[i][head[i]]);
    'restart: loop {
        for i in 0..n {
            for j in 0..n {
                if i != j && dep.precedes(cand(&head, i), cand(&head, j)) {
                    head[i] += 1;
                    if head[i] == queues[i].len() {
                        return None;
                    }
                    continue 'restart;
                }
            }
        }
        return Some(GlobalState::from_indices(
            (0..n).map(|i| queues[i][head[i]]).collect(),
        ));
    }
}

/// The worklist detector's `precedes` budget: `2·(n−1)·(n+T)` for `T`
/// candidates over `n` processes, plus, in debug builds, the `n·(n−1)`
/// checks of its closing consistency assertion.
fn detector_budget(queues: &[Vec<u32>]) -> u64 {
    let n = queues.len() as u64;
    let t: u64 = queues.iter().map(|q| q.len() as u64).sum();
    let recheck = if cfg!(debug_assertions) {
        n * n.saturating_sub(1)
    } else {
        0
    };
    2 * n.saturating_sub(1) * (n + t) + recheck
}

/// Candidate queues: state `(p, k)` is a candidate when `pick` at its flat
/// row is non-zero, and process `empty` (when it exists) has none.
fn candidate_queues(dep: &Deposet, pick: &[u8], empty: usize) -> Vec<Vec<u32>> {
    dep.processes()
        .map(|p| {
            (0..dep.len_of(p) as u32)
                .filter(|&k| {
                    let r = dep.row_of(StateId::new(p, k));
                    p.index() != empty && pick[r % pick.len()] != 0
                })
                .collect()
        })
        .collect()
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
    /// extended relation is acyclic on states and on events (see
    /// [`event_dag`]), no pair targets an initial state and none leaves a
    /// final state; on success its
    /// `precedes` is the transitive closure of chains + messages + control
    /// pairs, its `clock_entry` override agrees with the one derived from
    /// `precedes`, and the generic lattice walk over it yields exactly the
    /// base cuts whose members are pairwise unordered by that closure. On
    /// rejection the named cycle is made of genuine edges.
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
        let events_acyclic = event_dag(&dep, &rel).topo_sort().is_ok();
        match ControlledDeposet::new(&dep, rel.clone()) {
            Ok(cd) => {
                let reach = closure.expect("accepted relation must be acyclic");
                prop_assert!(events_acyclic, "accepted {}, which orders events in a cycle", &rel);
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
                let mut walked = lattice::consistent_global_states(&cd, 1_000_000).unwrap();
                walked.sort();
                prop_assert_eq!(Some(walked), controlled_cuts(&dep, &rel), "controlled cuts under {}", &rel);
            }
            Err(ControlError::Interference { cycle }) => {
                prop_assert!(closure.is_err(), "rejected an acyclic relation {}", &rel);
                prop_assert!(
                    is_genuine_cycle(&dep, &rel, &cycle, false),
                    "cycle {:?} is not in the extended relation of {}", cycle, &rel
                );
            }
            Err(ControlError::EventCycle { cycle }) => {
                prop_assert!(closure.is_ok(), "{} interferes, yet was rejected for its events", &rel);
                prop_assert!(!events_acyclic, "rejected {}, whose events are acyclic", &rel);
                prop_assert!(
                    is_genuine_cycle(&dep, &rel, &cycle, true),
                    "cycle {:?} is no cycle of events under {}", cycle, &rel
                );
            }
            Err(ControlError::InitialTarget(x, y)) => {
                prop_assert!(closure.is_ok(), "{} interferes, yet was rejected for its target", &rel);
                prop_assert!(events_acyclic, "{} orders events in a cycle, yet was rejected for its target", &rel);
                prop_assert_eq!(y.index, 0, "rejected a pair into a non-initial state");
                prop_assert!(rel.pairs().contains(&(x, y)), "rejected a pair not in {}", &rel);
            }
            Err(ControlError::FinalSource(x, y)) => {
                prop_assert!(closure.is_ok(), "{} interferes, yet was rejected for its source", &rel);
                prop_assert!(events_acyclic, "{} orders events in a cycle, yet was rejected for its source", &rel);
                prop_assert!(rel.pairs().iter().all(|(_, y)| y.index > 0), "{} targets an initial state", &rel);
                prop_assert_eq!(x, dep.top(x.process), "rejected a pair out of a non-final state");
                prop_assert!(rel.pairs().contains(&(x, y)), "rejected a pair not in {}", &rel);
            }
            Err(e) => prop_assert!(false, "unexpected error {}", e),
        }
    }

    /// Verification is detection on the controlled store, and its verdict
    /// is the lattice's: for the Figure-2 output and a random (often wrong)
    /// relation, under a disjunctive predicate and regular violations with
    /// and without `ChannelsEmpty`, a relation is refused exactly when it
    /// is cyclic on states or events, targets an initial state or leaves a
    /// final one, passes
    /// exactly when no controlled cut violates, and otherwise fails with
    /// the least violating cut. The oracle cuts come from the base lattice
    /// walk and the explicit closure ([`controlled_cuts`]), not from the
    /// controlled store's clocks.
    #[test]
    fn verify_verdict_matches_the_lattice(
        (cfg, seed) in arb_config(),
        raw in arb_pairs(),
        mask in 0u32..256,
    ) {
        let dep = random_deposet(&cfg, seed);
        let n = dep.process_count();
        let ids: Vec<StateId> = dep.state_ids().collect();
        let pick = |r: u64| ids[(r % ids.len() as u64) as usize];
        let pred = DisjunctivePredicate::at_least_one(n, "ok");
        let lit = |i: usize| {
            let l = if mask >> i & 1 == 1 { LocalPredicate::var("ok") } else { LocalPredicate::not_var("ok") };
            RegularPredicate::local(i, l)
        };
        let conj: Vec<RegularPredicate> = (0..n).filter(|i| mask >> (i + 4) & 1 == 1).map(lit).collect();
        let violations = [
            RegularPredicate::And(conj.clone()),
            RegularPredicate::And(conj.into_iter().chain([RegularPredicate::ChannelsEmpty]).collect()),
        ];
        let mut rels = vec![ControlRelation::from_pairs(raw.iter().map(|&(x, y)| (pick(x), pick(y))))];
        rels.extend(PredicateEngine::new(&dep, pred.clone()).control(OfflineOptions::default()));
        for v in &violations {
            let class = PredicateClass::regular(n as u32, v.clone());
            rels.extend(PredicateEngine::for_class(&dep, &class).unwrap().control(OfflineOptions::default()));
        }
        for rel in &rels {
            let refused = extended_dag(&dep, rel).topo_sort().is_err()
                || event_dag(&dep, rel).topo_sort().is_err()
                || rel.pairs().iter().any(|&(x, y)| y.index == 0 || x == dep.top(x.process));
            let cuts = controlled_cuts(&dep, rel).unwrap_or_default();
            let check = |got: Result<(), VerifyError>, bad: &dyn Fn(&GlobalState) -> bool| {
                let least = meet(cuts.iter().filter(|g| bad(g)));
                match got {
                    Err(VerifyError::Control(e)) => prop_assert!(refused, "refused {}: {}", rel, e),
                    Ok(()) => prop_assert!(!refused && least.is_none(), "passed {}", rel),
                    Err(VerifyError::Violation { state }) => {
                        prop_assert!(!refused, "judged {}", rel);
                        prop_assert_eq!(Some(state), least, "under {}", rel);
                    }
                }
                Ok(())
            };
            check(verify_disjunctive(&dep, &pred, rel, 0), &|g| !pred.eval(&dep, g))?;
            for v in &violations {
                check(verify_regular(&dep, v, rel), &|g| v.eval(&dep, g))?;
            }
        }
    }

    /// The worklist detector returns exactly the rescan reference's cut
    /// (the unique least consistent cut of candidates, or `None`) on base
    /// and controlled stores, with random candidate subsets that include
    /// empty queues, within its `precedes` budget; walking the matching
    /// truth columns in place gives the same cut.
    #[test]
    fn worklist_detector_matches_rescan_reference(
        (cfg, seed) in arb_config(),
        raw in arb_pairs(),
        pick in proptest::collection::vec(0u8..4, 1..40),
        empty in 0usize..10,
    ) {
        let dep = random_deposet(&cfg, seed);
        let ids: Vec<StateId> = dep.state_ids().collect();
        let at = |r: u64| ids[(r % ids.len() as u64) as usize];
        let rel = ControlRelation::from_pairs(raw.iter().map(|&(x, y)| (at(x), at(y))));
        let controlled = ControlledDeposet::new(&dep, rel).ok();
        let queues = candidate_queues(&dep, &pick, empty);
        let truth: Vec<Vec<bool>> = queues
            .iter()
            .zip(dep.processes())
            .map(|(q, p)| (0..dep.len_of(p) as u32).map(|k| !q.contains(&k)).collect())
            .collect();
        let mut checks = vec![(
            rescan_detector(&dep, &queues),
            Counting::new(&dep).run(&queues),
            store::possibly_all_false(&dep, |p| &truth[p.index()]),
        )];
        if let Some(cd) = &controlled {
            checks.push((
                rescan_detector(cd, &queues),
                Counting::new(cd).run(&queues),
                store::possibly_all_false(cd, |p| &truth[p.index()]),
            ));
        }
        for (reference, (worklist, calls), columns) in checks {
            prop_assert_eq!(&worklist, &reference, "queues {:?}", &queues);
            prop_assert_eq!(&columns, &reference, "truth columns of {:?}", &queues);
            prop_assert!(calls <= detector_budget(&queues), "{} precedes calls", calls);
        }
    }
}

/// An instance family where the rescan loop is quadratic per
/// elimination: process `n−1` walks `steps` candidates that all precede
/// process 0's only candidate (its receipt of `n−1`'s last message), and
/// the rescan re-checks every pair of processes `0 … n−2` before reaching
/// `n−1` each time. The worklist stays within `2·(n−1)·(n+T)`.
#[test]
fn worklist_detector_stays_within_its_precedes_budget() {
    for (n, steps) in [(4usize, 40u32), (8, 60), (12, 100)] {
        let mut b = DeposetBuilder::new(n);
        for _ in 0..steps {
            b.internal(n - 1, &[]);
        }
        let m = b.send(n - 1, "late");
        b.recv(0, m, &[]);
        let dep = b.finish().unwrap();
        let mut queues: Vec<Vec<u32>> = dep
            .processes()
            .map(|p| (0..dep.len_of(p) as u32).collect())
            .collect();
        queues[0] = vec![1];
        let budget = detector_budget(&queues);
        let (cut, calls) = Counting::new(&dep).run(&queues);
        let expected = GlobalState::from_indices(
            [1].into_iter()
                .chain(vec![0; n - 2])
                .chain([steps + 1])
                .collect(),
        );
        assert_eq!(cut.as_ref(), Some(&expected), "n = {n}");
        assert!(
            calls <= budget,
            "n = {n}: {calls} > {budget} precedes calls"
        );
        let rescan = Counting::new(&dep);
        assert_eq!(rescan_detector(&rescan, &queues), cut);
        assert!(
            rescan.calls.get() > budget,
            "n = {n}: the family no longer separates the rescan ({} calls)",
            rescan.calls.get()
        );
    }
}
