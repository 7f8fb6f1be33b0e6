//! The unified engine layer: one cached computation store per
//! (deposet, predicate) pair, shared by control, detection and
//! verification.
//!
//! Before this layer, every entry point re-derived the same intermediate
//! data: `control_disjunctive` extracted false intervals, the detectors
//! re-evaluated the local predicates per call, and the verification sweep
//! walked cloned predicate trees state by state. A [`PredicateEngine`]
//! builds the [`IntervalIndex`] (per-state truth bitmap + false intervals,
//! one sequential pass over the processes) exactly once and answers every
//! question from it:
//!
//! * [`control`](PredicateEngine::control) — the paper's Figure 2 off-line
//!   algorithm over the cached intervals;
//! * [`detect_violation`](PredicateEngine::detect_violation) — weak
//!   conjunctive detection of `∧ᵢ ¬lᵢ`, with candidate queues read straight
//!   off the truth bitmap (no re-evaluation);
//! * [`infeasibility_witness`](PredicateEngine::infeasibility_witness) —
//!   the Lemma 2 overlap search (strong detection), again over the cached
//!   intervals;
//! * [`verify`](PredicateEngine::verify) — exhaustive soundness check of a
//!   synthesized relation.
//!
//! The control/detection duality (`controller exists ⟺ no overlapping
//! set`) thus runs against literally the same interval data, not two
//! independently-extracted copies.

use crate::control::ControlRelation;
use crate::offline::{control_intervals, Infeasible, OfflineOptions, OfflineStats};
use crate::verify::{verify_disjunctive, verify_regular, VerifyError};
use pctl_deposet::store;
use pctl_deposet::{
    ClassError, Deposet, DisjunctivePredicate, FalseIntervals, GlobalState, Interval,
    IntervalIndex, PredicateClass, RegularPredicate, SlicedDeposet, StateId,
};

/// The per-class derived store: what "build once, answer everything from
/// it" means for each predicate class.
enum ClassState {
    /// The paper's path, untouched: truth bitmap + false intervals.
    Disjunctive {
        pred: DisjunctivePredicate,
        index: IntervalIndex,
    },
    /// Slice-then-delegate: a computation slice of the regular violation;
    /// the slice's frontier-possible runs play the role the false
    /// intervals play for the disjunctive class (a satisfying cut has
    /// *every* frontier inside them), so the identical interval algorithms
    /// run downstream.
    Regular {
        violation: RegularPredicate,
        // Boxed: the slice's columnar payload dwarfs the disjunctive
        // variant, and the engine only ever holds one.
        slice: Box<SlicedDeposet>,
    },
}

/// A computation + predicate class, with the derived store cached.
///
/// Borrows the deposet; predicate evaluation happens once, at
/// construction, into the index (disjunctive) or the slice (regular).
pub struct PredicateEngine<'a> {
    dep: &'a Deposet,
    class: ClassState,
}

impl<'a> PredicateEngine<'a> {
    /// Build the engine, evaluating every local predicate once per state.
    ///
    /// # Panics
    /// Panics if the predicate arity differs from the process count.
    pub fn new(dep: &'a Deposet, pred: DisjunctivePredicate) -> Self {
        let _prof = pctl_prof::span("engine_build");
        let index = IntervalIndex::build(dep, &pred);
        PredicateEngine {
            dep,
            class: ClassState::Disjunctive { pred, index },
        }
    }

    /// Build the engine for any [`PredicateClass`], validating it against
    /// the computation first. Disjunctive classes take exactly the
    /// [`PredicateEngine::new`] path (bit-identical verdicts); regular
    /// classes are sliced once and every query answers from the slice.
    ///
    /// For regular classes, [`control`](Self::control) is *sound but
    /// conservative*: an `Ok` relation provably prevents every satisfying
    /// cut (each such cut has all frontiers inside the slice's
    /// frontier-possible runs), while an `Err` may occur even when some
    /// cleverer controller exists outside the interval family.
    pub fn for_class(dep: &'a Deposet, class: &PredicateClass) -> Result<Self, ClassError> {
        class.validate(dep.process_count())?;
        match class {
            PredicateClass::Disjunctive(pred) => Ok(Self::new(dep, pred.clone())),
            PredicateClass::Regular { violation, .. } => {
                let _prof = pctl_prof::span("engine_build");
                let slice = Box::new(SlicedDeposet::build(dep, violation)?);
                Ok(PredicateEngine {
                    dep,
                    class: ClassState::Regular {
                        violation: violation.clone(),
                        slice,
                    },
                })
            }
        }
    }

    /// The predicate class the engine was built for.
    pub fn predicate_class(&self) -> PredicateClass {
        match &self.class {
            ClassState::Disjunctive { pred, .. } => PredicateClass::disjunctive(pred.clone()),
            ClassState::Regular { violation, .. } => {
                PredicateClass::regular(self.dep.process_count() as u32, violation.clone())
            }
        }
    }

    /// The computation slice, for regular classes.
    pub fn slice(&self) -> Option<&SlicedDeposet> {
        match &self.class {
            ClassState::Disjunctive { .. } => None,
            ClassState::Regular { slice, .. } => Some(slice),
        }
    }

    /// The underlying computation.
    pub fn deposet(&self) -> &'a Deposet {
        self.dep
    }

    /// The predicate under control/detection.
    ///
    /// # Panics
    /// Panics for a regular-class engine, which has no disjunctive form —
    /// use [`predicate_class`](Self::predicate_class) there.
    pub fn predicate(&self) -> &DisjunctivePredicate {
        match &self.class {
            ClassState::Disjunctive { pred, .. } => pred,
            ClassState::Regular { .. } => {
                panic!("regular-class engine has no disjunctive predicate")
            }
        }
    }

    /// The cached per-process interval lists the control algorithms run
    /// over: false intervals of the disjuncts (disjunctive), or the
    /// slice's frontier-possible runs (regular).
    pub fn intervals(&self) -> &FalseIntervals {
        match &self.class {
            ClassState::Disjunctive { index, .. } => index.intervals(),
            ClassState::Regular { slice, .. } => slice.frontier_intervals(),
        }
    }

    /// Per-state "good" bit, from the cached store (no predicate
    /// evaluation): truth of the local disjunct `l_{proc(s)}` at `s`
    /// (disjunctive), or "`s` cannot be the frontier of any violating cut"
    /// (regular). In both classes, a state with a false bit is one the
    /// controller may have to steer around.
    pub fn truth(&self, s: StateId) -> bool {
        match &self.class {
            ClassState::Disjunctive { index, .. } => index.truth(s),
            ClassState::Regular { slice, .. } => !slice.frontier_possible(s),
        }
    }

    /// Run the off-line control algorithm (the paper's Figure 2) over the
    /// cached intervals.
    pub fn control(&self, opts: OfflineOptions) -> Result<ControlRelation, Infeasible> {
        self.control_with_stats(opts).0
    }

    /// [`control`](Self::control), also returning operation counts.
    pub fn control_with_stats(
        &self,
        opts: OfflineOptions,
    ) -> (Result<ControlRelation, Infeasible>, OfflineStats) {
        let _prof = pctl_prof::span("engine_control");
        control_intervals(self.dep, self.intervals(), opts)
    }

    /// Strong detection: search for a pairwise-overlapping set of false
    /// intervals (Lemma 2). `Some` iff no controller exists — the witness
    /// the control algorithm would also surface as [`Infeasible`].
    pub fn infeasibility_witness(&self) -> Option<Vec<Interval>> {
        let _prof = pctl_prof::span("engine_infeasibility");
        store::find_overlap(self.dep, self.intervals())
    }

    /// Weak detection: the earliest consistent cut where every local
    /// predicate is false (`possibly(∧ᵢ ¬lᵢ)`), i.e. a violation of the
    /// disjunction `B`. Candidate queues are read off the truth bitmap.
    pub fn detect_violation(&self) -> Option<GlobalState> {
        let _prof = pctl_prof::span("engine_detect_violation");
        match &self.class {
            ClassState::Disjunctive { index, .. } => {
                store::possibly_all_false(self.dep, |p| index.truths_of(p))
            }
            // The slice's least cut *is* the earliest satisfying cut.
            ClassState::Regular { slice, .. } => slice.min_cut().cloned(),
        }
    }

    /// Exhaustively verify that `rel` makes the computation satisfy the
    /// predicate (bounded by `limit` visited cuts).
    pub fn verify(&self, rel: &ControlRelation, limit: usize) -> Result<(), VerifyError> {
        let _prof = pctl_prof::span("engine_verify");
        match &self.class {
            ClassState::Disjunctive { pred, .. } => verify_disjunctive(self.dep, pred, rel, limit),
            ClassState::Regular { violation, .. } => {
                verify_regular(self.dep, violation, rel, limit)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::control_disjunctive;
    use pctl_deposet::generator::{cs_workload, random_deposet, CsConfig, RandomConfig};
    use pctl_deposet::DeposetBuilder;

    #[test]
    fn engine_agrees_with_the_standalone_entry_points() {
        for seed in 0..10 {
            let dep = cs_workload(
                &CsConfig {
                    processes: 3,
                    sections_per_process: 3,
                    ..CsConfig::default()
                },
                seed,
            );
            let pred = DisjunctivePredicate::at_least_one_not(3, "cs");
            let eng = PredicateEngine::new(&dep, pred.clone());
            let opts = OfflineOptions::default();
            assert_eq!(
                eng.control(opts),
                control_disjunctive(&dep, &pred, opts),
                "seed {seed}"
            );
            assert_eq!(
                eng.detect_violation(),
                store::detect_disjunctive_violation(&dep, &pred),
                "seed {seed}"
            );
            assert_eq!(
                eng.infeasibility_witness(),
                store::definitely_all_false(&dep, &pred),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn control_and_overlap_are_duals_on_the_same_store() {
        for seed in 0..15 {
            let dep = random_deposet(
                &RandomConfig {
                    processes: 3,
                    events: 20,
                    ..RandomConfig::default()
                },
                seed,
            );
            let eng = PredicateEngine::new(&dep, DisjunctivePredicate::at_least_one(3, "ok"));
            match eng.control(OfflineOptions::default()) {
                Ok(rel) => {
                    assert!(eng.infeasibility_witness().is_none(), "seed {seed}");
                    assert!(eng.verify(&rel, 500_000).is_ok(), "seed {seed}");
                }
                Err(inf) => {
                    let w = eng.infeasibility_witness().expect("dual witness");
                    assert!(store::set_overlaps(&dep, &w), "seed {seed}");
                    assert!(store::set_overlaps(&dep, &inf.witness), "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn for_class_disjunctive_is_bit_identical_to_new() {
        use pctl_deposet::PredicateClass;
        for seed in 0..10 {
            let dep = random_deposet(
                &RandomConfig {
                    processes: 3,
                    events: 24,
                    ..RandomConfig::default()
                },
                seed,
            );
            let pred = DisjunctivePredicate::at_least_one(3, "ok");
            let direct = PredicateEngine::new(&dep, pred.clone());
            let via_class =
                PredicateEngine::for_class(&dep, &PredicateClass::disjunctive(pred)).unwrap();
            let opts = OfflineOptions::default();
            assert_eq!(direct.control(opts), via_class.control(opts), "seed {seed}");
            assert_eq!(
                direct.detect_violation(),
                via_class.detect_violation(),
                "seed {seed}"
            );
            assert_eq!(
                direct.infeasibility_witness(),
                via_class.infeasibility_witness(),
                "seed {seed}"
            );
            assert_eq!(direct.intervals(), via_class.intervals(), "seed {seed}");
            for s in dep.state_ids() {
                assert_eq!(direct.truth(s), via_class.truth(s), "seed {seed}");
            }
        }
    }

    #[test]
    fn regular_engine_detects_the_same_violations_as_the_disjunctive_path() {
        use pctl_deposet::{LocalPredicate, PredicateClass, RegularPredicate};
        // The violation of `∨ᵢ okᵢ` is the *regular* predicate `∧ᵢ ¬okᵢ`;
        // both engines must find a violation on exactly the same inputs
        // (the regular detector returns the slice's least cut, the
        // disjunctive one the earliest weak-conjunctive cut — existence
        // must agree, and both witnesses must actually violate).
        for seed in 0..15 {
            let dep = random_deposet(
                &RandomConfig {
                    processes: 3,
                    events: 24,
                    ..RandomConfig::default()
                },
                seed,
            );
            let pred = DisjunctivePredicate::at_least_one(3, "ok");
            let violation = RegularPredicate::And(
                (0..3)
                    .map(|i| RegularPredicate::local(i as usize, LocalPredicate::not_var("ok")))
                    .collect(),
            );
            let disj = PredicateEngine::new(&dep, pred.clone());
            let reg =
                PredicateEngine::for_class(&dep, &PredicateClass::regular(3, violation.clone()))
                    .unwrap();
            let d = disj.detect_violation();
            let r = reg.detect_violation();
            assert_eq!(d.is_some(), r.is_some(), "seed {seed}");
            if let Some(g) = &r {
                assert!(violation.eval(&dep, g), "seed {seed}: witness must violate");
                assert!(!pred.eval(&dep, g), "seed {seed}");
            }
            // Slice-then-delegate control, when feasible, must verify.
            if let Ok(rel) = reg.control(OfflineOptions::default()) {
                assert!(reg.verify(&rel, 500_000).is_ok(), "seed {seed}");
            }
        }
    }

    #[test]
    fn regular_engine_covers_a_scenario_disjunctive_cannot_express() {
        use pctl_deposet::{PredicateClass, RegularPredicate};
        // Subset conjunction over 3 processes: "P0 and P1 both in their
        // critical section" — not expressible as a DisjunctivePredicate
        // (which needs exactly one disjunct per process).
        let dep = random_deposet(
            &RandomConfig {
                processes: 3,
                events: 30,
                ..RandomConfig::default()
            },
            42,
        );
        let violation = RegularPredicate::conj_var(&[0, 1], "ok");
        let class = PredicateClass::regular(3, violation.clone());
        let eng = PredicateEngine::for_class(&dep, &class).unwrap();
        let detected = eng.detect_violation();
        // Oracle: brute-force lattice search.
        let oracle =
            pctl_deposet::lattice::possibly(&dep, 500_000, |d, g| violation.eval(d, g)).unwrap();
        assert_eq!(detected.is_some(), oracle.is_some());
        if let Ok(rel) = eng.control(OfflineOptions::default()) {
            assert!(eng.verify(&rel, 500_000).is_ok());
        }
    }

    #[test]
    fn truth_bitmap_matches_direct_evaluation() {
        let mut b = DeposetBuilder::new(2);
        b.init_vars(0, &[("ok", 1)]);
        b.init_vars(1, &[("ok", 0)]);
        b.internal(0, &[("ok", 0)]);
        b.internal(1, &[("ok", 1)]);
        let dep = b.finish().unwrap();
        let pred = DisjunctivePredicate::at_least_one(2, "ok");
        let eng = PredicateEngine::new(&dep, pred.clone());
        for s in dep.state_ids() {
            assert_eq!(eng.truth(s), pred.local(s.process).eval(dep.state(s)));
        }
        assert_eq!(eng.intervals(), &FalseIntervals::extract(&dep, &pred));
        assert_eq!(eng.deposet().process_count(), 2);
        assert_eq!(eng.predicate(), &pred);
    }
}
