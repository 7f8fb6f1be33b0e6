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
//!   off the truth bitmap (no re-evaluation); for a regular class, the least
//!   satisfying cut, found once at construction by one upward closure;
//! * [`infeasibility_witness`](PredicateEngine::infeasibility_witness) —
//!   the Lemma 2 overlap search (strong detection), again over the cached
//!   intervals;
//! * [`verify`](PredicateEngine::verify) — soundness of a synthesized
//!   relation: the same detection, run over the controlled store.
//!
//! The control/detection duality (`controller exists ⟺ no overlapping
//! set`) thus runs against literally the same interval data, not two
//! independently-extracted copies. A regular class builds its computation
//! slice, the interval data of that class, only when a query first needs
//! it; detection never does.

use crate::control::ControlRelation;
use crate::offline::{control_intervals, Infeasible, OfflineOptions, OfflineStats};
use crate::verify::{detect_under, verify_regular, VerifyError};
use pctl_deposet::store;
use pctl_deposet::{
    least_satisfying_cut_of, ClassError, Deposet, DisjunctivePredicate, FalseIntervals,
    GlobalState, Interval, IntervalIndex, PredicateClass, RegularPredicate, SlicedDeposet, StateId,
};
use std::sync::OnceLock;

/// The per-class derived store: what "build once, answer everything from
/// it" means for each predicate class.
enum ClassState {
    /// The paper's path, untouched: truth bitmap + false intervals.
    Disjunctive {
        pred: DisjunctivePredicate,
        index: IntervalIndex,
    },
    /// The least satisfying cut of the regular violation, found at
    /// construction, and its computation slice, built on first use. The
    /// slice's frontier-possible runs play the role the false intervals
    /// play for the disjunctive class (a satisfying cut has *every*
    /// frontier inside them), so the identical interval algorithms run
    /// downstream.
    Regular {
        violation: RegularPredicate,
        least_cut: Option<GlobalState>,
        // Boxed: the slice's columnar payload dwarfs the disjunctive
        // variant, and the engine only ever holds one.
        slice: OnceLock<Box<SlicedDeposet>>,
    },
}

/// A computation + predicate class, with the derived store cached.
///
/// Borrows the deposet. A disjunctive predicate is evaluated once, at
/// construction, into the index. A regular violation is evaluated at
/// construction only at the states its least-cut closure visits, and over
/// every state when the slice is first needed.
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
    /// [`PredicateEngine::new`] path (bit-identical verdicts). A regular
    /// class finds its least satisfying cut here, which answers
    /// [`detect_violation`](Self::detect_violation); the slice is built
    /// once, the first time [`intervals`](Self::intervals),
    /// [`truth`](Self::truth), [`slice`](Self::slice),
    /// [`control`](Self::control) or
    /// [`infeasibility_witness`](Self::infeasibility_witness) needs it.
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
                let least_cut = least_satisfying_cut_of(dep, dep, violation)?;
                Ok(PredicateEngine {
                    dep,
                    class: ClassState::Regular {
                        violation: violation.clone(),
                        least_cut,
                        slice: OnceLock::new(),
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

    /// The computation slice, for regular classes, built on the first
    /// call.
    pub fn slice(&self) -> Option<&SlicedDeposet> {
        match &self.class {
            ClassState::Disjunctive { .. } => None,
            ClassState::Regular {
                violation, slice, ..
            } => Some(slice.get_or_init(|| {
                Box::new(
                    SlicedDeposet::build(self.dep, violation)
                        .expect("the class was validated in for_class"),
                )
            })),
        }
    }

    /// The slice of a regular-class engine, built on first use.
    fn built_slice(&self) -> &SlicedDeposet {
        self.slice().expect("regular engine")
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
            ClassState::Regular { .. } => self.built_slice().frontier_intervals(),
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
            ClassState::Regular { .. } => !self.built_slice().frontier_possible(s),
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
    /// disjunction `B`. Candidate queues are read off the truth bitmap. For
    /// a regular class, the least satisfying cut found at construction.
    pub fn detect_violation(&self) -> Option<GlobalState> {
        let _prof = pctl_prof::span("engine_detect_violation");
        match &self.class {
            ClassState::Disjunctive { index, .. } => {
                store::possibly_all_false(self.dep, |p| index.truths_of(p))
            }
            ClassState::Regular { least_cut, .. } => least_cut.clone(),
        }
    }

    /// Verify that `rel` makes the computation satisfy the predicate:
    /// [`detect_violation`](Self::detect_violation) run over the controlled
    /// store, reading the cached truth columns. Exact and polynomial.
    pub fn verify(&self, rel: &ControlRelation) -> Result<(), VerifyError> {
        let _prof = pctl_prof::span("engine_verify");
        match &self.class {
            ClassState::Disjunctive { index, .. } => detect_under(self.dep, rel, |c| {
                store::possibly_all_false(c, |p| index.truths_of(p))
            }),
            ClassState::Regular { violation, .. } => verify_regular(self.dep, violation, rel),
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
                    assert!(eng.verify(&rel).is_ok(), "seed {seed}");
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
                assert!(reg.verify(&rel).is_ok(), "seed {seed}");
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
            assert!(eng.verify(&rel).is_ok());
        }
    }

    /// A regular engine builds its slice only when a query needs it, and
    /// only once. The profiler is process-wide, so each step runs under
    /// its own top-level span and only paths below it are counted.
    #[test]
    fn regular_engine_slices_on_first_control_only() {
        fn slice_builds_under(step: &'static str, f: impl FnOnce()) -> u64 {
            {
                let _step = pctl_prof::span(step);
                f();
            }
            pctl_prof::report()
                .phases
                .iter()
                .filter(|(path, _)| path.starts_with(step) && path.ends_with("slice_build"))
                .map(|(_, p)| p.count)
                .sum()
        }
        let dep = random_deposet(
            &RandomConfig {
                processes: 3,
                events: 30,
                ..RandomConfig::default()
            },
            42,
        );
        let class = PredicateClass::regular(3, RegularPredicate::conj_var(&[0, 1], "ok"));
        pctl_prof::set_enabled(true);
        let mut eng = None;
        let detect = slice_builds_under("lazy_slice_test_detect", || {
            let e = PredicateEngine::for_class(&dep, &class).unwrap();
            e.detect_violation();
            eng = Some(e);
        });
        let eng = eng.unwrap();
        let first = slice_builds_under("lazy_slice_test_control_1", || {
            let _ = eng.control(OfflineOptions::default());
        });
        let second = slice_builds_under("lazy_slice_test_control_2", || {
            let _ = eng.control(OfflineOptions::default());
        });
        pctl_prof::set_enabled(false);
        assert_eq!((detect, first, second), (0, 1, 0));
        assert_eq!(
            eng.detect_violation().as_ref(),
            eng.slice().unwrap().min_cut(),
            "the least cut is the slice's min cut"
        );
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
