//! The computation store: shared Lemma-2 interval primitives and a
//! precomputed truth/interval index.
//!
//! Before this module existed, three crates carried their own copies of the
//! same two computations: (a) scanning a process's state sequence with a
//! local predicate to produce truth columns and maximal false runs
//! (`intervals::extract`, plus inline re-evaluation in the verification
//! sweep), and (b) the Lemma 2 *crossable / overlapping* pair condition
//! (`pctl-core::overlap`, `pctl-detect::strong`, and the off-line
//! algorithm's crossing loop). This module is the single home for both; the
//! other call sites delegate here.
//!
//! ## The pair condition
//!
//! A set of false intervals `I₁ … Iₙ` (one per process) *overlaps* iff
//!
//! ```text
//! ∀ i ≠ j:  (pred(Iᵢ.lo) → succ(Iⱼ.hi))  ∨  (Iᵢ.lo = ⊥ᵢ)  ∨  (Iⱼ.hi = ⊤ⱼ)
//! ```
//!
//! [`pair_overlaps`] is that disjunction for one ordered pair, and
//! [`crossable`] is its exact negation — the off-line algorithm's test for
//! whether `Iⱼ` can be fully crossed before `Iᵢ` is entered. Keeping the
//! two as literal negations of each other in one place is what makes the
//! control/detection duality (`controller exists ⟺ no overlap`) auditable.
//!
//! ## The interval index
//!
//! [`IntervalIndex`] evaluates every local predicate exactly once per state
//! into a flat truth bitmap (row-indexed like the clock arena) and derives
//! the per-process false-interval lists from the same pass. The build is
//! one sequential loop over the processes, appending each truth column in
//! place: a few hundred predicate evaluations per trace cost less than
//! spawning a single worker thread, and even at 10⁶ states the loop is a
//! small share of decoding and building the computation.

use crate::causal::CausalStore;
use crate::intervals::{FalseIntervals, Interval};
use crate::model::Deposet;
use crate::predicate::{DisjunctivePredicate, LocalPredicate};
use pctl_causality::{ProcessId, StateId};

/// Evaluate `local` once on every state of process `p`: the truth column.
pub fn truth_of_process(dep: &Deposet, p: ProcessId, local: &LocalPredicate) -> Vec<bool> {
    dep.states_of(p).iter().map(|s| local.eval(s)).collect()
}

/// Run-scan a truth column into its maximal *false* runs.
///
/// # Panics
/// Panics if the column is longer than `u32` interval bounds can address —
/// deposet construction already rejects such computations with
/// `TooManyStates`, so this guards direct callers only.
pub fn intervals_from_truth(p: ProcessId, truth: &[bool]) -> Vec<Interval> {
    assert!(
        truth.len() <= pctl_causality::arena::MAX_ROWS,
        "truth column length {} exceeds u32 interval bounds",
        truth.len()
    );
    let mut out = Vec::new();
    let mut run_start: Option<u32> = None;
    for (k, &t) in truth.iter().enumerate() {
        match (t, run_start) {
            (false, None) => run_start = Some(k as u32),
            (true, Some(lo)) => {
                out.push(Interval {
                    process: p,
                    lo,
                    hi: k as u32 - 1,
                });
                run_start = None;
            }
            _ => {}
        }
    }
    if let Some(lo) = run_start {
        out.push(Interval {
            process: p,
            lo,
            hi: truth.len() as u32 - 1,
        });
    }
    out
}

/// Can `ij` be fully crossed before `ii` is entered? True iff `ii` does not
/// start at `⊥`, `ij` does not end at `⊤`, and the event entering `ii`
/// does **not** happen-before the event ending `ij`. Exact negation of
/// [`pair_overlaps`].
///
/// Generic over any [`CausalStore`] so the same Lemma 2 primitive serves
/// both the batch [`Deposet`] and a growing per-session store.
pub fn crossable<C: CausalStore + ?Sized>(dep: &C, ii: &Interval, ij: &Interval) -> bool {
    ii.lo != 0
        && (ij.hi as usize) < dep.len_of(ij.process) - 1
        && !dep.precedes(
            ii.lo_state().predecessor().expect("lo ≠ ⊥ checked above"),
            ij.hi_state().successor(),
        )
}

/// The Lemma 2 condition for one ordered pair `(ii, ij)`:
/// `pred(ii.lo) → succ(ij.hi)`, or `ii.lo = ⊥`, or `ij.hi = ⊤`.
pub fn pair_overlaps<C: CausalStore + ?Sized>(dep: &C, ii: &Interval, ij: &Interval) -> bool {
    !crossable(dep, ii, ij)
}

/// Check the overlap condition on a full set (one interval per process).
///
/// # Panics
/// Panics if `set` does not have exactly one interval per process of `dep`.
pub fn set_overlaps<C: CausalStore + ?Sized>(dep: &C, set: &[Interval]) -> bool {
    assert_eq!(set.len(), dep.process_count(), "one interval per process");
    for (i, ii) in set.iter().enumerate() {
        for (j, ij) in set.iter().enumerate() {
            if i != j && crossable(dep, ii, ij) {
                return false;
            }
        }
    }
    true
}

/// Polynomial front-advance search for an overlapping set: one interval
/// per process drawn from each list in `intervals`. Returns the witness or
/// `None`.
///
/// While some pair `(i, j)` has `crossable(front(i), front(j))`, the front
/// interval of `j` can be discarded — it can be fully crossed before
/// `front(i)` (or any later interval of `i`) is entered, so it belongs to
/// no overlapping set. If some process runs out of intervals there is no
/// overlap; if no pair is crossable the fronts are the witness.
///
/// Discards are processed with a worklist instead of restarting the pair
/// scan from scratch after every advance: only pairs involving a process
/// whose front *changed* can become crossable (the other pairs' verdicts
/// depend solely on their own unchanged fronts), so each changed process is
/// pushed once and rechecked against every partner in both directions.
/// Because `crossable` is monotone in its first argument along a process
/// chain (`pred(I.lo) → pred(I'.lo)` for a later interval `I'`), a discard
/// justified once stays justified forever — the discard order cannot change
/// the fixpoint, and the result (including the exact witness) is identical
/// to the quadratic-rescan formulation. Cost drops from `O(T·n²)` to
/// `O((T + n)·n)` crossability checks for `T` total intervals.
pub fn find_overlap<C: CausalStore + ?Sized>(
    dep: &C,
    intervals: &FalseIntervals,
) -> Option<Vec<Interval>> {
    let n = dep.process_count();
    assert_eq!(intervals.process_count(), n);
    let mut pos = vec![0usize; n];
    let front = |pos: &[usize], i: usize| -> Option<Interval> {
        intervals.of(ProcessId(i as u32)).get(pos[i]).copied()
    };
    // Every process starts dirty: all pairs are unchecked.
    let mut stack: Vec<usize> = (0..n).collect();
    let mut on_stack = vec![true; n];
    while let Some(p) = stack.pop() {
        on_stack[p] = false;
        'rescan: loop {
            let fp = front(&pos, p)?;
            for q in 0..n {
                if q == p {
                    continue;
                }
                let fq = front(&pos, q)?;
                if crossable(dep, &fq, &fp) {
                    // front(p) can be crossed before front(q) is entered.
                    pos[p] += 1;
                    continue 'rescan; // p's pairs need rechecking now
                }
                if crossable(dep, &fp, &fq) {
                    pos[q] += 1;
                    front(&pos, q)?; // q ran out of intervals ⇒ infeasible
                    if !on_stack[q] {
                        stack.push(q);
                        on_stack[q] = true;
                    }
                }
            }
            break; // p survived a full scan with its current front
        }
    }
    // No dirty process ⇒ every pair was checked against the current fronts
    // and none is crossable: the fronts are the witness.
    let witness: Vec<Interval> = (0..n).map(|i| front(&pos, i).unwrap()).collect();
    debug_assert!(set_overlaps(dep, &witness));
    Some(witness)
}

/// Precomputed truth bitmap + false intervals for one local predicate per
/// process, over a whole computation.
///
/// The truth bitmap is flat and row-indexed exactly like the deposet's
/// clock arena: state `s` occupies bit `offsets[proc(s)] + s.idx()`. Every
/// predicate is evaluated exactly once per state, at build time; all later
/// queries are array reads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IntervalIndex {
    offsets: Vec<usize>,
    truth: Vec<bool>,
    intervals: FalseIntervals,
}

impl IntervalIndex {
    /// Build the index for a disjunctive predicate (one local per process).
    ///
    /// # Panics
    /// Panics if the predicate arity differs from the process count.
    pub fn build(dep: &Deposet, pred: &DisjunctivePredicate) -> Self {
        assert_eq!(
            pred.arity(),
            dep.process_count(),
            "disjunctive predicate arity must equal process count"
        );
        let locals: Vec<&LocalPredicate> = dep.processes().map(|p| pred.local(p)).collect();
        Self::build_refs(dep, &locals)
    }

    /// Build the index from explicit per-process local predicates.
    pub fn build_each(dep: &Deposet, locals: &[LocalPredicate]) -> Self {
        assert_eq!(locals.len(), dep.process_count());
        let refs: Vec<&LocalPredicate> = locals.iter().collect();
        Self::build_refs(dep, &refs)
    }

    fn build_refs(dep: &Deposet, locals: &[&LocalPredicate]) -> Self {
        let _prof = pctl_prof::span("interval_index_build");
        let offsets = dep.offsets().to_vec();
        let mut truth = Vec::with_capacity(*offsets.last().unwrap_or(&0));
        let per_proc: Vec<Vec<Interval>> = dep
            .processes()
            .map(|p| {
                let from = truth.len();
                truth.extend(dep.states_of(p).iter().map(|s| locals[p.index()].eval(s)));
                intervals_from_truth(p, &truth[from..])
            })
            .collect();
        pctl_prof::set_gauge(
            "interval_count",
            per_proc.iter().map(|iv| iv.len() as u64).sum(),
        );
        pctl_prof::set_gauge("truth_column_bytes", truth.len() as u64);
        IntervalIndex {
            offsets,
            truth,
            intervals: FalseIntervals::from_raw(per_proc),
        }
    }

    /// The truth value of the indexed local predicate at state `s`.
    #[inline]
    pub fn truth(&self, s: StateId) -> bool {
        self.truth[self.offsets[s.process.index()] + s.idx()]
    }

    /// The truth column of process `p`.
    pub fn truths_of(&self, p: ProcessId) -> &[bool] {
        &self.truth[self.offsets[p.index()]..self.offsets[p.index() + 1]]
    }

    /// The derived false-interval lists.
    pub fn intervals(&self) -> &FalseIntervals {
        &self.intervals
    }

    /// Consume the index, keeping only the interval lists.
    pub fn into_intervals(self) -> FalseIntervals {
        self.intervals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DeposetBuilder;
    use crate::generator::{random_deposet, RandomConfig};

    fn two_proc() -> Deposet {
        let mut b = DeposetBuilder::new(2);
        b.init_vars(0, &[("ok", 1)]);
        b.init_vars(1, &[("ok", 0)]);
        b.internal(0, &[("ok", 0)]);
        b.internal(0, &[("ok", 1)]);
        b.internal(1, &[("ok", 1)]);
        b.finish().unwrap()
    }

    #[test]
    fn truth_and_runs_compose_to_extract() {
        let dep = two_proc();
        let pred = DisjunctivePredicate::at_least_one(2, "ok");
        let idx = IntervalIndex::build(&dep, &pred);
        assert_eq!(idx.truths_of(ProcessId(0)), &[true, false, true]);
        assert_eq!(idx.truths_of(ProcessId(1)), &[false, true]);
        assert!(idx.truth(StateId::new(0usize, 0)));
        assert!(!idx.truth(StateId::new(1usize, 0)));
        assert_eq!(idx.intervals(), &FalseIntervals::extract(&dep, &pred));
    }

    #[test]
    fn index_matches_extract_on_random_traces() {
        for seed in 0..20 {
            let cfg = RandomConfig {
                processes: 4,
                events: 30,
                ..RandomConfig::default()
            };
            let dep = random_deposet(&cfg, seed);
            let pred = DisjunctivePredicate::at_least_one(4, "ok");
            let idx = IntervalIndex::build(&dep, &pred);
            assert_eq!(idx.intervals(), &FalseIntervals::extract(&dep, &pred));
            for s in dep.state_ids() {
                assert_eq!(idx.truth(s), pred.local(s.process).eval(dep.state(s)));
            }
        }
    }

    #[test]
    fn crossable_is_the_exact_negation_of_pair_overlaps() {
        for seed in 0..10 {
            let cfg = RandomConfig {
                processes: 3,
                events: 24,
                ..RandomConfig::default()
            };
            let dep = random_deposet(&cfg, seed);
            let iv = FalseIntervals::extract(&dep, &DisjunctivePredicate::at_least_one(3, "ok"));
            for p in dep.processes() {
                for q in dep.processes() {
                    for ii in iv.of(p) {
                        for ij in iv.of(q) {
                            assert_ne!(crossable(&dep, ii, ij), pair_overlaps(&dep, ii, ij));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_truth_column_yields_no_intervals() {
        assert_eq!(intervals_from_truth(ProcessId(0), &[]), vec![]);
        assert_eq!(
            intervals_from_truth(ProcessId(1), &[false, false]),
            vec![Interval {
                process: ProcessId(1),
                lo: 0,
                hi: 1
            }]
        );
    }
}
