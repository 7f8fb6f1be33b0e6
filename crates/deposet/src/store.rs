//! The computation store: the Lemma 2 interval primitives, the
//! Garg–Waldecker weak conjunctive detector, and a precomputed
//! truth/interval index.
//!
//! This module is the single home for what the detection half of the
//! paper's §7 debugging cycle computes: (a) scanning a process's state sequence
//! with a local predicate to produce truth columns and maximal false runs,
//! (b) the Lemma 2 *crossable / overlapping* pair condition and the
//! overlap search built on it (strong detection: no controller exists),
//! and (c) weak conjunctive detection (a violation is possible). The
//! off-line algorithm's crossing loop, `pctl-core`'s engines and the
//! verification sweep all call into it, generic over [`CausalStore`].
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
//! (`pred(lo)`/`succ(hi)` — the intervals' entering and ending *events* —
//! are the state-based translation of the paper's event-based condition;
//! the decided notion is the *enforceable*, interleaving-based one, see
//! `pctl-core`'s `overlap` module docs.)
//!
//! ## Weak conjunctive detection
//!
//! *Possibly(∧ᵢ lᵢ)* (Garg & Waldecker, the paper's reference \[4]): does
//! some consistent global state satisfy every local conjunct? The
//! queue-based algorithm ([`possibly_from_queues`]) keeps one candidate
//! state per process (the earliest not-yet-eliminated state satisfying its
//! conjunct) and eliminates any candidate that causally precedes another:
//! if `cand[i] → cand[j]`, then `cand[i]` also precedes every later
//! candidate of `j`, so it can never appear in a solution — advance `i`.
//! When no elimination applies the candidates are pairwise concurrent: the
//! *earliest* satisfying consistent cut. Eliminations run off a worklist,
//! as in [`find_overlap`]: only a process whose candidate moved is
//! rescanned against its partners, so `T` candidates over `n` processes
//! cost at most `2·(n−1)·(n+T)` `precedes` checks — O(n²·m) for `m`
//! candidates per process. Applied to `∧ᵢ ¬lᵢ` it detects a violation of
//! the disjunction `∨ᵢ lᵢ`.
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
use crate::global::GlobalState;
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

/// Strong detection for a disjunctive predicate's negation: does every
/// interleaved execution pass a state where all of `pred`'s disjuncts are
/// false? Returns the overlapping false-interval witness — equivalently,
/// `pred` is infeasible for the computation (the paper's "No Controller
/// Exists" case).
pub fn definitely_all_false(dep: &Deposet, pred: &DisjunctivePredicate) -> Option<Vec<Interval>> {
    find_overlap(dep, &FalseIntervals::extract(dep, pred))
}

/// Weak conjunctive detection: the earliest consistent global state where
/// every `locals[i]` holds on process `i`, or `None`. Each local predicate
/// is evaluated at most once per state, and not past the cut.
pub fn possibly_conjunction(dep: &Deposet, locals: &[LocalPredicate]) -> Option<GlobalState> {
    assert_eq!(locals.len(), dep.process_count());
    least_cut(dep, |i, k| {
        let states = &dep.states_of(ProcessId(i as u32))[k..];
        states.iter().position(|s| locals[i].eval(s)).map(|d| k + d)
    })
}

/// Detect a *violation* of a disjunctive predicate `B = ∨ᵢ lᵢ`: a
/// consistent global state where every `lᵢ` is false (possibly(∧ᵢ ¬lᵢ)).
/// This is the detector a debugging session runs before reaching for
/// predicate control.
pub fn detect_disjunctive_violation(
    dep: &Deposet,
    pred: &DisjunctivePredicate,
) -> Option<GlobalState> {
    let negated: Vec<LocalPredicate> = pred.locals().iter().map(|l| l.clone().negated()).collect();
    possibly_conjunction(dep, &negated)
}

/// [`detect_disjunctive_violation`] over precomputed truth columns:
/// `truths(p)` is the local predicate's value at every state of `p`, and
/// the candidates are its false states. The engines read the columns off
/// an [`IntervalIndex`] or a growing session store, so no predicate is
/// evaluated again, and the detector walks the columns in place.
pub fn possibly_all_false<'t, C: CausalStore + ?Sized>(
    dep: &C,
    truths: impl Fn(ProcessId) -> &'t [bool],
) -> Option<GlobalState> {
    least_cut(dep, |i, k| {
        let column = &truths(ProcessId(i as u32))[k..];
        column.iter().position(|&t| !t).map(|d| k + d)
    })
}

/// Weak conjunctive detection over *precomputed* candidate queues:
/// `queues[i]` lists (in increasing order) the state indices of process
/// `i` that satisfy its conjunct. Returns the earliest consistent cut made
/// of candidates, or `None`.
pub fn possibly_from_queues<C: CausalStore + ?Sized>(
    dep: &C,
    queues: &[Vec<u32>],
) -> Option<GlobalState> {
    assert_eq!(queues.len(), dep.process_count());
    least_cut(dep, |i, k| {
        let q = &queues[i];
        q.get(q.partition_point(|&x| (x as usize) < k))
            .map(|&x| x as usize)
    })
}

/// The worklist elimination core of weak conjunctive detection.
/// `first_from(i, k)` is process `i`'s first candidate state at index
/// `≥ k`; heads only move forward, so a linear scan behind it touches each
/// state once.
///
/// Generic over any [`CausalStore`]: elimination only needs `precedes`, so
/// the same monomorphised code serves the batch engine, the streaming
/// daemon's growing per-session stores, controlled computations and the
/// run audit. Every process starts dirty; a popped process is compared
/// with every partner in both directions, advancing whichever head
/// precedes the other. Only a moved head can make a pair eliminable again,
/// so a moved partner is pushed and a moved `i` is rescanned: at most
/// `n + T` scans of `2·(n−1)` checks each. Every elimination is forced, so
/// the order of eliminations cannot change the (unique, least) result.
fn least_cut<C: CausalStore + ?Sized>(
    dep: &C,
    mut first_from: impl FnMut(usize, usize) -> Option<usize>,
) -> Option<GlobalState> {
    let n = dep.process_count();
    let mut head = (0..n)
        .map(|i| first_from(i, 0).map(|k| k as u32))
        .collect::<Option<Vec<u32>>>()?;
    let cand = |head: &[u32], i: usize| StateId::new(ProcessId(i as u32), head[i]);
    let mut stack: Vec<usize> = (0..n).collect();
    let mut on_stack = vec![true; n];
    while let Some(i) = stack.pop() {
        on_stack[i] = false;
        'rescan: loop {
            for j in (0..n).filter(|&j| j != i) {
                if dep.precedes(cand(&head, i), cand(&head, j)) {
                    head[i] = first_from(i, head[i] as usize + 1)? as u32;
                    continue 'rescan;
                }
                if dep.precedes(cand(&head, j), cand(&head, i)) {
                    head[j] = first_from(j, head[j] as usize + 1)? as u32;
                    if !on_stack[j] {
                        stack.push(j);
                        on_stack[j] = true;
                    }
                }
            }
            break;
        }
    }
    // Pairwise non-precedence of the members is exactly cut consistency
    // (V(G[j])[i] ≤ cut[i] ⟺ ¬(G[i] → G[j])).
    debug_assert!(
        (0..n).all(|i| { (0..n).all(|j| i == j || !dep.precedes(cand(&head, i), cand(&head, j))) })
    );
    Some(GlobalState::from_indices(head))
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
    use crate::lattice::find_all_consistent;
    use crate::sequences::{find_satisfying_interleaving, find_satisfying_sequence};

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

    #[test]
    fn finds_earliest_satisfying_cut() {
        // Both processes set flag twice; earliest joint cut is ⟨1,1⟩.
        let mut b = DeposetBuilder::new(2);
        for p in 0..2 {
            b.internal(p, &[("flag", 1)]);
            b.internal(p, &[("flag", 0)]);
            b.internal(p, &[("flag", 1)]);
        }
        let dep = b.finish().unwrap();
        let locals = vec![LocalPredicate::var("flag"), LocalPredicate::var("flag")];
        let g = possibly_conjunction(&dep, &locals).unwrap();
        assert_eq!(g, GlobalState::from_indices(vec![1, 1]));
    }

    #[test]
    fn causality_forces_later_candidates() {
        // P0's flag state precedes P1's only flag state: they can't be cut
        // together unless concurrent. P0 flag at state 1 → (msg) P1 flag at
        // state 1: must advance P0 to its second flag state.
        let mut b = DeposetBuilder::new(2);
        b.internal(0, &[("flag", 1)]);
        let t = b.send_with(0, "m", &[("flag", 0)]);
        b.recv(1, t, &[("flag", 1)]);
        b.internal(0, &[("flag", 1)]); // state 3 on P0, concurrent with P1's
        let dep = b.finish().unwrap();
        let locals = vec![LocalPredicate::var("flag"), LocalPredicate::var("flag")];
        let g = possibly_conjunction(&dep, &locals).unwrap();
        assert!(g.is_consistent(&dep));
        assert_eq!(g.index_of(ProcessId(1)), 1);
        assert_eq!(
            g.index_of(ProcessId(0)),
            3,
            "P0's first flag state is eliminated"
        );
    }

    #[test]
    fn unsatisfiable_conjunction_returns_none() {
        let mut b = DeposetBuilder::new(2);
        b.internal(0, &[("flag", 1)]);
        b.internal(1, &[]);
        let dep = b.finish().unwrap();
        // P1 never sets flag.
        let locals = vec![LocalPredicate::var("flag"), LocalPredicate::var("flag")];
        assert_eq!(possibly_conjunction(&dep, &locals), None);
        // And a chain where every candidate is eliminated:
        let mut b2 = DeposetBuilder::new(2);
        b2.internal(0, &[("flag", 1)]);
        let t = b2.send_with(0, "m", &[("flag", 0)]);
        b2.recv(1, t, &[("flag", 1)]);
        let dep2 = b2.finish().unwrap();
        // P0's flag precedes P1's flag and has no later candidate.
        assert_eq!(possibly_conjunction(&dep2, &locals), None);
    }

    #[test]
    fn agrees_with_lattice_reference_on_random_traces() {
        for seed in 0..40 {
            let cfg = RandomConfig {
                processes: 3,
                events: 18,
                ..RandomConfig::default()
            };
            let dep = random_deposet(&cfg, seed);
            let locals = vec![
                LocalPredicate::var("ok"),
                LocalPredicate::not_var("ok"),
                LocalPredicate::var("ok"),
            ];
            let fast = possibly_conjunction(&dep, &locals);
            let reference = find_all_consistent(&dep, 100_000, |d, g| {
                (0..3).all(|i| locals[i].eval(d.state(g.state_of(ProcessId(i as u32)))))
            })
            .unwrap();
            assert_eq!(
                fast.is_some(),
                !reference.is_empty(),
                "seed {seed}: GW and lattice disagree"
            );
            if let Some(g) = fast {
                assert!(reference.contains(&g));
                // GW returns the minimum satisfying cut.
                for r in &reference {
                    assert!(g.meet(r) == g || !g.leq(r) || g == *r);
                    assert!(g.leq(&g.join(r)));
                }
                let min = reference
                    .iter()
                    .fold(reference[0].clone(), |a, b| a.meet(b));
                assert_eq!(g, min, "GW finds the infimum of satisfying cuts");
            }
        }
    }

    #[test]
    fn violation_detection_is_negated_conjunction() {
        // Two servers both unavailable at overlapping times.
        let mut b = DeposetBuilder::new(2);
        for p in 0..2 {
            b.init_vars(p, &[("avail", 1)]);
            b.internal(p, &[("avail", 0)]);
            b.internal(p, &[("avail", 1)]);
        }
        let dep = b.finish().unwrap();
        let pred = DisjunctivePredicate::at_least_one(2, "avail");
        let g = detect_disjunctive_violation(&dep, &pred).unwrap();
        assert_eq!(g, GlobalState::from_indices(vec![1, 1]));
        assert!(!pred.eval(&dep, &g));
    }

    #[test]
    fn whole_lifetime_false_overlaps() {
        let mut b = DeposetBuilder::new(2);
        b.internal(0, &[]);
        b.internal(1, &[]);
        let dep = b.finish().unwrap();
        let pred = DisjunctivePredicate::at_least_one(2, "up");
        let w = definitely_all_false(&dep, &pred).expect("overlap");
        assert!(set_overlaps(&dep, &w));
    }

    #[test]
    fn concurrent_interior_intervals_do_not_overlap() {
        let mut b = DeposetBuilder::new(3);
        for p in 0..3 {
            b.init_vars(p, &[("up", 1)]);
            b.internal(p, &[("up", 0)]);
            b.internal(p, &[("up", 1)]);
        }
        let dep = b.finish().unwrap();
        let pred = DisjunctivePredicate::at_least_one(3, "up");
        assert_eq!(definitely_all_false(&dep, &pred), None);
    }

    #[test]
    fn overlap_iff_no_satisfying_interleaving() {
        // Lemma 2 both ways, on small random traces, against exhaustive
        // interleaving search (the enforceable semantics).
        for seed in 0..40 {
            let dep = random_deposet(
                &RandomConfig {
                    processes: 3,
                    events: 14,
                    ..RandomConfig::default()
                },
                seed,
            );
            let pred = DisjunctivePredicate::at_least_one(3, "ok");
            let overlap = definitely_all_false(&dep, &pred).is_some();
            let seq = find_satisfying_interleaving(&dep, 2_000_000, |d, g| pred.eval(d, g))
                .expect("budget");
            assert_eq!(overlap, seq.is_none(), "seed {seed}: Lemma 2 violated");
            // The subset-step notion is weaker or equal: when no subset-step
            // sequence keeps `pred` true throughout, there is an overlap.
            let subset =
                find_satisfying_sequence(&dep, 2_000_000, |d, g| pred.eval(d, g)).expect("budget");
            if subset.is_none() {
                assert!(overlap, "seed {seed}: subset-definitely without overlap");
            }
        }
    }
}
