//! Computation slicing for regular predicates (Mittal–Garg).
//!
//! The slice of a computation w.r.t. a regular predicate `R` is the
//! smallest sub-computation containing exactly the consistent cuts that
//! satisfy `R`. Because `R` is regular, those cuts are closed under meet
//! and join, so they form a sublattice of the full cut lattice — and a
//! sublattice is described completely by its **join-irreducible** elements:
//! the cuts `J(s) = ` *least satisfying cut whose frontier on `proc(s)` is
//! at or past `s`*, one per local state `s`.
//!
//! Everything here rests on one upward closure. Starting from any cut, it
//! raises frontiers under three *forced-advance* rules, each of which
//! preserves every satisfying cut above the start point:
//!
//! * **conjunct** — the violation's conjunction on `i` is false at the
//!   frontier state `(i, cut[i])` ⇒ advance `cut[i]`;
//! * **consistency** — `clock_entry((j, cut[j]), i) > cut[i]` ⇒ raise
//!   `cut[i]` to the clock entry (the repo's own consistency condition,
//!   see [`CausalStore::clock_entry`]);
//! * **channels** — a message sent inside the cut but not received inside
//!   it ⇒ raise the receiver to the delivery point (or fail outright if
//!   the message is still in flight).
//!
//! Running off the top of any chain means no satisfying cut exists above
//! the start. The closure is a worklist: only a process whose frontier
//! *moved* has its one clock row read, at O(n) entries per raise (plus one
//! pass over the channel constraints each time the worklist drains, when
//! the predicate has any). Conjunct truth comes through an accessor, so
//! it is read only at the states the closure visits.
//!
//! * [`least_satisfying_cut`] closes ⊥ — the answer to "can the violation
//!   happen?" — and needs nothing else. [`least_satisfying_cut_of`] is its
//!   batch form; a streaming session passes its incremental truth columns,
//!   read in place.
//! * [`SlicedDeposet::build_from_parts`] starts from that least cut and
//!   sweeps each process: `J((i, k))` closes `J((i, k-1))` with component
//!   `i` raised to `k`, so each closure is seeded with process `i` alone.
//!   Frontiers only rise during one process's sweep, so a sweep makes at
//!   most `S` raises and costs O(n·S) clock reads in the worst case — and
//!   in practice far less, since a conjunction over a few processes leaves
//!   the other frontiers where they are. Control, the overlap witness and
//!   cut enumeration need this full slice; detection does not.
//!
//! The resulting [`SlicedDeposet`] is itself a columnar store: the J-matrix
//! lives in a [`ClockArena`] (one row per local state), and surviving
//! states (those that can be the frontier of a satisfying cut) collapse
//! into equivalence classes by J-value. The order between classes is
//! J-dominance, read directly off the rows; no edge list is kept.
//! Crucially the slice is *self-contained*: every
//! satisfying cut is a join of J-rows (`G = ⋁ᵢ J((i, G[i]))`), so
//! membership tests, counting, and enumeration need no further access to
//! the underlying store.

use crate::causal::CausalStore;
use crate::global::GlobalState;
use crate::intervals::{FalseIntervals, Interval};
use crate::lattice::LatticeBudgetExceeded;
use crate::model::Deposet;
use crate::predicate::{ClassError, LocalPredicate, PredicateClass, RegularPredicate};
use pctl_causality::{ClockArena, ProcessId, StateId};
use std::collections::{HashSet, VecDeque};

/// The least consistent cut of `store` satisfying a regular violation, or
/// `None` when no consistent cut satisfies it: the closure of ⊥ under the
/// [module](self)'s forced-advance rules.
///
/// `conj(s)` must be the violation's conjunction on `proc(s)` evaluated in
/// state `s` (true for processes it does not constrain); it is called only
/// at the states the closure visits. `delivered` (message endpoints) and
/// `in_flight` (send-side states of undelivered messages) must be empty
/// when the violation does not constrain channels.
pub fn least_satisfying_cut<C: CausalStore + ?Sized>(
    store: &C,
    conj: impl Fn(StateId) -> bool,
    delivered: &[(StateId, StateId)],
    in_flight: &[StateId],
) -> Option<GlobalState> {
    Slicer::new(store, conj, delivered, in_flight).least_cut()
}

/// [`least_satisfying_cut`] of a batch computation `dep` under the causal
/// order of `order`: `dep` itself, or a store over the same states with
/// more edges, such as `dep` under a control relation. Validates process
/// references and evaluates each conjunct on `dep`'s states, only at the
/// states the closure visits. A batch computation has no message in
/// flight.
pub fn least_satisfying_cut_of<C: CausalStore + ?Sized>(
    order: &C,
    dep: &Deposet,
    violation: &RegularPredicate,
) -> Result<Option<GlobalState>, ClassError> {
    let by_proc = conjuncts_of(dep, violation)?;
    let conj = |s: StateId| {
        by_proc[s.process.index()]
            .iter()
            .all(|c| c.eval(dep.state(s)))
    };
    Ok(least_satisfying_cut(
        order,
        conj,
        &delivered_of(dep, violation),
        &[],
    ))
}

/// Validate `violation` against `dep` and group its conjuncts by process.
fn conjuncts_of(
    dep: &Deposet,
    violation: &RegularPredicate,
) -> Result<Vec<Vec<LocalPredicate>>, ClassError> {
    let n = dep.process_count();
    PredicateClass::regular(n as u32, violation.clone()).validate(n)?;
    Ok(violation.conjuncts_by_process(n))
}

/// The delivered messages of `dep` when `violation` constrains channels,
/// empty otherwise.
fn delivered_of(dep: &Deposet, violation: &RegularPredicate) -> Vec<(StateId, StateId)> {
    if violation.uses_channels() {
        dep.messages().iter().map(|m| (m.from, m.to)).collect()
    } else {
        Vec::new()
    }
}

/// Transient closure engine behind [`least_satisfying_cut`] and
/// [`SlicedDeposet::build_from_parts`].
struct Slicer<'a, C: CausalStore + ?Sized, F> {
    store: &'a C,
    n: usize,
    lens: Vec<u32>,
    /// `conj(s)`: the violation's conjunction on `proc(s)` holds in `s`
    /// (true everywhere for unconstrained processes).
    conj: F,
    /// Delivered messages `(from, to)` — empty unless the predicate
    /// constrains channels.
    delivered: &'a [(StateId, StateId)],
    /// Send-side states of messages still in flight — empty unless the
    /// predicate constrains channels.
    in_flight: &'a [StateId],
    /// Worklist of processes whose frontier moved since its clock row was
    /// last read, with its membership bitmap. Both are empty between
    /// closures.
    work: Vec<usize>,
    queued: Vec<bool>,
}

impl<'a, C: CausalStore + ?Sized, F: Fn(StateId) -> bool> Slicer<'a, C, F> {
    fn new(
        store: &'a C,
        conj: F,
        delivered: &'a [(StateId, StateId)],
        in_flight: &'a [StateId],
    ) -> Self {
        let n = store.process_count();
        let lens: Vec<u32> = (0..n)
            .map(|i| store.len_of(ProcessId(i as u32)) as u32)
            .collect();
        Slicer {
            store,
            n,
            lens,
            conj,
            delivered,
            in_flight,
            work: Vec::with_capacity(n),
            queued: vec![false; n],
        }
    }

    fn holds(&self, i: usize, k: u32) -> bool {
        (self.conj)(StateId::new(ProcessId(i as u32), k))
    }

    fn push(&mut self, j: usize) {
        if !self.queued[j] {
            self.queued[j] = true;
            self.work.push(j);
        }
    }

    /// Empty the worklist after a failed closure.
    fn fail(&mut self) -> bool {
        for j in self.work.drain(..) {
            self.queued[j] = false;
        }
        false
    }

    /// The closure of ⊥: the least satisfying cut, if any.
    fn least_cut(&mut self) -> Option<GlobalState> {
        let mut lo = vec![0u32; self.n];
        self.closure_up_from(&mut lo, 0..self.n)
            .then(|| GlobalState::from_indices(lo))
    }

    /// Close `cut` upward to the least satisfying cut ≥ the input, or
    /// return `false` when none exists. Every raise is forced: any
    /// satisfying cut ≥ the input is also ≥ the raised cut.
    ///
    /// Precondition: every process outside `dirty` sits on a conjunct-true
    /// state whose clock row is ≤ `cut` — true of a closed cut with only
    /// the `dirty` components raised. The worklist starts as `dirty`;
    /// popping `j` skips it to its next conjunct-true state and reads the
    /// one clock row of `(j, cut[j])`, queueing every process that row
    /// raises. The channel rules run whenever the worklist drains. Each
    /// raise costs O(n) clock reads, and a process that never moves is
    /// never read.
    fn closure_up_from(&mut self, cut: &mut [u32], dirty: impl IntoIterator<Item = usize>) -> bool {
        debug_assert!(self.work.is_empty());
        for j in dirty {
            self.push(j);
        }
        loop {
            while let Some(j) = self.work.pop() {
                self.queued[j] = false;
                let len = self.lens[j];
                let mut k = cut[j];
                while k < len && !self.holds(j, k) {
                    k += 1;
                }
                if k >= len {
                    return self.fail();
                }
                cut[j] = k;
                let sj = StateId::new(ProcessId(j as u32), k);
                for i in (0..self.n).filter(|&i| i != j) {
                    let e = self.store.clock_entry(sj, ProcessId(i as u32));
                    if e > cut[i] {
                        cut[i] = e;
                        self.push(i);
                    }
                }
            }
            for &(from, to) in self.delivered {
                let tp = to.process.index();
                if cut[from.process.index()] > from.index && cut[tp] < to.index {
                    cut[tp] = to.index;
                    self.push(tp);
                }
            }
            if self.work.is_empty() {
                return self
                    .in_flight
                    .iter()
                    .all(|from| cut[from.process.index()] <= from.index);
            }
        }
    }

    /// Close `cut` downward to the greatest satisfying cut ≤ the input, or
    /// return `false` when none exists. Dual of [`Slicer::closure_up_from`];
    /// a consistency violation forces the *knowing* frontier down by one.
    #[allow(clippy::needless_range_loop)] // cut[i] is mutated while cut[j] is read across processes
    fn closure_down(&self, cut: &mut [u32]) -> bool {
        loop {
            let mut changed = false;
            for i in 0..self.n {
                while !self.holds(i, cut[i]) {
                    if cut[i] == 0 {
                        return false;
                    }
                    cut[i] -= 1;
                    changed = true;
                }
            }
            'outer: for j in 0..self.n {
                loop {
                    let sj = StateId::new(ProcessId(j as u32), cut[j]);
                    let mut violated = false;
                    for i in 0..self.n {
                        if i != j && self.store.clock_entry(sj, ProcessId(i as u32)) > cut[i] {
                            violated = true;
                            break;
                        }
                    }
                    if !violated {
                        continue 'outer;
                    }
                    if cut[j] == 0 {
                        return false;
                    }
                    cut[j] -= 1;
                    changed = true;
                }
            }
            for &(from, to) in self.delivered {
                let fp = from.process.index();
                let tp = to.process.index();
                if cut[fp] > from.index && cut[tp] < to.index {
                    cut[fp] = from.index;
                    changed = true;
                }
            }
            for &from in self.in_flight {
                let fp = from.process.index();
                if cut[fp] > from.index {
                    cut[fp] = from.index;
                    changed = true;
                }
            }
            if !changed {
                return true;
            }
        }
    }
}

/// The slice of a computation w.r.t. a regular violation predicate: a
/// columnar sub-computation containing exactly the satisfying consistent
/// cuts. It stores the J-matrix, the class of each surviving state, the
/// min/max cuts and the frontier runs; J-dominance between classes is
/// read from [`SlicedDeposet::j_cut`]. See the [module docs](self) for the
/// construction.
#[derive(Clone, Debug)]
pub struct SlicedDeposet {
    n: usize,
    lens: Vec<u32>,
    /// Row offset of each process's chain in the J-matrix (n+1 entries).
    offsets: Vec<usize>,
    /// `J((i, k))` as row `offsets[i] + k`, valid where `j_exists`.
    j: ClockArena,
    j_exists: Vec<bool>,
    /// Equivalence class (by J-value) of each *surviving* row, `u32::MAX`
    /// elsewhere. Classes are numbered in first-seen row order.
    class_of: Vec<u32>,
    class_count: usize,
    min_cut: Option<GlobalState>,
    max_cut: Option<GlobalState>,
    /// Per-process maximal runs of frontier-possible indices, in the same
    /// [`FalseIntervals`] form the control algorithms consume.
    frontier: FalseIntervals,
}

impl SlicedDeposet {
    /// Slice a batch computation w.r.t. `violation`. Validates process
    /// references, evaluates the violation's local conjunctions once over
    /// every state (the J sweep revisits states), and feeds
    /// [`SlicedDeposet::build_from_parts`].
    pub fn build(dep: &Deposet, violation: &RegularPredicate) -> Result<Self, ClassError> {
        let by_proc = conjuncts_of(dep, violation)?;
        let conj: Vec<Vec<bool>> = dep
            .processes()
            .map(|p| {
                let cs = &by_proc[p.index()];
                dep.states_of(p)
                    .iter()
                    .map(|s| cs.iter().all(|c| c.eval(s)))
                    .collect()
            })
            .collect();
        Ok(Self::build_from_parts(
            dep,
            |s| conj[s.process.index()][s.idx()],
            &delivered_of(dep, violation),
            &[],
        ))
    }

    /// Build a slice generically over any [`CausalStore`], from the same
    /// parts as [`least_satisfying_cut`] (the streaming engine passes a
    /// [`crate::session::SessionStore`] whose incremental truth columns
    /// already hold `¬conj`, see [`PredicateClass::session_locals`], and
    /// reads them in place). The min cut is [`least_satisfying_cut`]'s
    /// closure, and the J sweep reruns that same closure from it.
    pub fn build_from_parts<C: CausalStore + ?Sized>(
        store: &C,
        conj: impl Fn(StateId) -> bool,
        delivered: &[(StateId, StateId)],
        in_flight: &[StateId],
    ) -> Self {
        let _prof = pctl_prof::span("slice_build");
        let mut slicer = Slicer::new(store, conj, delivered, in_flight);
        let n = slicer.n;
        let lens = slicer.lens.clone();
        let total: usize = lens.iter().map(|&l| l as usize).sum();

        // min/max satisfying cuts: closures from ⊥ and ⊤.
        let min_cut = slicer.least_cut();
        let mut hi: Vec<u32> = lens.iter().map(|&l| l - 1).collect();
        let max_cut = (min_cut.is_some() && slicer.closure_down(&mut hi))
            .then(|| GlobalState::from_indices(hi));

        // J-matrix by per-process monotone sweep: J((i,k)) closes J((i,k-1))
        // with component i raised to k, so only i is dirty. Once a closure
        // fails, no satisfying cut lies above any later state of i either.
        let mut j = ClockArena::zeroed(n, total);
        let mut j_exists = vec![false; total];
        let mut row = 0;
        for i in 0..n {
            let mut cut = min_cut.as_ref().map(|g| g.indices().to_vec());
            for k in 0..lens[i] {
                if let Some(c) = cut.as_mut().filter(|c| c[i] < k) {
                    c[i] = k;
                    if !slicer.closure_up_from(c, [i]) {
                        cut = None;
                    }
                }
                if let Some(c) = &cut {
                    j.merge_from(row, c);
                    j_exists[row] = true;
                }
                row += 1;
            }
        }
        Self::assemble(lens, j, j_exists, min_cut, max_cut)
    }

    /// Derive the classes and frontier runs from a finished J-matrix (rows
    /// in chain order, valid where `j_exists`).
    #[allow(clippy::needless_range_loop)] // rows of other processes are located through offsets[q]
    fn assemble(
        lens: Vec<u32>,
        j: ClockArena,
        j_exists: Vec<bool>,
        min_cut: Option<GlobalState>,
        max_cut: Option<GlobalState>,
    ) -> Self {
        let n = lens.len();
        let mut offsets = vec![0usize; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + lens[i] as usize;
        }
        let total = offsets[n];

        // Surviving states → classes by J-value, numbered in first-seen row
        // order. Surviving s = (i, k) and t = (q, m) have equal J iff
        // J(s)[q] = m and J(t)[i] = k: J(t) is the least satisfying cut
        // with q at or past m and J(s) is one such cut, so J(t) ≤ J(s); the
        // symmetric argument gives J(s) ≤ J(t). So the only earlier member
        // of s's class on a process q < i is (q, J(s)[q]). That state is a
        // frontier of the satisfying cut J(s), so it survives and its class
        // is already numbered.
        let mut class_of = vec![u32::MAX; total];
        let mut class_count = 0;
        for i in 0..n {
            let p = ProcessId(i as u32);
            for k in 0..lens[i] {
                let row = offsets[i] + k as usize;
                if !j_exists[row] || j.word(row, p) != k {
                    continue;
                }
                let earlier = (0..i).find_map(|q| {
                    let qrow = offsets[q] + j.word(row, ProcessId(q as u32)) as usize;
                    debug_assert_ne!(class_of[qrow], u32::MAX, "frontiers of J(s) survive");
                    (j.word(qrow, p) == k).then(|| class_of[qrow])
                });
                class_of[row] = earlier.unwrap_or_else(|| {
                    class_count += 1;
                    class_count as u32 - 1
                });
            }
        }

        // Frontier-possible runs as FalseIntervals (maximal runs are
        // separated by ≥ 1 impossible index, so `from_raw`'s non-adjacency
        // invariant holds by construction).
        let mut per_proc: Vec<Vec<Interval>> = Vec::with_capacity(n);
        for i in 0..n {
            let mut ivs = Vec::new();
            let mut run: Option<(u32, u32)> = None;
            for k in 0..lens[i] {
                if class_of[offsets[i] + k as usize] != u32::MAX {
                    run = Some(match run {
                        Some((lo, _)) => (lo, k),
                        None => (k, k),
                    });
                } else if let Some((lo, hi)) = run.take() {
                    ivs.push(Interval {
                        process: ProcessId(i as u32),
                        lo,
                        hi,
                    });
                }
            }
            if let Some((lo, hi)) = run {
                ivs.push(Interval {
                    process: ProcessId(i as u32),
                    lo,
                    hi,
                });
            }
            per_proc.push(ivs);
        }
        let frontier = FalseIntervals::from_raw(per_proc);

        SlicedDeposet {
            n,
            lens,
            offsets,
            j,
            j_exists,
            class_of,
            class_count,
            min_cut,
            max_cut,
            frontier,
        }
    }

    /// Number of processes.
    pub fn process_count(&self) -> usize {
        self.n
    }

    /// Chain length of process `p` in the underlying computation.
    pub fn len_of(&self, p: ProcessId) -> usize {
        self.lens[p.index()] as usize
    }

    /// Total states in the underlying computation.
    pub fn total_states(&self) -> usize {
        *self.offsets.last().unwrap_or(&0)
    }

    /// True when no consistent cut satisfies the predicate.
    pub fn is_empty(&self) -> bool {
        self.min_cut.is_none()
    }

    /// The least satisfying cut, if any.
    pub fn min_cut(&self) -> Option<&GlobalState> {
        self.min_cut.as_ref()
    }

    /// The greatest satisfying cut, if any.
    pub fn max_cut(&self) -> Option<&GlobalState> {
        self.max_cut.as_ref()
    }

    /// `J(s)` — the least satisfying cut whose frontier on `proc(s)` is at
    /// or past `s` — as raw per-process indices, or `None` when no
    /// satisfying cut lies at or above `s`.
    pub fn j_cut(&self, s: StateId) -> Option<&[u32]> {
        let row = self.row(s);
        self.j_exists[row].then(|| self.j.row(row).entries())
    }

    /// Can `s` be the frontier state of its process in some satisfying
    /// cut? (Exactly: `J(s)` exists and pins `proc(s)` at `s`.)
    pub fn frontier_possible(&self, s: StateId) -> bool {
        let row = self.row(s);
        self.j_exists[row] && self.j.word(row, s.process) == s.index
    }

    /// Number of surviving (frontier-possible) states.
    pub fn surviving_states(&self) -> usize {
        self.class_of.iter().filter(|&&c| c != u32::MAX).count()
    }

    /// Number of join-irreducible equivalence classes.
    pub fn class_count(&self) -> usize {
        self.class_count
    }

    /// The equivalence class of a surviving state (`None` for states that
    /// cannot be a satisfying frontier).
    pub fn class_of(&self, s: StateId) -> Option<u32> {
        let c = self.class_of[self.row(s)];
        (c != u32::MAX).then_some(c)
    }

    /// Per-process maximal runs of frontier-possible indices, in the
    /// [`FalseIntervals`] form [`crate::store`]'s control entry points
    /// consume: a cut satisfying the predicate necessarily has *every*
    /// frontier inside these runs, so preventing all-inside prevents all
    /// satisfying cuts.
    pub fn frontier_intervals(&self) -> &FalseIntervals {
        &self.frontier
    }

    /// Does `g` satisfy the predicate? Self-contained test: `g` satisfies
    /// iff every per-process J-row exists and their join is `g` itself.
    #[allow(clippy::needless_range_loop)] // cut[i] is mutated while cut[j] is read across processes
    pub fn satisfies(&self, g: &GlobalState) -> bool {
        assert_eq!(g.arity(), self.n, "cut arity");
        let cut = g.indices();
        let mut join = vec![0u32; self.n];
        for i in 0..self.n {
            let row = self.offsets[i] + cut[i] as usize;
            if !self.j_exists[row] {
                return false;
            }
            let r = self.j.row(row);
            for (q, acc) in join.iter_mut().enumerate() {
                *acc = (*acc).max(r.get(ProcessId(q as u32)));
            }
        }
        join == cut
    }

    /// Enumerate every satisfying cut, failing once more than `limit`
    /// cuts have been produced. BFS over joins of J-rows: the successor of
    /// `g` in direction `i` is `g ⊔ J((i, g[i]+1))`, which is the least
    /// satisfying cut above `g` that advances `i` — so the walk visits the
    /// whole sublattice without touching the underlying store.
    pub fn cuts(&self, limit: usize) -> Result<Vec<GlobalState>, LatticeBudgetExceeded> {
        let Some(min) = &self.min_cut else {
            return Ok(Vec::new());
        };
        let mut out = Vec::new();
        let mut seen: HashSet<Vec<u32>> = HashSet::new();
        let mut queue: VecDeque<Vec<u32>> = VecDeque::new();
        seen.insert(min.indices().to_vec());
        queue.push_back(min.indices().to_vec());
        while let Some(cur) = queue.pop_front() {
            out.push(GlobalState::from_indices(cur.clone()));
            if out.len() > limit {
                return Err(LatticeBudgetExceeded { limit });
            }
            for i in 0..self.n {
                let k = cur[i] + 1;
                if k >= self.lens[i] {
                    continue;
                }
                let row = self.offsets[i] + k as usize;
                if !self.j_exists[row] {
                    continue;
                }
                let r = self.j.row(row);
                let mut next = cur.clone();
                for (q, v) in next.iter_mut().enumerate() {
                    *v = (*v).max(r.get(ProcessId(q as u32)));
                }
                if seen.insert(next.clone()) {
                    queue.push_back(next);
                }
            }
        }
        Ok(out)
    }

    /// Count the satisfying cuts without materialising them.
    pub fn cut_count(&self, limit: usize) -> Result<usize, LatticeBudgetExceeded> {
        self.cuts(limit).map(|v| v.len())
    }

    fn row(&self, s: StateId) -> usize {
        assert!(
            s.process.index() < self.n && s.idx() < self.lens[s.process.index()] as usize,
            "state {s:?} out of range"
        );
        self.offsets[s.process.index()] + s.idx()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DeposetBuilder;
    use crate::lattice::consistent_global_states;
    use crate::predicate::{CmpOp, LocalPredicate};
    use std::collections::{BTreeSet, HashMap};

    const BUDGET: usize = 100_000;

    /// Oracle: the slice's cut set equals the brute-force lattice filtered
    /// by the violation; min/max are the extrema; `satisfies` and
    /// `frontier_possible` agree with the enumeration.
    fn assert_slice_matches_oracle(dep: &Deposet, violation: &RegularPredicate) {
        let slice = SlicedDeposet::build(dep, violation).expect("valid violation");
        let all = consistent_global_states(dep, BUDGET).unwrap();
        let expected: BTreeSet<Vec<u32>> = all
            .iter()
            .filter(|g| violation.eval(dep, g))
            .map(|g| g.indices().to_vec())
            .collect();
        let got: BTreeSet<Vec<u32>> = slice
            .cuts(BUDGET)
            .unwrap()
            .iter()
            .map(|g| g.indices().to_vec())
            .collect();
        assert_eq!(got, expected, "slice cuts ≠ satisfying lattice cuts");
        assert_eq!(slice.is_empty(), expected.is_empty());
        assert_eq!(
            slice.min_cut().map(|g| g.indices().to_vec()),
            expected.iter().next().cloned().map(|_| {
                let mut m = expected.iter().next().unwrap().clone();
                for c in &expected {
                    for (a, b) in m.iter_mut().zip(c) {
                        *a = (*a).min(*b);
                    }
                }
                m
            })
        );
        assert_eq!(
            slice.max_cut().map(|g| g.indices().to_vec()),
            expected.iter().next().cloned().map(|_| {
                let mut m = expected.iter().next().unwrap().clone();
                for c in &expected {
                    for (a, b) in m.iter_mut().zip(c) {
                        *a = (*a).max(*b);
                    }
                }
                m
            })
        );
        for g in &all {
            assert_eq!(
                slice.satisfies(g),
                expected.contains(g.indices()),
                "satisfies({g}) disagrees with the oracle"
            );
        }
        for i in 0..dep.process_count() {
            let p = ProcessId(i as u32);
            for k in 0..dep.len_of(p) as u32 {
                let truth = expected.iter().any(|c| c[i] == k);
                assert_eq!(
                    slice.frontier_possible(StateId::new(p, k)),
                    truth,
                    "frontier_possible(({i},{k})) disagrees"
                );
            }
        }
    }

    fn two_proc_with_msg() -> Deposet {
        // P0: ⊥(x=0) → send → x=2 ; P1: ⊥ → recv → y=1
        let mut b = DeposetBuilder::new(2);
        b.init_vars(0, &[("x", 0)]);
        let t = b.send(0, "m");
        b.internal(0, &[("x", 2)]);
        b.recv(1, t, &[("y", 1)]);
        b.finish().unwrap()
    }

    #[test]
    fn local_conjunction_matches_oracle() {
        let dep = two_proc_with_msg();
        assert_slice_matches_oracle(
            &dep,
            &RegularPredicate::local(0usize, LocalPredicate::cmp("x", CmpOp::Ge, 1)),
        );
        assert_slice_matches_oracle(
            &dep,
            &RegularPredicate::And(vec![
                RegularPredicate::local(0usize, LocalPredicate::cmp("x", CmpOp::Ge, 2)),
                RegularPredicate::local(1usize, LocalPredicate::var("y")),
            ]),
        );
    }

    #[test]
    fn channels_empty_matches_oracle() {
        let dep = two_proc_with_msg();
        assert_slice_matches_oracle(&dep, &RegularPredicate::ChannelsEmpty);
        assert_slice_matches_oracle(
            &dep,
            &RegularPredicate::And(vec![
                RegularPredicate::ChannelsEmpty,
                RegularPredicate::local(0usize, LocalPredicate::cmp("x", CmpOp::Ge, 1)),
            ]),
        );
    }

    #[test]
    fn unsatisfiable_violation_gives_empty_slice() {
        let dep = two_proc_with_msg();
        let slice = SlicedDeposet::build(
            &dep,
            &RegularPredicate::local(0usize, LocalPredicate::False),
        )
        .unwrap();
        assert!(slice.is_empty());
        assert!(slice.min_cut().is_none() && slice.max_cut().is_none());
        assert_eq!(slice.cuts(BUDGET).unwrap(), Vec::<GlobalState>::new());
        assert_eq!(slice.surviving_states(), 0);
        assert_eq!(slice.class_count(), 0);
        assert_eq!(slice.frontier_intervals().total(), 0);
    }

    #[test]
    fn empty_conjunction_keeps_the_whole_lattice() {
        let dep = two_proc_with_msg();
        let slice = SlicedDeposet::build(&dep, &RegularPredicate::And(vec![])).unwrap();
        let all = consistent_global_states(&dep, BUDGET).unwrap();
        assert_eq!(slice.cut_count(BUDGET).unwrap(), all.len());
        assert_eq!(slice.min_cut().unwrap(), &GlobalState::initial(2));
        assert_eq!(slice.max_cut().unwrap(), &GlobalState::final_of(&dep));
    }

    /// The slicer's closure before the worklist: every round re-reads all
    /// n² clock entries until nothing moves. Kept only as the reference
    /// the worklist closure is checked against.
    #[allow(clippy::needless_range_loop)] // cut[i] is mutated while cut[j] is read across processes
    fn closure_up_round_robin<C: CausalStore + ?Sized, F: Fn(StateId) -> bool>(
        sl: &Slicer<'_, C, F>,
        cut: &mut [u32],
    ) -> bool {
        loop {
            let mut changed = false;
            for i in 0..sl.n {
                let mut k = cut[i];
                while k < sl.lens[i] && !sl.holds(i, k) {
                    k += 1;
                }
                if k >= sl.lens[i] {
                    return false;
                }
                if k != cut[i] {
                    cut[i] = k;
                    changed = true;
                }
            }
            for j in 0..sl.n {
                let sj = StateId::new(ProcessId(j as u32), cut[j]);
                for i in 0..sl.n {
                    if i == j {
                        continue;
                    }
                    let e = sl.store.clock_entry(sj, ProcessId(i as u32));
                    if e > cut[i] {
                        cut[i] = e;
                        changed = true;
                    }
                }
            }
            for &(from, to) in sl.delivered {
                let fp = from.process.index();
                let tp = to.process.index();
                if cut[fp] > from.index && cut[tp] < to.index {
                    cut[tp] = to.index;
                    changed = true;
                }
            }
            for &from in sl.in_flight {
                if cut[from.process.index()] > from.index {
                    return false;
                }
            }
            if !changed {
                return true;
            }
        }
    }

    /// The slice as built before the worklist closure: the min cut and
    /// every `J((i, k))` by round-robin closure of the previous sweep cut.
    fn reference_slice<C: CausalStore + ?Sized>(
        store: &C,
        conj: &[Vec<bool>],
        delivered: &[(StateId, StateId)],
        in_flight: &[StateId],
    ) -> SlicedDeposet {
        let slicer = Slicer::new(
            store,
            |s: StateId| conj[s.process.index()][s.idx()],
            delivered,
            in_flight,
        );
        let (n, lens) = (slicer.n, slicer.lens.clone());
        let total: usize = lens.iter().map(|&l| l as usize).sum();
        let mut lo = vec![0u32; n];
        let min_cut =
            closure_up_round_robin(&slicer, &mut lo).then(|| GlobalState::from_indices(lo));
        let mut hi: Vec<u32> = lens.iter().map(|&l| l - 1).collect();
        let max_cut = (min_cut.is_some() && slicer.closure_down(&mut hi))
            .then(|| GlobalState::from_indices(hi));
        let mut j = ClockArena::zeroed(n, total);
        let mut j_exists = vec![false; total];
        let mut row = 0;
        for i in 0..n {
            let mut prev: Option<Vec<u32>> = min_cut.as_ref().map(|g| g.indices().to_vec());
            for k in 0..lens[i] {
                prev = prev.take().and_then(|mut c| {
                    if c[i] < k {
                        c[i] = k;
                        if !closure_up_round_robin(&slicer, &mut c) {
                            return None;
                        }
                    }
                    Some(c)
                });
                if let Some(c) = &prev {
                    j.merge_from(row, c);
                    j_exists[row] = true;
                }
                row += 1;
            }
        }
        SlicedDeposet::assemble(lens, j, j_exists, min_cut, max_cut)
    }

    /// `conj[i][k]`: the violation's conjunction on `i` in state `(i, k)`.
    fn conj_columns<'s>(
        n: usize,
        violation: &RegularPredicate,
        states_of: impl Fn(ProcessId) -> Vec<&'s crate::state::LocalState>,
    ) -> Vec<Vec<bool>> {
        let by_proc = violation.conjuncts_by_process(n);
        (0..n)
            .map(|i| {
                states_of(ProcessId(i as u32))
                    .into_iter()
                    .map(|s| by_proc[i].iter().all(|c| c.eval(s)))
                    .collect()
            })
            .collect()
    }

    /// Classes numbered without `assemble`: a map from J-row to its
    /// first-seen index, over the surviving states in row order.
    fn assert_classes_by_hash(slice: &SlicedDeposet, what: &str) {
        let mut seen: HashMap<&[u32], u32> = HashMap::new();
        for i in 0..slice.process_count() {
            let p = ProcessId(i as u32);
            for k in 0..slice.len_of(p) as u32 {
                let s = StateId::new(p, k);
                let want = slice.frontier_possible(s).then(|| {
                    let next = seen.len() as u32;
                    *seen.entry(slice.j_cut(s).unwrap()).or_insert(next)
                });
                assert_eq!(slice.class_of(s), want, "{what}: hashed class of {s:?}");
            }
        }
        assert_eq!(
            slice.class_count(),
            seen.len(),
            "{what}: hashed class count"
        );
    }

    /// `reference_slice` shares `assemble`, so the classes are also checked
    /// against [`assert_classes_by_hash`].
    fn assert_same_slice(got: &SlicedDeposet, want: &SlicedDeposet, what: &str) {
        assert_classes_by_hash(got, what);
        assert_eq!(got.min_cut(), want.min_cut(), "{what}: min_cut");
        assert_eq!(got.max_cut(), want.max_cut(), "{what}: max_cut");
        assert_eq!(got.class_count(), want.class_count(), "{what}: class count");
        for i in 0..want.process_count() {
            let p = ProcessId(i as u32);
            assert_eq!(got.len_of(p), want.len_of(p), "{what}: chain length");
            for k in 0..want.len_of(p) as u32 {
                let s = StateId::new(p, k);
                assert_eq!(got.j_cut(s), want.j_cut(s), "{what}: J({s:?})");
                assert_eq!(got.class_of(s), want.class_of(s), "{what}: class of {s:?}");
            }
        }
        assert_eq!(
            got.frontier_intervals(),
            want.frontier_intervals(),
            "{what}: frontier intervals"
        );
    }

    /// Violations over the workload's variable: a pair conjunction (the
    /// off-line debugging loop's `cs₀ ∧ cs₁` shape), the same with empty
    /// channels, a conjunct on every process, and empty channels alone.
    fn violations(n: usize, var: &str, holds: bool) -> Vec<RegularPredicate> {
        let lit = |i: usize| {
            let l = if holds {
                LocalPredicate::var(var)
            } else {
                LocalPredicate::not_var(var)
            };
            RegularPredicate::local(i, l)
        };
        let pair = RegularPredicate::And(vec![lit(0), lit(1)]);
        vec![
            pair.clone(),
            RegularPredicate::And(vec![pair, RegularPredicate::ChannelsEmpty]),
            RegularPredicate::And((0..n).map(lit).collect()),
            RegularPredicate::And(vec![lit(n / 2), RegularPredicate::ChannelsEmpty]),
            RegularPredicate::ChannelsEmpty,
        ]
    }

    #[test]
    fn worklist_closure_matches_round_robin_at_scale() {
        use crate::generator::{
            cs_workload, pipelined_workload, random_deposet, CsConfig, RandomConfig,
        };
        let mut cases: Vec<(String, Deposet, &str, bool)> = Vec::new();
        for (seed, n) in [(1u64, 8usize), (2, 16), (3, 32)] {
            let cfg = CsConfig {
                processes: n,
                sections_per_process: 4,
                max_cs_len: 3,
                max_gap_len: 3,
            };
            cases.push((
                format!("pipelined n={n}"),
                pipelined_workload(&cfg, seed),
                "cs",
                true,
            ));
            cases.push((format!("cs n={n}"), cs_workload(&cfg, seed), "cs", true));
            // ¬cs everywhere: the all-processes conjunct is satisfiable.
            cases.push((
                format!("cs ¬cs n={n}"),
                cs_workload(&cfg, seed),
                "cs",
                false,
            ));
            let rcfg = RandomConfig {
                processes: n,
                events: 12 * n,
                ..RandomConfig::default()
            };
            cases.push((
                format!("random n={n}"),
                random_deposet(&rcfg, seed),
                "ok",
                false,
            ));
            cases.push((
                format!("random ok n={n}"),
                random_deposet(&rcfg, seed),
                "ok",
                true,
            ));
        }
        let (mut empty, mut partial) = (0, 0);
        for (name, dep, var, holds) in &cases {
            let n = dep.process_count();
            for violation in violations(n, var, *holds) {
                let what = format!("{name}, {violation}");
                let conj = conj_columns(n, &violation, |p| dep.states_of(p).iter().collect());
                let delivered: Vec<(StateId, StateId)> = if violation.uses_channels() {
                    dep.messages().iter().map(|m| (m.from, m.to)).collect()
                } else {
                    Vec::new()
                };
                let got = SlicedDeposet::build(dep, &violation).unwrap();
                let want = reference_slice(dep, &conj, &delivered, &[]);
                assert_same_slice(&got, &want, &what);
                assert_eq!(
                    least_satisfying_cut_of(dep, dep, &violation)
                        .unwrap()
                        .as_ref(),
                    want.min_cut(),
                    "{what}: lazily evaluated least cut"
                );
                empty += usize::from(got.is_empty());
                // A sweep that fails part-way leaves rows without J.
                partial += usize::from(!got.is_empty() && got.j_exists.contains(&false));
            }
        }
        assert!(
            empty > 0 && partial > 0,
            "{empty} empty, {partial} partial slices"
        );
    }

    #[test]
    fn worklist_closure_matches_round_robin_with_in_flight_sends() {
        use crate::generator::{random_deposet, RandomConfig};
        use crate::session::{linearize, SessionStore};
        let mut with_in_flight = 0;
        for (seed, n) in [(11u64, 8usize), (12, 12), (13, 16)] {
            let dep = random_deposet(
                &RandomConfig {
                    processes: n,
                    events: 12 * n,
                    send_prob: 0.5,
                    ..RandomConfig::default()
                },
                seed,
            );
            let (init, ops) = linearize(&dep);
            let mut store = SessionStore::new_with_init(vec![LocalPredicate::True; n], &init);
            for (t, op) in ops.iter().enumerate() {
                store.apply(op).unwrap();
                if t % 7 != 6 {
                    continue;
                }
                let (mut delivered, mut in_flight) = (Vec::new(), Vec::new());
                for (from, to) in store.message_endpoints() {
                    match to {
                        Some(to) => delivered.push((from, to)),
                        None => in_flight.push(from),
                    }
                }
                with_in_flight += usize::from(!in_flight.is_empty());
                for violation in violations(n, "ok", false) {
                    if !violation.uses_channels() {
                        continue;
                    }
                    let what = format!("seed {seed} prefix {t}, {violation}");
                    let conj = conj_columns(n, &violation, |p| {
                        (0..store.len_of(p) as u32)
                            .map(|k| store.state(StateId::new(p, k)))
                            .collect()
                    });
                    let got = SlicedDeposet::build_from_parts(
                        &store,
                        |s| conj[s.process.index()][s.idx()],
                        &delivered,
                        &in_flight,
                    );
                    let want = reference_slice(&store, &conj, &delivered, &in_flight);
                    assert_same_slice(&got, &want, &what);
                    let least = least_satisfying_cut(
                        &store,
                        |s| conj[s.process.index()][s.idx()],
                        &delivered,
                        &in_flight,
                    );
                    assert_eq!(least.as_ref(), want.min_cut(), "{what}: least cut");
                }
            }
        }
        assert!(with_in_flight > 10, "prefixes must leave sends in flight");
    }

    #[test]
    fn budget_is_enforced() {
        let dep = two_proc_with_msg();
        let slice = SlicedDeposet::build(&dep, &RegularPredicate::And(vec![])).unwrap();
        assert_eq!(slice.cuts(1), Err(LatticeBudgetExceeded { limit: 1 }));
    }
}
