//! The off-line disjunctive predicate-control algorithm (paper Figure 2).
//!
//! Given a traced computation and a disjunctive predicate
//! `B = l₁ ∨ … ∨ lₙ`, the algorithm either
//!
//! * synthesizes a control relation `C→` such that **every** global sequence
//!   of the controlled computation satisfies `B`, or
//! * proves `B` infeasible by exhibiting an *overlapping set* of
//!   false-intervals (Lemma 2): one false interval per process such that no
//!   process can leave its interval before all others have entered theirs —
//!   so every global sequence passes a global state where every `lᵢ` is
//!   false.
//!
//! The synthesized relation is a *chain* of alternating true-intervals and
//! backward-pointing `C→` arrows from some `⊥ᵢ` to some `⊤ⱼ`: any global
//! state must intersect the chain, and it either intersects a true interval
//! (so `B` holds) or straddles a backward arrow (so it is inconsistent in
//! the controlled computation).
//!
//! Two engines implement the paper's two complexity variants:
//!
//! * [`Engine::Naive`] recomputes `ValidPairs()` from scratch every
//!   iteration — the paper's O(n³p) baseline;
//! * [`Engine::Optimized`] maintains the candidate-pair set incrementally
//!   (pairs are (re)checked only when a member process's position changes) —
//!   the paper's O(n²p) implementation.
//!
//! Both produce chains with at most one control message per crossed false
//! interval, i.e. `|C→| = O(np)` (Section 5, Evaluation).

use crate::control::ControlRelation;
use pctl_deposet::{
    CausalStore, Deposet, DisjunctivePredicate, FalseIntervals, Interval, ProcessId, StateId,
};
use pctl_obs::{Event, EventKind, NullRecorder, Recorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::time::Instant;

/// How `select()` resolves ties among valid pairs (the paper leaves it as
/// "randomly selected"; correctness is policy-independent).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SelectPolicy {
    /// Deterministic: first valid pair in scan/stack order.
    First,
    /// Seeded uniform choice among candidates.
    Random {
        /// RNG seed.
        seed: u64,
    },
}

/// Which ValidPairs engine to run (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// Incremental candidate maintenance, O(n²p).
    Optimized,
    /// Full rescan per iteration, O(n³p).
    Naive,
}

/// Algorithm options.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OfflineOptions {
    /// Tie-break policy for `select()`.
    pub policy: SelectPolicy,
    /// ValidPairs engine.
    pub engine: Engine,
}

impl Default for OfflineOptions {
    fn default() -> Self {
        OfflineOptions {
            policy: SelectPolicy::First,
            engine: Engine::Optimized,
        }
    }
}

/// Proof of infeasibility: an overlapping set of false intervals, one per
/// process (paper Lemma 2). See [`crate::overlap::is_overlapping`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Infeasible {
    /// One false interval per process, pairwise overlapping.
    pub witness: Vec<Interval>,
}

impl fmt::Display for Infeasible {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no controller exists; overlapping false-intervals:")?;
        for i in &self.witness {
            write!(f, " {}[{}..{}]", i.process, i.lo, i.hi)?;
        }
        Ok(())
    }
}

/// Operation counts for complexity experiments (E2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OfflineStats {
    /// Outer-loop iterations (= false intervals crossed).
    pub iterations: usize,
    /// `crossable()` evaluations — the dominant O(·) term.
    pub pair_checks: usize,
    /// Cursor movements during causal advancement.
    pub advances: usize,
}

/// Engine-side telemetry: spans and counters on a synthetic lane one past
/// the computation's processes, stamped with wall-clock microseconds since
/// the engine started (the offline algorithm runs outside simulated time).
struct EngineTrace<'r> {
    rec: &'r mut dyn Recorder,
    lane: u32,
    epoch: Instant,
}

impl<'r> EngineTrace<'r> {
    fn new(rec: &'r mut dyn Recorder, process_count: usize) -> Self {
        EngineTrace {
            rec,
            lane: process_count as u32,
            epoch: Instant::now(),
        }
    }

    fn ts(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn span(&mut self, name: &str, kind: EventKind) {
        if self.rec.enabled() {
            self.rec.record(Event {
                ts: self.ts(),
                lane: self.lane,
                name: name.to_owned(),
                kind,
                clock: None,
                state: None,
            });
        }
    }

    fn begin(&mut self, name: &str) {
        self.span(name, EventKind::SpanBegin);
    }

    fn end(&mut self, name: &str) {
        self.span(name, EventKind::SpanEnd);
    }

    fn instant(&mut self, name: &str) {
        self.span(name, EventKind::Instant);
    }

    fn counter(&mut self, name: &str, value: i64) {
        self.span(name, EventKind::Counter { value });
    }
}

/// Run the off-line algorithm on `dep` for disjunctive predicate `pred`.
pub fn control_disjunctive(
    dep: &Deposet,
    pred: &DisjunctivePredicate,
    opts: OfflineOptions,
) -> Result<ControlRelation, Infeasible> {
    control_disjunctive_traced(dep, pred, opts, &mut NullRecorder)
}

/// [`control_disjunctive`] with engine telemetry: per-phase spans
/// (`interval_scan`, `chain_construction`, `overlap_check`) and operation
/// counters land in `rec` on a synthetic lane after the process lanes.
pub fn control_disjunctive_traced(
    dep: &Deposet,
    pred: &DisjunctivePredicate,
    opts: OfflineOptions,
    rec: &mut dyn Recorder,
) -> Result<ControlRelation, Infeasible> {
    let mut tr = EngineTrace::new(rec, dep.process_count());
    tr.begin("interval_scan");
    let intervals = FalseIntervals::extract(dep, pred);
    tr.end("interval_scan");
    tr.counter("false_intervals", intervals.total() as i64);
    control_intervals_impl(dep, &intervals, opts, &mut tr).0
}

/// Run on pre-extracted false intervals, also returning operation counts.
///
/// Generic over any [`CausalStore`]: the algorithm only consumes causal
/// structure and the interval lists, so the same monomorphised code serves
/// batch deposets and the streaming daemon's growing per-session stores.
pub fn control_intervals<C: CausalStore + ?Sized>(
    dep: &C,
    intervals: &FalseIntervals,
    opts: OfflineOptions,
) -> (Result<ControlRelation, Infeasible>, OfflineStats) {
    control_intervals_traced(dep, intervals, opts, &mut NullRecorder)
}

/// [`control_intervals`] with engine telemetry (see
/// [`control_disjunctive_traced`]).
pub fn control_intervals_traced<C: CausalStore + ?Sized>(
    dep: &C,
    intervals: &FalseIntervals,
    opts: OfflineOptions,
    rec: &mut dyn Recorder,
) -> (Result<ControlRelation, Infeasible>, OfflineStats) {
    let mut tr = EngineTrace::new(rec, dep.process_count());
    control_intervals_impl(dep, intervals, opts, &mut tr)
}

fn control_intervals_impl<C: CausalStore + ?Sized>(
    dep: &C,
    intervals: &FalseIntervals,
    opts: OfflineOptions,
    tr: &mut EngineTrace<'_>,
) -> (Result<ControlRelation, Infeasible>, OfflineStats) {
    let _prof = pctl_prof::span("control_intervals");
    let mut run = Run::new(dep, intervals, opts);
    tr.begin("chain_construction");
    let outcome = run.execute(tr);
    tr.end("chain_construction");
    tr.counter("iterations", run.stats.iterations as i64);
    tr.counter("pair_checks", run.stats.pair_checks as i64);
    tr.counter("advances", run.stats.advances as i64);
    match &outcome {
        Ok(rel) => tr.counter("control_tuples", rel.len() as i64),
        Err(_) => tr.instant("infeasible"),
    }
    (outcome, run.stats)
}

/// Per-process cursor over the interesting states (`⊥ᵢ`, `Iᵢ.lo`, the first
/// true state after each `Iᵢ.hi`, `⊤ᵢ`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Cursor {
    /// Number of false intervals fully crossed.
    pos: usize,
    /// Whether the process currently sits at `I(pos).lo` (paper: `false(i)`).
    at_lo: bool,
}

struct Run<'a, C: CausalStore + ?Sized> {
    dep: &'a C,
    iv: &'a FalseIntervals,
    opts: OfflineOptions,
    cur: Vec<Cursor>,
    chain: Vec<(StateId, StateId)>,
    stats: OfflineStats,
    rng: StdRng,
    /// Optimized engine: candidate (maintainer, crossee) pairs, lazily
    /// revalidated on pop.
    candidates: Vec<(usize, usize)>,
}

impl<'a, C: CausalStore + ?Sized> Run<'a, C> {
    fn new(dep: &'a C, iv: &'a FalseIntervals, opts: OfflineOptions) -> Self {
        let n = dep.process_count();
        assert_eq!(iv.process_count(), n);
        let seed = match opts.policy {
            SelectPolicy::Random { seed } => seed,
            SelectPolicy::First => 0,
        };
        // A process whose first false interval starts at ⊥ is false from
        // the outset: its cursor begins at the interval's lo.
        let cur = (0..n)
            .map(|i| Cursor {
                pos: 0,
                at_lo: iv
                    .of(ProcessId(i as u32))
                    .first()
                    .is_some_and(|first| first.lo == 0),
            })
            .collect();
        Run {
            dep,
            iv,
            opts,
            cur,
            chain: Vec::new(),
            stats: OfflineStats::default(),
            rng: StdRng::seed_from_u64(seed),
            candidates: Vec::new(),
        }
    }

    /// The paper's `N(i)`: the next (or current) false interval of `i`.
    fn n_interval(&self, i: usize) -> Option<&Interval> {
        self.iv.of(ProcessId(i as u32)).get(self.cur[i].pos)
    }

    /// The paper's `false(i)`.
    fn is_false(&self, i: usize) -> bool {
        self.cur[i].at_lo
    }

    /// The paper's `g[i]`: for a "false" cursor it is `I.lo`; for a "true"
    /// cursor it is `⊥ᵢ` or the `hi` of the last crossed interval.
    ///
    /// Using exactly `I.hi` (not its successor) is what makes the output
    /// non-interfering: the advancement loop guarantees `next(j) !→ t` for
    /// every crossed endpoint `t` once `j`'s cursor stops, and `!→` is
    /// monotone along a process's order — so no later chain target can
    /// causally precede a tuple source. (A successor state `I.hi + 1`
    /// could receive a message *from beyond a future tuple target*, closing
    /// a cycle.) Soundness is unaffected: the arrow edge `g[k'] C→ next(k)`
    /// makes every cut with `k'` at `g[k']` and `k` at-or-past `next(k)`
    /// inconsistent, and cuts strictly past `g[k']` see `k'` inside its
    /// true interval.
    fn state_of(&self, i: usize) -> StateId {
        let c = self.cur[i];
        let p = ProcessId(i as u32);
        if c.at_lo {
            self.iv.of(p)[c.pos].lo_state()
        } else if c.pos == 0 {
            self.dep.bottom(p)
        } else {
            self.iv.of(p)[c.pos - 1].hi_state()
        }
    }

    /// The paper's `next(i)`.
    fn next_state(&self, i: usize) -> StateId {
        let p = ProcessId(i as u32);
        match self.n_interval(i) {
            None => self.dep.top(p),
            Some(iv) => {
                if self.cur[i].at_lo {
                    iv.hi_state()
                } else {
                    iv.lo_state()
                }
            }
        }
    }

    /// `crossable(Iᵢ, Iⱼ)`: `Iⱼ` can be fully crossed — *including its exit
    /// event* — while staying before `Iᵢ` (paper Section 5).
    ///
    /// We test `Iᵢ.lo !→ succ(Iⱼ.hi)` rather than the paper's literal
    /// `Iᵢ.lo !→ Iⱼ.hi`: a control tuple is enforced by a message sent in
    /// the event *leaving* its source state, so what must be independent of
    /// `Iᵢ.lo` is `Iⱼ`'s exit, not just its last state. (With the literal
    /// test, a message received by `Iⱼ`'s exit event from at-or-after
    /// `Iᵢ.lo` lets the algorithm emit a tuple no control system can
    /// enforce — the replay would deadlock.) Since `hi → succ(hi)`, this
    /// is a strictly stronger requirement, and the matching infeasibility
    /// condition (`∀ i ≠ j: Iᵢ.lo → succ(Iⱼ.hi) ∨ Iᵢ.lo = ⊥ ∨ Iⱼ.hi = ⊤`)
    /// still implies no satisfying sequence exists: in any execution,
    /// consider the first process to *exit* its interval — every other
    /// process must already have entered its own, so all are false
    /// simultaneously (the first-exit form of Lemma 2).
    fn crossable(&mut self, ii: &Interval, ij: &Interval) -> bool {
        self.stats.pair_checks += 1;
        // "Iⱼ can be crossed while Iᵢ stays un-entered" in the
        // *enforceable* (interleaving) semantics:
        //   pred(Iᵢ.lo) !→ succ(Iⱼ.hi)
        // — the event entering Iᵢ must not happen-before the event ending
        // Iⱼ. Both endpoint shifts are the event→state translation of the
        // paper's condition; see crate::overlap's module docs for the
        // derivation, the counterexample ruling out the literal reading,
        // and the discussion of why simultaneity (which would weaken this
        // to the OR of single shifts) is not realizable by message-based
        // control. The test itself is the computation store's shared
        // primitive, so control and detection can never drift apart.
        pctl_deposet::store::crossable(self.dep, ii, ij)
    }

    /// Membership test for `ValidPairs()`: maintain `i` true while crossing
    /// `N(j)`.
    fn valid_pair(&mut self, i: usize, j: usize) -> bool {
        if i == j || self.is_false(i) {
            return false;
        }
        let (Some(&ni), Some(&nj)) = (self.n_interval(i), self.n_interval(j)) else {
            return false;
        };
        self.crossable(&ni, &nj)
    }

    /// Naive select: rescan all pairs.
    fn select_naive(&mut self) -> Option<(usize, usize)> {
        let n = self.cur.len();
        let mut found = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if self.valid_pair(i, j) {
                    if matches!(self.opts.policy, SelectPolicy::First) {
                        return Some((i, j));
                    }
                    found.push((i, j));
                }
            }
        }
        if found.is_empty() {
            None
        } else {
            let idx = self.rng.gen_range(0..found.len());
            Some(found[idx])
        }
    }

    /// Optimized select: pop (lazily revalidated) candidates.
    fn select_optimized(&mut self) -> Option<(usize, usize)> {
        loop {
            if self.candidates.is_empty() {
                return None;
            }
            let idx = match self.opts.policy {
                SelectPolicy::First => self.candidates.len() - 1,
                SelectPolicy::Random { .. } => self.rng.gen_range(0..self.candidates.len()),
            };
            let (i, j) = self.candidates.swap_remove(idx);
            if self.valid_pair(i, j) {
                return Some((i, j));
            }
        }
    }

    /// Optimized engine: re-seed candidates involving process `i` after its
    /// cursor changed (O(n) pair checks per change — the key to O(n²p)).
    fn reseed(&mut self, i: usize) {
        let n = self.cur.len();
        for j in 0..n {
            if j == i {
                continue;
            }
            if self.valid_pair(i, j) {
                self.candidates.push((i, j));
            }
            if self.valid_pair(j, i) {
                self.candidates.push((j, i));
            }
        }
    }

    /// The paper's `AddControl(C, k', k)`.
    ///
    /// The restart branch (`C := ∅`) is taken only when the new anchor is
    /// `⊥` *and the local predicate is true there* — i.e. the cursor has
    /// crossed nothing and no false interval starts at `⊥`. (The paper's
    /// literal `g[k'] = ⊥` test would also clear the chain after crossing a
    /// false interval `[⊥, ⊥]`, whose `hi` coincides with `⊥`; that anchor
    /// is a false state and cannot start a chain.)
    fn add_control(&mut self, k_new: usize, k_prev: Option<usize>) {
        let p = ProcessId(k_new as u32);
        let c = self.cur[k_new];
        let bottom_is_true_anchor =
            c.pos == 0 && !c.at_lo && self.iv.of(p).first().is_none_or(|i| i.lo > 0);
        if bottom_is_true_anchor {
            // Chain can start afresh at ⊥ of the new maintainer.
            self.chain.clear();
        } else if let Some(k) = k_prev {
            if k != k_new {
                let g_new = self.state_of(k_new);
                let target = self.next_state(k);
                self.chain.push((g_new, target));
            }
        }
    }

    /// Advance every cursor to be causally consistent with crossing the
    /// interval ending at `t` (the paper's L6–L9,
    /// `while next(i) → t { g[i] := next(i) }`, against the crossing
    /// frontier `succ(t)` — the exit event — to match
    /// [`Self::crossable`]). Returns the processes whose cursor changed.
    ///
    /// Keeps the enforceability invariant: once a cursor stops,
    /// `pred(next(i).lo) !→ succ(x)` for the crossed endpoint `x`, and
    /// `!→` is monotone along a process's order, so no later tuple target
    /// `y` can have `pred(y) → succ(source)` — the condition under which a
    /// control message could not be realized.
    fn advance_to(&mut self, t: StateId) -> Vec<usize> {
        let n = self.cur.len();
        let frontier = t.successor();
        let mut changed = Vec::new();
        for i in 0..n {
            let before = self.cur[i];
            loop {
                let c = self.cur[i];
                if c.at_lo {
                    let iv = self.iv.of(ProcessId(i as u32))[c.pos];
                    let last = (self.dep.len_of(ProcessId(i as u32)) - 1) as u32;
                    // Forced past: the interval's own exit event
                    // happens-before the frontier (`pred(succ(hi)) = hi`).
                    if iv.hi < last && self.dep.precedes(iv.hi_state(), frontier) {
                        self.cur[i] = Cursor {
                            pos: c.pos + 1,
                            at_lo: false,
                        };
                        self.stats.advances += 1;
                    } else {
                        break;
                    }
                } else {
                    // Forced in: the interval's entry event happens-before
                    // the frontier (`lo > 0` here: intervals starting at ⊥
                    // are entered at cursor initialisation).
                    match self.n_interval(i) {
                        Some(iv)
                            if iv.lo > 0
                                && self.dep.precedes(
                                    iv.lo_state().predecessor().expect("lo > 0"),
                                    frontier,
                                ) =>
                        {
                            self.cur[i].at_lo = true;
                            self.stats.advances += 1;
                        }
                        _ => break,
                    }
                }
            }
            if self.cur[i] != before {
                changed.push(i);
            }
        }
        changed
    }

    fn execute(&mut self, tr: &mut EngineTrace<'_>) -> Result<ControlRelation, Infeasible> {
        let n = self.cur.len();
        // Seed the optimized candidate set once (O(n²)).
        if self.opts.engine == Engine::Optimized {
            for i in 0..n {
                for j in 0..n {
                    if self.valid_pair(i, j) {
                        self.candidates.push((i, j));
                    }
                }
            }
        }
        let mut k_prev: Option<usize> = None;
        // L1: exit as soon as some process has no false interval ahead of
        // its cursor (its chain can run to ⊤).
        while (0..n).all(|i| self.n_interval(i).is_some()) {
            let pair = match self.opts.engine {
                Engine::Naive => self.select_naive(),
                Engine::Optimized => self.select_optimized(),
            };
            let Some((k_new, l)) = pair else {
                // L2–L3: no valid pair ⇒ the residual next-intervals form an
                // overlapping set (Lemma 2 / [12]).
                tr.begin("overlap_check");
                let witness: Vec<Interval> = (0..n)
                    .map(|i| *self.n_interval(i).expect("loop guard"))
                    .collect();
                debug_assert!(
                    crate::overlap::is_overlapping(self.dep, &witness),
                    "infeasibility witness must overlap"
                );
                tr.end("overlap_check");
                return Err(Infeasible { witness });
            };
            self.stats.iterations += 1;
            // L5: link the chain before moving g.
            self.add_control(k_new, k_prev);
            // L6–L9: cross N(l) and advance everything causally dragged
            // along. l's own interval is crossed by the loop itself:
            // `hi → succ(hi)` strictly.
            let t = self
                .n_interval(l)
                .expect("valid pair ⇒ interval")
                .hi_state();
            let changed = self.advance_to(t);
            debug_assert!(
                changed.contains(&l),
                "the crossed interval is behind the frontier"
            );
            if self.opts.engine == Engine::Optimized {
                for &i in &changed {
                    self.reseed(i);
                }
            }
            // L10: remember this iteration's maintainer.
            k_prev = Some(k_new);
        }
        // L11–L12: some process is true to the end; close the chain there.
        let k_final = (0..n)
            .find(|&i| self.n_interval(i).is_none())
            .expect("loop exited ⇒ some process exhausted");
        self.add_control(k_final, k_prev);
        Ok(ControlRelation::from_pairs(self.chain.drain(..)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::ControlledDeposet;
    use pctl_deposet::lattice::consistent_global_states;
    use pctl_deposet::{DeposetBuilder, GlobalState, LocalPredicate};

    fn opts_all() -> Vec<OfflineOptions> {
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
                policy: SelectPolicy::Random { seed: 7 },
                engine: Engine::Optimized,
            },
            OfflineOptions {
                policy: SelectPolicy::Random { seed: 7 },
                engine: Engine::Naive,
            },
        ]
    }

    /// Exhaustively check that `rel` makes every consistent global state of
    /// the controlled computation satisfy `pred`.
    fn assert_controls(dep: &Deposet, pred: &DisjunctivePredicate, rel: &ControlRelation) {
        let c = ControlledDeposet::new(dep, rel.clone()).expect("no interference");
        for g in consistent_global_states(&c, 100_000).unwrap() {
            assert!(
                pred.eval(dep, &g),
                "controlled cut {g:?} violates predicate (C = {rel})"
            );
        }
    }

    /// Two processes with one overlapping-in-time critical section each;
    /// control must serialize them.
    fn two_proc_mutex() -> (Deposet, DisjunctivePredicate) {
        let mut b = DeposetBuilder::new(2);
        for p in 0..2 {
            b.init_vars(p, &[("cs", 0)]);
            b.internal(p, &[("cs", 1)]);
            b.internal(p, &[("cs", 0)]);
        }
        (
            b.finish().unwrap(),
            DisjunctivePredicate::at_least_one_not(2, "cs"),
        )
    }

    #[test]
    fn serializes_two_process_mutex() {
        let (dep, pred) = two_proc_mutex();
        // Without control, the all-critical cut ⟨1,1⟩ is consistent.
        assert!(!pred.eval(&dep, &GlobalState::from_indices(vec![1, 1])));
        for opts in opts_all() {
            let rel = control_disjunctive(&dep, &pred, opts).expect("feasible");
            assert!(!rel.is_empty(), "some control is necessary here");
            assert_controls(&dep, &pred, &rel);
            // One message per critical section in the worst case (§5).
            assert!(rel.len() <= 2);
        }
    }

    #[test]
    fn no_control_needed_when_predicate_never_all_false() {
        // P0 is always available; B = avail0 ∨ avail1 holds vacuously.
        let mut b = DeposetBuilder::new(2);
        b.init_vars(0, &[("avail", 1)]);
        b.init_vars(1, &[("avail", 1)]);
        b.internal(1, &[("avail", 0)]);
        b.internal(1, &[("avail", 1)]);
        b.internal(0, &[]);
        let dep = b.finish().unwrap();
        let pred = DisjunctivePredicate::at_least_one(2, "avail");
        for opts in opts_all() {
            let rel = control_disjunctive(&dep, &pred, opts).expect("feasible");
            assert!(
                rel.is_empty(),
                "P0 true throughout ⇒ empty chain, got {rel}"
            );
        }
    }

    #[test]
    fn detects_overlap_infeasibility() {
        // Both processes false from ⊥ to ⊤: plainly infeasible.
        let mut b = DeposetBuilder::new(2);
        b.internal(0, &[]);
        b.internal(1, &[]);
        let dep = b.finish().unwrap();
        let pred = DisjunctivePredicate::at_least_one(2, "avail"); // never set ⇒ false
        for opts in opts_all() {
            let err = control_disjunctive(&dep, &pred, opts).unwrap_err();
            assert_eq!(err.witness.len(), 2);
            assert!(crate::overlap::is_overlapping(&dep, &err.witness));
        }
    }

    #[test]
    fn message_forced_overlap_is_infeasible() {
        // P0's unavailability causally covers P1's availability gap:
        // P0: avail, unavail(send), unavail, avail
        // P1: avail, (recv) unavail, avail   — the message forces P1's
        // unavailability strictly inside P0's ⇒ some cut has both false and
        // every sequence passes it.
        let mut b = DeposetBuilder::new(2);
        b.init_vars(0, &[("avail", 1)]);
        b.init_vars(1, &[("avail", 1)]);
        b.internal(0, &[("avail", 0)]);
        let t = b.send(0, "sync");
        let t2 = b.send(1, "back");
        b.recv(1, t, &[("avail", 0)]);
        b.internal(1, &[("avail", 1)]);
        // Ensure P0 stays unavailable until after P1 went false again:
        b.recv(0, t2, &[]);
        b.internal(0, &[("avail", 1)]);
        let dep = b.finish().unwrap();
        let pred = DisjunctivePredicate::at_least_one(2, "avail");
        // Sanity: P1 goes false strictly inside P0's false interval?
        // P0 false on [1, ...] and P1 false at its recv state.
        for opts in opts_all() {
            let r = control_disjunctive(&dep, &pred, opts);
            match r {
                Err(inf) => {
                    assert!(crate::overlap::is_overlapping(&dep, &inf.witness));
                }
                Ok(rel) => {
                    // If the instance is actually feasible the control must
                    // be verifiable. (Exact feasibility depends on the
                    // constructed causality; both answers are validated.)
                    assert_controls(&dep, &pred, &rel);
                }
            }
        }
    }

    #[test]
    fn three_process_server_availability() {
        // Three servers with staggered unavailability windows; feasible.
        let mut b = DeposetBuilder::new(3);
        for p in 0..3 {
            b.init_vars(p, &[("avail", 1)]);
        }
        for p in 0..3 {
            b.internal(p, &[("avail", 0)]);
            b.internal(p, &[("avail", 1)]);
        }
        let dep = b.finish().unwrap();
        let pred = DisjunctivePredicate::at_least_one(3, "avail");
        for opts in opts_all() {
            let rel = control_disjunctive(&dep, &pred, opts).expect("feasible");
            assert_controls(&dep, &pred, &rel);
        }
    }

    #[test]
    fn chain_size_is_bounded_by_crossed_intervals() {
        use pctl_deposet::generator::{cs_workload, CsConfig};
        let cfg = CsConfig {
            processes: 4,
            sections_per_process: 6,
            ..CsConfig::default()
        };
        let dep = cs_workload(&cfg, 11);
        let pred = DisjunctivePredicate::at_least_one_not(4, "cs");
        let intervals = FalseIntervals::extract(&dep, &pred);
        let (res, stats) = control_intervals(&dep, &intervals, OfflineOptions::default());
        let rel = res.expect("cs workload is always feasible");
        assert!(rel.len() <= stats.iterations, "≤ one tuple per iteration");
        assert!(
            stats.iterations <= intervals.total(),
            "≤ one iteration per interval"
        );
        assert_controls(&dep, &pred, &rel);
    }

    #[test]
    fn engines_agree_on_feasibility() {
        use pctl_deposet::generator::{pipelined_workload, CsConfig};
        for seed in 0..20 {
            let cfg = CsConfig {
                processes: 3,
                sections_per_process: 3,
                ..CsConfig::default()
            };
            let dep = pipelined_workload(&cfg, seed);
            let pred = DisjunctivePredicate::at_least_one_not(3, "cs");
            let a = control_disjunctive(
                &dep,
                &pred,
                OfflineOptions {
                    policy: SelectPolicy::First,
                    engine: Engine::Optimized,
                },
            );
            let b = control_disjunctive(
                &dep,
                &pred,
                OfflineOptions {
                    policy: SelectPolicy::First,
                    engine: Engine::Naive,
                },
            );
            assert_eq!(a.is_ok(), b.is_ok(), "engines disagree on seed {seed}");
            if let (Ok(ra), Ok(rb)) = (a, b) {
                assert_controls(&dep, &pred, &ra);
                assert_controls(&dep, &pred, &rb);
            }
        }
    }

    #[test]
    fn single_process_cases() {
        // Single process, never false: trivially feasible with empty chain.
        let mut b = DeposetBuilder::new(1);
        b.init_vars(0, &[("ok", 1)]);
        b.internal(0, &[]);
        let dep = b.finish().unwrap();
        let pred = DisjunctivePredicate::at_least_one(1, "ok");
        let rel = control_disjunctive(&dep, &pred, OfflineOptions::default()).unwrap();
        assert!(rel.is_empty());

        // Single process with a false state: infeasible (it must pass it).
        let mut b2 = DeposetBuilder::new(1);
        b2.init_vars(0, &[("ok", 1)]);
        b2.internal(0, &[("ok", 0)]);
        b2.internal(0, &[("ok", 1)]);
        let dep2 = b2.finish().unwrap();
        let err = control_disjunctive(&dep2, &pred, OfflineOptions::default()).unwrap_err();
        assert_eq!(err.witness.len(), 1);
    }

    #[test]
    fn event_ordering_property_x_before_y() {
        // Paper example (3): "x must happen before y" as after_x ∨ before_y.
        // P0 reaches x (after_x true from then on); P1 must not pass y
        // until P0 did x.
        let mut b = DeposetBuilder::new(2);
        b.init_vars(0, &[("after_x", 0)]);
        b.init_vars(1, &[("before_y", 1)]);
        b.internal(0, &[("after_x", 1)]); // event x
        b.internal(1, &[("before_y", 0)]); // event y
        let dep = b.finish().unwrap();
        let pred = DisjunctivePredicate::new(vec![
            LocalPredicate::var("after_x"),
            LocalPredicate::var("before_y"),
        ]);
        let rel = control_disjunctive(&dep, &pred, OfflineOptions::default()).expect("feasible");
        assert_controls(&dep, &pred, &rel);
        // The control orders x before y: no controlled-consistent cut has
        // y done (P1 at state 1) while x is not (P0 still at state 0).
        let c = ControlledDeposet::new(&dep, rel).unwrap();
        assert!(!GlobalState::from_indices(vec![0, 1]).is_consistent(&c));
        assert!(GlobalState::from_indices(vec![1, 1]).is_consistent(&c));
        assert!(GlobalState::from_indices(vec![1, 0]).is_consistent(&c));
    }

    #[test]
    fn interval_starting_at_bottom_is_not_a_chain_anchor() {
        // Regression: crossing a false interval [⊥, ⊥] must NOT trigger
        // the chain-restart branch (⊥ is a false state there). The paper's
        // example (3) "x before y" exercises exactly this: P0's after_x is
        // false at ⊥ only.
        let mut b = DeposetBuilder::new(2);
        b.init_vars(0, &[("after_x", 0)]);
        b.init_vars(1, &[("before_y", 1)]);
        b.internal(0, &[("after_x", 1)]);
        b.internal(1, &[("before_y", 0)]);
        let dep = b.finish().unwrap();
        let pred = DisjunctivePredicate::new(vec![
            LocalPredicate::var("after_x"),
            LocalPredicate::var("before_y"),
        ]);
        let rel = control_disjunctive(&dep, &pred, OfflineOptions::default()).unwrap();
        assert!(
            !rel.is_empty(),
            "an empty chain would leave the bad cut reachable"
        );
        assert_controls(&dep, &pred, &rel);
    }

    #[test]
    fn interval_ending_at_top_cannot_be_crossed() {
        // P1 is false from some point to ⊤ (violating A2 off-line is fine);
        // the chain must route through P1's remaining-true prefix or be
        // infeasible — never "cross" the final interval.
        let mut b = DeposetBuilder::new(2);
        b.init_vars(0, &[("ok", 1)]);
        b.init_vars(1, &[("ok", 1)]);
        b.internal(0, &[("ok", 0)]);
        b.internal(0, &[("ok", 1)]);
        b.internal(1, &[("ok", 0)]); // false to the end
        let dep = b.finish().unwrap();
        let pred = DisjunctivePredicate::at_least_one(2, "ok");
        let rel = control_disjunctive(&dep, &pred, OfflineOptions::default()).unwrap();
        assert_controls(&dep, &pred, &rel);
        // The tuple must block P1's final fall until P0 recovered:
        let c = ControlledDeposet::new(&dep, rel).unwrap();
        assert!(!GlobalState::from_indices(vec![1, 1]).is_consistent(&c));
    }

    #[test]
    fn message_into_exit_event_is_detected_infeasible() {
        // Regression for the enforceability/off-by-one analysis: the
        // documented counterexample where P0 only recovers by receiving a
        // message sent from deep inside P1's terminal false interval.
        let mut b = DeposetBuilder::new(2);
        b.init_vars(0, &[("ok", 1)]);
        b.init_vars(1, &[("ok", 1)]);
        b.internal(0, &[("ok", 0)]);
        let m0 = b.send(0, "m0");
        b.recv(1, m0, &[("ok", 0)]);
        b.internal(1, &[]);
        let m1 = b.send(1, "m1");
        b.recv(0, m1, &[("ok", 1)]);
        let dep = b.finish().unwrap();
        let pred = DisjunctivePredicate::at_least_one(2, "ok");
        let err = control_disjunctive(&dep, &pred, OfflineOptions::default()).unwrap_err();
        assert!(crate::overlap::is_overlapping(&dep, &err.witness));
    }

    #[test]
    fn stats_reflect_work_done() {
        let (dep, pred) = two_proc_mutex();
        let intervals = FalseIntervals::extract(&dep, &pred);
        let (_, stats) = control_intervals(&dep, &intervals, OfflineOptions::default());
        assert!(stats.iterations >= 1);
        assert!(stats.pair_checks >= 1);
    }
}
