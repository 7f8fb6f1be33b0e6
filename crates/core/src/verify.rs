//! Executable verification of control strategies.
//!
//! The paper's correctness proofs (Theorem 2 and the lemmas deferred to the
//! companion TR \[12]) are reproduced here as machine-checkable evidence:
//!
//! * [`verify_disjunctive`] — *soundness*: the synthesized relation does
//!   not interfere with causality, and every consistent global state of the
//!   controlled computation satisfies `B`. Since every global sequence
//!   moves through consistent global states only, and every consistent
//!   global state lies on some global sequence, this is exactly "the
//!   controlled deposet satisfies `B`".
//! * [`chain_structure`] — the structural invariant behind the proof: the
//!   output is a chain anchored at `⊥` or at crossed-interval endpoints,
//!   with every arrow pointing back into a false interval (or `⊤`).
//! * [`agrees_with_oracle`] — *completeness* cross-check on small
//!   instances: the algorithm answers "infeasible" exactly when no
//!   satisfying interleaving exists (the enforceable semantics; see
//!   `crate::overlap`'s module docs).
//! * [`sweep_faulty_run`] — post-run safety audit for *faulty* executions
//!   of the on-line protocol ([`crate::online::ft`]): searches the traced
//!   deposet for consistent cuts where the disjunction `B = ∨ᵢ lᵢ` has no
//!   witness, distinguishing cuts explainable by a crash (some process is
//!   down in them — the documented trade-off against the paper's
//!   reliable-channel model) from *clean* violations with every process
//!   up, which indicate a genuine protocol bug.

use crate::control::{ControlError, ControlRelation, ControlledDeposet};
use crate::offline::{control_disjunctive, OfflineOptions};
use pctl_deposet::lattice::{self, LatticeBudgetExceeded};
use pctl_deposet::{store, Deposet, DisjunctivePredicate, GlobalState, LocalPredicate, ProcessId};
use std::fmt;

/// Verification failure.
#[derive(Debug)]
pub enum VerifyError {
    /// The relation cannot even be applied.
    Control(ControlError),
    /// The controlled lattice is too large to check exhaustively.
    Budget(LatticeBudgetExceeded),
    /// A consistent global state of the controlled computation violates the
    /// predicate.
    Violation {
        /// The offending global state.
        state: GlobalState,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Control(e) => write!(f, "control relation invalid: {e}"),
            VerifyError::Budget(e) => write!(f, "verification budget exceeded: {e}"),
            VerifyError::Violation { state } => {
                write!(f, "controlled global state {state} violates the predicate")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Walk the consistent global states of `dep` controlled by `rel`, in BFS
/// order, and report the first one where `bad` holds. `limit` bounds the
/// number of states visited.
fn first_bad_cut(
    dep: &Deposet,
    rel: &ControlRelation,
    limit: usize,
    mut bad: impl FnMut(&GlobalState) -> bool,
) -> Result<(), VerifyError> {
    let c = ControlledDeposet::new(dep, rel.clone()).map_err(VerifyError::Control)?;
    match lattice::possibly(&c, limit, |_, g| bad(g)).map_err(VerifyError::Budget)? {
        Some(state) => Err(VerifyError::Violation { state }),
        None => Ok(()),
    }
}

/// Exhaustively verify that `rel` makes `dep` satisfy the disjunctive
/// predicate `pred` (see module docs). `limit` bounds the number of
/// controlled-consistent global states visited; the walk stops at the
/// first violating one.
pub fn verify_disjunctive(
    dep: &Deposet,
    pred: &DisjunctivePredicate,
    rel: &ControlRelation,
    limit: usize,
) -> Result<(), VerifyError> {
    let _prof = pctl_prof::span("verify_disjunctive");
    first_bad_cut(dep, rel, limit, |g| !pred.eval(dep, g))
}

/// Exhaustively verify that `rel` *prevents* the regular violation
/// `violation`: no consistent global state of the controlled computation
/// satisfies it. Dual framing to [`verify_disjunctive`] (which maintains
/// the good predicate); the slice-then-delegate pipeline produces `rel`
/// from the slice's frontier intervals, and this is the independent audit.
pub fn verify_regular(
    dep: &Deposet,
    violation: &pctl_deposet::RegularPredicate,
    rel: &ControlRelation,
    limit: usize,
) -> Result<(), VerifyError> {
    let _prof = pctl_prof::span("verify_regular");
    first_bad_cut(dep, rel, limit, |g| violation.eval(dep, g))
}

/// Structural facts about an algorithm output used in the paper's proof.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainStructure {
    /// Every arrow source is a valid chain anchor: `⊥ᵢ` with the local
    /// predicate true there, or the last (`hi`) state of a crossed false
    /// interval — i.e. a false state whose successor is true. (The
    /// algorithm anchors at `I.hi` rather than its successor; see
    /// `offline::Run::state_of`.)
    pub sources_anchor: bool,
    /// Every arrow target state falsifies its process's local predicate or
    /// is the final state `⊤` of its process.
    pub targets_false_or_top: bool,
    /// No arrow connects a process to itself.
    pub no_self_arrows: bool,
}

impl ChainStructure {
    /// All structural invariants hold.
    pub fn holds(&self) -> bool {
        self.sources_anchor && self.targets_false_or_top && self.no_self_arrows
    }
}

/// Check the chain-structure invariants of a control relation produced by
/// the off-line algorithm.
pub fn chain_structure(
    dep: &Deposet,
    pred: &DisjunctivePredicate,
    rel: &ControlRelation,
) -> ChainStructure {
    let mut s = ChainStructure {
        sources_anchor: true,
        targets_false_or_top: true,
        no_self_arrows: true,
    };
    for &(x, y) in rel.pairs() {
        let x_true = pred.local(x.process).eval(dep.state(x));
        let anchor_at_bottom = x == dep.bottom(x.process) && x_true;
        let succ = x.successor();
        let anchor_at_interval_end =
            !x_true && dep.contains(succ) && pred.local(x.process).eval(dep.state(succ));
        if !(anchor_at_bottom || anchor_at_interval_end) {
            s.sources_anchor = false;
        }
        let is_top = y == dep.top(y.process);
        if !is_top && pred.local(y.process).eval(dep.state(y)) {
            s.targets_false_or_top = false;
        }
        if x.process == y.process {
            s.no_self_arrows = false;
        }
    }
    s
}

/// Cross-check the off-line algorithm's feasibility answer against the
/// exhaustive *interleaving* oracle (the enforceable semantics — see
/// `crate::overlap`'s module docs). Returns `Ok(true)` when they agree.
pub fn agrees_with_oracle(
    dep: &Deposet,
    pred: &DisjunctivePredicate,
    opts: OfflineOptions,
    limit: usize,
) -> Result<bool, LatticeBudgetExceeded> {
    let algo_feasible = control_disjunctive(dep, pred, opts).is_ok();
    let p = pred.clone();
    let oracle = pctl_deposet::sequences::find_satisfying_interleaving(dep, limit, move |d, g| {
        p.eval(d, g)
    })?;
    Ok(algo_feasible == oracle.is_some())
}

/// A maximal run of consecutive local states during which one process was
/// down (crashed), read off the reserved trace variable `"down"`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DownWindow {
    /// The crashed process.
    pub process: ProcessId,
    /// Index of its first down state.
    pub from: u32,
    /// Index of its first up state after the window; `None` if it never
    /// restarted.
    pub to: Option<u32>,
}

/// Result of [`sweep_faulty_run`]: where (if anywhere) the controlled
/// computation loses its witness for `B`, and which crash windows could
/// explain it.
#[derive(Clone, Debug)]
pub struct FaultSweepReport {
    /// A consistent cut in which no *up* process satisfies its local
    /// predicate — i.e. every process is either predicate-false or down.
    /// `None` means `B` held, witnessed by a live process, at every cut.
    pub unwitnessed_cut: Option<GlobalState>,
    /// A consistent cut in which every process is up yet predicate-false.
    /// This can never be blamed on a crash window; the hardened protocol
    /// must not produce one.
    pub clean_violation: Option<GlobalState>,
    /// All crash windows found in the trace, per process.
    pub down_windows: Vec<DownWindow>,
}

impl FaultSweepReport {
    /// `B` was witnessed by a live process at every consistent cut — the
    /// paper's guarantee held outright despite the injected faults. This is
    /// what loss/duplication/reordering-only runs must achieve.
    pub fn fully_safe(&self) -> bool {
        self.unwitnessed_cut.is_none() && self.clean_violation.is_none()
    }

    /// Every unwitnessed cut (if any) contains a crashed process — the
    /// bounded trade-off documented in DESIGN.md ("Deviations from Figure 3
    /// under faults"). Runs with crashes must achieve at least this.
    pub fn safe_modulo_crashes(&self) -> bool {
        self.clean_violation.is_none()
    }
}

/// Audit a traced run of the fault-tolerant on-line protocol
/// ([`crate::online::ft`]) after the fact.
///
/// `witness` is the local predicate `lᵢ` whose disjunction the controller
/// maintains (the same formula for every process — `var("ok")` for the
/// phased workload, `not_var("cs")` for mutual exclusion). The sweep runs
/// two weak conjunctive detections (Garg–Waldecker queue elimination, the
/// paper's *possibly* modality), polynomial and without enumerating the
/// lattice:
///
/// 1. **unwitnessed**: `∀i. ¬lᵢ ∨ downᵢ` — no up process witnesses `B`;
/// 2. **clean violation**: `∀i. ¬lᵢ ∧ ¬downᵢ` — all up, all false.
///
/// The second is a genuine safety bug in any run; the first is tolerated
/// exactly when a crash destroyed the anti-token (the cut then contains the
/// dead process), until the watchdog regenerates it.
///
/// The sweep makes a *single pass* over every local state: the witness
/// predicate is evaluated once and the reserved `"down"` flag read once per
/// state, and both detector candidate queues plus the crash windows are
/// derived from those two columns (the detectors then run on the queues via
/// [`store::possibly_from_queues`], with no further predicate
/// evaluation). The scan is one sequential loop over the processes: a run
/// audit is a few thousand states, far below what a thread spawn pays for;
/// callers auditing many runs fan out over the runs instead.
pub fn sweep_faulty_run(dep: &Deposet, witness: &LocalPredicate) -> FaultSweepReport {
    let _prof = pctl_prof::span("sweep_faulty_run");
    let n = dep.process_count();
    let mut unwitnessed_queues = Vec::with_capacity(n);
    let mut clean_queues = Vec::with_capacity(n);
    let mut down_windows = Vec::new();
    for p in dep.processes() {
        let (mut unwitnessed, mut clean) = (Vec::new(), Vec::new());
        let mut open: Option<u32> = None;
        for (k, s) in dep.states_of(p).iter().enumerate() {
            let wit = witness.eval(s);
            let is_down = s.vars.get("down").unwrap_or(0) != 0;
            // Queue membership: ¬lᵢ ∨ downᵢ (unwitnessed), ¬lᵢ ∧ ¬downᵢ
            // (clean violation).
            if !wit || is_down {
                unwitnessed.push(k as u32);
            }
            if !wit && !is_down {
                clean.push(k as u32);
            }
            match (is_down, open) {
                (true, None) => open = Some(k as u32),
                (false, Some(from)) => {
                    down_windows.push(DownWindow {
                        process: p,
                        from,
                        to: Some(k as u32),
                    });
                    open = None;
                }
                _ => {}
            }
        }
        if let Some(from) = open {
            down_windows.push(DownWindow {
                process: p,
                from,
                to: None,
            });
        }
        unwitnessed_queues.push(unwitnessed);
        clean_queues.push(clean);
    }
    FaultSweepReport {
        unwitnessed_cut: store::possibly_from_queues(dep, &unwitnessed_queues),
        clean_violation: store::possibly_from_queues(dep, &clean_queues),
        down_windows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pctl_causality::StateId;
    use pctl_deposet::DeposetBuilder;

    fn mutex_dep() -> (Deposet, DisjunctivePredicate) {
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
    fn verify_accepts_algorithm_output() {
        let (dep, pred) = mutex_dep();
        let rel = control_disjunctive(&dep, &pred, OfflineOptions::default()).unwrap();
        assert!(verify_disjunctive(&dep, &pred, &rel, 10_000).is_ok());
        assert!(chain_structure(&dep, &pred, &rel).holds());
    }

    #[test]
    fn verify_rejects_empty_relation_when_control_needed() {
        let (dep, pred) = mutex_dep();
        let err = verify_disjunctive(&dep, &pred, &ControlRelation::empty(), 10_000).unwrap_err();
        match err {
            VerifyError::Violation { state } => {
                assert_eq!(state, GlobalState::from_indices(vec![1, 1]));
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn verify_rejects_interfering_relation() {
        let (dep, pred) = mutex_dep();
        let rel = ControlRelation::from_pairs([
            (StateId::new(0usize, 1), StateId::new(1usize, 1)),
            (StateId::new(1usize, 1), StateId::new(0usize, 1)),
        ]);
        assert!(matches!(
            verify_disjunctive(&dep, &pred, &rel, 10_000),
            Err(VerifyError::Control(ControlError::Interference { .. }))
        ));
    }

    #[test]
    fn verify_rejects_relation_into_an_initial_state() {
        // ⊤₁ C→ ⊥₀ would leave no consistent cut at all, so every property
        // would hold vacuously; no run can enforce it, and both verifiers
        // reject it instead.
        let (dep, pred) = mutex_dep();
        let (x, y) = (StateId::new(1usize, 2), StateId::new(0usize, 0));
        let rel = ControlRelation::from_pairs([(x, y)]);
        let rejected = |r| matches!(r, Err(VerifyError::Control(ControlError::InitialTarget(a, b))) if (a, b) == (x, y));
        assert!(rejected(verify_disjunctive(&dep, &pred, &rel, 10_000)));
        let both_cs = pctl_deposet::RegularPredicate::conj_var(&[0, 1], "cs");
        assert!(rejected(verify_regular(&dep, &both_cs, &rel, 10_000)));
    }

    #[test]
    fn verify_budget_is_honored() {
        let (dep, pred) = mutex_dep();
        let rel = control_disjunctive(&dep, &pred, OfflineOptions::default()).unwrap();
        assert!(matches!(
            verify_disjunctive(&dep, &pred, &rel, 1),
            Err(VerifyError::Budget(_))
        ));
    }

    #[test]
    fn algorithm_matches_oracle_on_small_instances() {
        use pctl_deposet::generator::{pipelined_workload, CsConfig};
        for seed in 0..15 {
            let cfg = CsConfig {
                processes: 3,
                sections_per_process: 2,
                max_cs_len: 2,
                max_gap_len: 2,
            };
            let dep = pipelined_workload(&cfg, seed);
            let pred = DisjunctivePredicate::at_least_one_not(3, "cs");
            assert!(
                agrees_with_oracle(&dep, &pred, OfflineOptions::default(), 5_000_000).unwrap(),
                "feasibility disagreement on seed {seed}"
            );
        }
    }

    #[test]
    fn bad_chain_structure_is_reported() {
        let (dep, pred) = mutex_dep();
        // The mutex trace has each process: ¬cs(0), cs(1), ¬cs(2).
        // Source at state 1 is a valid anchor (false, successor true)…
        let rel = ControlRelation::from_pairs([(StateId::new(0usize, 1), StateId::new(1usize, 1))]);
        assert!(chain_structure(&dep, &pred, &rel).sources_anchor);
        // …but a source at a true interior state is not an anchor…
        let rel_bad =
            ControlRelation::from_pairs([(StateId::new(0usize, 2), StateId::new(1usize, 1))]);
        let s = chain_structure(&dep, &pred, &rel_bad);
        assert!(!s.sources_anchor);
        assert!(s.targets_false_or_top);
        assert!(s.no_self_arrows);
        assert!(!s.holds());
        // …a true target is flagged…
        let rel_tt =
            ControlRelation::from_pairs([(StateId::new(0usize, 1), StateId::new(1usize, 2))]);
        // state (1,2) is ¬cs = true for the predicate ∨¬cs… careful: the
        // local predicate is ¬cs, so cs=0 states are TRUE. Target (1,2)
        // has cs=0 ⇒ predicate true ⇒ flagged (and it is also ⊤ of P1,
        // which excuses it). Use an interior true target instead: (1,0).
        let _ = rel_tt;
        let rel_interior_true =
            ControlRelation::from_pairs([(StateId::new(0usize, 1), StateId::new(1usize, 0))]);
        assert!(!chain_structure(&dep, &pred, &rel_interior_true).targets_false_or_top);
        // …and a self arrow is flagged.
        let rel2 =
            ControlRelation::from_pairs([(StateId::new(0usize, 0), StateId::new(0usize, 1))]);
        assert!(!chain_structure(&dep, &pred, &rel2).no_self_arrows);
    }

    #[test]
    fn sweep_reports_nothing_on_a_witnessed_trace() {
        let mut b = DeposetBuilder::new(2);
        b.init_vars(0, &[("ok", 1)]);
        b.init_vars(1, &[("ok", 1)]);
        // P0 stays true throughout, so B is witnessed at every cut.
        b.internal(1, &[("ok", 0)]);
        b.internal(1, &[("ok", 1)]);
        let dep = b.finish().unwrap();
        let report = sweep_faulty_run(&dep, &LocalPredicate::var("ok"));
        assert!(report.fully_safe());
        assert!(report.safe_modulo_crashes());
        assert!(report.down_windows.is_empty());
    }

    #[test]
    fn sweep_flags_a_clean_violation_when_all_up_processes_are_false() {
        let mut b = DeposetBuilder::new(2);
        b.init_vars(0, &[("ok", 1)]);
        b.init_vars(1, &[("ok", 1)]);
        b.internal(0, &[("ok", 0)]);
        b.internal(0, &[("ok", 1)]);
        b.internal(1, &[("ok", 0)]);
        b.internal(1, &[("ok", 1)]);
        let dep = b.finish().unwrap();
        let report = sweep_faulty_run(&dep, &LocalPredicate::var("ok"));
        assert!(!report.fully_safe());
        assert!(!report.safe_modulo_crashes());
        // The only cut with both processes false is (1, 1) — no crash to
        // blame, so it surfaces as a clean violation too.
        let cut = report.clean_violation.expect("concurrent false states");
        assert_eq!(cut, GlobalState::from_indices(vec![1, 1]));
        assert!(report.unwitnessed_cut.is_some());
        assert!(report.down_windows.is_empty());
    }

    #[test]
    fn sweep_attributes_unwitnessed_cuts_to_crash_windows() {
        let mut b = DeposetBuilder::new(2);
        b.init_vars(0, &[("ok", 1)]);
        b.init_vars(1, &[("ok", 1)]);
        // P0 crashes (predicate still reads true, but a dead process is no
        // witness), then restarts; P1 goes false concurrently and later
        // crashes for good.
        b.internal(0, &[("down", 1)]);
        b.internal(0, &[("down", 0)]);
        b.internal(1, &[("ok", 0)]);
        b.internal(1, &[("ok", 1)]);
        b.internal(1, &[("down", 1)]);
        let dep = b.finish().unwrap();
        let report = sweep_faulty_run(&dep, &LocalPredicate::var("ok"));
        // Unwitnessed (P0 down ∥ P1 false) but never all-up-all-false.
        assert!(!report.fully_safe());
        assert!(report.safe_modulo_crashes());
        assert!(report.unwitnessed_cut.is_some());
        assert!(report.clean_violation.is_none());
        assert_eq!(
            report.down_windows,
            vec![
                DownWindow {
                    process: ProcessId(0),
                    from: 1,
                    to: Some(2)
                },
                DownWindow {
                    process: ProcessId(1),
                    from: 3,
                    to: None
                },
            ]
        );
    }
}
