//! Off-line control beyond disjunctive predicates (paper Conclusions).
//!
//! The paper's closing discussion reports a solution for *locally
//! independent* global predicates — arbitrary boolean predicates whose
//! local-predicate false-intervals are **mutually separated** (pairwise
//! causally ordered, never concurrent). This module implements the natural
//! compositional route to that class:
//!
//! a general safety property is written as a **conjunction of disjunctive
//! clauses** (CNF over local predicates — e.g. several pairwise mutual
//! exclusions, or system-wide deadlock avoidance constraints); each clause
//! is controlled independently with the Figure 2 algorithm; and the
//! per-clause chains are merged. The merge is sound iff the union does not
//! interfere with causality, which is verified — and the mutual-separation
//! condition is a checkable *sufficient* condition for merge success, also
//! provided here.
//!
//! When the merged relation interferes, the instance is reported as
//! [`CnfControlError::Conflict`] (this composition is a sound but
//! incomplete procedure for general CNF control — completeness for
//! arbitrary predicates is NP-hard by Theorem 1, so some incompleteness is
//! inevitable for a polynomial method).

use crate::control::{ControlRelation, ControlledDeposet};
use crate::offline::{control_disjunctive, Infeasible, OfflineOptions};
use pctl_deposet::{
    Deposet, DisjunctivePredicate, FalseIntervals, GlobalPredicate, LocalPredicate,
};
use std::fmt;

/// A conjunction of disjunctive clauses over local predicates. Clause `c`
/// must assign one local predicate per process (use
/// [`LocalPredicate::False`] for processes a clause does not constrain — a
/// constant-false disjunct contributes nothing to the clause, whereas a
/// constant-true one would make it vacuous).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CnfPredicate {
    clauses: Vec<DisjunctivePredicate>,
}

impl CnfPredicate {
    /// Build from clauses (all must share the same arity).
    pub fn new(clauses: Vec<DisjunctivePredicate>) -> Self {
        if let Some(first) = clauses.first() {
            assert!(clauses.iter().all(|c| c.arity() == first.arity()));
        }
        CnfPredicate { clauses }
    }

    /// Pairwise mutual exclusion between processes `a` and `b` over
    /// boolean variable `var` in an `n`-process system:
    /// `¬var_a ∨ ¬var_b`.
    pub fn pairwise_mutex(n: usize, a: usize, b: usize, var: &str) -> DisjunctivePredicate {
        DisjunctivePredicate::new(
            (0..n)
                .map(|i| {
                    if i == a || i == b {
                        LocalPredicate::not_var(var)
                    } else {
                        LocalPredicate::False
                    }
                })
                .collect(),
        )
    }

    /// The clauses.
    pub fn clauses(&self) -> &[DisjunctivePredicate] {
        &self.clauses
    }

    /// Evaluate on a global state: all clauses must hold.
    pub fn eval(&self, dep: &Deposet, g: &pctl_deposet::GlobalState) -> bool {
        self.clauses.iter().all(|c| c.eval(dep, g))
    }

    /// Lower to a [`GlobalPredicate`] (for SGSD cross-checks).
    pub fn to_global(&self) -> GlobalPredicate {
        GlobalPredicate::And(self.clauses.iter().map(|c| c.to_global()).collect())
    }
}

/// Why CNF control failed.
#[derive(Debug)]
pub enum CnfControlError {
    /// Some clause alone is infeasible (overlap witness attached).
    ClauseInfeasible {
        /// Index of the infeasible clause.
        clause: usize,
        /// Its overlap witness.
        witness: Infeasible,
    },
    /// Each clause is controllable but the merged chains interfere with
    /// causality (or with each other).
    Conflict {
        /// The merged relation that failed.
        merged: ControlRelation,
    },
}

impl fmt::Display for CnfControlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CnfControlError::ClauseInfeasible { clause, witness } => {
                write!(f, "clause {clause} infeasible: {witness}")
            }
            CnfControlError::Conflict { merged } => {
                write!(f, "per-clause controls interfere when merged: {merged}")
            }
        }
    }
}

impl std::error::Error for CnfControlError {}

/// Control a conjunction of disjunctive clauses by per-clause synthesis and
/// merge (see module docs). On success the returned relation provably makes
/// every clause — hence the conjunction — hold on every global sequence.
pub fn control_cnf(
    dep: &Deposet,
    pred: &CnfPredicate,
    opts: OfflineOptions,
) -> Result<ControlRelation, CnfControlError> {
    let mut merged = ControlRelation::empty();
    for (ci, clause) in pred.clauses().iter().enumerate() {
        let rel = control_disjunctive(dep, clause, opts).map_err(|witness| {
            CnfControlError::ClauseInfeasible {
                clause: ci,
                witness,
            }
        })?;
        merged = merged.merged(&rel);
    }
    // Soundness gate: the union must still be a partial order, and each
    // clause must still hold under the union (chains from one clause can
    // invalidate another clause's chain argument only by removing cuts, so
    // holding per-clause under the merged order is implied — but we check
    // interference explicitly).
    match ControlledDeposet::new(dep, merged.clone()) {
        Ok(_) => Ok(merged),
        Err(_) => Err(CnfControlError::Conflict { merged }),
    }
}

/// The paper's *mutual separation* condition: every two false intervals of
/// different processes (w.r.t. the given per-process local predicates) are
/// causally ordered — `I.hi → J.lo` or `J.hi → I.lo` — never concurrent.
///
/// When it holds for the union of all clauses' false intervals, each clause
/// needs no control at all w.r.t. the others' timing and `control_cnf`
/// cannot conflict; it is the checkable sufficient condition for the
/// "locally independent" class.
pub fn mutually_separated(dep: &Deposet, locals: &[LocalPredicate]) -> bool {
    let iv = FalseIntervals::extract_each(dep, locals);
    let n = dep.process_count();
    for i in 0..n {
        for j in (i + 1)..n {
            for a in iv.of(pctl_deposet::ProcessId(i as u32)) {
                for b in iv.of(pctl_deposet::ProcessId(j as u32)) {
                    let ab = dep.precedes(a.hi_state(), b.lo_state());
                    let ba = dep.precedes(b.hi_state(), a.lo_state());
                    if !(ab || ba) {
                        return false;
                    }
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use pctl_deposet::lattice::consistent_global_states;
    use pctl_deposet::{DeposetBuilder, GlobalState};

    /// Three processes, each with one critical section, pairwise-overlapping
    /// in the trace.
    fn three_cs() -> Deposet {
        let mut b = DeposetBuilder::new(3);
        for p in 0..3 {
            b.init_vars(p, &[("cs", 0)]);
            b.internal(p, &[("cs", 1)]);
            b.internal(p, &[("cs", 0)]);
        }
        b.finish().unwrap()
    }

    #[test]
    fn two_pairwise_mutexes_compose() {
        let dep = three_cs();
        // ¬cs₀∨¬cs₁ and ¬cs₁∨¬cs₂ (P0–P2 may overlap freely).
        let pred = CnfPredicate::new(vec![
            CnfPredicate::pairwise_mutex(3, 0, 1, "cs"),
            CnfPredicate::pairwise_mutex(3, 1, 2, "cs"),
        ]);
        let rel = control_cnf(&dep, &pred, OfflineOptions::default()).expect("composable");
        let c = ControlledDeposet::new(&dep, rel).unwrap();
        for g in consistent_global_states(&c, 100_000).unwrap() {
            assert!(pred.eval(&dep, &g), "violated at {g:?}");
        }
    }

    #[test]
    fn full_triple_mutex_via_cnf() {
        // 1-mutex (at most one in CS) = all three pairwise clauses.
        let dep = three_cs();
        let pred = CnfPredicate::new(vec![
            CnfPredicate::pairwise_mutex(3, 0, 1, "cs"),
            CnfPredicate::pairwise_mutex(3, 0, 2, "cs"),
            CnfPredicate::pairwise_mutex(3, 1, 2, "cs"),
        ]);
        match control_cnf(&dep, &pred, OfflineOptions::default()) {
            Ok(rel) => {
                let c = ControlledDeposet::new(&dep, rel).unwrap();
                for g in consistent_global_states(&c, 100_000).unwrap() {
                    assert!(pred.eval(&dep, &g));
                }
            }
            Err(CnfControlError::Conflict { .. }) => {
                // Sound-but-incomplete composition may conflict; acceptable
                // per module docs — but it must never return a bad relation.
            }
            Err(e) => panic!("unexpected failure: {e}"),
        }
    }

    #[test]
    fn clause_infeasibility_is_attributed() {
        // P0 and P1 in CS for their whole execution: ¬cs₀∨¬cs₁ infeasible.
        let mut b = DeposetBuilder::new(2);
        for p in 0..2 {
            b.init_vars(p, &[("cs", 1)]);
            b.internal(p, &[]);
        }
        let dep = b.finish().unwrap();
        let pred = CnfPredicate::new(vec![CnfPredicate::pairwise_mutex(2, 0, 1, "cs")]);
        match control_cnf(&dep, &pred, OfflineOptions::default()) {
            Err(CnfControlError::ClauseInfeasible { clause: 0, .. }) => {}
            other => panic!("expected clause infeasibility, got {other:?}"),
        }
    }

    #[test]
    fn mutual_separation_detects_ordering() {
        // Causally ordered CSs: P0's section strictly before P1's (message).
        let mut b = DeposetBuilder::new(2);
        b.init_vars(0, &[("cs", 0)]);
        b.init_vars(1, &[("cs", 0)]);
        b.internal(0, &[("cs", 1)]);
        b.internal(0, &[("cs", 0)]);
        let t = b.send(0, "done");
        b.recv(1, t, &[]);
        b.internal(1, &[("cs", 1)]);
        b.internal(1, &[("cs", 0)]);
        let dep = b.finish().unwrap();
        let locals = vec![LocalPredicate::not_var("cs"), LocalPredicate::not_var("cs")];
        assert!(mutually_separated(&dep, &locals));
        // And the unordered version is not separated.
        let dep2 = three_cs();
        let locals3 = vec![
            LocalPredicate::not_var("cs"),
            LocalPredicate::not_var("cs"),
            LocalPredicate::not_var("cs"),
        ];
        assert!(!mutually_separated(&dep2, &locals3));
    }

    #[test]
    fn separated_instances_need_no_control_and_never_conflict() {
        // When mutually separated, each clause's algorithm output verifies
        // and the merge is conflict-free.
        let mut b = DeposetBuilder::new(2);
        b.init_vars(0, &[("cs", 0)]);
        b.init_vars(1, &[("cs", 0)]);
        b.internal(0, &[("cs", 1)]);
        b.internal(0, &[("cs", 0)]);
        let t = b.send(0, "done");
        b.recv(1, t, &[]);
        b.internal(1, &[("cs", 1)]);
        b.internal(1, &[("cs", 0)]);
        let dep = b.finish().unwrap();
        let pred = CnfPredicate::new(vec![CnfPredicate::pairwise_mutex(2, 0, 1, "cs")]);
        let rel = control_cnf(&dep, &pred, OfflineOptions::default()).unwrap();
        let c = ControlledDeposet::new(&dep, rel).unwrap();
        for g in consistent_global_states(&c, 100_000).unwrap() {
            assert!(pred.eval(&dep, &g));
        }
    }

    #[test]
    fn cnf_eval_and_lowering() {
        let dep = three_cs();
        let pred = CnfPredicate::new(vec![
            CnfPredicate::pairwise_mutex(3, 0, 1, "cs"),
            CnfPredicate::pairwise_mutex(3, 1, 2, "cs"),
        ]);
        let bad = GlobalState::from_indices(vec![1, 1, 0]);
        assert!(!pred.eval(&dep, &bad));
        assert!(!pred.to_global().eval(&dep, &bad));
        let ok = GlobalState::from_indices(vec![1, 0, 1]);
        assert!(pred.eval(&dep, &ok));
        assert!(pred.to_global().eval(&dep, &ok));
    }
}
