//! Predicate control for active debugging of distributed programs.
//!
//! This crate implements the contributions of Tarafdar & Garg (IPPS 1998):
//!
//! * [`control`] — control relations `C→`, interference checking, and
//!   controlled deposets (Section 3);
//! * [`offline`] — the efficient off-line control algorithm for disjunctive
//!   predicates (Figure 2), in both the O(n²p) and the naive O(n³p)
//!   variants, with infeasibility certificates ([`overlap`], Lemma 2);
//! * [`engine`] — the unified engine layer: one cached computation store
//!   per (deposet, predicate) pair that control, detection and verification
//!   all answer from;
//! * [`mod@sgsd`] / [`sat`] / [`reduction`] — the NP-hardness machinery of
//!   Section 4: SGSD, DPLL, and the SAT → SGSD gadget of Figure 1;
//! * [`verify`] — executable evidence for the correctness theorems:
//!   chain-structure checks and exact, polynomial verification of control
//!   strategies (violation detection over the controlled computation);
//! * [`online`] — the on-line control strategy of Figure 3 (the scapegoat /
//!   "anti-token" protocol) as a sans-I/O state machine plus simulator
//!   processes, the broadcast variant, and the Theorem 3 impossibility
//!   scenario; [`online::ft`] hardens it against message loss, duplication,
//!   reordering and crash/restart faults, with the post-run safety audit in
//!   [`verify::sweep_faulty_run`];
//! * [`streaming`] — the engine's query surface over a *growing*
//!   per-session store: the daemon's incremental path, answering
//!   detect/control/verify bit-identically to a fresh batch engine at
//!   every prefix;
//! * [`cnf_control`] — the conclusions' extension beyond disjunctive
//!   predicates: control of conjunctions of disjunctive clauses, sound when
//!   the per-clause chains do not interfere (which the paper's *locally
//!   independent* / mutually-separated condition guarantees).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cnf_control;
pub mod control;
pub mod engine;
pub mod offline;
pub mod online;
pub mod overlap;
pub mod reduction;
pub mod sat;
pub mod sgsd;
pub mod streaming;
pub mod verify;

pub use control::{ControlError, ControlRelation, ControlledDeposet};
pub use engine::PredicateEngine;
pub use offline::{
    control_disjunctive, control_disjunctive_traced, control_intervals, control_intervals_traced,
    Engine, Infeasible, OfflineOptions, OfflineStats, SelectPolicy,
};
pub use sgsd::{sgsd, SgsdOutcome};
pub use streaming::StreamEngine;
