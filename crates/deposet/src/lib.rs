//! Deposets: distributed computations as decomposed partially ordered sets.
//!
//! This crate implements Section 3 of Tarafdar & Garg, *Predicate Control
//! for Active Debugging of Distributed Programs* (IPPS 1998):
//!
//! * the [`Deposet`] model — per-process local state sequences, message
//!   (`;`) edges, and O(1) causality queries via precomputed Fidge–Mattern
//!   vector clocks ([`model`]);
//! * safe incremental construction with [`builder::DeposetBuilder`] (the
//!   deposet constraints D1–D3 hold by construction);
//! * [`global::GlobalState`]s, consistency, and the lattice `(G_c, ≤)` with
//!   enumeration/model-checking utilities over one cut walk, generic over
//!   any [`CausalStore`] ([`lattice`]);
//! * [`sequences::GlobalSequence`]s — executions as subset-advancing paths
//!   through the lattice, with validation and satisfaction checking;
//! * [`predicate`]s — local predicates, general boolean global predicates,
//!   and the disjunctive class the control algorithms target;
//! * false-[`intervals`] extraction, the representation the off-line control
//!   algorithm actually manipulates;
//! * the computation [`store`] — the single home of the Lemma 2
//!   crossable/overlap primitives, the predicate detectors of the
//!   debugging cycle (Garg–Waldecker weak conjunctive detection, strong
//!   detection by overlap), and a precomputed truth/interval index, built
//!   by one sequential pass over the processes;
//! * computation [`slice`](mod@slice)s for *regular* predicates (Mittal–Garg) — the
//!   join-irreducible sub-computation containing exactly the satisfying
//!   consistent cuts, with the [`predicate::PredicateClass`] abstraction
//!   that routes each class to the right engine path;
//! * a stable JSON [`trace`] format and Graphviz [`dot`] export.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builder;
pub mod causal;
pub mod dot;
pub mod event;
pub mod generator;
pub mod global;
pub mod intervals;
pub mod lattice;
pub mod model;
pub mod par;
pub mod predicate;
pub mod scenarios;
pub mod sequences;
pub mod session;
pub mod slice;
pub mod state;
pub mod store;
pub mod trace;

pub use builder::{BuildError, DeposetBuilder, MsgToken};
pub use causal::CausalStore;
pub use event::{EventKind, Message};
pub use global::GlobalState;
pub use intervals::{FalseIntervals, Interval};
pub use model::{Deposet, DeposetError};
pub use predicate::{
    ClassError, CmpOp, DisjunctivePredicate, GlobalPredicate, LocalPredicate, PredicateClass,
    RegularPredicate,
};
pub use sequences::{GlobalSequence, SequenceError};
pub use session::{linearize, AppendOp, SessionError, SessionStore};
pub use slice::{least_satisfying_cut, least_satisfying_cut_of, SlicedDeposet};
pub use state::{LocalState, Variables};
pub use store::IntervalIndex;

// Re-export the id types for downstream convenience.
pub use pctl_causality::{MsgId, ProcessId, StateId, VectorClock};
