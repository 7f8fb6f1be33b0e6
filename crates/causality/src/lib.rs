//! Logical clocks and causal-order utilities for predicate control.
//!
//! This crate is the bottom layer of the predicate-control workspace. It
//! provides the vocabulary used by every other crate:
//!
//! * typed identifiers for processes, local states and messages ([`ids`]);
//! * Fidge–Mattern [vector clocks](vclock::VectorClock) and
//!   [Lamport clocks](lamport::LamportClock), the mechanisms used to answer
//!   `s → t` ("s causally precedes t", Lamport's *happened-before* relation)
//!   in O(1) / O(n);
//! * a columnar [clock arena](arena::ClockArena) that stores every clock of
//!   a computation in one flat `u32` allocation, plus the shared
//!   [clock fill](arena::fill_clocks) computation stores build on;
//! * a small directed-graph toolkit ([`graph`]) with Kahn topological sort,
//!   cycle extraction and bitset transitive closure. These are used to check
//!   that a control relation `C→` does not *interfere* with `→` (i.e. the
//!   extended causality stays an irreflexive partial order) and to recompute
//!   extended vector clocks after control edges are added.
//!
//! The paper this workspace reproduces — Tarafdar & Garg, *Predicate Control
//! for Active Debugging of Distributed Programs* (IPPS 1998) — models a
//! distributed computation as a *deposet* whose causal order `→` is the
//! transitive closure of the local-successor relation `im` and the message
//! relation `;`. Everything in this crate is agnostic of the deposet
//! structure; the deposet crate builds on top.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arena;
pub mod graph;
pub mod ids;
pub mod lamport;
pub mod order;
pub mod vclock;

pub use arena::{ClockArena, ClockRef};
pub use graph::{CycleError, Dag};
pub use ids::{MsgId, ProcessId, StateId};
pub use lamport::LamportClock;
pub use order::Causality;
pub use vclock::VectorClock;
