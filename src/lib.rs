//! **predicate-control** — active debugging of distributed programs via
//! predicate control.
//!
//! A full reproduction of Tarafdar & Garg, *Predicate Control for Active
//! Debugging of Distributed Programs* (IPPS 1998), as a Rust workspace.
//! This facade crate re-exports every subsystem; see DESIGN.md for the
//! architecture and EXPERIMENTS.md for the reproduced evaluation.
//!
//! # The idea
//!
//! Traditional distributed debugging is passive: observe a traced
//! computation, find a bad global state, re-run and hope. *Predicate
//! control* makes the replay active: given a safety property `B` (e.g.
//! "at least one server is always available"), synthesize extra causal
//! dependencies — control messages — such that **every** execution of the
//! controlled computation satisfies `B`.
//!
//! # Quick start
//!
//! ```
//! use predicate_control::prelude::*;
//!
//! // Trace a computation: two processes with overlapping critical sections.
//! let mut b = DeposetBuilder::new(2);
//! for p in 0..2 {
//!     b.init_vars(p, &[("cs", 0)]);
//!     b.internal(p, &[("cs", 1)]);
//!     b.internal(p, &[("cs", 0)]);
//! }
//! let computation = b.finish().unwrap();
//!
//! // Safety: at least one process outside its critical section.
//! let safety = DisjunctivePredicate::at_least_one_not(2, "cs");
//!
//! // A violation is possible…
//! assert!(detect_disjunctive_violation(&computation, &safety).is_some());
//!
//! // …so synthesize control (the paper's Figure 2 algorithm)…
//! let control = control_disjunctive(&computation, &safety, OfflineOptions::default())
//!     .expect("feasible");
//!
//! // …and replay under control: the bug cannot recur.
//! let outcome = replay(&computation, &control, &ReplayConfig::default());
//! assert!(outcome.completed() && outcome.fidelity(&computation));
//! assert!(detect_disjunctive_violation(outcome.deposet(), &safety).is_none());
//! ```
//!
//! # Crate map
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`causality`] | `pctl-causality` | vector/Lamport clocks, DAG utilities |
//! | [`deposet`] | `pctl-deposet` | the computation model, lattice, predicates, detection, traces |
//! | [`sim`] | `pctl-sim` | deterministic discrete-event simulator with tracing |
//! | [`control`] | `pctl-core` | off-line + on-line predicate control, NP-hardness machinery |
//! | [`mutex`] | `pctl-mutex` | (n−1)-mutex via control + k-mutex baselines |
//! | [`obs`] | `pctl-obs` | structured event log, recorders, hot-path profiler, Prometheus + Chrome-trace export |
//! | [`replay`] | `pctl-replay` | controlled re-execution of traces |
//! | [`pctld`] | `pctld` | streaming daemon: per-session incremental stores, backpressure, graceful degradation |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use pctl_causality as causality;
pub use pctl_core as control;
pub use pctl_deposet as deposet;
pub use pctl_mutex as mutex;
pub use pctl_obs as obs;
pub use pctl_replay as replay;
pub use pctl_sim as sim;
pub use pctld;

/// Everything a typical debugging session needs.
pub mod prelude {
    pub use pctl_causality::{MsgId, ProcessId, StateId, VectorClock};
    pub use pctl_core::cnf_control::{control_cnf, mutually_separated, CnfPredicate};
    pub use pctl_core::online::ft::{FtController, FtParams};
    pub use pctl_core::online::{PeerSelect, Phase, ScapegoatController};
    pub use pctl_core::verify::{
        chain_structure, sweep_faulty_run, verify_disjunctive, verify_regular, FaultSweepReport,
    };
    pub use pctl_core::{
        control_disjunctive, sgsd, ControlRelation, ControlledDeposet, Engine, Infeasible,
        OfflineOptions, PredicateEngine, SelectPolicy, SgsdOutcome, StreamEngine,
    };
    pub use pctl_deposet::store::{
        definitely_all_false, detect_disjunctive_violation, possibly_conjunction,
    };
    pub use pctl_deposet::{
        CausalStore, CmpOp, Deposet, DeposetBuilder, DisjunctivePredicate, GlobalPredicate,
        GlobalState, LocalPredicate, LocalState, PredicateClass, RegularPredicate, SlicedDeposet,
        Variables,
    };
    pub use pctl_mutex::{
        compare_all, max_concurrent, run_antitoken, run_antitoken_recorded, run_central,
        run_ft_antitoken, run_ft_antitoken_recorded, run_ft_antitoken_with, run_suzuki,
        WorkloadConfig,
    };
    pub use pctl_obs::{
        Event, EventKind, EventStats, JsonlRecorder, NullRecorder, Recorder, RingRecorder,
    };
    pub use pctl_replay::{replay, replay_recorded, ReplayConfig, ReplayOutcome};
    pub use pctl_sim::{
        DelayModel, FaultPlan, LinkFaults, LiveMetrics, Process, SimConfig, SimTime, Simulation,
    };
}
