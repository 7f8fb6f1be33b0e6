//! Causal tracing and telemetry for the predicate-control workspace.
//!
//! Every controller in this repository — the offline Figure-2 engine, the
//! online scapegoat protocols, the fault-injecting simulator, the replay
//! harness — can emit a structured stream of [`Event`]s through a
//! [`Recorder`]. The stream is *itself causally ordered*: events carry the
//! emitting lane (process), a monotonic timestamp, and (for simulated
//! distributed runs and deposet timelines) the state of the computation
//! they annotate, whose Fidge–Mattern vector clock is read from the
//! deposet ([`timeline::stamp_clocks`]) — the computation's one clock
//! store. So the telemetry of a distributed run can be audited with the
//! same happened-before machinery the paper applies to the computation it
//! debugs.
//!
//! Three sinks cover the use cases:
//!
//! * [`NullRecorder`] — disabled; instrumented code pays one branch. Used
//!   by default everywhere so the fault-free fast path of the simulator
//!   stays bit-identical to the uninstrumented build.
//! * [`RingRecorder`] — bounded in-memory buffer (drop-oldest), for tests
//!   and for post-run export.
//! * [`JsonlRecorder`] — streams one JSON object per line to any
//!   `io::Write` as events happen (states named, clocks not yet read);
//!   [`jsonl::parse`] reads the log back.
//!
//! [`chrome`] renders an event log (or, via [`timeline`], a raw deposet)
//! as Chrome `trace_event` JSON: open the file in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev) to see process lanes, message and
//! control arrows, and predicate truth intervals.
//!
//! [`prof`] (re-exported from the leaf crate `pctl-prof`) is the hot-path
//! profiler: thread-local scoped timers with hierarchical phase
//! attribution and store gauges, near-zero cost when disabled. [`prom`]
//! renders metrics and profiler aggregates as Prometheus text exposition
//! (format 0.0.4) and can serve them live over a `/metrics` TCP endpoint.
//!
//! [`flight`] is the black-box flight recorder: a bounded drop-oldest ring
//! of whole-daemon state snapshots, an anomaly detector over consecutive
//! snapshots, and self-contained postmortem bundles a long-running daemon
//! dumps when something goes wrong.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chrome;
pub mod event;
pub mod flight;
pub mod jsonl;
pub mod prom;
pub mod recorder;
pub mod stats;
pub mod timeline;

/// Hot-path profiler: scoped timers, phase aggregates, store gauges,
/// Chrome trace export. Re-export of the leaf crate `pctl-prof` so hot
/// crates below `pctl-obs` in the dependency graph (causality, deposet)
/// can instrument themselves while observers keep one import path.
pub use pctl_prof as prof;

pub use event::{Event, EventKind};
pub use recorder::{JsonlRecorder, NullRecorder, Recorder, RingRecorder};
pub use stats::EventStats;
