//! `pctld` — the streaming predicate-control daemon.
//!
//! The paper's toolchain is batch-shaped: collect a full trace, build a
//! deposet, run detection/control/verification offline. This crate turns
//! that into a *service* for live debugging sessions: processes stream
//! events to the daemon as they execute, the daemon grows one incremental
//! per-session store (amortized O(n) per appended state — see
//! `pctl_deposet::session`), and detect/control/verify queries are
//! answered mid-stream, bit-identical to a fresh batch engine over the
//! same prefix.
//!
//! Zero-dependency discipline: plain `std::net` TCP, a 4-byte
//! length-prefixed JSON framing ([`frame`]), no async runtime — the same
//! stance as the repo's `/metrics` server. The interesting part is the
//! robustness surface ([`server`]): bounded ingest queues with `Busy`
//! backpressure, an idle-LRU eviction ladder under a global memory budget,
//! per-session panic quarantine, hostile-input containment, and a graceful
//! drain that flushes session snapshots and leaks nothing.
//!
//! [`client`] is the matching blocking client with backoff-aware retry,
//! used by the simulator's streaming mode, the CLI (`pctl serve` /
//! `pctl stream`), and the torture tests.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod frame;
pub mod proto;
pub mod server;
pub mod stream;

pub use client::{Client, RetryPolicy};
pub use frame::{encode_frame, encode_json_frame, FrameDecoder, FrameError, DEFAULT_MAX_FRAME};
pub use proto::{
    ErrorKind, Request, RequestEnvelope, Response, ResponseEnvelope, SessionStat, StatsSnapshot,
};
pub use server::{Config, Daemon, MAX_SLEEP_MS};
pub use stream::{
    stream_deposet, stream_deposet_class, stream_deposet_with, StreamProgress, StreamReport,
};
