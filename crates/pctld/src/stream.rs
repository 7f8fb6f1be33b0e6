//! Stream-to-daemon mode: drive a whole (simulated or traced) computation
//! into a daemon session, riding out backpressure.
//!
//! This is the producer side the simulator and CLI share: linearize a
//! batch [`Deposet`] into causal delivery order
//! ([`pctl_deposet::linearize`]), open a session, and push every event
//! through [`Client::append`] with the exponential-backoff retry loop —
//! counting how often the daemon pushed back, so callers (the bench suite,
//! the torture test) can observe backpressure doing its job rather than
//! silently absorbing it.
//!
//! [`stream_deposet_with`] additionally measures every append round-trip
//! on the client side and reports progress periodically, so a long replay
//! (`pctl stream`) is not silent: the callback receives events sent, Busy
//! bounces, and the current append p50 as the stream runs.

use crate::client::{Client, RetryPolicy};
use crate::proto::Response;
use pctl_deposet::{linearize, AppendOp, Deposet, LocalPredicate, PredicateClass};
use std::time::{Duration, Instant};

/// What happened while streaming one computation into a session.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StreamReport {
    /// Events appended (accepted by the daemon).
    pub appends: usize,
    /// `Busy` bounces absorbed by the retry loop.
    pub busy_bounces: u64,
    /// Client-observed append round-trip p50, microseconds (nearest-rank
    /// over every accepted append; 0 if none).
    pub append_p50_us: u64,
}

/// A progress sample handed to [`stream_deposet_with`]'s callback.
#[derive(Clone, Copy, Debug)]
pub struct StreamProgress {
    /// Events accepted so far.
    pub sent: usize,
    /// Total events in the computation.
    pub total: usize,
    /// `Busy` bounces absorbed so far.
    pub busy_bounces: u64,
    /// Client-observed append round-trip p50 so far, microseconds.
    pub append_p50_us: u64,
}

/// How often [`stream_deposet_with`] reports progress: whichever comes
/// first of this interval elapsing or the stream finishing.
const PROGRESS_INTERVAL: Duration = Duration::from_secs(2);

/// Open `session` over `locals` and stream `dep` into it, retrying
/// appends under `policy`. The daemon-side store ends bit-identical to
/// `dep` (all messages delivered). Returns the report, or the first
/// non-`Ok` daemon response as an error.
pub fn stream_deposet(
    client: &mut Client,
    session: &str,
    locals: Vec<LocalPredicate>,
    dep: &Deposet,
    policy: RetryPolicy,
) -> std::io::Result<StreamReport> {
    stream_deposet_with(client, session, locals, dep, policy, |_| {})
}

/// [`stream_deposet`] with a progress callback, invoked at least every
/// two seconds (`PROGRESS_INTERVAL`) while appends are flowing (and never after the
/// last append). Timings are client-side round-trips, so the p50 the
/// callback reports is what the producer actually experiences — queue
/// wait, apply, and the wire included.
pub fn stream_deposet_with(
    client: &mut Client,
    session: &str,
    locals: Vec<LocalPredicate>,
    dep: &Deposet,
    policy: RetryPolicy,
    progress: impl FnMut(&StreamProgress),
) -> std::io::Result<StreamReport> {
    let (init, ops) = linearize(dep);
    let resp = client.hello(session, locals, Some(init))?;
    if resp != Response::Ok {
        return Err(std::io::Error::other(format!("hello refused: {resp:?}")));
    }
    push_ops(client, session, ops, policy, progress)
}

/// [`stream_deposet`] for an explicit [`PredicateClass`] session: the
/// `Hello` carries the class, so the daemon routes the session's queries
/// through the class-aware engine (regular classes answer via slicing).
/// The append loop — and therefore the backpressure behaviour — is the
/// same code path as the disjunctive stream.
pub fn stream_deposet_class(
    client: &mut Client,
    session: &str,
    class: PredicateClass,
    dep: &Deposet,
    policy: RetryPolicy,
) -> std::io::Result<StreamReport> {
    let (init, ops) = linearize(dep);
    let resp = client.hello_class(session, class, Some(init))?;
    if resp != Response::Ok {
        return Err(std::io::Error::other(format!("hello refused: {resp:?}")));
    }
    push_ops(client, session, ops, policy, |_| {})
}

/// The shared producer loop: push every op through the backoff-aware
/// retry, timing client-side round-trips and reporting progress.
fn push_ops(
    client: &mut Client,
    session: &str,
    ops: Vec<AppendOp>,
    policy: RetryPolicy,
    mut progress: impl FnMut(&StreamProgress),
) -> std::io::Result<StreamReport> {
    let total = ops.len();
    let mut report = StreamReport::default();
    let mut rtt_us: Vec<u64> = Vec::with_capacity(total);
    let mut last_report = Instant::now();
    for op in ops {
        let mut floor = policy.base_delay;
        let mut attempts = 0u32;
        loop {
            let sent_at = Instant::now();
            match client.append(session, op.clone())? {
                Response::Ok => {
                    rtt_us.push(sent_at.elapsed().as_micros() as u64);
                    break;
                }
                Response::Busy { retry_after_ms } => {
                    report.busy_bounces += 1;
                    attempts += 1;
                    if attempts > policy.max_retries {
                        return Err(std::io::Error::other(
                            "daemon stayed busy past the retry budget",
                        ));
                    }
                    let hint = Duration::from_millis(retry_after_ms);
                    std::thread::sleep(floor.max(hint).min(policy.max_delay));
                    floor = (floor * 2).min(policy.max_delay);
                }
                other => return Err(std::io::Error::other(format!("append refused: {other:?}"))),
            }
        }
        report.appends += 1;
        if last_report.elapsed() >= PROGRESS_INTERVAL && report.appends < total {
            progress(&StreamProgress {
                sent: report.appends,
                total,
                busy_bounces: report.busy_bounces,
                append_p50_us: p50(&rtt_us),
            });
            last_report = Instant::now();
        }
    }
    report.append_p50_us = p50(&rtt_us);
    Ok(report)
}

/// Nearest-rank p50 of the samples so far.
fn p50(samples: &[u64]) -> u64 {
    pctl_obs::stats::Percentiles::of(samples).map_or(0, |p| p.p50)
}
