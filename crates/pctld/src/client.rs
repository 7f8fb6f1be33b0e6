//! Blocking client for the daemon, with backoff-aware retry.
//!
//! One [`Client`] wraps one TCP connection. Requests are answered in order
//! by the daemon, but correlation is still by `seq` so a client never
//! misattributes a response. [`Client::append_retry`] is the helper the
//! simulator's streaming mode uses: on [`Response::Busy`] it sleeps at
//! least the daemon's hint, doubling the floor on every consecutive bounce
//! (capped), so a producer that outruns the session worker converges to
//! the worker's drain rate instead of hammering the queue.

use crate::frame::{encode_json_frame, FrameDecoder, DEFAULT_MAX_FRAME};
use crate::proto::{Request, RequestEnvelope, Response, ResponseEnvelope};
use pctl_deposet::{AppendOp, LocalPredicate, PredicateClass};
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Backoff policy for [`Client::append_retry`].
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Give up after this many `Busy` bounces.
    pub max_retries: u32,
    /// Lower bound for the first sleep (raised to the daemon's hint).
    pub base_delay: Duration,
    /// Upper bound for any sleep.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 12,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(500),
        }
    }
}

/// A blocking daemon connection.
pub struct Client {
    stream: TcpStream,
    decoder: FrameDecoder,
    next_seq: u64,
}

fn io_err(detail: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, detail)
}

impl Client {
    /// Connect to a daemon.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        Ok(Client {
            stream: TcpStream::connect(addr)?,
            decoder: FrameDecoder::new(DEFAULT_MAX_FRAME),
            next_seq: 1,
        })
    }

    /// Send one request and block for its response.
    pub fn request(&mut self, req: Request) -> std::io::Result<Response> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let env = RequestEnvelope { seq, req };
        // Room for a typical request in one allocation.
        let mut wire = Vec::with_capacity(128);
        encode_json_frame(&env, &mut wire);
        self.stream.write_all(&wire)?;
        let mut buf = [0u8; 8192];
        loop {
            match self
                .decoder
                .next_frame()
                .map_err(|e| io_err(e.to_string()))?
            {
                Some(payload) => {
                    let resp: ResponseEnvelope =
                        serde_json::from_slice(&payload).map_err(|e| io_err(e.to_string()))?;
                    // The daemon tags unparseable requests with seq 0;
                    // surface those too instead of waiting forever.
                    if resp.seq == seq || resp.seq == 0 {
                        return Ok(resp.resp);
                    }
                    // A stale response (e.g. from an abandoned retry)
                    // is skipped; correlation is by seq, not arrival.
                }
                None => {
                    let n = self.stream.read(&mut buf)?;
                    if n == 0 {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::UnexpectedEof,
                            "daemon closed the connection",
                        ));
                    }
                    self.decoder.push(&buf[..n]);
                }
            }
        }
    }

    /// Open a classic disjunctive session.
    pub fn hello(
        &mut self,
        session: &str,
        locals: Vec<LocalPredicate>,
        init: Option<Vec<Vec<(String, i64)>>>,
    ) -> std::io::Result<Response> {
        self.request(Request::Hello {
            session: session.into(),
            locals,
            init,
            class: None,
        })
    }

    /// Open a session over an explicit [`PredicateClass`] — regular
    /// classes are answered through the slicing engine on the daemon side.
    pub fn hello_class(
        &mut self,
        session: &str,
        class: PredicateClass,
        init: Option<Vec<Vec<(String, i64)>>>,
    ) -> std::io::Result<Response> {
        self.request(Request::Hello {
            session: session.into(),
            locals: vec![],
            init,
            class: Some(class),
        })
    }

    /// Append one event (no retry — the raw verb).
    pub fn append(&mut self, session: &str, op: AppendOp) -> std::io::Result<Response> {
        self.request(Request::Append {
            session: session.into(),
            op,
        })
    }

    /// Append with exponential backoff on `Busy`. Returns the final
    /// response — `Busy` only if the daemon bounced every attempt.
    pub fn append_retry(
        &mut self,
        session: &str,
        op: AppendOp,
        policy: RetryPolicy,
    ) -> std::io::Result<Response> {
        let mut floor = policy.base_delay;
        let mut last = self.append(session, op.clone())?;
        for _ in 0..policy.max_retries {
            let Response::Busy { retry_after_ms } = last else {
                return Ok(last);
            };
            let hint = Duration::from_millis(retry_after_ms);
            let sleep = floor.max(hint).min(policy.max_delay);
            std::thread::sleep(sleep);
            floor = (floor * 2).min(policy.max_delay);
            last = self.append(session, op.clone())?;
        }
        Ok(last)
    }

    /// Weak detection at the session's current prefix.
    pub fn detect(&mut self, session: &str) -> std::io::Result<Response> {
        self.request(Request::Detect {
            session: session.into(),
        })
    }

    /// Control synthesis at the session's current prefix.
    pub fn control(&mut self, session: &str) -> std::io::Result<Response> {
        self.request(Request::Control {
            session: session.into(),
        })
    }

    /// Synthesize + verify at the current prefix.
    pub fn verify(&mut self, session: &str) -> std::io::Result<Response> {
        self.request(Request::Verify {
            session: session.into(),
        })
    }

    /// Export the session's batch trace JSON.
    pub fn snapshot(&mut self, session: &str) -> std::io::Result<Response> {
        self.request(Request::Snapshot {
            session: session.into(),
        })
    }

    /// Close a session.
    pub fn close(&mut self, session: &str) -> std::io::Result<Response> {
        self.request(Request::Close {
            session: session.into(),
        })
    }

    /// Pull the session's recent telemetry events (for Chrome-trace
    /// export — `pctl trace --remote`).
    pub fn trace(&mut self, session: &str) -> std::io::Result<Response> {
        self.request(Request::Trace {
            session: session.into(),
        })
    }

    /// Daemon counters/gauges.
    pub fn stats(&mut self) -> std::io::Result<Response> {
        self.request(Request::Stats)
    }

    /// Daemon counters/gauges, unwrapped to the snapshot. Any other
    /// response (e.g. `Draining`) is an error.
    pub fn stats_snapshot(&mut self) -> std::io::Result<crate::proto::StatsSnapshot> {
        match self.stats()? {
            Response::Stats { stats } => Ok(stats),
            other => Err(io_err(format!("unexpected stats answer: {other:?}"))),
        }
    }

    /// Drain every session and stop the daemon.
    pub fn shutdown(&mut self) -> std::io::Result<Response> {
        self.request(Request::Shutdown)
    }
}
