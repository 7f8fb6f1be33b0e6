//! Token-based k-mutual exclusion: `k` independent Suzuki–Kasami
//! instances (baseline).
//!
//! The paper contrasts its single *anti-token* against classical k-mutex
//! algorithms that manage `k` privilege tokens. This baseline runs `k`
//! independent Suzuki–Kasami broadcast instances; a requester picks an
//! instance round-robin and competes for that instance's token. Cost per
//! entry: `n − 1` broadcast request messages plus one token transfer
//! (unless the requester already holds the token) — the Θ(n) per-entry
//! profile the paper's Section 6 argues against for `k = n − 1`.
//!
//! Suzuki–Kasami per instance: every process keeps `RN[j]` (highest request
//! number heard from `j`); the token carries `LN[j]` (request number last
//! *served* for `j`) and a FIFO queue. A holder passes the token to `j`
//! when `RN[j] = LN[j] + 1` (an unserved request) and the holder is idle on
//! that instance.

use crate::driver::{Driver, Phase, WorkloadConfig};
use pctl_deposet::ProcessId;
use pctl_sim::{Ctx, DelayModel, Payload, Process, SimConfig, SimResult, Simulation, TimerId};
use std::collections::VecDeque;

/// Token state for one Suzuki–Kasami instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TokenData {
    /// `LN[j]`: last served request number per process.
    pub ln: Vec<u64>,
    /// FIFO of processes with outstanding served-next requests.
    pub queue: VecDeque<u32>,
}

/// Messages of the protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SkMsg {
    /// Broadcast CS request for an instance.
    Request {
        /// Token instance.
        inst: u32,
        /// Requester's sequence number.
        seq: u64,
    },
    /// Token transfer.
    Token {
        /// Token instance.
        inst: u32,
        /// The token itself.
        token: TokenData,
    },
}

impl Payload for SkMsg {
    fn tag(&self) -> &'static str {
        match self {
            SkMsg::Request { .. } => "sk_request",
            SkMsg::Token { .. } => "sk_token",
        }
    }
    fn is_control(&self) -> bool {
        true
    }
}

struct SkProcess {
    n: usize,
    k: usize,
    driver: Driver,
    /// `rn[inst][j]`.
    rn: Vec<Vec<u64>>,
    /// Held tokens per instance.
    tokens: Vec<Option<TokenData>>,
    /// Instance this process is currently using (waiting or in CS).
    using: Option<u32>,
    /// Round-robin instance picker.
    next_inst: u32,
}

impl SkProcess {
    fn idle_on(&self, inst: u32) -> bool {
        self.using != Some(inst)
    }

    /// Try to pass `inst`'s token to an unserved requester (holder idle).
    fn try_pass(&mut self, inst: u32, ctx: &mut Ctx<'_, SkMsg>) {
        if !self.idle_on(inst) {
            return;
        }
        let Some(token) = &mut self.tokens[inst as usize] else {
            return;
        };
        let rn = &self.rn[inst as usize];
        // Refresh the queue with newly unserved requesters.
        for j in 0..self.n as u32 {
            if rn[j as usize] == token.ln[j as usize] + 1 && !token.queue.contains(&j) {
                token.queue.push_back(j);
            }
        }
        if let Some(j) = token.queue.pop_front() {
            let token = self.tokens[inst as usize].take().expect("held");
            ctx.send(ProcessId(j), SkMsg::Token { inst, token });
        }
    }

    fn enter_if_possible(&mut self, ctx: &mut Ctx<'_, SkMsg>) {
        let Some(inst) = self.using else { return };
        if self.driver.phase == Phase::Waiting && self.tokens[inst as usize].is_some() {
            self.driver.enter_cs(ctx);
        }
    }
}

impl Process<SkMsg> for SkProcess {
    fn on_start(&mut self, ctx: &mut Ctx<'_, SkMsg>) {
        ctx.init_var("cs", 0);
        self.driver.start_thinking(ctx);
    }

    fn on_timer(&mut self, _t: TimerId, ctx: &mut Ctx<'_, SkMsg>) {
        match self.driver.phase {
            Phase::Thinking => {
                self.driver.begin_request(ctx);
                let inst = self.next_inst % self.k as u32;
                self.next_inst = self.next_inst.wrapping_add(1);
                self.using = Some(inst);
                if self.tokens[inst as usize].is_some() {
                    // Already holding: enter for free.
                    self.driver.enter_cs(ctx);
                } else {
                    let me = ctx.me().index();
                    self.rn[inst as usize][me] += 1;
                    let seq = self.rn[inst as usize][me];
                    for j in 0..self.n {
                        if j != me {
                            ctx.send(ProcessId(j as u32), SkMsg::Request { inst, seq });
                        }
                    }
                }
            }
            Phase::InCs => {
                let inst = self.using.take().expect("in CS on an instance");
                let me = ctx.me().index();
                // Release: LN[me] := RN[me]; then hand off if anyone waits.
                if let Some(token) = &mut self.tokens[inst as usize] {
                    token.ln[me] = self.rn[inst as usize][me];
                }
                self.driver.exit_cs(ctx);
                self.try_pass(inst, ctx);
            }
            other => unreachable!("timer in phase {other:?}"),
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: SkMsg, ctx: &mut Ctx<'_, SkMsg>) {
        match msg {
            SkMsg::Request { inst, seq } => {
                let rn = &mut self.rn[inst as usize][from.index()];
                *rn = (*rn).max(seq);
                self.try_pass(inst, ctx);
            }
            SkMsg::Token { inst, token } => {
                debug_assert!(self.tokens[inst as usize].is_none());
                self.tokens[inst as usize] = Some(token);
                self.enter_if_possible(ctx);
                // Not waiting on it (stale hand-off): pass along if others
                // want it.
                self.try_pass(inst, ctx);
            }
        }
    }
}

/// Run the `k`-token Suzuki–Kasami baseline; token `t` starts at process
/// `t % n`.
pub fn run_suzuki(cfg: &WorkloadConfig, k: usize) -> SimResult {
    let n = cfg.processes;
    assert!(k >= 1 && n >= 2);
    let procs: Vec<Box<dyn Process<SkMsg>>> = (0..n)
        .map(|i| {
            let tokens: Vec<Option<TokenData>> = (0..k)
                .map(|t| {
                    (t % n == i).then(|| TokenData {
                        ln: vec![0; n],
                        queue: VecDeque::new(),
                    })
                })
                .collect();
            Box::new(SkProcess {
                n,
                k,
                driver: Driver::new(ProcessId(i as u32), cfg),
                rn: vec![vec![0; n]; k],
                tokens,
                using: None,
                next_inst: i as u32, // stagger instance choice per process
            }) as Box<dyn Process<SkMsg>>
        })
        .collect();
    let sim_cfg = SimConfig {
        seed: cfg.seed,
        delay: DelayModel::Fixed(cfg.delay),
        ..SimConfig::default()
    };
    Simulation::new(sim_cfg, procs).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::max_concurrent;

    #[test]
    fn suzuki_respects_k() {
        for (k, seed) in [(1usize, 0u64), (2, 1), (3, 2)] {
            let cfg = WorkloadConfig {
                processes: 4,
                entries_per_process: 5,
                think: (5, 20),
                seed,
                ..WorkloadConfig::default()
            };
            let r = run_suzuki(&cfg, k);
            assert!(!r.deadlocked(), "k={k} seed={seed}");
            assert_eq!(r.metrics.counter("entries"), 20, "k={k}");
            assert!(max_concurrent(&r.metrics, 4) <= k, "k={k} violated");
        }
    }

    #[test]
    fn single_token_is_classic_suzuki_kasami() {
        let cfg = WorkloadConfig {
            processes: 3,
            entries_per_process: 6,
            think: (1, 5),
            cs: (5, 10),
            ..WorkloadConfig::default()
        };
        let r = run_suzuki(&cfg, 1);
        assert!(!r.deadlocked());
        assert_eq!(max_concurrent(&r.metrics, 3), 1);
        // Broadcast cost: a contended entry costs n-1 requests + 1 token.
        let entries = r.metrics.counter("entries");
        assert!(
            r.metrics.counter("msgs_ctrl") <= entries * 3,
            "n-1 + 1 = 3 per entry max"
        );
    }

    #[test]
    fn k_equals_n_minus_1_matches_antitoken_semantics() {
        // Safety for the paper's comparison point.
        let cfg = WorkloadConfig {
            processes: 4,
            entries_per_process: 6,
            ..WorkloadConfig::default()
        };
        let r = run_suzuki(&cfg, 3);
        assert!(!r.deadlocked());
        assert!(max_concurrent(&r.metrics, 4) <= 3);
    }

    #[test]
    fn token_holder_enters_for_free() {
        // Single process holding the only token with no contention: zero
        // messages for repeated entries. (n must be ≥ 2; the peer never
        // requests because its think time exceeds the horizon.)
        let cfg = WorkloadConfig {
            processes: 2,
            entries_per_process: 1,
            think: (1, 1),
            cs: (1, 1),
            ..WorkloadConfig::default()
        };
        let r = run_suzuki(&cfg, 2); // two tokens: one each — no contention
        assert!(!r.deadlocked());
        assert_eq!(
            r.metrics.counter("msgs_ctrl"),
            0,
            "uncontended holders are free"
        );
    }
}
