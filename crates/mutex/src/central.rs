//! Centralized-coordinator k-mutual exclusion (baseline).
//!
//! A dedicated coordinator process grants up to `k` concurrent critical
//! sections; excess requests queue FIFO. Cost: 2 messages per entry
//! (request + grant) plus 1 release — the classic 3-messages-per-entry
//! centralized scheme, with the coordinator as a bottleneck and single
//! point of failure. Contrast with the anti-token's 2 messages per
//! *handover* (Section 6 of the paper).

use crate::driver::{Driver, Phase, WorkloadConfig};
use pctl_deposet::ProcessId;
use pctl_sim::{Ctx, DelayModel, Payload, Process, SimConfig, SimResult, Simulation, TimerId};
use std::collections::VecDeque;

/// Messages of the centralized protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CentralMsg {
    /// Worker → coordinator: may I enter?
    Request,
    /// Coordinator → worker: you may.
    Grant,
    /// Worker → coordinator: I left.
    Release,
}

impl Payload for CentralMsg {
    fn tag(&self) -> &'static str {
        match self {
            CentralMsg::Request => "request",
            CentralMsg::Grant => "grant",
            CentralMsg::Release => "release",
        }
    }
    fn is_control(&self) -> bool {
        true
    }
}

/// A worker under the shared driver.
struct Worker {
    driver: Driver,
    coordinator: ProcessId,
}

impl Process<CentralMsg> for Worker {
    fn on_start(&mut self, ctx: &mut Ctx<'_, CentralMsg>) {
        ctx.init_var("cs", 0);
        self.driver.start_thinking(ctx);
    }

    fn on_message(&mut self, _from: ProcessId, msg: CentralMsg, ctx: &mut Ctx<'_, CentralMsg>) {
        match msg {
            CentralMsg::Grant => self.driver.enter_cs(ctx),
            other => unreachable!("worker got {other:?}"),
        }
    }

    fn on_timer(&mut self, _t: TimerId, ctx: &mut Ctx<'_, CentralMsg>) {
        match self.driver.phase {
            Phase::Thinking => {
                self.driver.begin_request(ctx);
                ctx.send(self.coordinator, CentralMsg::Request);
            }
            Phase::InCs => {
                ctx.send(self.coordinator, CentralMsg::Release);
                self.driver.exit_cs(ctx);
            }
            other => unreachable!("timer in phase {other:?}"),
        }
    }
}

/// The coordinator: grants up to `k` concurrent sections.
struct Coordinator {
    k: usize,
    active: usize,
    queue: VecDeque<ProcessId>,
}

impl Process<CentralMsg> for Coordinator {
    fn on_start(&mut self, ctx: &mut Ctx<'_, CentralMsg>) {
        ctx.set_done();
    }

    fn on_message(&mut self, from: ProcessId, msg: CentralMsg, ctx: &mut Ctx<'_, CentralMsg>) {
        match msg {
            CentralMsg::Request => {
                if self.active < self.k {
                    self.active += 1;
                    ctx.send(from, CentralMsg::Grant);
                } else {
                    self.queue.push_back(from);
                }
            }
            CentralMsg::Release => {
                if let Some(next) = self.queue.pop_front() {
                    ctx.send(next, CentralMsg::Grant);
                } else {
                    self.active -= 1;
                }
            }
            CentralMsg::Grant => unreachable!("coordinator got a grant"),
        }
    }
}

/// Run the centralized baseline with `k` concurrent sections allowed
/// (workers are processes `0..n`; the coordinator is process `n`).
pub fn run_central(cfg: &WorkloadConfig, k: usize) -> SimResult {
    let n = cfg.processes;
    assert!(k >= 1 && n >= 1);
    let coordinator = ProcessId(n as u32);
    let mut procs: Vec<Box<dyn Process<CentralMsg>>> = (0..n)
        .map(|i| {
            Box::new(Worker {
                driver: Driver::new(ProcessId(i as u32), cfg),
                coordinator,
            }) as Box<dyn Process<CentralMsg>>
        })
        .collect();
    procs.push(Box::new(Coordinator {
        k,
        active: 0,
        queue: VecDeque::new(),
    }));
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
    fn central_respects_k() {
        for (k, seed) in [(1, 0), (2, 1), (3, 2)] {
            let cfg = WorkloadConfig {
                processes: 4,
                entries_per_process: 6,
                seed,
                think: (5, 15),
                ..WorkloadConfig::default()
            };
            let r = run_central(&cfg, k);
            assert!(!r.deadlocked(), "k={k}");
            assert_eq!(r.metrics.counter("entries"), 24);
            assert!(max_concurrent(&r.metrics, 4) <= k, "k={k} violated");
        }
    }

    #[test]
    fn message_cost_is_three_per_entry() {
        let cfg = WorkloadConfig {
            processes: 3,
            entries_per_process: 4,
            ..WorkloadConfig::default()
        };
        let r = run_central(&cfg, 2);
        let entries = r.metrics.counter("entries");
        assert_eq!(r.metrics.counter("msgs_ctrl"), 3 * entries);
    }

    #[test]
    fn response_time_lower_bound_is_round_trip() {
        let cfg = WorkloadConfig {
            processes: 2,
            delay: 10,
            ..WorkloadConfig::default()
        };
        let r = run_central(&cfg, 1);
        let s = r.metrics.summary("response").unwrap();
        assert!(s.min >= 20, "request+grant is at least 2T, got {}", s.min);
    }

    #[test]
    fn saturated_k1_serializes_everything() {
        // All workers request constantly with k = 1: entries must still all
        // complete, strictly serialized.
        let cfg = WorkloadConfig {
            processes: 5,
            entries_per_process: 3,
            think: (1, 2),
            cs: (10, 10),
            ..WorkloadConfig::default()
        };
        let r = run_central(&cfg, 1);
        assert!(!r.deadlocked());
        assert_eq!(r.metrics.counter("entries"), 15);
        assert_eq!(max_concurrent(&r.metrics, 5), 1);
    }
}
