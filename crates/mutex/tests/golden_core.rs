//! Golden-fingerprint pins for the simulator dispatch core.
//!
//! These fixtures were captured against the pre-actor-core dispatcher (the
//! single global `BinaryHeap` loop) and pin its observable behavior byte for
//! byte: the traced deposet (FNV-1a hash + length of the canonical trace
//! JSON), the full metrics JSON, and the run verdict. Any engine rework must
//! reproduce them exactly — same `(time, seq)` dispatch order, same RNG draw
//! order, same trace and metrics — for both the k-mutex and the
//! fault-tolerant mutex scenarios, with and without an active `FaultPlan`.
//!
//! The phase-script runs (`phased_system`, `ft_phased_system`) and the
//! m-anti-token run (`run_multi_antitoken`) are pinned the same way; the
//! phase-script fixtures also pin the recorded telemetry stream, so a host
//! that reorders a timer against its acks, or drops an annotation, fails
//! here.
//!
//! If a fingerprint legitimately changes (it should not, short of a
//! deliberate semantic change to the simulator), regenerate with
//! `UPDATE_GOLDEN=1` and review the diff.

use pctl_core::online::ft::{ft_phased_system, FtParams};
use pctl_core::online::{phased_system, PeerSelect, Phase};
use pctl_deposet::{trace, StateId};
use pctl_mutex::{run_antitoken, run_ft_antitoken, run_multi_antitoken, WorkloadConfig};
use pctl_sim::{
    DelayModel, FaultPlan, LinkFaults, Payload, Process, ProcessId, RingRecorder, SimConfig,
    SimResult, SimTime, Simulation,
};

/// FNV-1a 64-bit — dependency-free stable hash for the deposet trace JSON.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The pinned fingerprint: everything downstream layers can observe from a
/// run, with the (large) deposet JSON collapsed to hash+length.
fn fingerprint(r: &SimResult) -> String {
    let dep_json = trace::to_json(&r.deposet);
    format!(
        "deposet fnv1a={:016x} len={}\nmetrics {}\nend_time {:?}\ndone {:?}\nstopped {:?}\n",
        fnv1a(dep_json.as_bytes()),
        dep_json.len(),
        serde_json::to_string(&r.metrics).expect("metrics serialize"),
        r.end_time,
        r.done,
        r.stopped,
    )
}

/// [`fingerprint`] plus the recorded telemetry stream (hash and length of
/// its `Debug` form). The stream must join the deposet first: every event
/// names a state of its lane and carries that state's clock.
fn recorded_fingerprint(r: &SimResult) -> String {
    let events = r.events();
    for ev in &events {
        let lane = ProcessId(ev.lane);
        let k = ev.state.expect("simulator events name their state");
        assert!((k as usize) < r.deposet.len_of(lane), "{ev:?}");
        let clock = r.deposet.clock(StateId::new(lane, k));
        assert_eq!(ev.clock.as_deref(), Some(clock.entries()), "{ev:?}");
    }
    let events = format!("{events:?}");
    format!(
        "{}events fnv1a={:016x} len={}\n",
        fingerprint(r),
        fnv1a(events.as_bytes()),
        events.len()
    )
}

/// Run `procs` with a recorder attached.
fn run_recorded<M: Payload>(procs: Vec<Box<dyn Process<M>>>, config: SimConfig) -> SimResult {
    Simulation::with_recorder(config, procs, Box::new(RingRecorder::new(1 << 20))).run()
}

/// Six staggered true/false phases per process.
fn phase_scripts(n: usize) -> Vec<Vec<Phase>> {
    (0..n)
        .map(|i| {
            (0..6)
                .map(|k| Phase {
                    true_len: 15 + 4 * i as u64 + 3 * (k as u64 % 3),
                    false_len: Some(6 + (k as u64 + i as u64) % 4),
                })
                .collect()
        })
        .collect()
}

fn workload(seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        processes: 4,
        entries_per_process: 5,
        think: (20, 60),
        cs: (5, 15),
        seed,
        delay: 10,
    }
}

fn check(name: &str, got: &str) {
    let path = format!("{}/tests/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, got).expect("update golden file");
    }
    let golden = std::fs::read_to_string(&path).expect("read golden file");
    assert_eq!(
        got, golden,
        "sim-core fingerprint drifted from tests/golden/{name}.txt — the \
         engine no longer reproduces the pre-refactor dispatcher bit for bit \
         (UPDATE_GOLDEN=1 regenerates, but treat any diff as a determinism \
         regression until proven otherwise)"
    );
}

#[test]
fn kmutex_empty_plan_matches_prerefactor_golden() {
    let r = run_antitoken(&workload(0xD51A_BE11), PeerSelect::NextInRing);
    check("kmutex_empty_plan", &fingerprint(&r));
}

#[test]
fn ft_mutex_empty_plan_matches_prerefactor_golden() {
    let r = run_ft_antitoken(
        &workload(0xD51A_BE12),
        PeerSelect::NextInRing,
        FtParams::default(),
        FaultPlan::none(),
    );
    check("ft_mutex_empty_plan", &fingerprint(&r));
}

#[test]
fn ft_mutex_faulty_plan_matches_prerefactor_golden() {
    let plan = FaultPlan::uniform_loss(0.05).with_crash(ProcessId(1), SimTime(300), Some(400));
    let r = run_ft_antitoken(
        &workload(0xD51A_BE13),
        PeerSelect::NextInRing,
        FtParams::default(),
        plan,
    );
    check("ft_mutex_faulty_plan", &fingerprint(&r));
}

#[test]
fn phased_system_matches_golden() {
    let mut got = String::new();
    for (select, seed) in [
        (PeerSelect::NextInRing, 0xD51A_BE14),
        (PeerSelect::Random, 0xD51A_BE15),
        (PeerSelect::Broadcast, 0xD51A_BE16),
    ] {
        let config = SimConfig {
            seed,
            delay: DelayModel::Uniform { min: 1, max: 20 },
            ..SimConfig::default()
        };
        let r = run_recorded(phased_system(4, phase_scripts(4), select), config);
        assert!(!r.deadlocked(), "{select:?}");
        got += &format!("{select:?}\n{}", recorded_fingerprint(&r));
    }
    check("phased_system", &got);
}

#[test]
fn ft_phased_system_under_loss_duplication_and_a_crash_matches_golden() {
    let faults = FaultPlan {
        default_link: LinkFaults {
            drop_p: 0.08,
            dup_p: 0.08,
            extra_delay_max: 0,
        },
        ..FaultPlan::default()
    }
    .with_crash(ProcessId(1), SimTime(60), Some(200));
    let config = SimConfig {
        seed: 0xD51A_BE17,
        delay: DelayModel::Fixed(5),
        faults,
        ..SimConfig::default()
    };
    let procs = ft_phased_system(
        4,
        phase_scripts(4),
        PeerSelect::NextInRing,
        FtParams::default(),
    );
    let r = run_recorded(procs, config);
    assert!(!r.deadlocked());
    assert_eq!(r.metrics.counter("rejoins"), 1);
    assert!(r.metrics.counter("retransmissions") > 0);
    assert!(r.metrics.counter("msgs_duplicated") > 0);
    check("ft_phased_system_faulty", &recorded_fingerprint(&r));
}

#[test]
fn multi_antitoken_matches_golden() {
    let cfg = WorkloadConfig {
        processes: 5,
        ..workload(0xD51A_BE18)
    };
    let r = run_multi_antitoken(&cfg, 2);
    assert!(!r.deadlocked());
    assert!(r.metrics.counter("handover_retries") > 0);
    check("multi_antitoken", &fingerprint(&r));
}
