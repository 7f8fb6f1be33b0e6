//! End-to-end integration: the full active-debugging cycle across crates
//! (deposet → detect → control → replay → detect again), on the paper's
//! Figure 4 scenario and beyond.

use predicate_control::deposet::scenarios::replicated_servers;
use predicate_control::deposet::{lattice, trace};
use predicate_control::prelude::*;

#[test]
fn figure4_full_cycle() {
    let fig = replicated_servers();
    let c1 = &fig.deposet;
    let opts = OfflineOptions::default();

    // bug1 detectable at exactly G and H.
    let first = detect_disjunctive_violation(c1, &fig.availability).unwrap();
    assert_eq!(first, fig.g);
    let all =
        lattice::find_all_consistent(c1, 100_000, |d, g| !fig.availability.eval(d, g)).unwrap();
    assert_eq!(all, vec![fig.g.clone(), fig.h.clone()]);

    // C2: availability control removes G and H, keeps e ∥ f.
    let rel_avail = control_disjunctive(c1, &fig.availability, opts).unwrap();
    verify_disjunctive(c1, &fig.availability, &rel_avail, 100_000).unwrap();
    let c2 = ControlledDeposet::new(c1, rel_avail.clone()).unwrap();
    assert!(!fig.g.is_consistent(&c2));
    assert!(!fig.h.is_consistent(&c2));
    assert!(c2.concurrent(fig.e, fig.f));

    // Controlled replay of C1: runs, faithful, bug-free.
    let rp = replay(c1, &rel_avail, &ReplayConfig::default());
    assert!(rp.completed());
    assert!(rp.fidelity(c1));
    assert_eq!(
        detect_disjunctive_violation(rp.deposet(), &fig.availability),
        None
    );

    // C3/C4: ordering control; the single control message travels in the
    // event *producing* e (i.e. "from e to f" in the paper's event
    // reading), and it also removes bug1 from the original computation.
    let rel_order = control_disjunctive(c1, &fig.order_e_before_f, opts).unwrap();
    assert_eq!(rel_order.pairs(), &[(fig.e.predecessor().unwrap(), fig.f)]);
    let c4 = ControlledDeposet::new(c1, rel_order).unwrap();
    assert!(!fig.g.is_consistent(&c4));
    assert!(!fig.h.is_consistent(&c4));
}

#[test]
fn figure4_survives_trace_serialization() {
    // The cycle still works after writing the computation to its JSON
    // trace format and reading it back (debug sessions span processes).
    let fig = replicated_servers();
    let json = trace::to_json(&fig.deposet);
    let reloaded = trace::from_json(&json).unwrap();
    let rel = control_disjunctive(&reloaded, &fig.availability, OfflineOptions::default()).unwrap();
    verify_disjunctive(&reloaded, &fig.availability, &rel, 100_000).unwrap();
    let rp = replay(&reloaded, &rel, &ReplayConfig::default());
    assert!(rp.completed() && rp.fidelity(&reloaded));
}

#[test]
fn infeasible_property_reports_certificate_and_replay_still_reproduces() {
    // Servers that are never available: control must refuse with an
    // overlap witness; the *uncontrolled* replay still reproduces the bug.
    let mut b = DeposetBuilder::new(2);
    b.internal(0, &[]);
    b.internal(1, &[]);
    let dep = b.finish().unwrap();
    let pred = DisjunctivePredicate::at_least_one(2, "avail");
    let err = control_disjunctive(&dep, &pred, OfflineOptions::default()).unwrap_err();
    assert_eq!(err.witness.len(), 2);
    // Cross-crate agreement: detect's strong detector finds the same fact.
    assert!(definitely_all_false(&dep, &pred).is_some());
    let rp = replay(&dep, &ControlRelation::empty(), &ReplayConfig::default());
    assert!(rp.completed());
    assert!(detect_disjunctive_violation(rp.deposet(), &pred).is_some());
}

#[test]
fn double_control_compose_order_then_availability() {
    // Applying both Figure-4 relations together still verifies both
    // properties (merged relations stay non-interfering here).
    let fig = replicated_servers();
    let opts = OfflineOptions::default();
    let a = control_disjunctive(&fig.deposet, &fig.availability, opts).unwrap();
    let o = control_disjunctive(&fig.deposet, &fig.order_e_before_f, opts).unwrap();
    let merged = a.merged(&o);
    verify_disjunctive(&fig.deposet, &fig.availability, &merged, 100_000).unwrap();
    verify_disjunctive(&fig.deposet, &fig.order_e_before_f, &merged, 100_000).unwrap();
    let rp = replay(&fig.deposet, &merged, &ReplayConfig::default());
    assert!(rp.completed() && rp.fidelity(&fig.deposet));
}

#[test]
fn replayed_trace_can_be_debugged_again() {
    // A second-generation debugging session: replay a controlled trace,
    // then run detection and control on the *replayed* computation.
    let fig = replicated_servers();
    let rel =
        control_disjunctive(&fig.deposet, &fig.availability, OfflineOptions::default()).unwrap();
    let rp = replay(&fig.deposet, &rel, &ReplayConfig::default());
    let second = rp.deposet();
    // The availability predicate arity matches (same process count).
    assert_eq!(second.process_count(), 3);
    assert_eq!(
        detect_disjunctive_violation(second, &fig.availability),
        None
    );
    // Controlling an already-safe computation yields a verifiable (possibly
    // empty) relation.
    let rel2 = control_disjunctive(second, &fig.availability, OfflineOptions::default())
        .expect("still feasible");
    verify_disjunctive(second, &fig.availability, &rel2, 500_000).unwrap();
}
