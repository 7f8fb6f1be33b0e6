//! Primary/backup failover under a CNF safety property — exercising the
//! extension beyond plain disjunctive predicates (paper Conclusions:
//! conjunctions of disjunctive clauses / locally independent predicates).
//!
//! System: a primary (P0) and two backups (P1, P2). Safety:
//!
//! 1. at least one replica is up            (up₀ ∨ up₁ ∨ up₂)
//! 2. never two nodes believe they lead     (¬leader₀ ∨ ¬leader₁), pairwise
//!
//! Run with: `cargo run --example primary_backup`

use predicate_control::deposet::lattice;
use predicate_control::prelude::*;

fn main() {
    // Trace: the primary leads, crashes, and each backup briefly claims
    // leadership during the same window; replicas also take restarts.
    let mut b = DeposetBuilder::new(3);
    b.init_vars(0, &[("up", 1), ("leader", 1)]);
    b.init_vars(1, &[("up", 1), ("leader", 0)]);
    b.init_vars(2, &[("up", 1), ("leader", 0)]);

    // P0 crashes (drops leadership), later restarts as follower.
    b.internal(0, &[("up", 0), ("leader", 0)]);
    b.internal(0, &[]);
    b.internal(0, &[("up", 1)]);
    // P1 claims leadership, then steps down for a restart, comes back up.
    b.internal(1, &[("leader", 1)]);
    b.internal(1, &[("leader", 0), ("up", 0)]);
    b.internal(1, &[("up", 1)]);
    // P2 also claims leadership in an overlapping window, then yields.
    b.internal(2, &[("leader", 1)]);
    b.internal(2, &[("leader", 0)]);
    let trace = b.finish().unwrap();
    println!(
        "trace: {} states across {} replicas",
        trace.total_states(),
        trace.process_count()
    );

    // --- Clause A: availability (plain disjunctive) ---------------------------
    let availability = DisjunctivePredicate::at_least_one(3, "up");
    let avail_bug = detect_disjunctive_violation(&trace, &availability);
    println!("\navailability violation possible: {avail_bug:?}");

    // --- Clause B: single-leader, as pairwise mutual exclusions --------------
    let single_leader = CnfPredicate::new(vec![
        CnfPredicate::pairwise_mutex(3, 0, 1, "leader"),
        CnfPredicate::pairwise_mutex(3, 0, 2, "leader"),
        CnfPredicate::pairwise_mutex(3, 1, 2, "leader"),
    ]);

    // Is the leader predicate "locally independent" here? (It is not — the
    // leadership windows overlap, which is exactly why control is needed.)
    let locals: Vec<LocalPredicate> = (0..3).map(|_| LocalPredicate::not_var("leader")).collect();
    println!(
        "leadership windows mutually separated: {}",
        mutually_separated(&trace, &locals)
    );

    // --- Compose: control each clause and merge ------------------------------
    let mut merged = match control_cnf(&trace, &single_leader, OfflineOptions::default()) {
        Ok(rel) => {
            println!("single-leader control (merged per-clause chains): {rel}");
            rel
        }
        Err(e) => {
            println!("CNF composition failed: {e}");
            return;
        }
    };
    if avail_bug.is_some() {
        let rel_avail = control_disjunctive(&trace, &availability, OfflineOptions::default())
            .expect("availability feasible");
        println!("availability control: {rel_avail}");
        merged = merged.merged(&rel_avail);
    }

    // --- Verify the conjunction exhaustively ----------------------------------
    let controlled =
        ControlledDeposet::new(&trace, merged.clone()).expect("merged relation does not interfere");
    let mut checked = 0usize;
    for g in lattice::consistent_global_states(&controlled, 1_000_000).unwrap() {
        assert!(
            availability.eval(&trace, &g),
            "availability violated at {g}"
        );
        assert!(single_leader.eval(&trace, &g), "dual leadership at {g}");
        checked += 1;
    }
    println!(
        "\nverified both clauses on all {checked} consistent global states of the \
         controlled computation ✓"
    );

    // --- And actively replay ---------------------------------------------------
    let out = replay(&trace, &merged, &ReplayConfig::default());
    assert!(out.completed() && out.fidelity(&trace));
    assert!(detect_disjunctive_violation(out.deposet(), &availability).is_none());
    println!(
        "controlled replay with {} control messages: split-brain and blackout \
         both impossible ✓",
        out.sim.metrics.counter("msgs_ctrl")
    );
}
