//! Quickstart: trace → detect → control → verified controlled replay.
//!
//! Run with: `cargo run --example quickstart`

use predicate_control::prelude::*;

fn main() {
    // 1. A traced computation: three worker processes, each of which takes
    //    a "maintenance window" (avail = 0) at overlapping times, plus some
    //    coordination messages.
    let mut b = DeposetBuilder::new(3);
    for p in 0..3 {
        b.init_vars(p, &[("avail", 1)]);
    }
    let t0 = b.send(0, "work-handoff");
    b.recv(1, t0, &[]);
    for p in 0..3 {
        b.internal(p, &[("avail", 0)]);
        b.internal(p, &[]);
        b.internal(p, &[("avail", 1)]);
    }
    let t1 = b.send(2, "done");
    b.recv(0, t1, &[]);
    let computation = b.finish().expect("valid trace");
    println!(
        "traced computation: {} processes, {} states, {} messages",
        computation.process_count(),
        computation.total_states(),
        computation.messages().len()
    );

    // 2. The safety property: at least one worker is always available.
    let safety = DisjunctivePredicate::at_least_one(3, "avail");

    // 3. Detection (Garg–Waldecker weak conjunctive detection of ¬B).
    match detect_disjunctive_violation(&computation, &safety) {
        Some(bad) => println!("violation possible at consistent global state {bad}"),
        None => {
            println!("no violation possible; nothing to control");
            return;
        }
    }

    // 4. Off-line predicate control (the paper's Figure 2 algorithm).
    let control = match control_disjunctive(&computation, &safety, OfflineOptions::default()) {
        Ok(c) => c,
        Err(infeasible) => {
            println!("property infeasible: {infeasible}");
            return;
        }
    };
    println!("synthesized control relation: {control}");

    // 5. Machine-checked soundness: every consistent global state of the
    //    controlled computation satisfies the property (violation
    //    detection over the controlled computation; the last argument is
    //    ignored).
    verify_disjunctive(&computation, &safety, &control, 0).expect("control verifies");
    println!("verification: OK");

    // 6. Active debugging: replay the computation under control. The
    //    control relation becomes real (simulated) control messages with
    //    blocking receives; the violation cannot recur.
    let outcome = replay(&computation, &control, &ReplayConfig::default());
    assert!(outcome.completed(), "replay ran to completion");
    assert!(
        outcome.fidelity(&computation),
        "replay reproduced each process's behaviour"
    );
    assert!(
        detect_disjunctive_violation(outcome.deposet(), &safety).is_none(),
        "bug eliminated in the controlled re-execution"
    );
    println!(
        "controlled replay: {} control messages, violation eliminated",
        outcome.sim.metrics.counter("msgs_ctrl")
    );
}
