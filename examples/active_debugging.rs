//! The paper's Section 7 / Figure 4 walkthrough: a full active-debugging
//! session on a replicated server system.
//!
//! Cycle: observe C1 → detect bug1 → controlled replay (C2) → detect bug2 →
//! control "e before f" (C3) → apply to C1 (C4): bug2 explains bug1 →
//! guard fresh runs with on-line control.
//!
//! Run with: `cargo run --example active_debugging`

use predicate_control::control::online::{phased_system, PeerSelect, Phase};
use predicate_control::deposet::scenarios::replicated_servers;
use predicate_control::deposet::{dot, lattice};
use predicate_control::prelude::*;
use predicate_control::sim::Simulation;

fn main() {
    let fig = replicated_servers();
    let c1 = &fig.deposet;
    let opts = OfflineOptions::default();

    println!("=== Computation C1 (three replicated servers) ===");
    for p in c1.processes() {
        let line: Vec<String> = c1
            .states_of(p)
            .iter()
            .map(|s| {
                let avail = s.vars.get_bool("avail");
                let mark = if avail { "—" } else { "✖" };
                match &s.label {
                    Some(l) => format!("{mark}({l})"),
                    None => mark.to_string(),
                }
            })
            .collect();
        println!("  {p}: {}", line.join(" "));
    }

    // --- Step 1: detect bug1 -------------------------------------------------
    println!("\n[1] Safety property: at least one server available at all times.");
    let bad = detect_disjunctive_violation(c1, &fig.availability).expect("bug1 is possible in C1");
    println!("    bug1 DETECTED: all servers unavailable is possible, e.g. at {bad}");
    let all_bad =
        lattice::find_all_consistent(c1, 100_000, |d, g| !fig.availability.eval(d, g)).unwrap();
    println!(
        "    every violating consistent global state: {}",
        all_bad
            .iter()
            .map(|g| g.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    assert_eq!(all_bad, vec![fig.g.clone(), fig.h.clone()]);

    // --- Step 2: control C1 → C2 ----------------------------------------------
    let rel_avail =
        control_disjunctive(c1, &fig.availability, opts).expect("availability is feasible");
    println!("\n[2] Off-line control for availability: C = {rel_avail}");
    let c2 = ControlledDeposet::new(c1, rel_avail.clone()).unwrap();
    assert!(!fig.g.is_consistent(&c2) && !fig.h.is_consistent(&c2));
    println!("    G and H are inconsistent in the controlled computation C2.");

    // Actively replay: run C1 again with the control enforced.
    let rp = replay(c1, &rel_avail, &ReplayConfig::default());
    assert!(rp.completed() && rp.fidelity(c1));
    assert!(detect_disjunctive_violation(rp.deposet(), &fig.availability).is_none());
    println!("    controlled replay of C1: bug1 does not recur ✓");

    // --- Step 3: suspect and confirm bug2 -------------------------------------
    println!("\n[3] Suspect bug2: states e and f occur at the same time.");
    println!(
        "    e = {} (server 2 recovers), f = {} (server 0 fails)",
        fig.e, fig.f
    );
    assert!(c2.concurrent(fig.e, fig.f));
    println!("    e ∥ f holds even in C2 — bug2 is still possible.");

    // --- Step 4: control for "e before f" → C3 --------------------------------
    let rel_order =
        control_disjunctive(c1, &fig.order_e_before_f, opts).expect("ordering is feasible");
    println!("\n[4] Off-line control for 'e must happen before f': C = {rel_order}");
    println!("    (the fine-grained event-ordering property, paper example (3))");

    // --- Step 5: apply to C1 → C4: root-cause analysis -------------------------
    let c4 = ControlledDeposet::new(c1, rel_order.clone()).unwrap();
    assert!(!fig.g.is_consistent(&c4) && !fig.h.is_consistent(&c4));
    println!("\n[5] Applying the e-before-f control to the ORIGINAL C1 (→ C4):");
    println!("    G and H become inconsistent — eliminating bug2 also eliminates");
    println!("    bug1, so bug2 is the most important bug.");

    // Render C4 for inspection (space-time diagram with the control edge).
    let dot = dot::to_dot(
        c1,
        &dot::DotOptions {
            extra_edges: rel_order.pairs().to_vec(),
            highlights: vec![fig.e, fig.f],
            show_vars: true,
        },
    );
    println!(
        "\n    (Graphviz of C4 available — {} bytes of DOT)",
        dot.len()
    );

    // --- Step 6: on-line control for fresh runs --------------------------------
    println!("\n[6] Guarding future computations with ON-LINE control:");
    let scripts: Vec<Vec<Phase>> = (0..3)
        .map(|i| {
            (0..4)
                .map(|k| Phase {
                    true_len: 18 + 4 * i as u64 + k as u64,
                    false_len: Some(7),
                })
                .collect()
        })
        .collect();
    let procs = phased_system(3, scripts, PeerSelect::Random);
    let cfg = SimConfig {
        seed: 2,
        delay: DelayModel::Fixed(5),
        ..SimConfig::default()
    };
    let run = Simulation::new(cfg, procs).run();
    assert!(!run.deadlocked());
    let fresh =
        detect_disjunctive_violation(&run.deposet, &DisjunctivePredicate::at_least_one(3, "ok"));
    assert_eq!(fresh, None);
    println!(
        "    fresh run under the scapegoat strategy: {} unavailability windows,",
        run.metrics.counter("entries")
    );
    println!(
        "    {} control messages, no violation on any consistent global state ✓",
        run.metrics.counter("msgs_ctrl")
    );
    println!("\nConfidence increased: bug2 was the problem. Session complete.");
}
