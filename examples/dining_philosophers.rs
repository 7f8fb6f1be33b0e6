//! "At least one philosopher is thinking" (the paper's example predicate
//! (4)) enforced two ways:
//!
//! * **off-line** — take a traced dinner where everyone ate simultaneously
//!   and synthesize control so no replay starves the table;
//! * **on-line** — run fresh dinners under the scapegoat strategy.
//!
//! Run with: `cargo run --example dining_philosophers [-- <philosophers>]`

use predicate_control::control::online::{phased_system, PeerSelect, Phase};
use predicate_control::deposet::lattice;
use predicate_control::prelude::*;
use predicate_control::sim::Simulation;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(5);
    println!("{n} dining philosophers; safety: someone is always thinking\n");

    // --- Off-line: a traced dinner where all ate at once ---------------------
    // Philosopher i thinks, eats (eating = 1), thinks again — windows overlap.
    let mut b = DeposetBuilder::new(n);
    for p in 0..n {
        b.init_vars(p, &[("eating", 0)]);
        b.internal(p, &[("eating", 1)]);
        b.internal(p, &[]);
        b.internal(p, &[("eating", 0)]);
    }
    let dinner = b.finish().unwrap();
    let thinking = DisjunctivePredicate::at_least_one_not(n, "eating");

    let bad = detect_disjunctive_violation(&dinner, &thinking)
        .expect("everyone-eating is possible in the trace");
    println!("violation possible: all philosophers eating at {bad}");

    let control = control_disjunctive(&dinner, &thinking, OfflineOptions::default())
        .expect("feasible: eating windows are interior");
    println!("off-line control ({} tuples): {control}", control.len());
    verify_disjunctive(&dinner, &thinking, &control, 5_000_000).expect("verifies");

    // Count how much concurrency the control preserves.
    let before = lattice::count_consistent_global_states(&dinner, 10_000_000).unwrap();
    let c = ControlledDeposet::new(&dinner, control.clone()).unwrap();
    let after = lattice::count_consistent_global_states(&c, 10_000_000).unwrap();
    println!(
        "consistent global states: {before} → {after} \
         ({:.1}% of schedules preserved, violations removed)",
        100.0 * after as f64 / before as f64
    );

    let outcome = replay(&dinner, &control, &ReplayConfig::default());
    assert!(outcome.completed() && outcome.fidelity(&dinner));
    assert!(detect_disjunctive_violation(outcome.deposet(), &thinking).is_none());
    println!("controlled replay: table never fully occupied ✓");

    // --- On-line: fresh dinners under the scapegoat strategy ------------------
    println!("\nfresh dinners under on-line control:");
    let scripts: Vec<Vec<Phase>> = (0..n)
        .map(|i| {
            (0..3)
                .map(|round| Phase {
                    true_len: 15 + 3 * i as u64 + round as u64, // thinking
                    false_len: Some(10),                        // eating
                })
                .collect()
        })
        .collect();
    let procs = phased_system(n, scripts, PeerSelect::Random);
    let cfg = SimConfig {
        seed: 4,
        delay: DelayModel::Fixed(4),
        ..SimConfig::default()
    };
    let run = Simulation::new(cfg, procs).run();
    assert!(
        !run.deadlocked(),
        "scapegoat protocol is deadlock-free under A1/A2"
    );
    let fresh_pred = DisjunctivePredicate::at_least_one(n, "ok");
    assert!(detect_disjunctive_violation(&run.deposet, &fresh_pred).is_none());
    println!(
        "  {} meals eaten, {} control messages, nobody ever saw a full table ✓",
        run.metrics.counter("entries"),
        run.metrics.counter("msgs_ctrl")
    );
}
