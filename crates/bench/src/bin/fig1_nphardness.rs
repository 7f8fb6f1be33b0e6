//! Experiment E1 (paper Figure 1 / Lemma 1 / Theorem 1):
//! SAT reduces to Satisfying Global Sequence Detection.
//!
//! For random 3-SAT instances near the phase transition (clause/variable
//! ratio ≈ 4.3):
//!
//! 1. build the Figure-1 gadget deposet;
//! 2. decide SGSD by exhaustive lattice search and SAT by DPLL;
//! 3. verify they always agree (correctness of the reduction);
//! 4. report the runtimes — exhaustive SGSD grows exponentially in the
//!    variable count while DPLL stays negligible on these sizes, which is
//!    the operational face of Theorem 1 ("off-line predicate control is
//!    NP-hard": the general problem *is* this search).

use pctl_bench::{cell, loglog_slope, timed, Table};
use pctl_core::reduction::reduce_sat_to_sgsd;
use pctl_core::sat::{satisfiable, Cnf};
use pctl_core::sgsd::sgsd;

fn main() {
    println!("E1: SAT -> SGSD reduction (paper Fig. 1, Lemma 1, Thm 1)\n");
    let mut table = Table::new(&[
        "vars",
        "clauses",
        "instances",
        "sat",
        "agree",
        "sgsd median",
        "dpll median",
        "lattice states",
    ]);
    let mut scaling: Vec<(f64, f64)> = Vec::new();
    for m in [3usize, 4, 5, 6, 7, 8, 9, 10] {
        let clauses = (m as f64 * 4.3).round() as usize;
        let instances = 5;
        let mut sat_count = 0;
        let mut agree = 0;
        let mut sgsd_times = Vec::new();
        let mut dpll_times = Vec::new();
        for seed in (0..instances as u64).map(|s| s + 1000 * m as u64) {
            // CNF sampling and gadget construction stay outside the timings.
            let cnf = Cnf::random_ksat(m, clauses, 3, seed);
            let inst = reduce_sat_to_sgsd(&cnf);
            let (sgsd_out, t_sgsd) =
                timed(|| sgsd(&inst.deposet, &inst.predicate, usize::MAX).unwrap());
            let (dpll_out, t_dpll) = timed(|| satisfiable(&cnf));
            sgsd_times.push(t_sgsd);
            dpll_times.push(t_dpll);
            if dpll_out {
                sat_count += 1;
            }
            if sgsd_out.is_satisfiable() == dpll_out {
                agree += 1;
            }
        }
        sgsd_times.sort();
        dpll_times.sort();
        let sgsd_med = sgsd_times[instances / 2];
        let dpll_med = dpll_times[instances / 2];
        // The gadget's lattice: x_m has 3 states, each variable 2, all
        // consistent (no messages) ⇒ 3·2^m global states.
        let lattice = 3u64 * (1u64 << m);
        scaling.push((m as f64, sgsd_med.as_secs_f64().max(1e-9)));
        table.row(vec![
            cell(m),
            cell(clauses),
            cell(instances),
            cell(sat_count),
            cell(format!("{agree}/{instances}")),
            cell(format!("{:.3?}", sgsd_med)),
            cell(format!("{:.3?}", dpll_med)),
            cell(lattice),
        ]);
    }
    table.print();
    // Exponential check: log(time) vs m should be roughly linear; report
    // the doubling factor per added variable over the top half of the
    // sweep (small sizes are noise-dominated).
    let top = &scaling[scaling.len() / 2..];
    let per_var: Vec<f64> = top.windows(2).map(|w| w[1].1 / w[0].1.max(1e-12)).collect();
    let geo_mean = per_var
        .iter()
        .product::<f64>()
        .powf(1.0 / per_var.len() as f64);
    println!("\nexhaustive-SGSD growth factor per extra variable (top half): {geo_mean:.2}x");
    println!("(the gadget lattice doubles per variable; factor ≈ 2 ⇒ exponential)");
    let slope = loglog_slope(&scaling);
    println!("log-log slope vs m (for reference, not a power law): {slope:.2}");
}
