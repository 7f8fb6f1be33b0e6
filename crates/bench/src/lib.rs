//! Shared harness for the experiment binaries and `bench_suite`.
//!
//! Each table binary regenerates one of the paper's figures/claims (see
//! DESIGN.md's experiment index and EXPERIMENTS.md for recorded results):
//!
//! * `fig1_nphardness` — E1: SAT ↔ SGSD reduction, exponential vs DPLL;
//! * `fig2_complexity` — E2: off-line algorithm scaling and `|C|` bounds;
//! * `fig3_online` — E4/E5: on-line strategy overhead and the k-mutex
//!   comparison;
//! * `fig3_faults` — E7: the hardened on-line strategy under injected
//!   message loss and scapegoat crashes;
//! * `fig4_debugging` — E6: the Section 7 active-debugging walkthrough.
//!
//! `bench_suite` records the perf baseline and runs the regression gate
//! for what the repository benchmark (`perfbench/`) does not measure; its
//! report schema is [`report`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod report;

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Fixed-width console table writer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        assert!(!headers.is_empty());
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringifies each cell).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Render to a string with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = &cells[i];
                line.push_str(cell);
                for _ in cell.chars().count()..widths[i] {
                    line.push(' ');
                }
            }
            line.trim_end().to_string()
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Stringify helper for table cells.
pub fn cell(v: impl Display) -> String {
    v.to_string()
}

/// Time a closure, returning (result, elapsed).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// Median wall time of `reps` runs of `f` (result of the last run kept).
pub fn median_time<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, Duration) {
    assert!(reps >= 1);
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let (r, d) = timed(&mut f);
        times.push(d);
        last = Some(r);
    }
    times.sort();
    (last.unwrap(), times[reps / 2])
}

/// Least-squares slope of `log(y)` against `log(x)` — the empirical scaling
/// exponent (`y ≈ c·xᵏ ⇒ slope ≈ k`).
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    assert!(points.len() >= 2);
    let logged: Vec<(f64, f64)> = points
        .iter()
        .map(|&(x, y)| (x.ln(), y.max(1e-12).ln()))
        .collect();
    let n = logged.len() as f64;
    let sx: f64 = logged.iter().map(|p| p.0).sum();
    let sy: f64 = logged.iter().map(|p| p.1).sum();
    let sxx: f64 = logged.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = logged.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["n", "time"]);
        t.row(vec![cell(4), cell("1.5ms")]);
        t.row(vec![cell(128), cell("2s")]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("n"));
        assert!(lines[2].starts_with("4"));
        assert!(lines[3].starts_with("128"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn table_rejects_bad_rows() {
        Table::new(&["a"]).row(vec![cell(1), cell(2)]);
    }

    #[test]
    fn loglog_slope_recovers_exponents() {
        // y = 3 x²
        let pts: Vec<(f64, f64)> = (1..10).map(|x| (x as f64, 3.0 * (x * x) as f64)).collect();
        assert!((loglog_slope(&pts) - 2.0).abs() < 1e-9);
        // y = 5 x
        let lin: Vec<(f64, f64)> = (1..10).map(|x| (x as f64, 5.0 * x as f64)).collect();
        assert!((loglog_slope(&lin) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn median_time_runs_all_reps() {
        let mut count = 0;
        let (r, _) = median_time(5, || {
            count += 1;
            count
        });
        assert_eq!(r, 5);
    }
}
