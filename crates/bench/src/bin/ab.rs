//! `ab <A> <B> [--inject-slowdown PCT] -- <args…>`: the regression gate.
//!
//! Runs the executables `A` and `B` (builds of `bench_suite` or perfbench)
//! in `pctl_bench::ab::PAIRS` pairs, alternating which side runs first,
//! each with `<args…>` unchanged, and judges every metric of their last
//! stdout lines with `pctl_bench::ab`. Prints the table, then the JSON
//! report as its last line. `--inject-slowdown PCT` worsens B's numbers by
//! `PCT` percent, so the gate can be shown to trip.
//!
//! Exits 2 on any regression: a bounded metric regressed, an exact count
//! changed, or B failed a larger share of its operations. Exits 3 when the
//! runs cannot be judged: a run's last line is not a run line, a run
//! exited non-zero without reporting a failed operation
//! (`pctl_bench::ab::read_run`), or a metric is missing from a run,
//! declared by neither its run line nor `BENCHMARK.json`, or declared
//! differently by the sides (`pctl_bench::ab::AbReport::of`). Exits 1 on a
//! usage error.

use pctl_bench::ab::{json_line, read_run, AbReport, RunLine, PAIRS};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: ab <A> <B> [--inject-slowdown PCT] -- <args…>";

fn parse_args() -> Result<([String; 2], f64, Vec<String>), String> {
    let (mut sides, mut inject, mut it) = (Vec::new(), 0.0, std::env::args().skip(1));
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--" => break,
            "--inject-slowdown" => {
                let pct = it.next().and_then(|v| v.parse().ok());
                inject = pct.ok_or("--inject-slowdown needs a percentage")?;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => sides.push(arg),
        }
    }
    let sides = sides
        .try_into()
        .map_err(|_| "need two executables, A and B")?;
    Ok((sides, inject, it.collect()))
}

/// One run; the error names the side and the pair.
fn run(exe: &str, args: &[String], at: &str) -> Result<RunLine, String> {
    let out = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("{at}: cannot run {exe}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    read_run(out.status.success(), &stdout).map_err(|e| {
        let stderr = String::from_utf8_lossy(&out.stderr);
        format!("{at}: {exe} {e} ({})\n{stderr}", out.status)
    })
}

fn main() -> ExitCode {
    let (sides, inject, args) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("ab: {e}\n{USAGE}");
            return ExitCode::from(1);
        }
    };
    let mut runs: [Vec<RunLine>; 2] = Default::default();
    for pair in 1..=PAIRS {
        for side in if pair % 2 == 1 { [0, 1] } else { [1, 0] } {
            let at = format!("side {}, pair {pair}", ["A", "B"][side]);
            eprintln!("ab: {at}");
            match run(&sides[side], &args, &at) {
                Ok(line) => runs[side].push(line),
                Err(e) => {
                    eprintln!("ab: {e}");
                    return ExitCode::from(3);
                }
            }
        }
    }
    let report = match AbReport::of(&runs[0], &runs[1], inject) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("ab: {e}");
            return ExitCode::from(3);
        }
    };
    println!("A: {}\nB: {}", sides[0], sides[1]);
    println!("args: {}\n", args.join(" "));
    print!("{}", report.render());
    println!("{}", json_line(&report));
    ExitCode::from(if report.regressions > 0 { 2 } else { 0 })
}
