//! E3: detection substrate — weak conjunctive detection (possibly ¬B) and
//! strong overlap detection (definitely ¬B, the infeasibility oracle of
//! Lemma 2) scale polynomially where the lattice reference is exponential.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pctl_deposet::generator::{cs_workload, pipelined_workload, CsConfig};
use pctl_deposet::store::{detect_disjunctive_violation, find_overlap};
use pctl_deposet::{DisjunctivePredicate, FalseIntervals};
use std::time::Duration;

fn bench_weak(c: &mut Criterion) {
    let mut group = c.benchmark_group("detect/weak_conjunctive");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(900));
    group.sample_size(20);
    for n in [4usize, 16, 64] {
        let cfg = CsConfig {
            processes: n,
            sections_per_process: 32,
            max_cs_len: 2,
            max_gap_len: 2,
        };
        let dep = cs_workload(&cfg, 3);
        let pred = DisjunctivePredicate::at_least_one_not(n, "cs");
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| detect_disjunctive_violation(&dep, &pred));
        });
    }
    group.finish();
}

fn bench_strong(c: &mut Criterion) {
    let mut group = c.benchmark_group("detect/strong_overlap");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(900));
    group.sample_size(20);
    for n in [4usize, 16, 64] {
        let cfg = CsConfig {
            processes: n,
            sections_per_process: 32,
            max_cs_len: 2,
            max_gap_len: 2,
        };
        let dep = pipelined_workload(&cfg, 3);
        let pred = DisjunctivePredicate::at_least_one_not(n, "cs");
        let iv = FalseIntervals::extract(&dep, &pred);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| find_overlap(&dep, &iv));
        });
    }
    group.finish();
}

fn bench_interval_extraction(c: &mut Criterion) {
    let mut group = c.benchmark_group("detect/extract_intervals");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(900));
    group.sample_size(20);
    for p in [32usize, 128, 512] {
        let cfg = CsConfig {
            processes: 16,
            sections_per_process: p,
            max_cs_len: 2,
            max_gap_len: 2,
        };
        let dep = cs_workload(&cfg, 3);
        let pred = DisjunctivePredicate::at_least_one_not(16, "cs");
        group.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, _| {
            b.iter(|| FalseIntervals::extract(&dep, &pred));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_weak, bench_strong, bench_interval_extraction);
criterion_main!(benches);
