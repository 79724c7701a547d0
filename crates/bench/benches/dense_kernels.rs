//! Criterion: the dense dot/axpy inner loops, scalar vs 8-wide unrolled —
//! the kernels behind every GLM/softmax/MLP gradient step (the
//! scalar-vs-unrolled GFLOP/s figure ROADMAP item 2 quotes).

use corgipile_storage::{dense_axpy, dense_axpy_scalar, dense_dot, dense_dot_scalar};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_dense_kernels(c: &mut Criterion) {
    for dim in [28usize, 256, 2048] {
        let x: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut w: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.11).cos()).collect();

        let mut group = c.benchmark_group("dense_dot");
        group.throughput(Throughput::Elements(dim as u64));
        group.bench_with_input(BenchmarkId::new("scalar", dim), &dim, |b, _| {
            b.iter(|| dense_dot_scalar(&x, &w))
        });
        group.bench_with_input(BenchmarkId::new("unrolled", dim), &dim, |b, _| {
            b.iter(|| dense_dot(&x, &w))
        });
        group.finish();

        let mut group = c.benchmark_group("dense_axpy");
        group.throughput(Throughput::Elements(dim as u64));
        group.bench_with_input(BenchmarkId::new("scalar", dim), &dim, |b, _| {
            b.iter(|| dense_axpy_scalar(1e-9, &x, &mut w))
        });
        group.bench_with_input(BenchmarkId::new("unrolled", dim), &dim, |b, _| {
            b.iter(|| dense_axpy(1e-9, &x, &mut w))
        });
        group.finish();
    }
}

criterion_group!(benches, bench_dense_kernels);
criterion_main!(benches);
