//! Criterion: per-tuple gradient kernels, each step's returned loss kept as
//! the trainer keeps it — the inner loops the simulated clock models.

use corgipile_data::{DatasetSpec, Order};
use corgipile_ml::{build_model, ModelKind};
use corgipile_storage::Tuple;
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

fn tuples_for(spec: corgipile_data::DatasetSpec) -> Vec<Tuple> {
    spec.with_order(Order::Shuffled).build(1).train
}

fn bench_kernels(c: &mut Criterion) {
    let dense = tuples_for(DatasetSpec::higgs_like(2_000));
    let wide = tuples_for(DatasetSpec::epsilon_like(200));
    let sparse = tuples_for(DatasetSpec::criteo_like(2_000));

    let mut group = c.benchmark_group("sgd_step");
    group.throughput(Throughput::Elements(1));

    group.bench_function("lr_dense28", |b| {
        let mut m = build_model(&ModelKind::LogisticRegression, 28, 1);
        let mut i = 0;
        b.iter(|| {
            let t = &dense[i % dense.len()];
            i += 1;
            black_box(m.sgd_step(t.features.view(), t.label, 0.01));
        });
    });

    group.bench_function("svm_dense2000", |b| {
        let mut m = build_model(&ModelKind::Svm, 2000, 1);
        let mut i = 0;
        b.iter(|| {
            let t = &wide[i % wide.len()];
            i += 1;
            black_box(m.sgd_step(t.features.view(), t.label, 0.01));
        });
    });

    group.bench_function("lr_sparse100k_nnz39", |b| {
        let mut m = build_model(&ModelKind::LogisticRegression, 100_000, 1);
        let mut i = 0;
        b.iter(|| {
            let t = &sparse[i % sparse.len()];
            i += 1;
            black_box(m.sgd_step(t.features.view(), t.label, 0.01));
        });
    });

    group.bench_function("mlp_128x32x10", |b| {
        let cifar = tuples_for(DatasetSpec::cifar_like(500));
        let mut m = build_model(
            &ModelKind::Mlp {
                hidden: vec![32],
                classes: 10,
            },
            128,
            1,
        );
        let mut i = 0;
        b.iter(|| {
            let t = &cifar[i % cifar.len()];
            i += 1;
            black_box(m.sgd_step(t.features.view(), t.label, 0.01));
        });
    });
    group.finish();
}

fn bench_minibatch_grad(c: &mut Criterion) {
    let dense = tuples_for(DatasetSpec::higgs_like(2_000));
    let mut group = c.benchmark_group("minibatch_128");
    group.throughput(Throughput::Elements(128));
    group.bench_function("lr_dense28_batch128", |b| {
        let mut m = build_model(&ModelKind::LogisticRegression, 28, 1);
        let mut opt = corgipile_ml::Sgd::new(0.01, 1.0);
        let mut i = 0;
        b.iter(|| {
            let start = (i * 128) % (dense.len() - 128);
            i += 1;
            corgipile_ml::train_minibatch(
                m.as_mut(),
                &mut opt,
                dense[start..start + 128].iter(),
                &corgipile_ml::TrainOptions::minibatch(128),
            )
        });
    });
    group.finish();
}

criterion_group!(benches, bench_kernels, bench_minibatch_grad);
criterion_main!(benches);
