//! Criterion: the full CorgiPile stack — library trainer epochs and
//! multi-worker epochs.

use corgipile_core::{ParallelConfig, Trainer, TrainerConfig};
use corgipile_data::{DatasetSpec, Order};
use corgipile_ml::{ModelKind, OptimizerKind};
use corgipile_shuffle::StrategyKind;
use corgipile_storage::{SimDevice, Table};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

fn table() -> Table {
    DatasetSpec::higgs_like(8_000)
        .with_order(Order::ClusteredByLabel)
        .with_block_bytes(8 << 10)
        .build_table(1)
        .unwrap()
}

fn bench_trainer(c: &mut Criterion) {
    let table = table();
    let mut group = c.benchmark_group("trainer_2_epochs");
    group.throughput(Throughput::Elements(2 * table.num_tuples()));
    group.sample_size(20);
    for strategy in [StrategyKind::NoShuffle, StrategyKind::CorgiPile] {
        group.bench_function(strategy.display(), |b| {
            b.iter(|| {
                let cfg = TrainerConfig::new(ModelKind::Svm, 2)
                    .with_strategy(strategy)
                    .with_optimizer(OptimizerKind::default_sgd(0.02));
                let mut dev = SimDevice::in_memory();
                std::hint::black_box(
                    Trainer::new(cfg)
                        .train(&table, &mut dev, 1)
                        .unwrap()
                        .final_train_metric,
                )
            })
        });
    }
    group.finish();
}

fn workers(workers: usize) -> ParallelConfig {
    ParallelConfig {
        workers,
        total_buffer_fraction: 0.1,
        ..Default::default()
    }
}

fn bench_parallel_epoch(c: &mut Criterion) {
    let table = table();
    let mut group = c.benchmark_group("parallel_epoch");
    group.throughput(Throughput::Elements(table.num_tuples()));
    group.sample_size(10);
    for pn in [1usize, 2, 4] {
        group.bench_function(format!("{pn}_workers"), |b| {
            b.iter(|| {
                let cfg = TrainerConfig::new(ModelKind::LogisticRegression, 1)
                    .with_batch_size(128)
                    .with_optimizer(OptimizerKind::Sgd {
                        lr0: 0.02,
                        decay: 1.0,
                    });
                std::hint::black_box(
                    Trainer::new(cfg)
                        .with_workers(workers(pn))
                        .train(&table, &mut SimDevice::in_memory(), 1)
                        .unwrap()
                        .final_train_metric,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_trainer, bench_parallel_epoch);
criterion_main!(benches);
