//! Criterion: one in-DB training epoch through the SQL plan —
//! the wall-clock analogue of Figure 13 (No-Shuffle plan vs CorgiPile plan
//! vs single-buffer CorgiPile).

use corgipile_data::{DatasetSpec, Order};
use corgipile_db::{ExecContext, PhysicalPlan, SgdOperator, StrategyKind};
use corgipile_ml::{build_model, ModelKind, OptimizerKind, TrainOptions};
use corgipile_shuffle::StrategyParams;
use corgipile_storage::{ComputeCostModel, DeviceHandle, SimDevice, Table};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::sync::Arc;

fn table() -> Arc<Table> {
    Arc::new(
        DatasetSpec::higgs_like(8_000)
            .with_order(Order::ClusteredByLabel)
            .with_block_bytes(8 << 10)
            .build_table(1)
            .unwrap(),
    )
}

fn run_epoch(table: &Arc<Table>, plan: &str, double: bool) -> f64 {
    let kind = match plan {
        "no" => StrategyKind::NoShuffle,
        _ => StrategyKind::CorgiPile,
    };
    let op = SgdOperator::new(
        PhysicalPlan::new(table.clone(), kind, StrategyParams::default()),
        build_model(&ModelKind::Svm, 28, 1),
        OptimizerKind::default_sgd(0.02).build(),
        TrainOptions::default(),
        ComputeCostModel::in_db_core(),
        1,
        double,
    );
    let mut dev = DeviceHandle::private(SimDevice::in_memory());
    let mut ctx = ExecContext::new(&mut dev);
    op.execute(&mut ctx).expect("fault-free epoch").epochs[0].epoch_seconds
}

fn bench_per_epoch(c: &mut Criterion) {
    let table = table();
    let mut group = c.benchmark_group("db_epoch");
    group.throughput(Throughput::Elements(table.num_tuples()));
    group.sample_size(20);
    for (name, plan, double) in [
        ("no_shuffle_plan", "no", true),
        ("corgipile_double_buffer", "corgi", true),
        ("corgipile_single_buffer", "corgi", false),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(run_epoch(&table, plan, double)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_per_epoch);
criterion_main!(benches);
