//! Criterion: fused batch-at-a-time pipeline vs the interpreted Volcano
//! tree, measured as real host wall time over the same `TRAIN BY` query.
//!
//! The simulated clock moves with the batched cost model; this bench pins
//! down the *host* side of the story — one virtual `next()` call per tuple
//! vs one `next_batch` call per `RowBatch` with the
//! predicate/projection/kernel closure chosen once at build time.

use corgipile_data::{DatasetSpec, Order};
use corgipile_db::{Database, QueryResult};
use corgipile_storage::{SimDevice, Table};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

fn table() -> Table {
    DatasetSpec::higgs_like(8_000)
        .with_order(Order::ClusteredByLabel)
        .with_block_bytes(8 << 10)
        .build_table(1)
        .unwrap()
}

fn train_sql(fuse: usize, filtered: bool) -> String {
    let wher = if filtered { "WHERE id < 4000 " } else { "" };
    format!(
        "SELECT * FROM higgs {wher}TRAIN BY svm WITH max_epoch_num = 2, \
         seed = 41, fuse = {fuse}, model_name = m"
    )
}

fn bench_train_inner_loop(c: &mut Criterion) {
    let table = table();
    let mut group = c.benchmark_group("train_2_epochs");
    group.throughput(Throughput::Elements(2 * table.num_tuples()));
    group.sample_size(20);
    for (name, fuse, filtered) in [
        ("interpreted", 0, false),
        ("fused", 1, false),
        ("interpreted_filtered", 0, true),
        ("fused_filtered", 1, true),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let db = Database::new(SimDevice::in_memory());
                db.register_table("higgs", table.clone());
                let mut s = db.connect();
                let r = s.execute(&train_sql(fuse, filtered)).unwrap();
                let summary = match r {
                    QueryResult::Train(t) => t,
                    _ => unreachable!(),
                };
                std::hint::black_box(summary.final_train_metric)
            })
        });
    }
    group.finish();
}

fn bench_predict_inner_loop(c: &mut Criterion) {
    let table = table();
    let db = Database::new(SimDevice::in_memory());
    db.register_table("higgs", table.clone());
    db.connect().execute(&train_sql(1, false)).unwrap();
    let mut group = c.benchmark_group("predict_scan");
    group.throughput(Throughput::Elements(table.num_tuples()));
    group.sample_size(30);
    for (name, fuse) in [("interpreted", false), ("fused", true)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let p = db
                    .connect()
                    .predict_batch(
                        "higgs",
                        "m",
                        corgipile_db::ServeOptions {
                            fuse,
                            ..Default::default()
                        },
                    )
                    .unwrap();
                std::hint::black_box(p.rows)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_train_inner_loop, bench_predict_inner_loop);
criterion_main!(benches);
