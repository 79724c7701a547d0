//! Criterion: the simulated-device fast paths (block reads through the
//! cache hierarchy) and the Figure-20 throughput curve computation.

use corgipile_data::{DatasetSpec, Order};
use corgipile_storage::{Access, DeviceProfile, RetryPolicy, SimDevice};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_random_block_reads(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig20_random_read_model");
    for shift in [16u32, 20, 23, 26] {
        let block = 1usize << shift;
        group.throughput(Throughput::Bytes(block as u64));
        group.bench_with_input(BenchmarkId::from_parameter(block), &block, |b, &block| {
            let mut dev = SimDevice::hdd(0);
            let mut key = 0u64;
            b.iter(|| {
                key = key.wrapping_add(1);
                std::hint::black_box(dev.read(Some(key), block, Access::Random, None))
            });
        });
    }
    group.finish();
}

fn bench_table_block_access(c: &mut Criterion) {
    let table = DatasetSpec::higgs_like(8_000)
        .with_order(Order::ClusteredByLabel)
        .with_block_bytes(8 << 10)
        .build_table(1)
        .unwrap();
    let mut group = c.benchmark_group("table_access");
    group.throughput(Throughput::Elements(table.tuples_per_block() as u64));
    group.bench_function("read_block_decode", |b| {
        let (mut dev, mut id) = (SimDevice::in_memory(), 0usize);
        b.iter(|| {
            id = (id + 1) % table.num_blocks();
            let read = table.read(id, Access::Random, &mut dev, &RetryPolicy::none());
            std::hint::black_box(read.unwrap().len())
        });
    });
    group.bench_function("read_tuple_random", |b| {
        let mut dev = SimDevice::in_memory();
        let mut tid = 0u64;
        b.iter(|| {
            tid = (tid + 7919) % table.num_tuples();
            std::hint::black_box(table.read_tuple_random(tid, &mut dev).unwrap().id)
        });
    });
    group.finish();
}

fn bench_profile_closed_form(c: &mut Criterion) {
    c.bench_function("device_profile_read_time", |b| {
        let p = DeviceProfile::hdd();
        let mut bytes = 1usize;
        b.iter(|| {
            bytes = (bytes % (100 << 20)) + 4096;
            std::hint::black_box(p.read_time(bytes, Access::Random))
        });
    });
}

criterion_group!(
    benches,
    bench_random_block_reads,
    bench_table_block_access,
    bench_profile_closed_form
);
criterion_main!(benches);
