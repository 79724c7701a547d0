//! Multi-worker ("distributed") deep learning with CorgiPile (§5).
//!
//! ```sh
//! cargo run --release --example distributed_dl
//! ```
//!
//! Trains an MLP on a clustered multi-class dataset with 4 workers: the
//! fills of one shared-seed block permutation dealt round-robin to the
//! workers, each fill's tuples shuffled, and `batch/PN` tuples per worker
//! merged into every global batch — the paper's PyTorch-DDP integration in
//! miniature. Synchronous gradient averaging makes that exactly mini-batch
//! SGD over the merged stream, so it is a data order: the same `Trainer`
//! loop and the one fill run it, with no thread per worker. With one worker
//! and `double_buffer`, the loop's one producer thread loads the next fill
//! while the kernel trains on this one (§6.3).

use corgipile::core::{CorgiPileConfig, ParallelConfig, Trainer, TrainerConfig};
use corgipile::data::{DatasetSpec, Order};
use corgipile::ml::{ModelKind, OptimizerKind};
use corgipile::storage::SimDevice;

fn main() {
    let spec = DatasetSpec::cifar_like(6_000)
        .with_order(Order::ClusteredByLabel)
        .with_block_bytes(8 << 10);
    let ds = spec.build(21);
    let table = ds.to_table(1).expect("table builds");
    let workers = 4;
    println!(
        "clustered {}-class dataset: {} tuples, {} blocks; {workers} workers\n",
        spec.num_classes(),
        table.num_tuples(),
        table.num_blocks()
    );

    // --- DDP-style multi-worker CorgiPile --------------------------------
    let kind = ModelKind::Mlp {
        hidden: vec![48],
        classes: spec.num_classes(),
    };
    let cfg = TrainerConfig::new(kind, 8)
        .with_batch_size(128)
        .with_optimizer(OptimizerKind::default_sgd(0.1));
    let report = Trainer::new(cfg.clone())
        .with_workers(ParallelConfig {
            workers,
            total_buffer_fraction: 0.10,
            ..Default::default()
        })
        .train_with_test(&table, &ds.test, &mut SimDevice::hdd(0), 9)
        .expect("multi-worker training");
    println!("epoch  mean_loss  test_acc  sim_seconds");
    for e in &report.epochs {
        println!(
            "{:>5}  {:>9.4}  {:>7.1}%  {:>11.3}",
            e.epoch,
            e.train_loss,
            e.test_metric.unwrap_or(0.0) * 100.0,
            e.sim_seconds_end
        );
    }

    // --- One worker, double-buffered --------------------------------------
    let cfg = cfg.with_corgipile(CorgiPileConfig::default().with_double_buffer(true));
    let report = Trainer::new(cfg)
        .with_workers(ParallelConfig {
            workers: 1,
            total_buffer_fraction: 0.10,
            ..Default::default()
        })
        .train_with_test(&table, &ds.test, &mut SimDevice::hdd(0), 77)
        .expect("loader-fed training");
    println!(
        "\none worker + double buffering: {:.1}% test accuracy in {:.3} simulated s \
         (loads overlap the SGD kernel)",
        report.final_test_metric().unwrap_or(0.0) * 100.0,
        report.total_sim_seconds()
    );
}
