//! Integration: multi-worker CorgiPile — and its one-worker case, whose
//! fills the double-buffered run loads on the one loader thread — against
//! the single-process reference.

use corgipile::core::{
    parallel_epoch_plan, CorgiPileConfig, CorgiPileDataset, ParallelConfig, Trainer, TrainerConfig,
};
use corgipile::data::{DatasetSpec, Order};
use corgipile::ml::{ModelKind, OptimizerKind};
use corgipile::shuffle::{label_uniformity_score, order_displacement, StrategyKind};
use corgipile::storage::{SimDevice, Table};

fn clustered_cifar() -> (Table, Vec<corgipile::storage::Tuple>) {
    let ds = DatasetSpec::cifar_like(4_000)
        .with_order(Order::ClusteredByLabel)
        .with_block_bytes(8 << 10)
        .build(7);
    (ds.to_table(1).unwrap(), ds.test)
}

#[test]
fn multi_worker_matches_single_process_accuracy() {
    let (table, test) = clustered_cifar();
    let kind = ModelKind::Mlp {
        hidden: vec![32],
        classes: 10,
    };

    // Single-process CorgiPile, batch 128.
    let cfg = TrainerConfig::new(kind.clone(), 6)
        .with_strategy(StrategyKind::CorgiPile)
        .with_batch_size(128)
        .with_optimizer(OptimizerKind::default_sgd(0.1));
    let mut dev = SimDevice::in_memory();
    let single = Trainer::new(cfg.clone())
        .train_with_test(&table, &test, &mut dev, 3)
        .unwrap()
        .final_test_metric()
        .unwrap();

    // 4-worker DDP-style CorgiPile, same global batch, same loop.
    let multi = Trainer::new(cfg)
        .with_workers(ParallelConfig {
            workers: 4,
            total_buffer_fraction: 0.10,
            ..Default::default()
        })
        .train_with_test(&table, &test, &mut dev, 3)
        .unwrap()
        .final_test_metric()
        .unwrap();
    assert!(
        (single - multi).abs() < 0.08,
        "multi-worker {multi:.3} should track single-process {single:.3} (paper Fig. 5/7)"
    );
    assert!(multi > 0.5, "multi-worker must actually learn: {multi:.3}");
}

#[test]
fn multi_worker_order_is_statistically_equivalent_to_single() {
    let (table, _) = clustered_cifar();
    let pcfg = ParallelConfig {
        workers: 4,
        total_buffer_fraction: 0.2,
        ..Default::default()
    };
    let plan = parallel_epoch_plan(&table, &pcfg, 100, 5, 0).unwrap();
    let merged: Vec<_> = plan.merged_batches.concat();
    let ids: Vec<u64> = merged.iter().map(|t| t.id).collect();
    let labels: Vec<f32> = merged.iter().map(|t| t.label).collect();

    let mut dataset = CorgiPileDataset::new(
        table.clone(),
        CorgiPileConfig::default()
            .with_buffer_fraction(0.2)
            .with_seed(5),
    );
    let mut dev = SimDevice::in_memory();
    let sp: Vec<_> = dataset.epoch_iter(&mut dev).collect();
    let sp_ids: Vec<u64> = sp.iter().map(|t| t.id).collect();
    let sp_labels: Vec<f32> = sp.iter().map(|t| t.label).collect();

    let d_multi = order_displacement(&ids);
    let d_single = order_displacement(&sp_ids);
    assert!(
        (d_multi - d_single).abs() < 0.08,
        "{d_multi:.3} vs {d_single:.3}"
    );
    // Label windows within 2x of each other's (small) nonuniformity.
    let u_multi = label_uniformity_score(&labels, 100);
    let u_single = label_uniformity_score(&sp_labels, 100);
    assert!(
        u_multi < 0.15 && u_single < 0.15,
        "{u_multi:.4} / {u_single:.4}"
    );
}

/// One loader process: with `double_buffer` it is §6.3's two-thread loader.
fn one_loader() -> ParallelConfig {
    ParallelConfig {
        workers: 1,
        total_buffer_fraction: 0.15,
        ..Default::default()
    }
}

#[test]
fn threaded_loader_stream_equals_strategy_coverage() {
    let (table, _) = clustered_cifar();
    let plan = parallel_epoch_plan(&table, &one_loader(), 128, 9, 0).unwrap();
    let mut ids: Vec<u64> = plan.merged_batches.iter().flatten().map(|t| t.id).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..table.num_tuples()).collect::<Vec<_>>());
}

#[test]
fn training_from_threaded_loader_learns() {
    let (table, test) = clustered_cifar();
    let kind = ModelKind::Mlp {
        hidden: vec![32],
        classes: 10,
    };
    let cfg = TrainerConfig::new(kind, 6)
        .with_batch_size(128)
        .with_optimizer(OptimizerKind::default_sgd(0.1))
        .with_corgipile(CorgiPileConfig::default().with_double_buffer(true));
    let acc = Trainer::new(cfg)
        .with_workers(one_loader())
        .train_with_test(&table, &test, &mut SimDevice::in_memory(), 1000)
        .unwrap()
        .final_test_metric()
        .unwrap();
    assert!(acc > 0.5, "loader-fed training should learn: {acc:.3}");
}
