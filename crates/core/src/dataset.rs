//! The PyTorch-style `CorgiPileDataset` API (§5).
//!
//! The paper's PyTorch integration exposes CorgiPile as a drop-in
//! `Dataset` whose iterator performs the two-level shuffle internally:
//!
//! ```python
//! train_dataset = CorgiPileDataset(dataset_path, block_index_path, ...)
//! train_loader = DataLoader(train_dataset, ...)
//! train(train_loader, model, ...)
//! ```
//!
//! [`CorgiPileDataset`] mirrors that shape: it wraps a heap [`Table`] plus a
//! [`CorgiPileConfig`] and hands out one shuffled epoch iterator at a time.

use crate::config::CorgiPileConfig;
use corgipile_shuffle::{BlockStrategy, ShuffleStrategy, StrategyKind};
use corgipile_storage::{SimDevice, Table, Tuple};

/// A dataset wrapper providing per-epoch two-level-shuffled iterators.
pub struct CorgiPileDataset {
    table: Table,
    config: CorgiPileConfig,
    strategy: BlockStrategy,
    epoch: usize,
}

impl CorgiPileDataset {
    /// Wrap a table.
    pub fn new(table: Table, config: CorgiPileConfig) -> Self {
        let strategy = BlockStrategy::new(StrategyKind::CorgiPile, config.strategy_params())
            .with_sample_mode(config.sample_mode);
        CorgiPileDataset {
            table,
            config,
            strategy,
            epoch: 0,
        }
    }

    /// The wrapped table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The configuration.
    pub fn config(&self) -> &CorgiPileConfig {
        &self.config
    }

    /// Number of tuples per epoch (full-coverage mode visits all).
    pub fn len(&self) -> usize {
        self.table.num_tuples() as usize
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Epochs served so far.
    pub fn epochs_served(&self) -> usize {
        self.epoch
    }

    /// Produce the next epoch's shuffled tuple stream, charging `dev`.
    /// Collects [`ShuffleStrategy::next_epoch`], so like it this is for
    /// devices that cannot fault.
    pub fn epoch_iter(&mut self, dev: &mut SimDevice) -> impl Iterator<Item = Tuple> {
        self.epoch += 1;
        let plan = self.strategy.next_epoch(&self.table, dev);
        plan.segments.into_iter().flat_map(|s| s.tuples)
    }

    /// Reset to epoch 0 (replays the same sequence of epochs).
    pub fn reset(&mut self) {
        self.epoch = 0;
        self.strategy.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corgipile_data::{DatasetSpec, Order};

    fn dataset() -> CorgiPileDataset {
        let table = DatasetSpec::higgs_like(500)
            .with_order(Order::ClusteredByLabel)
            .with_block_bytes(2 * 8192)
            .build_table(1)
            .unwrap();
        CorgiPileDataset::new(table, CorgiPileConfig::default().with_buffer_fraction(0.2))
    }

    #[test]
    fn epoch_iter_covers_all_tuples_shuffled() {
        let mut ds = dataset();
        let mut dev = SimDevice::hdd(0);
        let ids: Vec<u64> = ds.epoch_iter(&mut dev).map(|t| t.id).collect();
        assert_eq!(ids.len(), ds.len());
        assert_ne!(ids, (0..500).collect::<Vec<_>>());
        let mut sorted = ids;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..500).collect::<Vec<_>>());
        assert_eq!(ds.epochs_served(), 1);
    }

    #[test]
    fn epochs_differ_reset_replays() {
        let mut ds = dataset();
        let mut dev = SimDevice::hdd(0);
        let a: Vec<u64> = ds.epoch_iter(&mut dev).map(|t| t.id).collect();
        let b: Vec<u64> = ds.epoch_iter(&mut dev).map(|t| t.id).collect();
        assert_ne!(a, b);
        ds.reset();
        assert_eq!(ds.epochs_served(), 0);
        let a2: Vec<u64> = ds.epoch_iter(&mut dev).map(|t| t.id).collect();
        assert_eq!(a, a2);
    }

    #[test]
    fn is_empty_on_empty_table() {
        let table = Table::from_tuples(
            corgipile_storage::TableConfig::new("e", 9),
            std::iter::empty::<Tuple>(),
        )
        .unwrap();
        let ds = CorgiPileDataset::new(table, CorgiPileConfig::default());
        assert!(ds.is_empty());
    }
}
