//! Block-Only Shuffle (§7.3): CorgiPile minus the tuple-level shuffle.
//!
//! Blocks are read in a fresh random order each epoch, but tuples inside a
//! block keep their stored order. On label-clustered data every block is
//! label-pure, so the SGD stream is a sequence of single-label runs —
//! better than No Shuffle, worse than CorgiPile (Figure 11's Block-Only
//! baseline). This ablation isolates the contribution of the second
//! shuffle level.

use crate::plan::Segment;
use crate::strategy::{emit_block, ShuffleStrategy, StrategyParams};
use corgipile_data::rng::shuffle_in_place;
use corgipile_storage::{Access, SimDevice, StorageError, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The Block-Only ablation of CorgiPile.
#[derive(Debug)]
pub struct BlockOnlyShuffle {
    params: StrategyParams,
    rng: StdRng,
}

impl BlockOnlyShuffle {
    /// Create a Block-Only strategy.
    pub fn new(params: StrategyParams) -> Self {
        let rng = StdRng::seed_from_u64(params.seed ^ 0xB10C);
        BlockOnlyShuffle { params, rng }
    }
}

impl ShuffleStrategy for BlockOnlyShuffle {
    fn name(&self) -> &'static str {
        "block_only"
    }

    fn stream_epoch(
        &mut self,
        table: &Table,
        dev: &mut SimDevice,
        emit: &mut dyn FnMut(Segment) -> bool,
    ) -> Result<f64, StorageError> {
        let mut order: Vec<usize> = (0..table.num_blocks()).collect();
        shuffle_in_place(&mut self.rng, &mut order);
        for b in order {
            if !emit_block(table, b, Access::Random, dev, emit)? {
                break;
            }
        }
        Ok(0.0)
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.params.seed ^ 0xB10C);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corgipile_data::{DatasetSpec, Order};

    fn clustered(n: usize) -> Table {
        DatasetSpec::higgs_like(n)
            .with_order(Order::ClusteredByLabel)
            .with_block_bytes(2 * 8192)
            .build_table(1)
            .unwrap()
    }

    #[test]
    fn emits_each_tuple_once_with_blocks_permuted() {
        let t = clustered(600);
        let mut s = BlockOnlyShuffle::new(StrategyParams::default());
        let mut dev = SimDevice::hdd(0);
        let ids = s.next_epoch(&t, &mut dev).id_sequence();
        assert_ne!(ids, (0..600).collect::<Vec<_>>(), "block order must change");
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..600).collect::<Vec<_>>());
    }

    #[test]
    fn within_block_order_is_preserved() {
        let t = clustered(600);
        let mut s = BlockOnlyShuffle::new(StrategyParams::default());
        let mut dev = SimDevice::hdd(0);
        let plan = s.next_epoch(&t, &mut dev);
        for seg in &plan.segments {
            let ids: Vec<u64> = seg.tuples.iter().map(|t| t.id).collect();
            assert!(
                ids.windows(2).all(|w| w[1] == w[0] + 1),
                "run not contiguous: {ids:?}"
            );
        }
    }

    #[test]
    fn epochs_use_fresh_block_orders() {
        let t = clustered(600);
        let mut s = BlockOnlyShuffle::new(StrategyParams::default());
        let mut dev = SimDevice::hdd(0);
        let a = s.next_epoch(&t, &mut dev).id_sequence();
        let b = s.next_epoch(&t, &mut dev).id_sequence();
        assert_ne!(a, b);
    }

    #[test]
    fn pays_one_seek_per_block() {
        let t = clustered(600);
        let mut s = BlockOnlyShuffle::new(StrategyParams::default());
        let mut dev = SimDevice::hdd(0);
        s.next_epoch(&t, &mut dev);
        assert_eq!(dev.stats().random_reads as usize, t.num_blocks());
    }
}
