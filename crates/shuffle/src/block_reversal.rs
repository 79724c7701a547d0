//! Block-Reversal Shuffle: epoch-indexed block-order rotation/reversal at
//! near-sequential I/O cost ("Learning to Shuffle"-style epoch schemes).
//!
//! Each epoch scans the blocks as a seeded rotation of table order,
//! traversed forward on even epochs and in reverse on odd epochs. Adjacent
//! blocks (in either direction) stream at sequential bandwidth; only the
//! epoch's first block and the rotation wrap point pay a seek, so an epoch
//! costs at most two seeks more than No Shuffle — while the changing
//! traversal order breaks the fixed-order bias that makes No Shuffle
//! diverge on clustered data. No tuple buffer is used.

use crate::plan::Segment;
use crate::strategy::{emit_block, ShuffleStrategy, StrategyParams};
use corgipile_storage::{Access, SimDevice, StorageError, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEED_SALT: u64 = 0xB7E7;

/// The Block-Reversal epoch scheme.
#[derive(Debug)]
pub struct BlockReversalShuffle {
    params: StrategyParams,
    rng: StdRng,
    epoch: u64,
}

impl BlockReversalShuffle {
    /// Create a Block-Reversal strategy.
    pub fn new(params: StrategyParams) -> Self {
        let rng = StdRng::seed_from_u64(params.seed ^ SEED_SALT);
        BlockReversalShuffle {
            params,
            rng,
            epoch: 0,
        }
    }

    /// The block visit order for a rotation `offset`, optionally reversed.
    /// Shared with the DB executor so both paths traverse identically.
    pub fn epoch_order(offset: usize, reversed: bool, num_blocks: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (offset..num_blocks).chain(0..offset).collect();
        if reversed {
            order.reverse();
        }
        order
    }
}

impl ShuffleStrategy for BlockReversalShuffle {
    fn name(&self) -> &'static str {
        "block_reversal"
    }

    fn stream_epoch(
        &mut self,
        table: &Table,
        dev: &mut SimDevice,
        emit: &mut dyn FnMut(Segment) -> bool,
    ) -> Result<f64, StorageError> {
        let n = table.num_blocks();
        let offset = if n > 0 { self.rng.gen_range(0..n) } else { 0 };
        let order = Self::epoch_order(offset, self.epoch % 2 == 1, n);
        self.epoch += 1;
        let mut prev: Option<usize> = None;
        for b in order {
            // Adjacent in either direction: sequential continuation; a
            // discontinuity (epoch start or the rotation wrap) seeks.
            let adjacent = prev.is_some_and(|p| b.abs_diff(p) == 1);
            if !emit_block(table, b, Access::in_scan(!adjacent), dev, emit)? {
                break;
            }
            prev = Some(b);
        }
        Ok(0.0)
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.params.seed ^ SEED_SALT);
        self.epoch = 0;
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
    fn emits_each_tuple_once_per_epoch() {
        let t = clustered(900);
        let mut s = BlockReversalShuffle::new(StrategyParams::default());
        let mut dev = SimDevice::hdd(0);
        for _ in 0..3 {
            let mut ids = s.next_epoch(&t, &mut dev).id_sequence();
            ids.sort_unstable();
            assert_eq!(ids, (0..900).collect::<Vec<_>>());
        }
    }

    #[test]
    fn odd_epochs_reverse_the_block_order() {
        let t = clustered(900);
        let mut s = BlockReversalShuffle::new(StrategyParams::default().with_seed(4));
        let mut dev = SimDevice::hdd(0);
        let e0 = s.next_epoch(&t, &mut dev);
        let e1 = s.next_epoch(&t, &mut dev);
        let first_of = |p: &crate::EpochPlan| -> Vec<u64> {
            p.segments.iter().map(|s| s.tuples[0].id).collect()
        };
        let f0 = first_of(&e0);
        let f1 = first_of(&e1);
        assert_ne!(f0, f1, "epochs must traverse differently");
        // Odd epoch: consecutive segment heads step downward (mod wrap).
        let descending = f1.windows(2).filter(|w| w[1] < w[0]).count();
        assert!(
            descending >= f1.len().saturating_sub(2),
            "epoch 1 should walk blocks in reverse: {f1:?}"
        );
    }

    #[test]
    fn io_is_near_sequential() {
        let t = clustered(2000);
        let mut s = BlockReversalShuffle::new(StrategyParams::default());
        let mut dev = SimDevice::hdd(0);
        for _ in 0..4 {
            s.next_epoch(&t, &mut dev);
        }
        // At most two seeks per epoch: epoch start + rotation wrap.
        assert!(
            dev.stats().random_reads <= 8,
            "too many seeks: {}",
            dev.stats().random_reads
        );
        assert!(dev.stats().sequential_reads > 0);
    }

    #[test]
    fn cheaper_than_block_only_on_hdd() {
        let t = clustered(3000);
        let mut rev = BlockReversalShuffle::new(StrategyParams::default());
        let mut d1 = SimDevice::hdd(0);
        let rev_io = rev.next_epoch(&t, &mut d1).io_seconds();
        let mut blk = crate::block_only::BlockOnlyShuffle::new(StrategyParams::default());
        let mut d2 = SimDevice::hdd(0);
        let blk_io = blk.next_epoch(&t, &mut d2).io_seconds();
        assert!(
            rev_io < blk_io,
            "reversal {rev_io} should undercut block-only {blk_io}"
        );
    }

    #[test]
    fn reset_replays_the_same_epoch_sequence() {
        let t = clustered(900);
        let mut s = BlockReversalShuffle::new(StrategyParams::default().with_seed(9));
        let mut dev = SimDevice::hdd(0);
        let a: Vec<Vec<u64>> = (0..3)
            .map(|_| s.next_epoch(&t, &mut dev).id_sequence())
            .collect();
        s.reset();
        let b: Vec<Vec<u64>> = (0..3)
            .map(|_| s.next_epoch(&t, &mut dev).id_sequence())
            .collect();
        assert_eq!(a, b);
    }
}
