//! Tuple-Only Shuffle: the ablation dual of Block-Only.
//!
//! CorgiPile = block-level shuffle + tuple-level (buffered) shuffle. The
//! paper ablates the *tuple* level (Block-Only, §7.3); this strategy
//! ablates the *block* level instead: blocks are read **sequentially** (so
//! I/O is exactly No Shuffle's) and only the in-buffer tuple shuffle
//! remains. On clustered data each buffer then holds one *contiguous*
//! range of the table — a giant sliding window — so labels mix only
//! within 10 % stretches and the stream stays globally ordered. Together
//! with Block-Only this isolates the contribution of each of CorgiPile's
//! two levels (see the `ablation` experiment).

use crate::plan::Segment;
use crate::strategy::{read_block, ShuffleStrategy, StrategyParams};
use corgipile_data::rng::shuffle_in_place;
use corgipile_storage::{Access, SimDevice, StorageError, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// CorgiPile without the block-level shuffle.
#[derive(Debug)]
pub struct TupleOnlyShuffle {
    params: StrategyParams,
    rng: StdRng,
}

impl TupleOnlyShuffle {
    /// Create a Tuple-Only strategy.
    pub fn new(params: StrategyParams) -> Self {
        let rng = StdRng::seed_from_u64(params.seed ^ 0x7u64);
        TupleOnlyShuffle { params, rng }
    }
}

impl ShuffleStrategy for TupleOnlyShuffle {
    fn name(&self) -> &'static str {
        "tuple_only"
    }

    fn stream_epoch(
        &mut self,
        table: &Table,
        dev: &mut SimDevice,
        emit: &mut dyn FnMut(Segment) -> bool,
    ) -> Result<f64, StorageError> {
        let n = self.params.buffer_blocks(table);
        let blocks: Vec<usize> = (0..table.num_blocks()).collect();
        for chunk in blocks.chunks(n.max(1)) {
            let before = dev.stats().io_seconds;
            let mut bytes = 0usize;
            let mut expected = 0usize;
            for &b in chunk {
                let meta = table.block(b)?;
                bytes += meta.bytes;
                expected += meta.tuple_count();
            }
            let mut buffer = Vec::with_capacity(expected);
            for &b in chunk {
                buffer.extend(read_block(table, b, Access::in_scan(b == 0), dev)?);
            }
            dev.charge_seconds(self.params.buffering_cost(buffer.len(), bytes));
            shuffle_in_place(&mut self.rng, &mut buffer);
            if !emit(Segment::new(buffer, dev.stats().io_seconds - before)) {
                break;
            }
        }
        Ok(0.0)
    }

    fn buffer_tuples(&self, table: &Table) -> usize {
        (self.params.buffer_blocks(table) as f64 * table.tuples_per_block()).ceil() as usize
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.params.seed ^ 0x7u64);
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
    fn emits_every_tuple_once() {
        let t = clustered(600);
        let mut s = TupleOnlyShuffle::new(StrategyParams::default());
        let mut dev = SimDevice::hdd(0);
        let mut ids = s.next_epoch(&t, &mut dev).id_sequence();
        ids.sort_unstable();
        assert_eq!(ids, (0..600).collect::<Vec<_>>());
    }

    #[test]
    fn buffers_are_contiguous_ranges_shuffled_within() {
        let t = clustered(2000);
        let mut s = TupleOnlyShuffle::new(StrategyParams::default().with_buffer_fraction(0.1));
        let mut dev = SimDevice::hdd(0);
        let plan = s.next_epoch(&t, &mut dev);
        assert!(plan.segments.len() >= 5);
        let mut prev_max = 0u64;
        for seg in &plan.segments {
            let mut ids: Vec<u64> = seg.tuples.iter().map(|t| t.id).collect();
            // Shuffled within…
            assert!(ids.windows(2).any(|w| w[1] < w[0]));
            ids.sort_unstable();
            // …but a contiguous range globally after the previous segment.
            assert_eq!(ids[0], prev_max);
            assert!(ids.windows(2).all(|w| w[1] == w[0] + 1));
            prev_max = ids[ids.len() - 1] + 1;
        }
    }

    #[test]
    fn io_is_sequential_like_no_shuffle() {
        let t = clustered(2000);
        let mut s = TupleOnlyShuffle::new(StrategyParams::default());
        let mut dev = SimDevice::hdd(0);
        s.next_epoch(&t, &mut dev);
        assert_eq!(
            dev.stats().random_reads,
            1,
            "only the initial seek is random"
        );
    }

    #[test]
    fn on_clustered_data_labels_stay_globally_ordered() {
        let t = clustered(2000);
        let mut s = TupleOnlyShuffle::new(StrategyParams::default().with_buffer_fraction(0.1));
        let mut dev = SimDevice::hdd(0);
        let labels = s.next_epoch(&t, &mut dev).label_sequence();
        let head_neg = labels[..600].iter().filter(|&&l| l < 0.0).count();
        assert!(
            head_neg > 550,
            "head must remain ~all negative: {head_neg}/600"
        );
    }
}
