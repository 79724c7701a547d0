//! Epoch Shuffle (§3.1): a full shuffle before *every* epoch.
//!
//! The statistical gold standard (fresh i.i.d.-without-replacement order
//! each epoch) and the hardware worst case: the shuffle cost grows linearly
//! with the number of epochs. We model each per-epoch shuffle like Shuffle
//! Once's offline pass, charged as that epoch's `setup_seconds`, and the
//! epoch itself emits the freshly permuted order with random-tuple read
//! cost folded into the shuffle pass (the shuffled copy is scanned
//! sequentially).

use crate::plan::Segment;
use crate::strategy::{ShuffleStrategy, StrategyParams};
use corgipile_data::rng::shuffle_in_place;
use corgipile_storage::{Access, RetryPolicy, SimDevice, StorageError, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The Epoch-Shuffle strategy.
#[derive(Debug)]
pub struct EpochShuffle {
    params: StrategyParams,
    rng: StdRng,
}

impl EpochShuffle {
    /// Create an Epoch-Shuffle strategy.
    pub fn new(params: StrategyParams) -> Self {
        let rng = StdRng::seed_from_u64(params.seed);
        EpochShuffle { params, rng }
    }
}

impl ShuffleStrategy for EpochShuffle {
    fn name(&self) -> &'static str {
        "epoch_shuffle"
    }

    fn stream_epoch(
        &mut self,
        table: &Table,
        dev: &mut SimDevice,
        emit: &mut dyn FnMut(Segment) -> bool,
    ) -> Result<f64, StorageError> {
        // Charge the per-epoch offline shuffle: two read+write passes over
        // every block of the table.
        let before = dev.stats().io_seconds;
        table.check_readable(dev, &RetryPolicy::default())?;
        for _ in 0..2 {
            dev.read(None, table.total_bytes(), Access::Random, None);
            dev.write(table.total_bytes(), Access::Sequential);
        }
        let setup = dev.stats().io_seconds - before;

        // Fresh permutation for this epoch.
        let mut order: Vec<u64> = (0..table.num_tuples()).collect();
        shuffle_in_place(&mut self.rng, &mut order);

        // Scan the (conceptually re-materialized) shuffled copy sequentially,
        // segmenting by the original table's block size.
        let tuples_per_block = table.tuples_per_block().max(1.0) as usize;
        for (k, chunk) in order.chunks(tuples_per_block).enumerate() {
            let io_before = dev.stats().io_seconds;
            let bytes: usize = (table.total_bytes() as f64 * chunk.len() as f64
                / table.num_tuples() as f64) as usize;
            dev.read(None, bytes, Access::in_scan(k == 0), None);
            let tuples = chunk
                .iter()
                .map(|&tid| table.get_tuple(tid))
                .collect::<Result<_, _>>()?;
            if !emit(Segment::new(tuples, dev.stats().io_seconds - io_before)) {
                break;
            }
        }
        Ok(setup)
    }

    fn disk_space_factor(&self) -> f64 {
        2.0
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.params.seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corgipile_data::{DatasetSpec, Order};

    fn table() -> Table {
        DatasetSpec::higgs_like(400)
            .with_order(Order::ClusteredByLabel)
            .with_block_bytes(4 * 8192)
            .build_table(1)
            .unwrap()
    }

    #[test]
    fn every_epoch_is_a_fresh_permutation() {
        let t = table();
        let mut s = EpochShuffle::new(StrategyParams::default());
        let mut dev = SimDevice::hdd(0);
        let a = s.next_epoch(&t, &mut dev).id_sequence();
        let b = s.next_epoch(&t, &mut dev).id_sequence();
        assert_ne!(a, b, "epochs must differ");
        let mut sa = a.clone();
        sa.sort_unstable();
        assert_eq!(sa, (0..400).collect::<Vec<_>>());
        let mut sb = b.clone();
        sb.sort_unstable();
        assert_eq!(sb, (0..400).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_cost_charged_every_epoch() {
        let t = table();
        let mut s = EpochShuffle::new(StrategyParams::default());
        let mut dev = SimDevice::hdd(0);
        let e0 = s.next_epoch(&t, &mut dev);
        let e1 = s.next_epoch(&t, &mut dev);
        assert!(e0.setup_seconds > 0.0);
        assert!(
            e1.setup_seconds > 0.0,
            "Epoch Shuffle pays the shuffle every epoch"
        );
    }

    #[test]
    fn stream_covers_all_tuples() {
        let t = table();
        let mut s = EpochShuffle::new(StrategyParams::default());
        let mut dev = SimDevice::hdd(0);
        assert_eq!(s.next_epoch(&t, &mut dev).num_tuples(), 400);
    }
}
