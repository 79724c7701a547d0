//! No Shuffle (§3.2): SGD runs over the stored order.
//!
//! This is what MADlib does by default and what PyTorch's
//! `IterableDataset` gives you: a plain sequential scan. It is the fastest
//! strategy (pure sequential I/O, no buffer) but diverges or converges to
//! low accuracy on clustered data.

use crate::plan::Segment;
use crate::strategy::{emit_block, ShuffleStrategy};
use corgipile_storage::{Access, SimDevice, StorageError, Table};

/// The No-Shuffle strategy.
#[derive(Debug, Default, Clone)]
pub struct NoShuffle;

impl NoShuffle {
    /// Create a No-Shuffle strategy.
    pub fn new() -> Self {
        NoShuffle
    }
}

impl ShuffleStrategy for NoShuffle {
    fn name(&self) -> &'static str {
        "no_shuffle"
    }

    fn stream_epoch(
        &mut self,
        table: &Table,
        dev: &mut SimDevice,
        emit: &mut dyn FnMut(Segment) -> bool,
    ) -> Result<f64, StorageError> {
        for b in 0..table.num_blocks() {
            if !emit_block(table, b, Access::in_scan(b == 0), dev, emit)? {
                break;
            }
        }
        Ok(0.0)
    }

    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use corgipile_data::{DatasetSpec, Order};

    #[test]
    fn emits_table_order() {
        let t = DatasetSpec::higgs_like(300)
            .with_order(Order::ClusteredByLabel)
            .with_block_bytes(2 * 8192)
            .build_table(1)
            .unwrap();
        let mut s = NoShuffle::new();
        let mut dev = SimDevice::hdd(0);
        let plan = s.next_epoch(&t, &mut dev);
        let ids = plan.id_sequence();
        let expect: Vec<u64> = (0..300).collect();
        assert_eq!(ids, expect);
    }

    #[test]
    fn io_is_sequential_rate() {
        let t = DatasetSpec::higgs_like(2000)
            .with_block_bytes(64 * 8192)
            .build_table(2)
            .unwrap();
        let mut s = NoShuffle::new();
        let mut dev = SimDevice::hdd(0);
        let plan = s.next_epoch(&t, &mut dev);
        // One initial seek, then pure transfer.
        let expect = 8e-3 + t.total_bytes() as f64 / 140e6;
        assert!((plan.io_seconds() - expect).abs() / expect < 0.01);
        assert_eq!(dev.stats().random_reads, 1);
    }

    #[test]
    fn second_epoch_hits_cache() {
        let t = DatasetSpec::susy_like(1000)
            .with_block_bytes(16 * 8192)
            .build_table(3)
            .unwrap();
        let mut s = NoShuffle::new();
        let mut dev = SimDevice::hdd(t.total_bytes() * 2);
        let e0 = s.next_epoch(&t, &mut dev).io_seconds();
        let e1 = s.next_epoch(&t, &mut dev).io_seconds();
        assert!(e1 < e0 / 10.0, "cached epoch {e1} vs cold {e0}");
    }
}
