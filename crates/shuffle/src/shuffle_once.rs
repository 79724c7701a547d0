//! Shuffle Once (§3.1): one offline full shuffle, then sequential scans.
//!
//! The strong statistical baseline assumed by MADlib and Bismarck: before
//! training, materialize a fully shuffled copy of the table (PostgreSQL's
//! `ORDER BY RANDOM()`), doubling storage, then run every epoch as a
//! sequential scan of the copy. The offline shuffle is charged as a
//! two-pass external sort ([`Table::materialize_reordered`]) and shows up
//! as `setup_seconds` of the first epoch — this is the long head start
//! CorgiPile exploits in Figures 1, 7 and 11.

use crate::plan::Segment;
use crate::strategy::{emit_block, ShuffleStrategy, StrategyParams};
use corgipile_data::rng::shuffle_in_place;
use corgipile_storage::{Access, SimDevice, StorageError, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The Shuffle-Once strategy.
#[derive(Debug)]
pub struct ShuffleOnce {
    params: StrategyParams,
    shuffled: Option<Table>,
}

impl ShuffleOnce {
    /// Create a Shuffle-Once strategy.
    pub fn new(params: StrategyParams) -> Self {
        ShuffleOnce {
            params,
            shuffled: None,
        }
    }

    /// Access the materialized shuffled copy, if already prepared.
    pub fn shuffled_table(&self) -> Option<&Table> {
        self.shuffled.as_ref()
    }
}

impl ShuffleStrategy for ShuffleOnce {
    fn name(&self) -> &'static str {
        "shuffle_once"
    }

    fn stream_epoch(
        &mut self,
        table: &Table,
        dev: &mut SimDevice,
        emit: &mut dyn FnMut(Segment) -> bool,
    ) -> Result<f64, StorageError> {
        let mut setup = 0.0;
        if self.shuffled.is_none() {
            let before = dev.stats().io_seconds;
            let mut order: Vec<u64> = (0..table.num_tuples()).collect();
            let mut rng = StdRng::seed_from_u64(self.params.seed);
            shuffle_in_place(&mut rng, &mut order);
            let copy = table.materialize_reordered(
                &order,
                format!("{}_shuffled", table.config().name),
                table.config().table_id | 0x8000_0000,
                dev,
            )?;
            setup = dev.stats().io_seconds - before;
            self.shuffled = Some(copy);
        }
        let shuffled = self.shuffled.as_ref().expect("prepared above");
        for b in 0..shuffled.num_blocks() {
            if !emit_block(shuffled, b, Access::in_scan(b == 0), dev, emit)? {
                break;
            }
        }
        Ok(setup)
    }

    fn disk_space_factor(&self) -> f64 {
        2.0 // original + shuffled copy (Table 1)
    }

    fn reset(&mut self) {
        self.shuffled = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corgipile_data::{DatasetSpec, Order};

    fn clustered(n: usize) -> Table {
        DatasetSpec::higgs_like(n)
            .with_order(Order::ClusteredByLabel)
            .with_block_bytes(4 * 8192)
            .build_table(1)
            .unwrap()
    }

    #[test]
    fn stream_is_a_full_permutation() {
        let t = clustered(500);
        let mut s = ShuffleOnce::new(StrategyParams::default());
        let mut dev = SimDevice::hdd(0);
        let plan = s.next_epoch(&t, &mut dev);
        let mut ids = plan.id_sequence();
        assert_ne!(
            ids,
            (0..500).collect::<Vec<_>>(),
            "must not be the stored order"
        );
        ids.sort_unstable();
        assert_eq!(ids, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn stream_decorrelates_labels() {
        let t = clustered(1000);
        let mut s = ShuffleOnce::new(StrategyParams::default());
        let mut dev = SimDevice::hdd(0);
        let labels = s.next_epoch(&t, &mut dev).label_sequence();
        // First 10% should contain a healthy mix of both labels.
        let head = &labels[..100];
        let pos = head.iter().filter(|&&l| l > 0.0).count();
        assert!(pos > 20 && pos < 80, "positives in head: {pos}");
    }

    #[test]
    fn setup_charged_once_and_is_expensive() {
        let t = clustered(800);
        let mut s = ShuffleOnce::new(StrategyParams::default());
        let mut dev = SimDevice::hdd(0);
        let e0 = s.next_epoch(&t, &mut dev);
        assert!(e0.setup_seconds > 0.0);
        // Offline shuffle (4 full passes) dwarfs one sequential scan.
        assert!(e0.setup_seconds > 2.0 * e0.io_seconds());
        let e1 = s.next_epoch(&t, &mut dev);
        assert_eq!(e1.setup_seconds, 0.0);
    }

    #[test]
    fn epochs_replay_the_same_order() {
        let t = clustered(300);
        let mut s = ShuffleOnce::new(StrategyParams::default());
        let mut dev = SimDevice::hdd(0);
        let a = s.next_epoch(&t, &mut dev).id_sequence();
        let b = s.next_epoch(&t, &mut dev).id_sequence();
        assert_eq!(a, b, "Shuffle Once fixes one order for all epochs");
    }

    #[test]
    fn disk_overhead_is_double() {
        let s = ShuffleOnce::new(StrategyParams::default());
        assert_eq!(s.disk_space_factor(), 2.0);
    }
}
