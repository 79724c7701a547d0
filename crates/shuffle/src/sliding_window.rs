//! Sliding-Window Shuffle (§3.3): TensorFlow's `Dataset.shuffle`.
//!
//! A window of `W` tuples is filled from the sequential scan; each step
//! emits a uniformly random occupant of the window and refills the slot
//! with the next incoming tuple; when the scan ends the window drains in
//! random order. I/O is purely sequential (as fast as No Shuffle) but the
//! randomness is local: a tuple stored at position `p` is emitted near
//! `p − W·U` on average, so on clustered data nearly all negative tuples
//! still precede positives (Figure 3b/3f).
//!
//! Every draw depends on the window's length alone, so an epoch is
//! generated as the scan positions it emits ([`Rank::Picks`]), and the one
//! fill gathers them from the blocks read.

use crate::plan::{EpochOrder, Rank};
use crate::strategy::{ShuffleStrategy, StrategyParams};
use corgipile_storage::Table;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The Sliding-Window strategy.
#[derive(Debug)]
pub struct SlidingWindowShuffle {
    params: StrategyParams,
    rng: StdRng,
}

impl SlidingWindowShuffle {
    /// Create a Sliding-Window strategy; the window holds
    /// `buffer_fraction × |table|` tuples.
    pub fn new(params: StrategyParams) -> Self {
        let rng = StdRng::seed_from_u64(params.seed ^ 0x51D3);
        SlidingWindowShuffle { params, rng }
    }
}

impl ShuffleStrategy for SlidingWindowShuffle {
    fn name(&self) -> &'static str {
        "sliding_window"
    }

    /// One fill per block of a sequential scan, then the drain.
    fn next_order(&mut self, table: &Table, order: &mut EpochOrder) {
        order.set(0..table.num_blocks(), 1, false, Rank::Picks);
        let cap = self.params.buffer_tuples(table);
        // The window, as scan positions (a block's `tuples` range).
        let mut window = Vec::<u32>::with_capacity(cap);
        for block in table.blocks() {
            for at in block.tuples.clone().map(|id| id as u32) {
                if window.len() == cap {
                    // The incoming row takes the slot of the row it evicts.
                    let slot = self.rng.gen_range(0..window.len());
                    order.picks.push(window[slot]);
                    window.push(at);
                    window.swap_remove(slot);
                } else {
                    window.push(at);
                }
            }
            // The bytes copied through the window.
            order
                .cuts
                .push((order.picks.len(), block.bytes.min(cap * 256)));
        }
        // Drain the window in random order.
        while !window.is_empty() {
            let slot = self.rng.gen_range(0..window.len());
            order.picks.push(window.swap_remove(slot));
        }
        order.cuts.push((order.picks.len(), 0));
    }

    fn buffer_tuples(&self, table: &Table) -> usize {
        self.params.buffer_tuples(table)
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.params.seed ^ 0x51D3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corgipile_data::{DatasetSpec, Order};
    use corgipile_storage::SimDevice;

    fn clustered(n: usize) -> Table {
        DatasetSpec::higgs_like(n)
            .with_order(Order::ClusteredByLabel)
            .with_block_bytes(2 * 8192)
            .build_table(1)
            .unwrap()
    }

    #[test]
    fn emits_each_tuple_exactly_once() {
        let t = clustered(500);
        let mut s = SlidingWindowShuffle::new(StrategyParams::default());
        let mut dev = SimDevice::hdd(0);
        let mut ids = s.next_epoch(&t, &mut dev).id_sequence();
        ids.sort_unstable();
        assert_eq!(ids, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn order_is_locally_shuffled_but_globally_linear() {
        let t = clustered(2000);
        let mut s = SlidingWindowShuffle::new(StrategyParams::default().with_buffer_fraction(0.1));
        let mut dev = SimDevice::hdd(0);
        let ids = s.next_epoch(&t, &mut dev).id_sequence();
        assert_ne!(
            ids,
            (0..2000).collect::<Vec<_>>(),
            "some shuffling must happen"
        );
        // Figure 3(b): the emitted order stays near the diagonal — the mean
        // displacement is on the order of the window size, far below what a
        // full shuffle would produce (~ m/3).
        let mean_disp: f64 = ids
            .iter()
            .enumerate()
            .map(|(pos, &id)| (id as f64 - pos as f64).abs())
            .sum::<f64>()
            / ids.len() as f64;
        assert!(
            mean_disp < 500.0,
            "mean displacement {mean_disp} too global"
        );
        assert!(
            mean_disp > 10.0,
            "mean displacement {mean_disp} suspiciously tiny"
        );
    }

    #[test]
    fn clustered_labels_stay_mostly_ordered() {
        let t = clustered(2000);
        let mut s = SlidingWindowShuffle::new(StrategyParams::default().with_buffer_fraction(0.1));
        let mut dev = SimDevice::hdd(0);
        let labels = s.next_epoch(&t, &mut dev).label_sequence();
        // Figure 3(f): the first quarter is still almost all negatives.
        let head = &labels[..500];
        let neg = head.iter().filter(|&&l| l < 0.0).count();
        assert!(neg > 450, "head should remain ~all negative, got {neg}/500");
    }

    #[test]
    fn io_close_to_no_shuffle() {
        let t = clustered(2000);
        let mut sw = SlidingWindowShuffle::new(StrategyParams::default().with_buffer_fraction(0.1));
        let mut dev = SimDevice::hdd(0);
        let sw_io = sw.next_epoch(&t, &mut dev).io_seconds();
        let mut ns =
            crate::build_strategy(crate::StrategyKind::NoShuffle, StrategyParams::default());
        let mut dev2 = SimDevice::hdd(0);
        let ns_io = ns.next_epoch(&t, &mut dev2).io_seconds();
        assert!(
            sw_io < ns_io * 1.15,
            "sliding window {sw_io} vs no shuffle {ns_io}"
        );
    }
}
