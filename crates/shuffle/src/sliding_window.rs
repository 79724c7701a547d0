//! Sliding-Window Shuffle (§3.3): TensorFlow's `Dataset.shuffle`.
//!
//! A window of `W` tuples is filled from the sequential scan; each step
//! emits a uniformly random occupant of the window and refills the slot
//! with the next incoming tuple; when the scan ends the window drains in
//! random order. I/O is purely sequential (as fast as No Shuffle) but the
//! randomness is local: a tuple stored at position `p` is emitted near
//! `p − W·U` on average, so on clustered data nearly all negative tuples
//! still precede positives (Figure 3b/3f).

use crate::plan::Segment;
use crate::strategy::{read_block, ShuffleStrategy, StrategyParams};
use corgipile_storage::{Access, SimDevice, StorageError, Table, Tuple};
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

    fn stream_epoch(
        &mut self,
        table: &Table,
        dev: &mut SimDevice,
        emit: &mut dyn FnMut(Segment) -> bool,
    ) -> Result<f64, StorageError> {
        let window_cap = self.params.buffer_tuples(table);
        let mut window: Vec<Tuple> = Vec::with_capacity(window_cap);

        for b in 0..table.num_blocks() {
            let before = dev.stats().io_seconds;
            let incoming = read_block(table, b, Access::in_scan(b == 0), dev)?;
            // Small CPU cost for copying tuples through the window.
            let bytes = table.block(b)?.bytes;
            dev.charge_seconds(self.params.buffering_cost(0, bytes.min(window_cap * 256)));
            let mut emitted = Vec::new();
            for t in incoming {
                if window.len() < window_cap {
                    window.push(t);
                } else {
                    let slot = self.rng.gen_range(0..window.len());
                    emitted.push(std::mem::replace(&mut window[slot], t));
                }
            }
            if !emit(Segment::new(emitted, dev.stats().io_seconds - before)) {
                return Ok(0.0);
            }
        }

        // Drain the window in random order.
        let mut drain = Vec::with_capacity(window.len());
        while !window.is_empty() {
            let slot = self.rng.gen_range(0..window.len());
            drain.push(window.swap_remove(slot));
        }
        emit(Segment::new(drain, 0.0));
        Ok(0.0)
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
        let mut ns = crate::no_shuffle::NoShuffle::new();
        let mut dev2 = SimDevice::hdd(0);
        let ns_io = ns.next_epoch(&t, &mut dev2).io_seconds();
        assert!(
            sw_io < ns_io * 1.15,
            "sliding window {sw_io} vs no shuffle {ns_io}"
        );
    }
}
