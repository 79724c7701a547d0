//! Multiplexed Reservoir Sampling (§3.4): Bismarck's shuffle.
//!
//! Two logical threads share the model: thread A scans the table
//! sequentially running reservoir sampling of size `R` — tuples *selected*
//! into the reservoir are withheld, tuples *dropped* (the incoming tuple or
//! the evicted victim) go straight to SGD; thread B concurrently loops over
//! the buffered tuples, feeding them to SGD as well (possibly multiple
//! times — the paper's "data skew" critique).
//!
//! We interleave the two streams deterministically at a rate that keeps the
//! per-epoch update count equal to `m`, matching the paper's per-epoch
//! accounting: `m − R` dropped-tuple updates plus `R` buffer-loop updates.
//! The emitted order preserves the paper's observations (Figure 3c/3g):
//! dropped tuples arrive in generally increasing storage order, and buffer
//! tuples repeat.
//!
//! Every draw depends on counts alone — tuples scanned, the reservoir's
//! length — so an epoch is generated as the scan positions it emits
//! ([`Rank::Picks`]), and the one fill gathers them from the blocks read.

use crate::plan::{EpochOrder, Rank};
use crate::strategy::{ShuffleStrategy, StrategyParams};
use corgipile_storage::Table;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The MRS strategy.
#[derive(Debug)]
pub struct MrsShuffle {
    params: StrategyParams,
    rng: StdRng,
}

impl MrsShuffle {
    /// Create an MRS strategy with reservoir size `buffer_fraction × m`.
    pub fn new(params: StrategyParams) -> Self {
        let rng = StdRng::seed_from_u64(params.seed ^ 0x3E5E);
        MrsShuffle { params, rng }
    }
}

impl ShuffleStrategy for MrsShuffle {
    fn name(&self) -> &'static str {
        "mrs"
    }

    /// One fill per block of a sequential scan, then thread B's top-up.
    fn next_order(&mut self, table: &Table, order: &mut EpochOrder) {
        order.set(0..table.num_blocks(), 1, false, Rank::Picks);
        let m = table.num_tuples() as usize;
        let r_cap = self.params.buffer_tuples(table).min(m);
        // Interleave one buffer-loop emission every `interval` drops.
        let interval = (m - r_cap)
            .checked_div(r_cap)
            .map_or(usize::MAX, |v| v.max(1));
        // Thread B's loop source, as scan positions (a block's `tuples`
        // range), and tuples dropped to SGD and looped from it so far.
        let mut reservoir: Vec<u32> = Vec::with_capacity(r_cap);
        let (mut drops, mut looped) = (0usize, 0usize);
        for block in table.blocks() {
            for at in block.tuples.clone().map(|id| id as u32) {
                let scanned = at as usize + 1;
                if reservoir.len() < r_cap {
                    reservoir.push(at);
                    continue;
                }
                // Classic reservoir step: keep incoming with prob r/scanned;
                // the dropped tuple (incoming or evicted victim) goes to SGD.
                if r_cap > 0 && self.rng.gen_range(0..scanned) < r_cap {
                    let slot = self.rng.gen_range(0..reservoir.len());
                    order.picks.push(reservoir[slot]);
                    reservoir.push(at);
                    reservoir.swap_remove(slot);
                } else {
                    order.picks.push(at);
                }
                drops += 1;
                // Thread B: loop over the buffer at the multiplex rate.
                if drops.is_multiple_of(interval) && looped < r_cap && !reservoir.is_empty() {
                    let slot = self.rng.gen_range(0..reservoir.len());
                    order.picks.push(reservoir[slot]);
                    looped += 1;
                }
            }
            // The bytes of the tuples routed through the reservoir.
            order.cuts.push((order.picks.len(), block.bytes / 4));
        }
        // Thread B tops up the epoch to exactly m updates.
        while looped < r_cap && !reservoir.is_empty() {
            let slot = self.rng.gen_range(0..reservoir.len());
            order.picks.push(reservoir[slot]);
            looped += 1;
        }
        order.cuts.push((order.picks.len(), 0));
    }

    fn buffer_tuples(&self, table: &Table) -> usize {
        // Two buffers (B1 + B2) in the real system; we report the reservoir.
        self.params.buffer_tuples(table)
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.params.seed ^ 0x3E5E);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corgipile_data::{DatasetSpec, Order};
    use corgipile_storage::SimDevice;
    use std::collections::HashMap;

    fn clustered(n: usize) -> Table {
        DatasetSpec::higgs_like(n)
            .with_order(Order::ClusteredByLabel)
            .with_block_bytes(2 * 8192)
            .build_table(1)
            .unwrap()
    }

    #[test]
    fn epoch_emits_exactly_m_updates() {
        let t = clustered(600);
        let mut s = MrsShuffle::new(StrategyParams::default());
        let mut dev = SimDevice::hdd(0);
        assert_eq!(s.next_epoch(&t, &mut dev).num_tuples(), 600);
        assert_eq!(s.next_epoch(&t, &mut dev).num_tuples(), 600);
    }

    #[test]
    fn buffer_tuples_repeat_and_some_tuples_are_skipped() {
        let t = clustered(1000);
        let mut s = MrsShuffle::new(StrategyParams::default().with_buffer_fraction(0.1));
        let mut dev = SimDevice::hdd(0);
        let ids = s.next_epoch(&t, &mut dev).id_sequence();
        let mut counts: HashMap<u64, usize> = HashMap::new();
        for id in &ids {
            *counts.entry(*id).or_default() += 1;
        }
        let dup = counts.values().filter(|&&c| c > 1).count();
        let missing = (0..1000u64).filter(|id| !counts.contains_key(id)).count();
        assert!(dup > 0, "looping buffer should cause duplicates");
        assert!(missing > 0, "reservoir-withheld tuples should be missing");
    }

    #[test]
    fn dropped_tuples_arrive_in_generally_increasing_order() {
        let t = clustered(2000);
        let mut s = MrsShuffle::new(StrategyParams::default().with_buffer_fraction(0.1));
        let mut dev = SimDevice::hdd(0);
        let ids = s.next_epoch(&t, &mut dev).id_sequence();
        // Figure 3(c): overall trend is increasing — Spearman-ish check via
        // mean signed displacement of consecutive emissions.
        let increasing = ids.windows(2).filter(|w| w[1] > w[0]).count();
        let frac = increasing as f64 / (ids.len() - 1) as f64;
        assert!(frac > 0.6, "increasing fraction {frac} too low for MRS");
    }

    #[test]
    fn io_close_to_no_shuffle() {
        let t = clustered(2000);
        let mut s = MrsShuffle::new(StrategyParams::default());
        let mut dev = SimDevice::hdd(0);
        let mrs_io = s.next_epoch(&t, &mut dev).io_seconds();
        let mut ns =
            crate::build_strategy(crate::StrategyKind::NoShuffle, StrategyParams::default());
        let mut dev2 = SimDevice::hdd(0);
        let ns_io = ns.next_epoch(&t, &mut dev2).io_seconds();
        assert!(mrs_io < ns_io * 1.2, "MRS {mrs_io} vs No Shuffle {ns_io}");
    }

    #[test]
    fn head_of_stream_remains_mostly_negative_on_clustered_data() {
        let t = clustered(2000);
        let mut s = MrsShuffle::new(StrategyParams::default().with_buffer_fraction(0.1));
        let mut dev = SimDevice::hdd(0);
        let labels = s.next_epoch(&t, &mut dev).label_sequence();
        let head = &labels[..400];
        let neg = head.iter().filter(|&&l| l < 0.0).count();
        assert!(
            neg > 320,
            "MRS head should stay mostly negative, got {neg}/400"
        );
    }
}
