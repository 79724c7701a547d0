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

use crate::plan::Segment;
use crate::strategy::{read_block, ShuffleStrategy, StrategyParams};
use corgipile_storage::{Access, SimDevice, StorageError, Table, Tuple};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The MRS strategy.
#[derive(Debug)]
pub struct MrsShuffle {
    params: StrategyParams,
    rng: StdRng,
    /// Reservoir carried across epochs (thread B's loop source).
    reservoir: Vec<Tuple>,
}

impl MrsShuffle {
    /// Create an MRS strategy with reservoir size `buffer_fraction × m`.
    pub fn new(params: StrategyParams) -> Self {
        let rng = StdRng::seed_from_u64(params.seed ^ 0x3E5E);
        MrsShuffle {
            params,
            rng,
            reservoir: Vec::new(),
        }
    }
}

impl ShuffleStrategy for MrsShuffle {
    fn name(&self) -> &'static str {
        "mrs"
    }

    fn stream_epoch(
        &mut self,
        table: &Table,
        dev: &mut SimDevice,
        emit: &mut dyn FnMut(Segment) -> bool,
    ) -> Result<f64, StorageError> {
        let m = table.num_tuples() as usize;
        let r_cap = self.params.buffer_tuples(table).min(m);
        let a_total = m.saturating_sub(r_cap);
        // Interleave one buffer-loop emission every `interval` drops.
        let interval = a_total.checked_div(r_cap).map_or(usize::MAX, |v| v.max(1));

        self.reservoir.clear();
        self.reservoir.reserve(r_cap);
        let mut scanned = 0usize;
        let mut drops = 0usize;
        let mut b_emitted = 0usize;

        for blk in 0..table.num_blocks() {
            let before = dev.stats().io_seconds;
            let incoming = read_block(table, blk, Access::in_scan(blk == 0), dev)?;
            // Copy cost for tuples routed through the reservoir.
            let bytes = table.block(blk)?.bytes;
            dev.charge_seconds(self.params.buffering_cost(0, bytes / 4));
            let mut emitted = Vec::new();
            for t in incoming {
                scanned += 1;
                if self.reservoir.len() < r_cap {
                    self.reservoir.push(t);
                    continue;
                }
                // Classic reservoir step: keep incoming with prob r/scanned.
                let dropped = if r_cap > 0 && self.rng.gen_range(0..scanned) < r_cap {
                    let slot = self.rng.gen_range(0..self.reservoir.len());
                    std::mem::replace(&mut self.reservoir[slot], t)
                } else {
                    t
                };
                emitted.push(dropped);
                drops += 1;
                // Thread B: loop over the buffer at the multiplex rate.
                if drops.is_multiple_of(interval) && b_emitted < r_cap && !self.reservoir.is_empty()
                {
                    let pick = self.rng.gen_range(0..self.reservoir.len());
                    emitted.push(self.reservoir[pick].clone());
                    b_emitted += 1;
                }
            }
            if !emit(Segment::new(emitted, dev.stats().io_seconds - before)) {
                return Ok(0.0);
            }
        }

        // Thread B tops up the epoch to exactly m updates.
        let mut tail = Vec::new();
        while b_emitted < r_cap && !self.reservoir.is_empty() {
            let pick = self.rng.gen_range(0..self.reservoir.len());
            tail.push(self.reservoir[pick].clone());
            b_emitted += 1;
        }
        if !tail.is_empty() {
            emit(Segment::new(tail, 0.0));
        }
        Ok(0.0)
    }

    fn buffer_tuples(&self, table: &Table) -> usize {
        // Two buffers (B1 + B2) in the real system; we report the reservoir.
        self.params.buffer_tuples(table)
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.params.seed ^ 0x3E5E);
        self.reservoir.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corgipile_data::{DatasetSpec, Order};
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
        let mut ns = crate::no_shuffle::NoShuffle::new();
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
