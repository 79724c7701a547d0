//! CorgiPile (§4): the two-level hierarchical shuffle.
//!
//! Per epoch:
//!
//! 1. **Block-level shuffle** — permute the block ids (sampling without
//!    replacement);
//! 2. **Tuple-level shuffle** — read the next `n` blocks (the buffer
//!    capacity, `buffer_fraction × N`) into an in-memory buffer, shuffle
//!    all buffered tuples, and emit them.
//!
//! Two block-sampling modes are provided:
//!
//! * [`BlockSampleMode::FullCoverage`] — the deployed behaviour of the
//!   PyTorch and PostgreSQL integrations (§5.1, §6.2): every epoch visits
//!   *all* `N` blocks, consumed buffer-by-buffer from a fresh permutation.
//! * [`BlockSampleMode::SampleN`] — Algorithm 1 exactly as analysed in
//!   §4.2: each epoch trains on only `n` randomly chosen blocks (one buffer
//!   fill). Used by the theory-validation experiments.
//!
//! I/O per buffer fill: `n` random block reads + buffer copy + Fisher–Yates
//! — the costs that the double-buffering optimization (§6.3) overlaps with
//! SGD compute.

use crate::plan::Segment;
use crate::strategy::{read_block, ShuffleStrategy, StrategyParams};
use corgipile_data::rng::shuffle_in_place;
use corgipile_storage::{Access, SimDevice, StorageError, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How block-level sampling treats the epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockSampleMode {
    /// Visit all `N` blocks per epoch (system behaviour).
    FullCoverage,
    /// Visit only `n` sampled blocks per epoch (Algorithm 1).
    SampleN,
}

/// The CorgiPile strategy.
#[derive(Debug)]
pub struct CorgiPile {
    params: StrategyParams,
    mode: BlockSampleMode,
    rng: StdRng,
}

impl CorgiPile {
    /// Create a CorgiPile strategy.
    pub fn new(params: StrategyParams, mode: BlockSampleMode) -> Self {
        let rng = StdRng::seed_from_u64(params.seed ^ 0xC0461);
        CorgiPile { params, mode, rng }
    }

    /// The buffer capacity in blocks for `table` (the paper's `n`).
    pub fn buffer_blocks(&self, table: &Table) -> usize {
        self.params.buffer_blocks(table)
    }

    /// Fill one buffer from `blocks`, shuffle it, and cost the work.
    fn fill_segment(
        &mut self,
        table: &Table,
        blocks: &[usize],
        dev: &mut SimDevice,
    ) -> Result<Segment, StorageError> {
        let mut span = dev.telemetry().clone().span("shuffle.corgipile.fill");
        let before = dev.stats().io_seconds;
        let mut bytes = 0usize;
        let mut expected = 0usize;
        for &b in blocks {
            let meta = table.block(b)?;
            bytes += meta.bytes;
            expected += meta.tuple_count();
        }
        let mut buffer = Vec::with_capacity(expected);
        for &b in blocks {
            buffer.extend(read_block(table, b, Access::Random, dev)?);
        }
        // Buffer copy + tuple-level Fisher–Yates (the §4.1 overheads).
        dev.charge_seconds(self.params.buffering_cost(buffer.len(), bytes));
        shuffle_in_place(&mut self.rng, &mut buffer);
        let io = dev.stats().io_seconds - before;
        span.add_sim_seconds(io);
        Ok(Segment::new(buffer, io))
    }
}

impl ShuffleStrategy for CorgiPile {
    fn name(&self) -> &'static str {
        "corgipile"
    }

    fn stream_epoch(
        &mut self,
        table: &Table,
        dev: &mut SimDevice,
        emit: &mut dyn FnMut(Segment) -> bool,
    ) -> Result<f64, StorageError> {
        let n = self.params.buffer_blocks(table);
        let mut order: Vec<usize> = (0..table.num_blocks()).collect();
        shuffle_in_place(&mut self.rng, &mut order);
        let chosen: &[usize] = match self.mode {
            BlockSampleMode::FullCoverage => &order,
            BlockSampleMode::SampleN => &order[..n.min(order.len())],
        };
        for chunk in chosen.chunks(n.max(1)) {
            let seg = self.fill_segment(table, chunk, dev)?;
            if !emit(seg) {
                break;
            }
        }
        Ok(0.0)
    }

    fn buffer_tuples(&self, table: &Table) -> usize {
        (self.params.buffer_blocks(table) as f64 * table.tuples_per_block()).ceil() as usize
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.params.seed ^ 0xC0461);
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
    fn full_coverage_emits_each_tuple_once() {
        let t = clustered(800);
        let mut s = CorgiPile::new(StrategyParams::default(), BlockSampleMode::FullCoverage);
        let mut dev = SimDevice::hdd(0);
        let mut ids = s.next_epoch(&t, &mut dev).id_sequence();
        ids.sort_unstable();
        assert_eq!(ids, (0..800).collect::<Vec<_>>());
    }

    #[test]
    fn sample_n_visits_only_n_blocks() {
        let t = clustered(800);
        let p = StrategyParams::default().with_buffer_fraction(0.25);
        let n = p.buffer_blocks(&t);
        let mut s = CorgiPile::new(p, BlockSampleMode::SampleN);
        let mut dev = SimDevice::hdd(0);
        let plan = s.next_epoch(&t, &mut dev);
        assert_eq!(plan.segments.len(), 1);
        let expected: usize = (n as f64 * t.tuples_per_block()).round() as usize;
        let got = plan.num_tuples();
        assert!(
            (got as f64 - expected as f64).abs() <= t.tuples_per_block() * n as f64 * 0.5,
            "SampleN emitted {got}, expected ≈{expected}"
        );
        assert!(got < 800 / 2, "SampleN must not cover the table");
    }

    #[test]
    fn buffer_segments_mix_labels_on_clustered_data() {
        // The heart of Figure 4: each buffer contains blocks from both label
        // regions, and the tuple shuffle mixes them uniformly.
        let t = clustered(2000);
        let mut s = CorgiPile::new(
            StrategyParams::default().with_buffer_fraction(0.2),
            BlockSampleMode::FullCoverage,
        );
        let mut dev = SimDevice::hdd(0);
        let plan = s.next_epoch(&t, &mut dev);
        assert!(plan.segments.len() >= 3, "expect several buffer fills");
        let mut mixed_segments = 0;
        for seg in &plan.segments {
            let pos = seg.tuples.iter().filter(|t| t.label > 0.0).count();
            let frac = pos as f64 / seg.tuples.len() as f64;
            if frac > 0.15 && frac < 0.85 {
                mixed_segments += 1;
            }
        }
        assert!(
            mixed_segments * 2 >= plan.segments.len(),
            "most buffers should mix labels: {mixed_segments}/{}",
            plan.segments.len()
        );
    }

    #[test]
    fn within_segment_order_is_shuffled() {
        let t = clustered(1000);
        let mut s = CorgiPile::new(
            StrategyParams::default().with_buffer_fraction(0.3),
            BlockSampleMode::FullCoverage,
        );
        let mut dev = SimDevice::hdd(0);
        let plan = s.next_epoch(&t, &mut dev);
        let seg = &plan.segments[0];
        let ids: Vec<u64> = seg.tuples.iter().map(|t| t.id).collect();
        // Must not be a concatenation of sorted runs: count descents.
        let descents = ids.windows(2).filter(|w| w[1] < w[0]).count();
        assert!(
            descents as f64 > 0.3 * ids.len() as f64,
            "only {descents} descents in {} tuples",
            ids.len()
        );
    }

    #[test]
    fn io_pays_one_seek_per_block_plus_buffering() {
        let t = clustered(800);
        let mut s = CorgiPile::new(StrategyParams::default(), BlockSampleMode::FullCoverage);
        let mut dev = SimDevice::hdd(0);
        s.next_epoch(&t, &mut dev);
        assert_eq!(dev.stats().random_reads as usize, t.num_blocks());
    }

    #[test]
    fn io_within_constant_factor_of_no_shuffle_for_large_blocks() {
        // With block transfer time ≫ seek latency the per-block seek
        // amortizes away (Appendix A). 1 MB on SSD: 1 ms transfer vs 0.1 ms
        // latency.
        let t = DatasetSpec::higgs_like(50_000)
            .with_order(Order::ClusteredByLabel)
            .with_block_bytes(1 << 20)
            .build_table(2)
            .unwrap();
        let mut cp = CorgiPile::new(StrategyParams::default(), BlockSampleMode::FullCoverage);
        let mut d1 = SimDevice::ssd(0);
        let cp_io = cp.next_epoch(&t, &mut d1).io_seconds();
        let mut ns = crate::no_shuffle::NoShuffle::new();
        let mut d2 = SimDevice::ssd(0);
        let ns_io = ns.next_epoch(&t, &mut d2).io_seconds();
        assert!(
            cp_io < ns_io * 1.5,
            "CorgiPile {cp_io} should be within 1.5× of No Shuffle {ns_io}"
        );
    }

    #[test]
    fn fills_record_telemetry_spans_with_io_attribution() {
        let t = clustered(2000);
        let mut s = CorgiPile::new(
            StrategyParams::default().with_buffer_fraction(0.2),
            BlockSampleMode::FullCoverage,
        );
        let mut dev = SimDevice::hdd(0);
        let tel = corgipile_storage::Telemetry::enabled();
        dev.set_telemetry(tel.clone());
        let plan = s.next_epoch(&t, &mut dev);
        let snap = tel.snapshot();
        let sim = snap
            .metrics
            .histograms
            .iter()
            .find(|(name, _)| name == "shuffle.corgipile.fill.sim_seconds")
            .map(|(_, h)| h.clone())
            .expect("fill span histogram registered");
        assert_eq!(sim.count as usize, plan.segments.len());
        assert!(
            (sim.sum - plan.io_seconds()).abs() < 1e-9,
            "span sim time {} should equal plan io {}",
            sim.sum,
            plan.io_seconds()
        );
    }

    #[test]
    fn epochs_differ_and_reset_replays() {
        let t = clustered(500);
        let mut s = CorgiPile::new(StrategyParams::default(), BlockSampleMode::FullCoverage);
        let mut dev = SimDevice::hdd(0);
        let a = s.next_epoch(&t, &mut dev).id_sequence();
        let b = s.next_epoch(&t, &mut dev).id_sequence();
        assert_ne!(a, b, "fresh permutations per epoch");
        s.reset();
        let a2 = s.next_epoch(&t, &mut dev).id_sequence();
        assert_eq!(a, a2);
    }

    #[test]
    fn n_equals_big_buffer_degenerates_to_full_shuffle_like_order() {
        // buffer_fraction = 1.0 → n = N → one segment covering everything,
        // fully shuffled (the α = 1 case of Theorem 1).
        let t = clustered(500);
        let mut s = CorgiPile::new(
            StrategyParams::default().with_buffer_fraction(1.0),
            BlockSampleMode::FullCoverage,
        );
        let mut dev = SimDevice::hdd(0);
        let plan = s.next_epoch(&t, &mut dev);
        assert_eq!(plan.segments.len(), 1);
        let labels = plan.label_sequence();
        let head_pos = labels[..100].iter().filter(|&&l| l > 0.0).count();
        assert!(
            head_pos > 25 && head_pos < 75,
            "head positives {head_pos} not mixed"
        );
    }
}
