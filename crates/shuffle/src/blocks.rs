//! The strategies whose fills are block reads — all the SQL engine runs,
//! plus Epoch Shuffle — as one generator. A strategy is three choices:
//!
//! * **The block order** of an epoch. Stored: No Shuffle (§3.2, MADlib's
//!   default and PyTorch's `IterableDataset`: the fastest I/O, divergent on
//!   clustered data), Tuple-Only, Shuffle Once, Epoch Shuffle. Permuted:
//!   Block-Only (§7.3: label-pure runs on clustered data), CorgiPile (§4),
//!   Corgi². Rotated by a draw and reversed on odd epochs: Block-Reversal
//!   ("Learning to Shuffle"-style epoch schemes), whose adjacent blocks
//!   stream, so only the epoch's head and the rotation wrap seek.
//!   Permutations and rotations come from the SQL scan's stream,
//!   `StdRng(seed ⊕ 0xB50F)`, one draw per epoch.
//! * **The fill.** One block in stored order, or `n` blocks — the buffer,
//!   `buffer_fraction × N` — ranked by the epoch's key: CorgiPile's
//!   tuple-level shuffle, and with it Tuple-Only (the ablation dual of
//!   Block-Only: each buffer a contiguous stretch of the table, a giant
//!   sliding window) and Corgi².
//! * **The setup.** Shuffle Once materializes a fully shuffled copy once
//!   (§3.1: `ORDER BY RANDOM()`, 2× storage, the long head start CorgiPile
//!   exploits in Figures 1, 7 and 11); Epoch Shuffle, a fresh one every
//!   epoch (the statistical gold standard and the hardware worst case);
//!   Corgi² a bounded partial recluster once ([`recluster_table`]). The
//!   fills then read the copy.
//!
//! CorgiPile samples blocks in one of two modes: [`BlockSampleMode::FullCoverage`],
//! every block each epoch, as the PyTorch and PostgreSQL integrations do
//! (§5.1, §6.2), or [`BlockSampleMode::SampleN`], Algorithm 1 as analysed
//! in §4.2: one fill of `n` sampled blocks per epoch. Multi-process
//! CorgiPile (§5) is the same order with its fills dealt to the workers
//! ([`BlockStrategy::dealt`]).

use crate::corgi2::recluster_table;
use crate::plan::{Deal, EpochOrder, Rank};
use crate::strategy::{block_rng, epoch_salt, ShuffleStrategy, StrategyKind, StrategyParams};
use corgipile_data::rng::shuffle_in_place;
use corgipile_storage::{SimDevice, StorageError, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// How CorgiPile's block-level sampling treats the epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockSampleMode {
    /// Visit all `N` blocks per epoch (system behaviour).
    FullCoverage,
    /// Visit only `n` sampled blocks per epoch (Algorithm 1).
    SampleN,
}

/// A strategy whose fills are block reads (see the module docs).
#[derive(Debug)]
pub struct BlockStrategy {
    kind: StrategyKind,
    params: StrategyParams,
    mode: BlockSampleMode,
    /// The strategy's one random stream — the block order's, or the full
    /// shuffle of Shuffle Once's and Epoch Shuffle's copies (their blocks
    /// are read in stored order) — and the epochs generated since the reset.
    rng: StdRng,
    epoch: u64,
    copy: Option<Arc<Table>>,
    /// The deal of fills of this many blocks to workers, if multi-process.
    deal: Option<(Deal, usize)>,
}

impl BlockStrategy {
    /// Strategy `kind` under `params`, covering every block each epoch.
    pub fn new(kind: StrategyKind, params: StrategyParams) -> Self {
        let rng = match kind {
            StrategyKind::ShuffleOnce | StrategyKind::EpochShuffle => {
                StdRng::seed_from_u64(params.seed)
            }
            _ => block_rng(params.seed),
        };
        BlockStrategy {
            kind,
            rng,
            params,
            mode: BlockSampleMode::FullCoverage,
            epoch: 0,
            copy: None,
            deal: None,
        }
    }

    /// Sample blocks in `mode`.
    pub fn with_sample_mode(mut self, mode: BlockSampleMode) -> Self {
        self.mode = mode;
        self
    }

    /// Deal the fills, `fill_blocks` blocks each, to workers by `deal`.
    pub fn dealt(mut self, deal: Deal, fill_blocks: usize) -> Self {
        self.deal = Some((deal, fill_blocks));
        self
    }

    /// The next epoch's order over a table of `blocks` blocks, ranked fills
    /// of `n` blocks.
    pub fn order(&mut self, blocks: usize, n: usize, order: &mut EpochOrder) {
        let (kind, salt) = (self.kind, epoch_salt(self.params.seed, self.epoch));
        let permuted = kind.permutes_blocks();
        match kind.is_tuple_buffered() {
            true => order.set(0..blocks, n, permuted, Rank::Key(salt)),
            false => order.set(0..blocks, 1, permuted, Rank::Stored),
        }
        order.deal = self.deal.map(|(deal, _)| deal);
        if permuted {
            shuffle_in_place(&mut self.rng, &mut order.blocks);
        } else if kind == StrategyKind::BlockReversal && blocks > 0 {
            order.blocks.rotate_left(self.rng.gen_range(0..blocks));
            if self.epoch % 2 == 1 {
                order.blocks.reverse();
            }
        }
        if self.mode == BlockSampleMode::SampleN {
            order.blocks.truncate(n);
        }
        self.epoch += 1;
    }
}

impl ShuffleStrategy for BlockStrategy {
    fn name(&self) -> &'static str {
        self.kind.name()
    }

    fn setup(
        &mut self,
        table: &Table,
        copy_id: &dyn Fn() -> u32,
        dev: &mut SimDevice,
    ) -> Result<f64, StorageError> {
        if self.copy.is_some() && self.kind != StrategyKind::EpochShuffle {
            return Ok(0.0);
        }
        let before = dev.stats().io_seconds;
        let name = |what| format!("{}_{what}", table.config().name);
        let copy = match self.kind {
            StrategyKind::ShuffleOnce | StrategyKind::EpochShuffle => {
                let mut order: Vec<u64> = (0..table.num_tuples()).collect();
                shuffle_in_place(&mut self.rng, &mut order);
                // Every epoch's copy is a table of its own.
                let id = copy_id() ^ self.epoch as u32;
                table.materialize_reordered(&order, name("shuffled"), id, dev)?
            }
            StrategyKind::Corgi2 => {
                let (budget, seed) = (self.params.io_budget, self.params.seed);
                recluster_table(table, name("reclustered"), copy_id(), budget, seed, dev)?.table
            }
            _ => return Ok(0.0),
        };
        self.copy = Some(Arc::new(copy));
        Ok(dev.stats().io_seconds - before)
    }

    fn copy(&self) -> Option<Arc<Table>> {
        self.copy.clone()
    }

    fn next_order(&mut self, table: &Table, order: &mut EpochOrder) {
        let n = self
            .deal
            .map_or_else(|| self.params.buffer_blocks(table), |(_, n)| n);
        self.order(table.num_blocks(), n, order);
    }

    fn buffer_tuples(&self, table: &Table) -> usize {
        if !self.kind.is_tuple_buffered() {
            return 0;
        }
        (self.params.buffer_blocks(table) as f64 * table.tuples_per_block()).ceil() as usize
    }

    fn disk_space_factor(&self) -> f64 {
        match self.kind {
            // The original plus the shuffled copy (Table 1).
            StrategyKind::ShuffleOnce | StrategyKind::EpochShuffle => 2.0,
            // Only the rewritten fraction occupies extra space while the
            // recluster runs (unselected extents are never copied).
            StrategyKind::Corgi2 => 1.0 + self.params.io_budget,
            _ => 1.0,
        }
    }

    fn reset(&mut self) {
        let deal = self.deal;
        *self = BlockStrategy::new(self.kind, self.params.clone()).with_sample_mode(self.mode);
        self.deal = deal;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::EpochPlan;
    use corgipile_data::{DatasetSpec, Order};
    use corgipile_storage::clock::full_shuffle_seconds;
    use StrategyKind::*;

    fn make(kind: StrategyKind, params: StrategyParams) -> BlockStrategy {
        BlockStrategy::new(kind, params)
    }

    fn clustered(n: usize) -> Table {
        DatasetSpec::higgs_like(n)
            .with_order(Order::ClusteredByLabel)
            .with_block_bytes(2 * 8192)
            .build_table(1)
            .unwrap()
    }

    fn table() -> Table {
        DatasetSpec::higgs_like(400)
            .with_order(Order::ClusteredByLabel)
            .with_block_bytes(4 * 8192)
            .build_table(1)
            .unwrap()
    }

    #[test]
    fn emits_table_order() {
        let t = DatasetSpec::higgs_like(300)
            .with_order(Order::ClusteredByLabel)
            .with_block_bytes(2 * 8192)
            .build_table(1)
            .unwrap();
        let mut s = make(NoShuffle, StrategyParams::default());
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
        let mut s = make(NoShuffle, StrategyParams::default());
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
        let mut s = make(NoShuffle, StrategyParams::default());
        let mut dev = SimDevice::hdd(t.total_bytes() * 2);
        let e0 = s.next_epoch(&t, &mut dev).io_seconds();
        let e1 = s.next_epoch(&t, &mut dev).io_seconds();
        assert!(e1 < e0 / 10.0, "cached epoch {e1} vs cold {e0}");
    }

    #[test]
    fn stream_is_a_full_permutation() {
        let t = clustered(500);
        let mut s = make(ShuffleOnce, StrategyParams::default());
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
        let mut s = make(ShuffleOnce, StrategyParams::default());
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
        let mut s = make(ShuffleOnce, StrategyParams::default());
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
        let mut s = make(ShuffleOnce, StrategyParams::default());
        let mut dev = SimDevice::hdd(0);
        let a = s.next_epoch(&t, &mut dev).id_sequence();
        let b = s.next_epoch(&t, &mut dev).id_sequence();
        assert_eq!(a, b, "Shuffle Once fixes one order for all epochs");
    }

    #[test]
    fn disk_overhead_is_double() {
        let s = make(ShuffleOnce, StrategyParams::default());
        assert_eq!(s.disk_space_factor(), 2.0);
    }

    #[test]
    fn every_epoch_is_a_fresh_permutation() {
        let t = table();
        let mut s = make(EpochShuffle, StrategyParams::default());
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
        let mut s = make(EpochShuffle, StrategyParams::default());
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
        let mut s = make(EpochShuffle, StrategyParams::default());
        let mut dev = SimDevice::hdd(0);
        assert_eq!(s.next_epoch(&t, &mut dev).num_tuples(), 400);
    }

    #[test]
    fn emits_each_tuple_once_with_blocks_permuted() {
        let t = clustered(600);
        let mut s = make(BlockOnly, StrategyParams::default());
        let mut dev = SimDevice::hdd(0);
        let ids = s.next_epoch(&t, &mut dev).id_sequence();
        assert_ne!(ids, (0..600).collect::<Vec<_>>(), "block order must change");
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..600).collect::<Vec<_>>());
    }

    #[test]
    fn within_block_order_is_preserved() {
        let t = clustered(600);
        let mut s = make(BlockOnly, StrategyParams::default());
        let mut dev = SimDevice::hdd(0);
        let plan = s.next_epoch(&t, &mut dev);
        for seg in &plan.segments {
            let ids: Vec<u64> = seg.tuples.iter().map(|t| t.id).collect();
            assert!(
                ids.windows(2).all(|w| w[1] == w[0] + 1),
                "run not contiguous: {ids:?}"
            );
        }
    }

    #[test]
    fn epochs_use_fresh_block_orders() {
        let t = clustered(600);
        let mut s = make(BlockOnly, StrategyParams::default());
        let mut dev = SimDevice::hdd(0);
        let a = s.next_epoch(&t, &mut dev).id_sequence();
        let b = s.next_epoch(&t, &mut dev).id_sequence();
        assert_ne!(a, b);
    }

    #[test]
    fn pays_one_seek_per_block() {
        let t = clustered(600);
        let mut s = make(BlockOnly, StrategyParams::default());
        let mut dev = SimDevice::hdd(0);
        s.next_epoch(&t, &mut dev);
        assert_eq!(dev.stats().random_reads as usize, t.num_blocks());
    }

    #[test]
    fn emits_every_tuple_once() {
        let t = clustered(600);
        let mut s = make(TupleOnly, StrategyParams::default());
        let mut dev = SimDevice::hdd(0);
        let mut ids = s.next_epoch(&t, &mut dev).id_sequence();
        ids.sort_unstable();
        assert_eq!(ids, (0..600).collect::<Vec<_>>());
    }

    #[test]
    fn buffers_are_contiguous_ranges_shuffled_within() {
        let t = clustered(2000);
        let mut s = make(
            TupleOnly,
            StrategyParams::default().with_buffer_fraction(0.1),
        );
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
        let mut s = make(TupleOnly, StrategyParams::default());
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
        let mut s = make(
            TupleOnly,
            StrategyParams::default().with_buffer_fraction(0.1),
        );
        let mut dev = SimDevice::hdd(0);
        let labels = s.next_epoch(&t, &mut dev).label_sequence();
        let head_neg = labels[..600].iter().filter(|&&l| l < 0.0).count();
        assert!(
            head_neg > 550,
            "head must remain ~all negative: {head_neg}/600"
        );
    }

    #[test]
    fn full_coverage_emits_each_tuple_once() {
        let t = clustered(800);
        let mut s = make(CorgiPile, StrategyParams::default());
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
        let mut s = make(CorgiPile, p).with_sample_mode(BlockSampleMode::SampleN);
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
        let mut s = make(
            CorgiPile,
            StrategyParams::default().with_buffer_fraction(0.2),
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
        let mut s = make(
            CorgiPile,
            StrategyParams::default().with_buffer_fraction(0.3),
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
        let mut s = make(CorgiPile, StrategyParams::default());
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
        let mut cp = make(CorgiPile, StrategyParams::default());
        let mut d1 = SimDevice::ssd(0);
        let cp_io = cp.next_epoch(&t, &mut d1).io_seconds();
        let mut ns = make(NoShuffle, StrategyParams::default());
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
        let mut s = make(
            CorgiPile,
            StrategyParams::default().with_buffer_fraction(0.2),
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
            .find(|(name, _)| name == "shuffle.fill.sim_seconds")
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
        let mut s = make(CorgiPile, StrategyParams::default());
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
        let mut s = make(
            CorgiPile,
            StrategyParams::default().with_buffer_fraction(1.0),
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

    #[test]
    fn emits_each_tuple_once_per_epoch() {
        let t = clustered(900);
        let mut s = make(BlockReversal, StrategyParams::default());
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
        let mut s = make(BlockReversal, StrategyParams::default().with_seed(4));
        let mut dev = SimDevice::hdd(0);
        let e0 = s.next_epoch(&t, &mut dev);
        let e1 = s.next_epoch(&t, &mut dev);
        let first_of =
            |p: &EpochPlan| -> Vec<u64> { p.segments.iter().map(|s| s.tuples[0].id).collect() };
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
        let mut s = make(BlockReversal, StrategyParams::default());
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
        let mut rev = make(BlockReversal, StrategyParams::default());
        let mut d1 = SimDevice::hdd(0);
        let rev_io = rev.next_epoch(&t, &mut d1).io_seconds();
        let mut blk = make(BlockOnly, StrategyParams::default());
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
        let mut s = make(BlockReversal, StrategyParams::default().with_seed(9));
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

    #[test]
    fn epochs_cover_all_tuples_and_reset_replays() {
        let t = clustered(1200);
        let mut s = make(Corgi2, StrategyParams::default().with_seed(5));
        let mut dev = SimDevice::hdd_scaled(1000.0, 0);
        let plan = s.next_epoch(&t, &mut dev);
        assert!(plan.setup_seconds > 0.0, "epoch 0 pays the recluster pass");
        let mut ids = plan.id_sequence();
        ids.sort_unstable();
        assert_eq!(ids, (0..1200).collect::<Vec<_>>());
        let second = s.next_epoch(&t, &mut dev);
        assert_eq!(second.setup_seconds, 0.0, "setup charged once");

        let first_ids = plan.id_sequence();
        s.reset();
        let mut dev2 = SimDevice::hdd_scaled(1000.0, 0);
        let replay = s.next_epoch(&t, &mut dev2);
        assert_eq!(first_ids, replay.id_sequence());
    }

    #[test]
    fn setup_stays_under_the_budget_fraction_of_shuffle_once() {
        let t = clustered(4000);
        let mut s = make(
            Corgi2,
            StrategyParams::default().with_io_budget(0.25).with_seed(5),
        );
        let mut dev = SimDevice::hdd_scaled(1000.0, 0);
        let plan = s.next_epoch(&t, &mut dev);
        let full = full_shuffle_seconds(dev.profile(), t.total_bytes());
        assert!(
            plan.setup_seconds <= 0.25 * full + 1e-12,
            "setup {} over budget {}",
            plan.setup_seconds,
            0.25 * full
        );
    }

    #[test]
    fn streams_mix_labels_better_than_plain_corgipile_on_clustered_data() {
        // With a tiny online buffer (one block per fill: no cross-block
        // mixing from the tuple shuffle), the offline pass is the only
        // mixing force — label uniformity must improve over plain
        // CorgiPile under the same buffer.
        let t = clustered(4000);
        let params = StrategyParams::default()
            .with_buffer_fraction(0.02)
            .with_io_budget(0.5)
            .with_seed(11);
        let mut dev = SimDevice::hdd_scaled(1000.0, 0);
        let mut c2 = make(Corgi2, params.clone());
        let labels_c2 = c2.next_epoch(&t, &mut dev).label_sequence();
        let mut cp = make(CorgiPile, params);
        let labels_cp = cp.next_epoch(&t, &mut dev).label_sequence();
        let score_c2 = crate::diagnostics::label_uniformity_score(&labels_c2, 50);
        let score_cp = crate::diagnostics::label_uniformity_score(&labels_cp, 50);
        assert!(
            score_c2 < score_cp,
            "corgi2 {score_c2} should mix better than corgipile {score_cp}"
        );
    }
}
