//! The strategy trait, shared parameters, and the factory.

use crate::blocks::BlockStrategy;
use crate::fill::{EpochStream, Fill};
use crate::mrs::MrsShuffle;
use crate::plan::{EpochOrder, EpochPlan, Segment};
use crate::sliding_window::SlidingWindowShuffle;
use corgipile_storage::{splitmix64, SimDevice, StorageError, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Parameters shared by buffered strategies.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyParams {
    /// In-memory buffer size as a fraction of the data set (paper default
    /// 10 %, §7.1.4). Applies to Sliding-Window, MRS and CorgiPile.
    pub buffer_fraction: f64,
    /// RNG seed driving all of the strategy's random choices.
    pub seed: u64,
    /// Corgi²'s offline re-clustering budget, as a fraction of a full
    /// offline shuffle's I/O cost (Livne et al. 2023). Only
    /// [`StrategyKind::Corgi2`] reads it.
    pub io_budget: f64,
}

impl Default for StrategyParams {
    fn default() -> Self {
        StrategyParams {
            buffer_fraction: 0.10,
            seed: 0xC0491,
            io_budget: 0.25,
        }
    }
}

impl StrategyParams {
    /// Override the buffer fraction.
    pub fn with_buffer_fraction(mut self, f: f64) -> Self {
        assert!(f > 0.0 && f <= 1.0, "buffer fraction must be in (0, 1]");
        self.buffer_fraction = f;
        self
    }

    /// Override Corgi²'s offline re-clustering I/O budget.
    pub fn with_io_budget(mut self, f: f64) -> Self {
        assert!(f > 0.0 && f <= 1.0, "io budget must be in (0, 1]");
        self.io_budget = f;
        self
    }

    /// Override the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Buffer capacity in tuples for a given table.
    pub fn buffer_tuples(&self, table: &Table) -> usize {
        ((table.num_tuples() as f64 * self.buffer_fraction).round() as usize).max(1)
    }

    /// Buffer capacity in blocks for a given table (CorgiPile's `n`).
    pub fn buffer_blocks(&self, table: &Table) -> usize {
        ((table.num_blocks() as f64 * self.buffer_fraction).round() as usize)
            .clamp(1, table.num_blocks().max(1))
    }
}

/// The block-order stream of every strategy that draws one — the SQL
/// scan's: seeded `seed ⊕ 0xB50F`, advanced once per epoch.
pub(crate) fn block_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0xB5_0F)
}

/// The key-sort salt of `epoch` under `seed` ([`crate::Rank::Key`]).
pub(crate) fn epoch_salt(seed: u64, epoch: u64) -> u64 {
    splitmix64((seed ^ 0x70_5F).wrapping_add(epoch.wrapping_mul(0x9E37_79B9)))
}

/// The table id a library run gives a strategy's copy of `table`; the SQL
/// engine hands out catalog ids instead.
pub(crate) fn copy_id(table: &Table) -> u32 {
    table.config().table_id | 0xC000_0000
}

/// A per-epoch order generator.
///
/// Per epoch a strategy yields its one-off setup ([`ShuffleStrategy::setup`])
/// and its [`EpochOrder`] ([`ShuffleStrategy::next_order`]): the blocks to
/// read, how each read is charged, where the fills end and how a fill's rows
/// are ranked. Generating an order reads nothing, so a resumed run
/// regenerates the orders it skips. The rows themselves move through the
/// one fill ([`crate::fill`]).
///
/// `Send` is a supertrait so a boxed strategy can move (or be mutably
/// borrowed) into the producer thread of the double-buffered pipeline.
pub trait ShuffleStrategy: Send {
    /// Short machine-friendly name ("corgipile", "no_shuffle", …).
    fn name(&self) -> &'static str;

    /// The one-off work before the next epoch's fills, charged to `dev`:
    /// Shuffle Once's shuffled copy and Corgi²'s recluster (the first epoch
    /// after a reset), Epoch Shuffle's fresh shuffled copy (every epoch); a
    /// copy's table id comes from `copy_id`. Returns its simulated seconds;
    /// a block that stays unreadable is its [`StorageError::ReadFailed`].
    fn setup(
        &mut self,
        _table: &Table,
        _copy_id: &dyn Fn() -> u32,
        _dev: &mut SimDevice,
    ) -> Result<f64, StorageError> {
        Ok(0.0)
    }

    /// The copy [`ShuffleStrategy::setup`] made, which the fills read
    /// instead of the table.
    fn copy(&self) -> Option<Arc<Table>> {
        None
    }

    /// The next epoch's order over `table` — the table the fills read —
    /// into `order`.
    fn next_order(&mut self, table: &Table, order: &mut EpochOrder);

    /// One epoch through the fill, copied out into an [`EpochPlan`]: the
    /// convenience for devices without a fault plan (order diagnostics,
    /// benchmarks).
    ///
    /// # Panics
    ///
    /// When a block stays unreadable. A device that can fault trains
    /// through `corgipile_core::Trainer`.
    fn next_epoch(&mut self, table: &Table, dev: &mut SimDevice) -> EpochPlan {
        let mut segments = Vec::new();
        let keep = |fill: &mut Fill| {
            let tuples = fill.batch.rows().map(|r| r.to_tuple()).collect();
            segments.push(Segment::new(tuples, fill.sim_seconds));
            true
        };
        let (mut stream, mut out) = (EpochStream::new(self, table, "shuffle"), Fill::default());
        let setup_seconds = stream
            .start(dev)
            .and_then(|setup| {
                stream.fill_epoch(dev, &mut out, &|| false, &mut Vec::new(), keep)?;
                Ok(setup)
            })
            .expect("next_epoch is for devices that cannot fault");
        EpochPlan {
            segments,
            setup_seconds,
        }
    }

    /// In-memory buffer requirement in tuples (Table 1's "In-memory buffer").
    fn buffer_tuples(&self, _table: &Table) -> usize {
        0
    }

    /// Additional disk space as a multiple of the data set (Table 1's
    /// "Additional Disk Space": 1.0 = none, 2.0 = doubles storage).
    fn disk_space_factor(&self) -> f64 {
        1.0
    }

    /// Reset to the pre-epoch-0 state (new seed-deterministic run).
    fn reset(&mut self);
}

/// Identifiers for the strategies (used by configs, SQL, and reports).
///
/// This enum is the single source of truth shared by the shuffle crate,
/// the trainer, and the SQL surface (`corgipile_db` re-exports it);
/// parse/display/capability predicates all live here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum StrategyKind {
    /// §3.2 — sequential scan, no randomness.
    NoShuffle,
    /// §3.1 — one offline full shuffle, then sequential scans.
    ShuffleOnce,
    /// §3.1 — full shuffle before every epoch.
    EpochShuffle,
    /// §3.3 — TensorFlow's sliding-window sampling.
    SlidingWindow,
    /// §3.4 — Bismarck's multiplexed reservoir sampling.
    Mrs,
    /// §7.3 — CorgiPile without the tuple-level shuffle.
    BlockOnly,
    /// Ablation: CorgiPile without the *block*-level shuffle (sequential
    /// block reads + in-buffer tuple shuffle only).
    TupleOnly,
    /// §4 — the paper's two-level hierarchical shuffle.
    CorgiPile,
    /// Corgi² (Livne et al. 2023) — bounded-I/O offline partial
    /// re-clustering, then CorgiPile online.
    Corgi2,
    /// "Learning to Shuffle"-style epoch-indexed block-order
    /// rotation/reversal at near-sequential I/O cost.
    BlockReversal,
}

impl StrategyKind {
    /// All kinds, in the paper's presentation order (the two ablations
    /// before the full algorithm, the post-paper hybrids last).
    pub fn all() -> [StrategyKind; 10] {
        [
            StrategyKind::NoShuffle,
            StrategyKind::ShuffleOnce,
            StrategyKind::EpochShuffle,
            StrategyKind::SlidingWindow,
            StrategyKind::Mrs,
            StrategyKind::BlockOnly,
            StrategyKind::TupleOnly,
            StrategyKind::CorgiPile,
            StrategyKind::Corgi2,
            StrategyKind::BlockReversal,
        ]
    }

    /// Display name matching the paper's figures.
    pub fn display(&self) -> &'static str {
        match self {
            StrategyKind::NoShuffle => "No Shuffle",
            StrategyKind::ShuffleOnce => "Shuffle Once",
            StrategyKind::EpochShuffle => "Epoch Shuffle",
            StrategyKind::SlidingWindow => "Sliding-Window Shuffle",
            StrategyKind::Mrs => "MRS Shuffle",
            StrategyKind::BlockOnly => "Block-Only Shuffle",
            StrategyKind::TupleOnly => "Tuple-Only Shuffle",
            StrategyKind::CorgiPile => "CorgiPile",
            StrategyKind::Corgi2 => "Corgi²",
            StrategyKind::BlockReversal => "Block-Reversal Shuffle",
        }
    }

    /// Short machine-friendly name: the canonical SQL spelling and the
    /// [`ShuffleStrategy::name`] of the built strategy.
    pub fn name(&self) -> &'static str {
        match self {
            StrategyKind::NoShuffle => "no_shuffle",
            StrategyKind::ShuffleOnce => "shuffle_once",
            StrategyKind::EpochShuffle => "epoch_shuffle",
            StrategyKind::SlidingWindow => "sliding_window",
            StrategyKind::Mrs => "mrs",
            StrategyKind::BlockOnly => "block_only",
            StrategyKind::TupleOnly => "tuple_only",
            StrategyKind::CorgiPile => "corgipile",
            StrategyKind::Corgi2 => "corgi2",
            StrategyKind::BlockReversal => "block_reversal",
        }
    }

    /// Parse a machine name (as produced by [`StrategyKind::name`]) back
    /// into a kind. Case-insensitive; the historical SQL short spellings
    /// `no` and `once` are accepted as aliases. `None` for unknown names.
    pub fn from_name(name: &str) -> Option<StrategyKind> {
        let lower = name.to_ascii_lowercase();
        match lower.as_str() {
            "no" => return Some(StrategyKind::NoShuffle),
            "once" => return Some(StrategyKind::ShuffleOnce),
            _ => {}
        }
        StrategyKind::all().into_iter().find(|k| k.name() == lower)
    }

    /// Whether the strategy buffers tuples in memory and re-shuffles them
    /// there (CorgiPile's second level). Decides whether the query plan
    /// needs a TupleShuffle operator above the scan.
    pub fn is_tuple_buffered(&self) -> bool {
        matches!(
            self,
            StrategyKind::CorgiPile | StrategyKind::TupleOnly | StrategyKind::Corgi2
        )
    }

    /// Whether the SQL surface accepts this kind for `TRAIN … WITH
    /// strategy = …`. The paper-comparison baselines (MRS, sliding-window,
    /// epoch shuffle) exist for bench parity only and are not plannable.
    pub fn available_in_db(&self) -> bool {
        !matches!(
            self,
            StrategyKind::Mrs | StrategyKind::SlidingWindow | StrategyKind::EpochShuffle
        )
    }

    /// Whether each epoch reads the blocks in a fresh random order: random
    /// block reads, the ones a buffer pool serves.
    pub fn permutes_blocks(&self) -> bool {
        matches!(
            self,
            StrategyKind::BlockOnly | StrategyKind::CorgiPile | StrategyKind::Corgi2
        )
    }

    /// `EXPLAIN`'s wording of this strategy's scan over `blocks` blocks.
    pub fn scan_wording(&self, blocks: usize) -> String {
        let (order, of) = match self {
            StrategyKind::CorgiPile | StrategyKind::BlockOnly => ("random order", ""),
            StrategyKind::ShuffleOnce => ("sequential", " of the shuffled copy"),
            StrategyKind::Corgi2 => ("random order", " of the reclustered copy"),
            StrategyKind::BlockReversal => ("rotated/reversed near-sequential", ""),
            _ => ("sequential", ""),
        };
        format!("{order} over {blocks} blocks{of}")
    }

    /// `EXPLAIN`'s note on the one-off setup the strategy pays, if any.
    pub fn setup_note(&self) -> Option<&'static str> {
        match self {
            StrategyKind::ShuffleOnce => {
                Some("(setup: offline full shuffle, ORDER BY RANDOM(), 2x storage)")
            }
            StrategyKind::Corgi2 => Some("(setup: bounded RECLUSTER, io_budget x full shuffle)"),
            _ => None,
        }
    }

    /// `EXPLAIN ANALYZE`'s name of the strategy's scan node.
    pub fn scan_node(&self) -> &'static str {
        match self {
            _ if self.permutes_blocks() => "BlockShuffle",
            StrategyKind::BlockReversal => "BlockReversalScan",
            _ => "SeqScan",
        }
    }
}

impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.display())
    }
}

/// Build a boxed strategy of the given kind.
pub fn build_strategy(kind: StrategyKind, params: StrategyParams) -> Box<dyn ShuffleStrategy> {
    match kind {
        StrategyKind::SlidingWindow => Box::new(SlidingWindowShuffle::new(params)),
        StrategyKind::Mrs => Box::new(MrsShuffle::new(params)),
        kind => Box::new(BlockStrategy::new(kind, params)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corgipile_data::DatasetSpec;

    fn small_table() -> Table {
        DatasetSpec::higgs_like(400)
            .with_block_bytes(4 * 8192)
            .build_table(1)
            .unwrap()
    }

    #[test]
    fn params_buffer_sizing() {
        let t = small_table();
        let p = StrategyParams::default().with_buffer_fraction(0.1);
        assert_eq!(p.buffer_tuples(&t), 40);
        assert!(p.buffer_blocks(&t) >= 1);
        assert!(p.buffer_blocks(&t) <= t.num_blocks());
    }

    #[test]
    #[should_panic(expected = "buffer fraction")]
    fn zero_buffer_fraction_rejected() {
        let _ = StrategyParams::default().with_buffer_fraction(0.0);
    }

    #[test]
    fn factory_builds_all_kinds_and_they_stream_everything() {
        let t = small_table();
        for kind in StrategyKind::all() {
            let mut s = build_strategy(kind, StrategyParams::default().with_seed(3));
            let mut dev = SimDevice::hdd(0);
            let plan = s.next_epoch(&t, &mut dev);
            // Every strategy visits all tuples once per epoch (MRS's looping
            // buffer trades duplicates for skips but keeps the count).
            assert_eq!(
                plan.num_tuples() as u64,
                t.num_tuples(),
                "{kind}: wrong stream length"
            );
            assert!(dev.stats().io_seconds > 0.0, "{kind}: no I/O charged");
        }
    }

    #[test]
    fn strategies_are_seed_deterministic_across_reset() {
        let t = small_table();
        for kind in StrategyKind::all() {
            let mut s = build_strategy(kind, StrategyParams::default().with_seed(11));
            let mut dev = SimDevice::hdd(0);
            let a = s.next_epoch(&t, &mut dev).id_sequence();
            s.reset();
            let mut dev2 = SimDevice::hdd(0);
            let b = s.next_epoch(&t, &mut dev2).id_sequence();
            assert_eq!(a, b, "{kind}: reset should replay the same stream");
        }
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(StrategyKind::CorgiPile.to_string(), "CorgiPile");
        assert_eq!(StrategyKind::Mrs.to_string(), "MRS Shuffle");
        assert_eq!(StrategyKind::Corgi2.to_string(), "Corgi²");
        assert_eq!(StrategyKind::all().len(), 10);
    }

    #[test]
    fn machine_names_round_trip() {
        for kind in StrategyKind::all() {
            assert_eq!(StrategyKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(
            StrategyKind::from_name("CORGIPILE"),
            Some(StrategyKind::CorgiPile)
        );
        assert_eq!(StrategyKind::from_name("bogus"), None);
        assert_eq!(StrategyKind::from_name(""), None);
    }

    #[test]
    fn capability_predicates() {
        assert!(StrategyKind::CorgiPile.is_tuple_buffered());
        assert!(StrategyKind::Corgi2.is_tuple_buffered());
        assert!(StrategyKind::TupleOnly.is_tuple_buffered());
        assert!(!StrategyKind::BlockOnly.is_tuple_buffered());
        assert!(!StrategyKind::BlockReversal.is_tuple_buffered());
        assert!(StrategyKind::Corgi2.available_in_db());
        assert!(StrategyKind::BlockReversal.available_in_db());
        assert!(!StrategyKind::Mrs.available_in_db());
        assert!(!StrategyKind::SlidingWindow.available_in_db());
        assert!(!StrategyKind::EpochShuffle.available_in_db());
    }

    #[test]
    fn built_strategy_names_match_kind_names() {
        for kind in StrategyKind::all() {
            let s = build_strategy(kind, StrategyParams::default());
            assert_eq!(s.name(), kind.name(), "{kind}");
        }
    }
}
