//! Volcano-style physical operators (§6.2).
//!
//! The paper integrates CorgiPile into PostgreSQL with three new physical
//! operators chained into a pull-based pipeline:
//!
//! ```text
//!   SGD  ←pull─  TupleShuffle  ←pull─  BlockShuffle  ←read─  heap table
//! ```
//!
//! * [`BlockShuffleOp`] shuffles the block ids (`ExecInit`/`ExecReScan`)
//!   and returns tuples of each block in turn (random block reads); with
//!   [`ScanOrder::Sequential`] it degenerates into PostgreSQL's `SeqScan`,
//!   which the No-Shuffle baselines use.
//! * [`TupleShuffleOp`] buffers pulled tuples up to its capacity, shuffles
//!   the buffer (like PostgreSQL's `Sort` materialization), then emits —
//!   narrow rows copied, in SGD order, into the recycled slab of the batch
//!   it is handed — recording per-fill loading costs so the §6.3
//!   double-buffering overlap can be accounted.
//! * [`SgdOperator`] owns the model; each epoch it pulls every tuple,
//!   applies per-tuple or mini-batch updates, then calls `rescan` down the
//!   pipeline (PostgreSQL's re-scan mechanism, as in `NestedLoopJoin`'s
//!   inner plan) to reshuffle and re-read for the next epoch.
//!
//! What moves between them is a [`RowBatch`]: heap pages pinned by `Arc`
//! plus one 8-byte [`RowRef`] per admitted row. Below the buffer, and above
//! it for rows wider than a kilobyte, the pages are the table's own, read in
//! place by the predicate, the key sort and both kernels (a projection
//! builds one page of the selected columns per block); a fill of narrow rows
//! is one page the batch owns alone, its rows `0..n` in SGD order.

use crate::error::DbError;
use crate::plan::feature_list;
use crate::sql::Predicate;
use corgipile_core::trainer::evaluate;
use corgipile_core::{EpochDriver, EpochIo, EpochOutcome, EpochSink, EpochSource, Fill, TupleSeq};
use corgipile_data::rng::{rank_by_key, shuffle_in_place};
use corgipile_ml::{ComputeCostModel, Model, Optimizer, TrainCheckpoint, TrainOptions};
use corgipile_shuffle::{BlockReversalShuffle, StrategyParams};
use corgipile_storage::{
    splitmix64, Access, BlockHandle, Counter, DeviceHandle, FeatureView, Page, PipelineReport,
    PoolHandle, RetryPolicy, SimDevice, SpanSite, Table, Telemetry, TupleView,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::ControlFlow;
use std::sync::Arc;

/// What the executor does when a block read fails even after retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultAction {
    /// Abort the query with the storage error (PostgreSQL's default).
    #[default]
    Fail,
    /// Skip the dead block, record it, and keep training on the rest —
    /// graceful degradation for long-running jobs on failing media.
    SkipBlock,
}

/// Execution context threaded through the operator tree.
///
/// Device and pool access goes through per-connection handles
/// ([`corgipile_storage::DeviceHandle`] / [`corgipile_storage::PoolHandle`]): the handles carry this session's
/// fault plan and telemetry onto the shared engine state for the duration
/// of each access, and their local stats expose only this query's I/O.
pub struct ExecContext<'a> {
    /// This connection's view of the storage device (simulated clock +
    /// OS cache).
    pub dev: &'a mut DeviceHandle,
    /// Loading cost of each buffer fill in the current epoch, pushed by the
    /// operator directly below `SGD`.
    pub fill_io: Vec<f64>,
    /// This connection's view of the engine's buffer pool, if the engine
    /// has one (`Database::with_shared_buffers`). Random block reads go
    /// through it; sequential scans bypass it, like PostgreSQL's
    /// ring-buffer strategy for large seqscans.
    pub pool: Option<&'a mut PoolHandle>,
    /// Retry policy applied to every block read; backoff is charged to the
    /// simulated clock.
    pub retry: RetryPolicy,
    /// Degradation policy once the retry budget is exhausted.
    pub on_fault: FaultAction,
    /// Blocks skipped this epoch under [`FaultAction::SkipBlock`]; the
    /// `SGD` operator drains this into its per-epoch record.
    pub skipped_blocks: Vec<usize>,
    /// Observability handle: operators record buffer-fill spans and
    /// per-epoch events through it. Disabled by default, in which case
    /// every emission is a no-op.
    pub telemetry: Telemetry,
}

impl<'a> ExecContext<'a> {
    /// Create a context over a device handle, without a buffer pool.
    pub fn new(dev: &'a mut DeviceHandle) -> Self {
        let telemetry = dev.telemetry().clone();
        ExecContext {
            dev,
            fill_io: Vec::new(),
            pool: None,
            retry: RetryPolicy::default(),
            on_fault: FaultAction::default(),
            skipped_blocks: Vec::new(),
            telemetry,
        }
    }
}

/// Actual per-operator execution statistics, collected for
/// `EXPLAIN ANALYZE` — PostgreSQL's "actual rows / loops" annotations plus
/// the simulated-I/O dimensions the paper's figures are built from.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpStats {
    /// Operator name as reported by [`PhysicalOperator::name`].
    pub name: String,
    /// Depth in the plan tree (0 = root).
    pub depth: usize,
    /// Tuples emitted (summed over all loops/epochs).
    pub rows: u64,
    /// Number of scans: one `init` plus one per `rescan` (epochs).
    pub loops: u64,
    /// Simulated I/O seconds attributed to this operator.
    pub io_seconds: f64,
    /// SGD compute seconds (root operator only).
    pub compute_seconds: f64,
    /// Block fetches issued (device reads, cache hits and skipped blocks).
    pub blocks_read: u64,
    /// Block fetches served by the buffer pool or the OS page cache.
    pub cache_hits: u64,
    /// Retry attempts spent recovering this operator's reads.
    pub retries: u64,
    /// Blocks abandoned under [`FaultAction::SkipBlock`].
    pub skipped_blocks: u64,
    /// Buffer fills performed (TupleShuffle).
    pub fills: u64,
    /// Tuples buffered across all fills (TupleShuffle).
    pub buffered_tuples: u64,
    /// Batches emitted by a batch-at-a-time node (fused pipelines report
    /// their per-batch actuals here).
    pub batches: u64,
    /// Fraction of the serial (single-buffer) epoch time saved by
    /// overlapping loading with compute (SGD root only; 0 when the plan ran
    /// without double buffering or there was nothing to overlap).
    pub overlap_ratio: f64,
    /// Tuples dropped by this operator's predicate (PostgreSQL's
    /// "Rows Removed by Filter").
    pub rows_filtered: u64,
    /// Rendered predicate evaluated at this node, if any.
    pub predicate: Option<String>,
    /// Rendered projection applied at this node, if any.
    pub projection: Option<String>,
}

impl OpStats {
    /// Fraction of block fetches served from a cache tier (0 when idle).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.blocks_read == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.blocks_read as f64
        }
    }

    /// One `EXPLAIN ANALYZE` plan line, indented by depth.
    pub fn render(&self) -> String {
        let mut line = format!(
            "{}{}{} (actual rows={} loops={} io={:.6}s",
            "  ".repeat(self.depth),
            if self.depth > 0 { "-> " } else { "" },
            self.name,
            self.rows,
            self.loops,
            self.io_seconds,
        );
        if self.compute_seconds > 0.0 {
            line.push_str(&format!(" compute={:.6}s", self.compute_seconds));
        }
        if self.overlap_ratio > 0.0 {
            line.push_str(&format!(" overlap={:.1}%", 100.0 * self.overlap_ratio));
        }
        if self.blocks_read > 0 {
            line.push_str(&format!(
                " blocks={} cache_hit_rate={:.1}% retries={}",
                self.blocks_read,
                100.0 * self.cache_hit_rate(),
                self.retries,
            ));
        }
        if self.skipped_blocks > 0 {
            line.push_str(&format!(" skipped_blocks={}", self.skipped_blocks));
        }
        if self.fills > 0 {
            line.push_str(&format!(
                " fills={} buffered_tuples={}",
                self.fills, self.buffered_tuples
            ));
        }
        if self.batches > 0 {
            line.push_str(&format!(" batches={}", self.batches));
        }
        line.push(')');
        line
    }

    /// The node line plus PostgreSQL-style sub-lines (`Output:`, `Filter:`,
    /// `Rows Removed by Filter:`), indented under the node.
    pub fn render_lines(&self) -> Vec<String> {
        let mut lines = vec![self.render()];
        // Sub-lines align with the node name, past the "-> " arrow.
        let pad = " ".repeat(2 * self.depth + if self.depth > 0 { 5 } else { 2 });
        if let Some(p) = &self.projection {
            lines.push(format!("{pad}Output: {p}"));
        }
        if let Some(p) = &self.predicate {
            lines.push(format!("{pad}Filter: ({p})"));
            lines.push(format!(
                "{pad}Rows Removed by Filter: {}",
                self.rows_filtered
            ));
        }
        lines
    }
}

/// One row of a [`RowBatch`]: which of its pinned pages, which slot on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowRef {
    page: u32,
    slot: u32,
}

/// The executor's one batch type: pinned pages (one `Arc` bump per page,
/// none per row) and the [`RowRef`]s of a run of their rows, in consumption
/// order. [`RowBatch::clear`] keeps both allocations for the next refill. A
/// batch a [`TupleShuffleOp`] copied narrow rows into holds one page nobody
/// else does — its slab, found again by that test and overwritten in place
/// when the batch comes back to be refilled.
#[derive(Debug, Default)]
pub struct RowBatch {
    pages: Vec<Arc<Page>>,
    pub(crate) rows: Vec<RowRef>,
}

impl RowBatch {
    /// Every row of `table` the scan qualifiers admit, in table order, read
    /// without charging a device: the view `TRAIN` computes its metrics over.
    pub fn scan(
        table: &Table,
        predicate: Option<&Predicate>,
        projection: Option<&[usize]>,
    ) -> Result<RowBatch, DbError> {
        let mut out = RowBatch::default();
        out.rows.reserve(table.num_tuples() as usize);
        for block in 0..table.num_blocks() {
            scan_block(&table.block_handle(block)?, predicate, projection, &mut out);
        }
        Ok(out)
    }

    /// Drop all rows and pins but keep the backing allocations.
    pub fn clear(&mut self) {
        self.pages.clear();
        self.rows.clear();
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the batch holds no row.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The row behind a handle of this batch.
    pub(crate) fn row(&self, r: RowRef) -> TupleView<'_> {
        self.pages[r.page as usize].row(r.slot as usize)
    }

    /// Empty the batch down to one page nobody else holds — the slab of its
    /// last fill, or a fresh one — and hand that page out to copy a fill into.
    fn slab(&mut self) -> &mut Page {
        self.pages.truncate(1);
        if self.pages.first_mut().and_then(Arc::get_mut).is_none() {
            self.pages.clear();
            self.pages.push(Arc::new(Page::new()));
        }
        Arc::get_mut(&mut self.pages[0]).expect("held by this batch alone: just checked, or new")
    }

    /// Pin `page` and append the rows `keep` lets through, in slot order.
    fn push_page(&mut self, page: &Arc<Page>, keep: Option<&Predicate>) {
        let (index, before) = (self.pages.len() as u32, self.rows.len());
        for slot in 0..page.tuple_count() as u32 {
            if keep.is_none_or(|p| p.matches(page.row(slot as usize))) {
                self.rows.push(RowRef { page: index, slot });
            }
        }
        if self.rows.len() > before {
            self.pages.push(Arc::clone(page));
        }
    }

    /// Append row `r` of `src`, pinning its page if the last push did not.
    pub(crate) fn push_from(&mut self, src: &RowBatch, r: RowRef) {
        let page = &src.pages[r.page as usize];
        if !self.pages.last().is_some_and(|p| Arc::ptr_eq(p, page)) {
            self.pages.push(Arc::clone(page));
        }
        self.rows.push(RowRef {
            page: self.pages.len() as u32 - 1,
            slot: r.slot,
        });
    }

    /// The rows a page at a time: each pinned page with the handles of its rows.
    fn runs(&self) -> impl Iterator<Item = (&Page, &[RowRef])> + Clone {
        let runs = self.rows.chunk_by(|a, b| a.page == b.page);
        runs.map(|run| (&*self.pages[run[0].page as usize], run))
    }
}

impl TupleSeq for RowBatch {
    fn rows(&self) -> impl Iterator<Item = TupleView<'_>> + Clone {
        self.rows.iter().map(|&r| self.row(r))
    }
}

/// The engine's one filter and one projection. Appends the rows of `block`
/// that `filter` admits to `out` — in place, or, under a projection, from
/// one fresh page of their selected columns — and returns how many it dropped.
pub(crate) fn scan_block(
    block: &BlockHandle,
    filter: Option<&Predicate>,
    projection: Option<&[usize]>,
    out: &mut RowBatch,
) -> u64 {
    let admits = |row: &TupleView<'_>| filter.is_none_or(|p| p.matches(*row));
    let before = out.len();
    match projection {
        None => block.pages().iter().for_each(|p| out.push_page(p, filter)),
        Some(cols) => {
            let mut projected: Option<Page> = None;
            let mut values = Vec::with_capacity(cols.len());
            for row in block.rows().filter(admits) {
                values.clear();
                values.extend(cols.iter().map(|&i| row.features.get(i)));
                let row = TupleView {
                    features: FeatureView::Dense(&values),
                    ..row
                };
                projected
                    .get_or_insert_with(|| Page::new_jumbo(block.len() * (row.encoded_len() + 4)))
                    .push(row)
                    .expect("the page is sized for every row of the block");
            }
            if let Some(page) = projected {
                out.push_page(&Arc::new(page), None);
            }
        }
    }
    (block.len() - (out.len() - before)) as u64
}

/// A pull-based physical operator, batch-at-a-time.
///
/// The primary interface is [`PhysicalOperator::next_batch`]: the caller
/// hands down a reusable [`RowBatch`] and the operator refills it with the
/// next run of row handles, so the steady-state inner loop makes **one
/// virtual call per batch** instead of one per tuple (and, once capacities
/// are warm, zero allocations).
///
/// `Send` is a supertrait so a boxed plan can be mutably borrowed into the
/// producer thread of the double-buffered pipeline (see
/// [`SgdOperator::execute`]).
pub trait PhysicalOperator: Send {
    /// Operator name (for EXPLAIN-style output).
    fn name(&self) -> &'static str;
    /// Initialize state (PostgreSQL `ExecInit*`).
    fn init(&mut self, ctx: &mut ExecContext);
    /// Clear `out` and refill it with the next batch of tuples. Returns
    /// `Ok(false)` at end of stream; `Ok(true)` guarantees a non-empty
    /// `out`. Batch boundaries align with buffer fills (one batch per
    /// block read for scans, one per buffer fill for TupleShuffle), which
    /// is what the double-buffered pipeline hands producer→consumer and
    /// what the `fill_io` attribution keys on. Storage failures that
    /// survive the retry policy (and are not absorbed by
    /// [`FaultAction::SkipBlock`]) propagate as [`DbError::Storage`].
    fn next_batch(&mut self, ctx: &mut ExecContext, out: &mut RowBatch) -> Result<bool, DbError>;
    /// Append the surviving tuples of the next *source block* to `out`, or
    /// return `Ok(false)` when the scan is exhausted. Unlike
    /// [`PhysicalOperator::next_batch`], a fully filtered (or dead, skipped)
    /// block yields `Ok(true)` and appends **nothing**, so a buffering parent
    /// counting blocks sees identical fill boundaries whether a predicate ran
    /// below it or not — the invariant that makes filtering below the buffer
    /// an equivalence. Default: one `next_batch` per call, which replaces
    /// `out`'s rows (an append to an empty batch).
    fn next_block(&mut self, ctx: &mut ExecContext, out: &mut RowBatch) -> Result<bool, DbError> {
        self.next_batch(ctx, out)
    }
    /// Reset for another pass (PostgreSQL `ExecReScan*`); block orders are
    /// re-randomized.
    fn rescan(&mut self, ctx: &mut ExecContext);
    /// Release resources.
    fn close(&mut self, ctx: &mut ExecContext);
    /// Append this operator's actual stats (then its children's, one level
    /// deeper) for `EXPLAIN ANALYZE`. Default: report nothing.
    fn collect_stats(&self, depth: usize, out: &mut Vec<OpStats>) {
        let _ = (depth, out);
    }
}

/// Block visit order of the scan at the bottom of every plan. The two
/// `…Copy` orders read a copy the planner materialized before epoch 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanOrder {
    /// Stored block order (PostgreSQL `SeqScan`; No Shuffle / Tuple-Only).
    Sequential,
    /// Random block permutation per epoch (CorgiPile / Block-Only).
    RandomBlocks,
    /// Sequential over an offline-shuffled copy (`strategy = 'once'`,
    /// the MADlib `ORDER BY RANDOM()` baseline; pays a one-off setup).
    SequentialShuffledCopy,
    /// Random blocks over a bounded-I/O partially re-clustered copy
    /// (Corgi²; pays `io_budget × full-shuffle` as a one-off setup).
    ReclusteredCopy,
    /// Epoch-indexed rotation/reversal order (Block-Reversal): adjacent
    /// blocks stream sequentially, only discontinuities pay a seek.
    BlockReversal,
}

/// The `BlockShuffle` operator.
///
/// Owns the statement's `WHERE` predicate and column list, the way a
/// PostgreSQL scan evaluates its qualifiers (`scan_block`): the predicate
/// reads each row in place *before* its handle enters any buffer, so
/// filtered tuples never occupy TupleShuffle capacity or get projected.
pub struct BlockShuffleOp {
    table: Arc<Table>,
    scan: ScanOrder,
    seed: u64,
    rng: StdRng,
    order: Vec<usize>,
    next_block: usize,
    epoch: u64,
    predicate: Option<Predicate>,
    projection: Option<Vec<usize>>,
    initialized: bool,
    actuals: OpStats,
}

impl BlockShuffleOp {
    /// Create over a table.
    pub fn new(table: Arc<Table>, scan: ScanOrder, seed: u64) -> Self {
        BlockShuffleOp {
            table,
            scan,
            seed,
            rng: StdRng::seed_from_u64(seed ^ 0xB5_0F),
            order: Vec::new(),
            next_block: 0,
            epoch: 0,
            predicate: None,
            projection: None,
            initialized: false,
            actuals: OpStats::default(),
        }
    }

    /// Set the scan's predicate (evaluated on each row in place, before it
    /// is queued or buffered).
    pub fn with_predicate(mut self, predicate: Predicate) -> Self {
        self.predicate = Some(predicate);
        self
    }

    /// Set the scan's projection (feature column indices): surviving
    /// tuples are re-materialized over the selected columns.
    pub fn with_projection(mut self, columns: Vec<usize>) -> Self {
        self.projection = Some(columns);
        self
    }

    fn reshuffle(&mut self) {
        self.order.clear();
        match self.scan {
            ScanOrder::Sequential | ScanOrder::SequentialShuffledCopy => {
                self.order.extend(0..self.table.num_blocks())
            }
            ScanOrder::RandomBlocks | ScanOrder::ReclusteredCopy => {
                self.order.extend(0..self.table.num_blocks());
                shuffle_in_place(&mut self.rng, &mut self.order);
            }
            ScanOrder::BlockReversal => {
                // Same order the standalone strategy produces: a seeded
                // rotation, traversed in reverse on odd epochs.
                let n = self.table.num_blocks();
                let offset = if n > 0 { self.rng.gen_range(0..n) } else { 0 };
                self.order = BlockReversalShuffle::epoch_order(offset, self.epoch % 2 == 1, n);
            }
        }
        self.epoch += 1;
        self.next_block = 0;
    }

    /// Read the next block of the shuffled order, appending handles on its
    /// surviving rows to `out` (the pool and the device path hand back the
    /// same shared pages). Returns `Ok(false)` when no blocks remain; after
    /// a fully filtered or skipped dead block `out` may be left unchanged.
    fn load_next_block(
        &mut self,
        ctx: &mut ExecContext,
        out: &mut RowBatch,
    ) -> Result<bool, DbError> {
        if self.next_block >= self.order.len() {
            return Ok(false);
        }
        let block = self.order[self.next_block];
        let io_before = ctx.dev.stats().io_seconds;
        let hits_before =
            ctx.dev.stats().cache_hits + ctx.pool.as_ref().map_or(0, |p| p.stats().hits);
        let retries_before = ctx.dev.stats().retries;
        let table = &self.table;
        let retry = &ctx.retry;
        let first = self.next_block == 0;
        // What a device read of this block is charged as, and whether the
        // read goes through the buffer pool (whose misses are random block
        // reads). Random block reads do; sequential scans bypass it, like
        // PostgreSQL's ring buffer for large seqscans, and so does a
        // reversal scan, which streams adjacent blocks (either direction)
        // and seeks at the epoch start and the rotation wrap.
        let (access, pooled) = match self.scan {
            ScanOrder::Sequential | ScanOrder::SequentialShuffledCopy => {
                (Access::in_scan(first), false)
            }
            ScanOrder::RandomBlocks | ScanOrder::ReclusteredCopy => (Access::Random, true),
            ScanOrder::BlockReversal => {
                let seeks = first || self.order[self.next_block - 1].abs_diff(block) != 1;
                (Access::in_scan(seeks), false)
            }
        };
        let read = match ctx.pool.as_deref_mut().filter(|_| pooled) {
            Some(pool) => pool.read_block_retry(table, block, ctx.dev, retry),
            None => ctx.dev.with(|d| table.read(block, access, d, retry)),
        };
        self.next_block += 1;
        self.actuals.blocks_read += 1;
        let hits_after =
            ctx.dev.stats().cache_hits + ctx.pool.as_ref().map_or(0, |p| p.stats().hits);
        self.actuals.cache_hits += hits_after - hits_before;
        self.actuals.retries += ctx.dev.stats().retries - retries_before;
        let (predicate, projection) = (self.predicate.as_ref(), self.projection.as_deref());
        match read {
            Ok(rows) => self.actuals.rows_filtered += scan_block(&rows, predicate, projection, out),
            Err(e) if ctx.on_fault == FaultAction::SkipBlock && e.is_retryable() => {
                // Dead block after exhausted retries: degrade by moving
                // on, keeping the wasted retry time on the books.
                self.actuals.skipped_blocks += 1;
                ctx.skipped_blocks.push(block);
            }
            Err(e) => return Err(e.into()),
        }
        // Report the block read as a fill; a TupleShuffle above folds these
        // into its own per-buffer entries.
        let fill = ctx.dev.stats().io_seconds - io_before;
        ctx.fill_io.push(fill);
        self.actuals.io_seconds += fill;
        Ok(true)
    }
}

impl PhysicalOperator for BlockShuffleOp {
    fn name(&self) -> &'static str {
        "BlockShuffle"
    }

    fn init(&mut self, _ctx: &mut ExecContext) {
        self.rng = StdRng::seed_from_u64(self.seed ^ 0xB5_0F);
        self.epoch = 0;
        self.reshuffle();
        self.initialized = true;
        self.actuals.loops += 1;
    }

    fn next_batch(&mut self, ctx: &mut ExecContext, out: &mut RowBatch) -> Result<bool, DbError> {
        // One batch per block read that left a row: aligns each batch with
        // the `fill_io` entry its read pushed, which the pipelined SGD
        // consumer uses to attribute compute to fills.
        out.clear();
        while self.next_block(ctx, out)? {
            if !out.is_empty() {
                self.actuals.batches += 1;
                return Ok(true);
            }
        }
        Ok(false)
    }

    fn next_block(&mut self, ctx: &mut ExecContext, out: &mut RowBatch) -> Result<bool, DbError> {
        debug_assert!(self.initialized, "next_block() before init()");
        let before = out.len();
        if !self.load_next_block(ctx, out)? {
            return Ok(false);
        }
        // Unlike next_batch, a consumed block that appended nothing (fully
        // filtered, or dead and skipped) is reported as `Ok(true)`:
        // block-counting parents must see every source block.
        self.actuals.rows += (out.len() - before) as u64;
        Ok(true)
    }

    fn rescan(&mut self, _ctx: &mut ExecContext) {
        self.reshuffle();
        self.actuals.loops += 1;
    }

    fn close(&mut self, _ctx: &mut ExecContext) {
        self.order.clear();
        self.initialized = false;
    }

    fn collect_stats(&self, depth: usize, out: &mut Vec<OpStats>) {
        let mut stats = self.actuals.clone();
        stats.name = match self.scan {
            ScanOrder::Sequential | ScanOrder::SequentialShuffledCopy => "SeqScan",
            ScanOrder::RandomBlocks | ScanOrder::ReclusteredCopy => self.name(),
            ScanOrder::BlockReversal => "BlockReversalScan",
        }
        .to_string();
        stats.depth = depth;
        stats.predicate = self.predicate.as_ref().map(|p| p.to_string());
        stats.projection = self.projection.as_deref().map(feature_list);
        out.push(stats);
    }
}

/// The `TupleShuffle` operator.
///
/// Fill windows are counted in *source blocks* pulled via
/// [`PhysicalOperator::next_block`] (not in buffered tuples), and the
/// in-buffer shuffle orders tuples by a deterministic per-(seed, epoch,
/// tuple-id) hash key. Together these make the emitted stream invariant to
/// where a predicate runs: the scan's filter below the buffer and a filter
/// applied to the buffer's output see the same fill boundaries and the same
/// surviving order, so they train bit-identical models — while filtering
/// below buffers only survivors (`PostBufferFilter` in `proptests.rs`).
///
/// For narrow rows the buffer is a real one (§6.2): the index is ranked,
/// then the fill is copied once, in SGD order, into the slab of the batch
/// it leaves in, so the kernel streams its fill instead of chasing handles
/// across the window's pages. The pinned pages stay behind in a staging
/// batch that never leaves the producer.
pub struct TupleShuffleOp {
    child: Box<dyn PhysicalOperator>,
    capacity_blocks: usize,
    params: StrategyParams,
    epoch: u64,
    /// The fill window as scanned: pinned table pages and the handles of
    /// their admitted rows, in scan order. Never leaves the producer.
    staging: RowBatch,
    /// Sort scratch, kept across fills: a key per staged row, [`rank_by_key`]'s output.
    keys: Vec<u64>,
    order: Vec<u32>,
    rank: Vec<u32>,
    exhausted: bool,
    /// `db.tuple_shuffle.{fill, read, key, sort, copy}`, resolved by the first fill (DESIGN §9).
    spans: Option<[SpanSite; 5]>,
    actuals: OpStats,
}

/// Fills whose rows average more stored bytes than this are consumed in
/// place, on the table's pages: a row of many cache lines already streams,
/// and copying it doubles the traffic of a memory-bound statement. Narrower
/// rows are copied into the batch's slab (DESIGN.md §9 has the sweep).
const SLAB_ROW_BYTES: usize = 1024;

impl TupleShuffleOp {
    /// Buffer up to `capacity_blocks` source blocks' worth of surviving
    /// tuples per fill (the paper's buffered-block count, computed by the
    /// planner from `buffer_fraction`).
    pub fn new(
        child: Box<dyn PhysicalOperator>,
        capacity_blocks: usize,
        params: StrategyParams,
    ) -> Self {
        assert!(capacity_blocks >= 1, "buffer must hold at least one block");
        TupleShuffleOp {
            child,
            capacity_blocks,
            params,
            epoch: 0,
            staging: RowBatch::default(),
            keys: Vec::new(),
            order: Vec::new(),
            rank: Vec::new(),
            exhausted: false,
            spans: None,
            actuals: OpStats::default(),
        }
    }

    /// Pull one buffer window from the child, rank its rows into SGD order,
    /// leave the fill in `out` — narrow rows copied into `out`'s slab, wide
    /// ones as handles on the pinned pages — and record the fill cost into
    /// `ctx.fill_io`. A window whose blocks were all filtered out (or
    /// skipped as dead) merges into the next window rather than surfacing
    /// an empty fill; `out` is left empty at end of stream.
    fn refill(&mut self, ctx: &mut ExecContext, out: &mut RowBatch) -> Result<(), DbError> {
        let staging = &mut self.staging;
        staging.clear();
        out.rows.clear();
        // Child fills recorded below us are folded into our own entry.
        let fills_base = ctx.fill_io.len();
        let io_before = ctx.dev.stats().io_seconds;
        let site = |p| ctx.telemetry.span_site(&format!("db.tuple_shuffle.{p}"));
        let phases = ["fill", "read", "key", "sort", "copy"];
        let [fill, read, key, sort, copy] = &*self.spans.get_or_insert_with(|| phases.map(site));
        let (mut span, mut phase) = (fill.start(), read.start());
        while staging.is_empty() && !self.exhausted {
            for _ in 0..self.capacity_blocks {
                if !self.child.next_block(ctx, staging)? {
                    self.exhausted = true;
                    break;
                }
            }
        }
        ctx.fill_io.truncate(fills_base);
        let n = staging.len();
        if n == 0 {
            // End-of-stream probe, not a fill: record nothing.
            span.cancel();
            phase.cancel();
            return Ok(());
        }
        // Deterministic in-buffer shuffle: order by a per-(seed, epoch,
        // tuple-id) key from the staged pages' id columns. splitmix64 is
        // bijective, so any correct sort gives the same order, and filtering
        // below or above the buffer leaves the survivors' order unchanged.
        phase = phase.then(key);
        let salt = splitmix64(
            (self.params.seed ^ 0x70_5F).wrapping_add(self.epoch.wrapping_mul(0x9E37_79B9)),
        );
        let mut bytes = 0;
        self.keys.clear();
        self.keys.reserve(n);
        for (page, run) in staging.runs() {
            let (ids, slots) = (page.ids(), run.iter().map(|r| r.slot as usize));
            self.keys
                .extend(slots.clone().map(|s| splitmix64(salt ^ ids[s])));
            bytes += if run.len() == page.tuple_count() {
                page.used_bytes()
            } else {
                slots.map(|s| page.row(s).encoded_len()).sum()
            };
        }
        // Buffer copy + shuffle cost (§4.1 overheads), charged on what was
        // actually buffered — filtered scans pay only for survivors.
        ctx.dev.charge_seconds(self.params.buffering_cost(n, bytes));
        phase = phase.then(sort);
        rank_by_key(&self.keys, &mut self.order, &mut self.rank);
        let _copy = phase.then(copy);
        if bytes / n > SLAB_ROW_BYTES {
            out.rows
                .extend(self.order.iter().map(|&at| staging.rows[at as usize]));
            std::mem::swap(&mut out.pages, &mut staging.pages);
        } else {
            // Read the staged pages in sequence, write each row to its rank.
            let runs = staging
                .runs()
                .map(|(page, run)| (page, run.iter().map(|r| r.slot as usize)));
            out.slab().fill_ranked(runs, &self.rank);
            out.rows
                .extend((0..n as u32).map(|slot| RowRef { page: 0, slot }));
        }
        let fill = ctx.dev.stats().io_seconds - io_before;
        ctx.fill_io.push(fill);
        self.actuals.fills += 1;
        self.actuals.buffered_tuples += n as u64;
        self.actuals.io_seconds += fill;
        span.add_sim_seconds(fill);
        Ok(())
    }
}

impl PhysicalOperator for TupleShuffleOp {
    fn name(&self) -> &'static str {
        "TupleShuffle"
    }

    fn init(&mut self, ctx: &mut ExecContext) {
        self.child.init(ctx);
        self.epoch = 0;
        self.exhausted = false;
        self.actuals.loops += 1;
    }

    fn next_batch(&mut self, ctx: &mut ExecContext, out: &mut RowBatch) -> Result<bool, DbError> {
        // One batch per buffer fill: the whole shuffled buffer moves out in
        // one handover, so the pipelined SGD consumer drains fill k while
        // the producer builds fill k+1.
        self.refill(ctx, out)?;
        self.actuals.rows += out.len() as u64;
        self.actuals.batches += u64::from(!out.is_empty());
        Ok(!out.is_empty())
    }

    fn rescan(&mut self, ctx: &mut ExecContext) {
        self.child.rescan(ctx);
        self.epoch += 1;
        self.exhausted = false;
        self.actuals.loops += 1;
    }

    fn close(&mut self, ctx: &mut ExecContext) {
        self.child.close(ctx);
        self.staging.clear();
    }

    fn collect_stats(&self, depth: usize, out: &mut Vec<OpStats>) {
        let mut stats = self.actuals.clone();
        stats.name = self.name().to_string();
        stats.depth = depth;
        out.push(stats);
        self.child.collect_stats(depth + 1, out);
    }
}

/// A whole lowered pipeline collapsed into one operator: the planner's
/// fusion pass rewrites `Sgd←(Tuple|Block)Shuffle←Scan` (and the Predict
/// equivalent) into `Sgd←FusedPipelineOp` when `WITH fuse = 1` (the
/// default). The source — the same scan/shuffle operators the interpreted
/// tree would run — fills the root's batch directly: one virtual call per
/// batch, no copy. `WITH fuse = 0` runs them without this node.
pub struct FusedPipelineOp {
    source: Box<dyn PhysicalOperator>,
    label: String,
    batch_ctr: Counter,
    tuple_ctr: Counter,
    actuals: OpStats,
}

impl FusedPipelineOp {
    /// Assemble over a built source. `label` names the fused stages in
    /// execution order (e.g. `scan→filter→sgd`) for EXPLAIN.
    pub fn new(source: Box<dyn PhysicalOperator>, label: impl Into<String>) -> Self {
        FusedPipelineOp {
            source,
            label: label.into(),
            batch_ctr: Counter::noop(),
            tuple_ctr: Counter::noop(),
            actuals: OpStats::default(),
        }
    }

    fn note_batch(&mut self, rows: usize) {
        self.actuals.rows += rows as u64;
        self.actuals.batches += 1;
        self.batch_ctr.add(1);
        self.tuple_ctr.add(rows as u64);
    }
}

impl PhysicalOperator for FusedPipelineOp {
    fn name(&self) -> &'static str {
        "Fused Pipeline"
    }

    fn init(&mut self, ctx: &mut ExecContext) {
        self.batch_ctr = ctx.telemetry.counter("db.exec.batches");
        self.tuple_ctr = ctx.telemetry.counter("db.exec.fused_tuples");
        self.source.init(ctx);
        self.actuals.loops += 1;
    }

    fn next_batch(&mut self, ctx: &mut ExecContext, out: &mut RowBatch) -> Result<bool, DbError> {
        // Straight-through: the source fills `out` directly, no copy.
        if !self.source.next_batch(ctx, out)? {
            return Ok(false);
        }
        self.note_batch(out.len());
        Ok(true)
    }

    fn next_block(&mut self, ctx: &mut ExecContext, out: &mut RowBatch) -> Result<bool, DbError> {
        let before = out.len();
        if !self.source.next_block(ctx, out)? {
            return Ok(false);
        }
        // Consumed blocks that appended nothing surface as Ok(true),
        // preserving block-counting parents' fill alignment.
        self.note_batch(out.len() - before);
        Ok(true)
    }

    fn rescan(&mut self, ctx: &mut ExecContext) {
        self.source.rescan(ctx);
        self.actuals.loops += 1;
    }

    fn close(&mut self, ctx: &mut ExecContext) {
        self.source.close(ctx);
    }

    fn collect_stats(&self, depth: usize, out: &mut Vec<OpStats>) {
        // Fold the fused stages' actuals into ONE plan node: per-batch
        // actuals from this operator, I/O and buffering actuals from the
        // collapsed source chain.
        let mut inner = Vec::new();
        self.source.collect_stats(0, &mut inner);
        let mut stats = self.actuals.clone();
        stats.name = format!("Fused Pipeline ({})", self.label);
        stats.depth = depth;
        for s in &inner {
            stats.io_seconds += s.io_seconds;
            stats.blocks_read += s.blocks_read;
            stats.cache_hits += s.cache_hits;
            stats.retries += s.retries;
            stats.skipped_blocks += s.skipped_blocks;
            stats.fills += s.fills;
            stats.buffered_tuples += s.buffered_tuples;
            stats.rows_filtered += s.rows_filtered;
            if stats.predicate.is_none() {
                stats.predicate.clone_from(&s.predicate);
            }
            if stats.projection.is_none() {
                stats.projection.clone_from(&s.projection);
            }
        }
        out.push(stats);
    }
}

/// Per-epoch numbers reported by the `SGD` operator (the paper: "CorgiPile
/// outputs various metrics after each epoch, such as training loss,
/// accuracy, and execution time", §6).
#[derive(Debug, Clone)]
pub struct DbEpochRecord {
    /// Epoch index.
    pub epoch: usize,
    /// Loading seconds (all buffer fills).
    pub io_seconds: f64,
    /// SGD compute seconds.
    pub compute_seconds: f64,
    /// Pipelined epoch duration.
    pub epoch_seconds: f64,
    /// Cumulative simulated time at epoch end (incl. any setup).
    pub sim_seconds_end: f64,
    /// Mean training loss over the stream.
    pub train_loss: f64,
    /// Training accuracy (classifiers) / R² (regression) at epoch end, if
    /// per-epoch evaluation was requested.
    pub train_metric: Option<f64>,
    /// Tuples consumed.
    pub tuples: usize,
    /// Blocks skipped this epoch under [`FaultAction::SkipBlock`] (dead
    /// media the retry policy could not recover).
    pub skipped_blocks: Vec<usize>,
}

/// Result of running the `SGD` operator to completion.
pub struct SgdRunResult {
    /// The trained model.
    pub model: Box<dyn Model>,
    /// Per-epoch records.
    pub epochs: Vec<DbEpochRecord>,
    /// True if the run stopped early at `halt_after_epoch` (the simulated
    /// crash used by checkpoint/resume tests).
    pub halted: bool,
    /// Per-operator actual statistics (EXPLAIN ANALYZE), root first.
    pub op_stats: Vec<OpStats>,
    /// Summed pipeline report across all double-buffered epochs (all-zero
    /// when the plan ran serially).
    pub pipeline: PipelineReport,
}

impl std::fmt::Debug for SgdRunResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SgdRunResult")
            .field("epochs", &self.epochs.len())
            .field("halted", &self.halted)
            .field("op_stats", &self.op_stats)
            .finish_non_exhaustive()
    }
}

/// Per-epoch checkpoint consumer: receives the freshly-built
/// [`TrainCheckpoint`] and the epoch's mean training loss after every
/// epoch. The durable model store hangs off this to WAL-append a
/// versioned model record per epoch; an `Err` (e.g. a
/// [`corgipile_storage::StorageError::Crashed`] from an injected crash
/// point) aborts the run exactly where a dead process would have stopped.
pub type CheckpointSink = Box<dyn FnMut(&TrainCheckpoint, f64) -> Result<(), DbError>>;

/// The `SGD` operator: the root of the training plan.
///
/// A thin adapter: the epoch loop itself is [`EpochDriver`], shared with
/// the library trainer. This operator hands its child pipeline to the
/// driver as the fill source (one fill per `next_batch`, `rescan` between
/// epochs — PostgreSQL's re-scan mechanism, §6.2) and turns the driver's
/// per-epoch outcomes into [`DbEpochRecord`]s and `EXPLAIN ANALYZE`
/// actuals.
pub struct SgdOperator {
    child: Box<dyn PhysicalOperator>,
    /// The epoch driver: model, optimizer, options, double buffering and
    /// the resume wiring (`seed`, `resume_from`). Fused plans set
    /// `batched_dispatch`; a one-off setup cost (a baseline's pre-shuffle)
    /// starts `sim_clock`.
    pub driver: EpochDriver,
    /// Evaluate the training metric over these rows after each epoch
    /// (§6's per-epoch accuracy output; costs one extra pass per epoch).
    /// The planner passes the training view — [`RowBatch::scan`] of the
    /// table under the `WHERE` filter and projection — so metrics match
    /// what SGD saw.
    pub eval_each_epoch: Option<Arc<RowBatch>>,
    /// Stop after this epoch completes (0-based) — a deterministic
    /// simulated crash for exercising resume.
    pub halt_after_epoch: Option<usize>,
    /// Invoked with the checkpoint and mean training loss after every
    /// epoch (the durable model store's WAL append).
    pub checkpoint_sink: Option<CheckpointSink>,
}

impl SgdOperator {
    /// Assemble the root operator.
    pub fn new(
        child: Box<dyn PhysicalOperator>,
        model: Box<dyn Model>,
        optimizer: Box<dyn Optimizer>,
        options: TrainOptions,
        compute: ComputeCostModel,
        epochs: usize,
        double_buffer: bool,
    ) -> Self {
        SgdOperator {
            child,
            driver: EpochDriver::new(model, optimizer, options, compute, epochs, double_buffer),
            eval_each_epoch: None,
            halt_after_epoch: None,
            checkpoint_sink: None,
        }
    }

    /// Run all epochs (ExecInitSGD + ExecSGD + re-scans, §6.2).
    pub fn execute(mut self, ctx: &mut ExecContext) -> Result<SgdRunResult, DbError> {
        let tel = ctx.telemetry.clone();
        self.child.init(ctx);
        let mut source = PlanSource {
            child: &mut self.child,
            ctx,
            eval: self.eval_each_epoch.take(),
            halt_after_epoch: self.halt_after_epoch,
            step_counter: tel.counter("db.sgd.gradient_steps"),
            tel: tel.clone(),
            records: Vec::with_capacity(self.driver.epochs),
        };
        let run = self.driver.run(
            &tel,
            &mut source,
            self.checkpoint_sink
                .as_mut()
                .map(|s| s.as_mut() as EpochSink<'_, DbError>),
        )?;
        let records = source.records;

        let total_io: f64 = records.iter().map(|e| e.io_seconds).sum();
        let total_compute: f64 = records.iter().map(|e| e.compute_seconds).sum();
        let total_epoch_seconds: f64 = records.iter().map(|e| e.epoch_seconds).sum();
        // Fraction of the serial (single-buffer) epoch time hidden by
        // overlapping loads with compute: 1 - pipelined / (io + compute).
        let single = total_io + total_compute;
        let overlap_ratio = if self.driver.double_buffer && single > 0.0 {
            (1.0 - total_epoch_seconds / single).max(0.0)
        } else {
            0.0
        };
        let mut op_stats = vec![OpStats {
            name: "SGD".to_string(),
            depth: 0,
            rows: records.iter().map(|e| e.tuples as u64).sum(),
            loops: records.len() as u64,
            io_seconds: total_io,
            compute_seconds: total_compute,
            overlap_ratio,
            ..OpStats::default()
        }];
        self.child.collect_stats(1, &mut op_stats);
        self.child.close(ctx);
        Ok(SgdRunResult {
            model: self.driver.model,
            epochs: records,
            halted: run.halted,
            op_stats,
            pipeline: run.pipeline,
        })
    }
}

/// The operator tree below `SGD` as the driver's fill source: one fill per
/// `next_batch` (block reads, retries, fault skips and the in-buffer
/// shuffle all run here, on the caller's real device — on the producer
/// thread when double-buffered), each tagged with the `ctx.fill_io` entry
/// its read pushed so compute is attributed to the right fill.
struct PlanSource<'a, 'c> {
    child: &'a mut Box<dyn PhysicalOperator>,
    ctx: &'a mut ExecContext<'c>,
    eval: Option<Arc<RowBatch>>,
    halt_after_epoch: Option<usize>,
    step_counter: Counter,
    tel: Telemetry,
    records: Vec<DbEpochRecord>,
}

impl EpochSource for PlanSource<'_, '_> {
    type Batch = RowBatch;
    type Error = DbError;

    fn replay(&mut self, epochs: usize) -> Result<(), DbError> {
        let mut scratch_dev = DeviceHandle::private(SimDevice::in_memory());
        let mut scratch = ExecContext::new(&mut scratch_dev);
        let mut batch = RowBatch::default();
        for epoch in 0..epochs {
            if epoch > 0 {
                self.child.rescan(&mut scratch);
            }
            while self.child.next_batch(&mut scratch, &mut batch)? {}
        }
        Ok(())
    }

    fn stream_epoch(
        &mut self,
        epoch: usize,
        fill: &mut Fill<RowBatch>,
        emit: &mut dyn FnMut(&mut Fill<RowBatch>) -> bool,
    ) -> Result<EpochIo, DbError> {
        if epoch > 0 {
            self.ctx.fill_io.clear();
            self.ctx.skipped_blocks.clear();
            self.child.rescan(self.ctx);
        }
        loop {
            let io_before = self.ctx.dev.stats().io_seconds;
            if !self.child.next_batch(self.ctx, &mut fill.batch)? {
                break;
            }
            fill.sim_seconds = self.ctx.dev.stats().io_seconds - io_before;
            fill.slot = self.ctx.fill_io.len().saturating_sub(1);
            if !emit(fill) {
                break;
            }
        }
        Ok(EpochIo {
            setup_seconds: 0.0,
            fill_io: self.ctx.fill_io.clone(),
        })
    }

    fn epoch_done(&mut self, done: EpochOutcome<'_>) -> ControlFlow<()> {
        let train_metric = self
            .eval
            .as_ref()
            .map(|all| evaluate(done.model, all.rows()));
        let skipped = std::mem::take(&mut self.ctx.skipped_blocks);
        let gradient_steps = done.stats.updates as u64;
        self.step_counter.add(gradient_steps);
        let e = done.epoch as u64;
        let event = |name, value| self.tel.event(e, name, value);
        event("db.epoch.io_seconds", done.io_seconds);
        event("db.epoch.compute_seconds", done.compute_seconds);
        event("db.epoch.epoch_seconds", done.epoch_seconds);
        event("db.epoch.train_loss", done.stats.mean_loss);
        event("db.epoch.tuples", done.stats.examples as f64);
        event("db.epoch.skipped_blocks", skipped.len() as f64);
        event("db.epoch.gradient_steps", gradient_steps as f64);
        self.records.push(DbEpochRecord {
            epoch: done.epoch,
            io_seconds: done.io_seconds,
            compute_seconds: done.compute_seconds,
            epoch_seconds: done.epoch_seconds,
            sim_seconds_end: done.sim_seconds_end,
            train_loss: done.stats.mean_loss,
            train_metric,
            tuples: done.stats.examples,
            skipped_blocks: skipped,
        });
        if self.halt_after_epoch == Some(done.epoch) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }
}

/// Result of running the `Predict` operator to completion (one serving
/// batch query).
#[derive(Debug)]
pub struct PredictRunResult {
    /// Predicted labels in scan order (post-filter survivors only).
    pub predictions: Vec<f32>,
    /// Tuples predicted.
    pub rows: u64,
    /// Prediction batches executed.
    pub batches: u64,
    /// Tuples dropped by the scan's predicate.
    pub rows_filtered: u64,
    /// Simulated scan I/O seconds.
    pub io_seconds: f64,
    /// Simulated inference compute seconds.
    pub compute_seconds: f64,
    /// Wall-clock seconds per prediction batch (real latency, for the
    /// serving bench's p50/p99; the simulated clock is separate).
    pub batch_wall_seconds: Vec<f64>,
    /// Accuracy (classifiers) / R² (regression) against the stored labels,
    /// `None` when nothing survived the filter.
    pub metric: Option<f64>,
    /// Per-operator actual statistics (EXPLAIN ANALYZE), root first.
    pub op_stats: Vec<OpStats>,
}

/// The `Predict` operator: the root of a serving plan.
///
/// Like [`SgdOperator`] it is a driver, not a [`PhysicalOperator`]: it
/// owns its child pipeline and a *pinned* immutable model
/// ([`crate::ServableModel`]), pulls blocks of row handles, and regroups
/// them into `batch_rows`-sized prediction batches run through
/// [`Model::predict_rows_into`] over the page memory itself. The pin is
/// taken before the first block
/// is read, so a hot-reload publishing a newer version mid-scan never
/// changes this batch's predictions.
pub struct PredictOperator {
    child: Box<dyn PhysicalOperator>,
    model: Arc<crate::serving::ServableModel>,
    compute: ComputeCostModel,
    batch_rows: usize,
    /// Fused-pipeline accounting: inference invocation overhead charged
    /// once per prediction batch instead of once per tuple. Predictions
    /// are bit-identical either way.
    pub fused: bool,
}

impl PredictOperator {
    /// Assemble the serving root over a built scan pipeline.
    pub fn new(
        child: Box<dyn PhysicalOperator>,
        model: Arc<crate::serving::ServableModel>,
        compute: ComputeCostModel,
        batch_rows: usize,
    ) -> Self {
        PredictOperator {
            child,
            model,
            compute,
            batch_rows: batch_rows.max(1),
            fused: false,
        }
    }

    /// Run the scan to completion, predicting in batches.
    pub fn execute(mut self, ctx: &mut ExecContext) -> Result<PredictRunResult, DbError> {
        let io_before = ctx.dev.stats().io_seconds;
        self.child.init(ctx);
        let m = self.model.model();
        let is_classifier = m.is_classifier();
        let mut predictions: Vec<f32> = Vec::new();
        let mut batch = RowBatch::default();
        let mut batch_wall_seconds: Vec<f64> = Vec::new();
        let mut compute_seconds = 0.0f64;
        // Online metric accumulators: exact-match count for classifiers;
        // (Σy, Σy², Σ(y−ŷ)²) for R², matching `corgipile_ml::r_squared`.
        let mut correct = 0u64;
        let (mut sum_y, mut sum_y2, mut ss_res) = (0.0f64, 0.0f64, 0.0f64);
        let mut batches = 0u64;
        let (cost, fused) = (self.compute, self.fused);

        {
            // Scoped so the closure's borrows of the accumulators end here.
            let mut flush = |batch: &mut RowBatch| {
                if batch.is_empty() {
                    return;
                }
                let started = std::time::Instant::now();
                let start = predictions.len();
                let xs: Vec<FeatureView<'_>> = batch.rows().map(|r| r.features).collect();
                m.predict_rows_into(&xs, &mut predictions);
                compute_seconds += inference_cost(m, cost, fused, &xs);
                for (r, pred) in batch.rows().zip(&predictions[start..]) {
                    let y = f64::from(r.label);
                    if is_classifier {
                        if *pred == r.label {
                            correct += 1;
                        }
                    } else {
                        let e = y - f64::from(*pred);
                        sum_y += y;
                        sum_y2 += y * y;
                        ss_res += e * e;
                    }
                }
                batches += 1;
                batch_wall_seconds.push(started.elapsed().as_secs_f64());
                batch.clear();
            };

            // Block-at-a-time drain into `batch_rows`-sized prediction
            // batches; both batches' capacities are reused across blocks.
            let mut fetch = RowBatch::default();
            while self.child.next_block(ctx, &mut fetch)? {
                for &r in &fetch.rows {
                    batch.push_from(&fetch, r);
                    if batch.len() >= self.batch_rows {
                        flush(&mut batch);
                    }
                }
                fetch.clear();
            }
            flush(&mut batch);
        }

        let rows = predictions.len() as u64;
        let metric = if rows == 0 {
            None
        } else if is_classifier {
            Some(correct as f64 / rows as f64)
        } else {
            let n = rows as f64;
            let mean_y = sum_y / n;
            let ss_tot = sum_y2 - n * mean_y * mean_y;
            Some(if ss_tot <= 0.0 {
                if ss_res == 0.0 {
                    1.0
                } else {
                    0.0
                }
            } else {
                1.0 - ss_res / ss_tot
            })
        };
        let io_seconds = ctx.dev.stats().io_seconds - io_before;
        let mut op_stats = vec![OpStats {
            name: "Predict".to_string(),
            depth: 0,
            rows,
            loops: 1,
            io_seconds,
            compute_seconds,
            batches,
            ..OpStats::default()
        }];
        self.child.collect_stats(1, &mut op_stats);
        self.child.close(ctx);
        let rows_filtered = op_stats.iter().skip(1).map(|s| s.rows_filtered).sum();
        Ok(PredictRunResult {
            predictions,
            rows,
            batches,
            rows_filtered,
            io_seconds,
            compute_seconds,
            batch_wall_seconds,
            metric,
            op_stats,
        })
    }
}

/// Simulated inference cost of one batch: every row pays its own FLOPs, a run
/// of equal `nnz` as one group, so a dense batch costs `seconds(flops, len)`.
fn inference_cost(m: &dyn Model, cost: ComputeCostModel, fused: bool, xs: &[FeatureView]) -> f64 {
    let (mut flops, mut per_tuple) = (0.0f64, 0.0f64);
    let mut widths = xs.iter().map(|x| x.nnz()).peekable();
    while let Some(nnz) = widths.next() {
        let mut run = 1;
        while widths.next_if_eq(&nnz).is_some() {
            run += 1;
        }
        let each = m.inference_flops_per_example(nnz);
        flops += each * run as f64;
        per_tuple += cost.seconds(each, run);
    }
    if fused {
        cost.seconds_batched(flops)
    } else {
        per_tuple
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corgipile_data::{DatasetSpec, Order};
    use corgipile_ml::{build_model, ModelKind, OptimizerKind};

    fn table(n: usize) -> Arc<Table> {
        Arc::new(
            DatasetSpec::higgs_like(n)
                .with_order(Order::ClusteredByLabel)
                .with_block_bytes(8192)
                .build_table(1)
                .unwrap(),
        )
    }

    fn drain(op: &mut dyn PhysicalOperator, ctx: &mut ExecContext) -> Vec<u64> {
        let mut ids = Vec::new();
        let mut batch = RowBatch::default();
        while op.next_batch(ctx, &mut batch).unwrap() {
            ids.extend(batch.rows().map(|r| r.id));
        }
        ids
    }

    #[test]
    fn seq_scan_emits_table_order() {
        let t = table(300);
        let mut dev = DeviceHandle::private(SimDevice::hdd_scaled(1000.0, 0));
        let mut ctx = ExecContext::new(&mut dev);
        let mut op = BlockShuffleOp::new(t, ScanOrder::Sequential, 1);
        op.init(&mut ctx);
        let ids = drain(&mut op, &mut ctx);
        assert_eq!(ids, (0..300).collect::<Vec<_>>());
    }

    #[test]
    fn block_shuffle_permutes_blocks_and_rescan_reshuffles() {
        let t = table(600);
        let mut dev = DeviceHandle::private(SimDevice::hdd_scaled(1000.0, 0));
        let mut ctx = ExecContext::new(&mut dev);
        let mut op = BlockShuffleOp::new(t, ScanOrder::RandomBlocks, 2);
        op.init(&mut ctx);
        let a = drain(&mut op, &mut ctx);
        assert_ne!(a, (0..600).collect::<Vec<_>>());
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..600).collect::<Vec<_>>());
        op.rescan(&mut ctx);
        let b = drain(&mut op, &mut ctx);
        assert_ne!(a, b, "rescan must produce a fresh block order");
        op.close(&mut ctx);
    }

    #[test]
    fn tuple_shuffle_covers_all_and_records_fills() {
        let t = table(600);
        let blocks = t.num_blocks();
        let mut dev = DeviceHandle::private(SimDevice::hdd_scaled(1000.0, 0));
        let mut ctx = ExecContext::new(&mut dev);
        let child = Box::new(BlockShuffleOp::new(t, ScanOrder::RandomBlocks, 3));
        let mut op = TupleShuffleOp::new(child, 2, StrategyParams::default());
        op.init(&mut ctx);
        let mut ids = drain(&mut op, &mut ctx);
        assert_eq!(
            ctx.fill_io.len(),
            blocks.div_ceil(2),
            "one fill per two source blocks"
        );
        assert!(ctx.fill_io.iter().all(|&io| io > 0.0));
        ids.sort_unstable();
        assert_eq!(ids, (0..600).collect::<Vec<_>>());
    }

    #[test]
    fn tuple_shuffle_actually_shuffles_within_fills() {
        let t = table(600);
        let mut dev = DeviceHandle::private(SimDevice::hdd_scaled(1000.0, 0));
        let mut ctx = ExecContext::new(&mut dev);
        let child = Box::new(BlockShuffleOp::new(t, ScanOrder::RandomBlocks, 4));
        let mut op = TupleShuffleOp::new(child, 3, StrategyParams::default());
        op.init(&mut ctx);
        let ids = drain(&mut op, &mut ctx);
        let descents = ids.windows(2).filter(|w| w[1] < w[0]).count();
        assert!(
            descents > 150,
            "expected shuffled stream, {descents} descents"
        );
    }

    /// `n` rows of `width` stored components each in two-page blocks: all
    /// dense, all sparse, or alternating, by `sparse(id)`; labels in runs of
    /// 100, so a label predicate empties whole blocks.
    fn shaped(n: u64, width: usize, sparse: impl Fn(u64) -> bool) -> Arc<Table> {
        let cfg = corgipile_storage::TableConfig::new("shaped", 3).with_block_bytes(2 * 8192);
        let rows = (0..n).map(|id| {
            let values: Vec<f32> = (0..width).map(|k| (id * 31 + k as u64) as f32).collect();
            let label = if (id / 100) % 2 == 0 { 1.0 } else { -1.0 };
            if sparse(id) {
                let indices = (0..width as u32).map(|k| 2 * k + (id % 2) as u32).collect();
                corgipile_storage::Tuple::sparse(id, 2 * width as u32, indices, values, label)
            } else {
                corgipile_storage::Tuple::dense(id, values, label)
            }
        });
        Arc::new(Table::from_tuples(cfg, rows).unwrap())
    }

    /// Drive `TupleShuffle(cap) ← SeqScan(t)` for two epochs, refilling one
    /// batch as the inline driver does, and hold every fill against the
    /// source: the window's blocks (dead ones left out) through the filter
    /// and the projection, sorted by the shuffle key. Returns the number of
    /// fills and whether each sat on pages the table does not own (a slab).
    fn check_fills(
        t: &Arc<Table>,
        cap: usize,
        keep: Option<Predicate>,
        cols: Option<Vec<usize>>,
        dead: &[usize],
    ) -> (usize, Vec<bool>) {
        let params = StrategyParams::default();
        let mut scan = BlockShuffleOp::new(t.clone(), ScanOrder::Sequential, 1);
        if let Some(p) = &keep {
            scan = scan.with_predicate(p.clone());
        }
        if let Some(c) = &cols {
            scan = scan.with_projection(c.clone());
        }
        let mut op = TupleShuffleOp::new(Box::new(scan), cap, params.clone());
        let mut dev = DeviceHandle::private(SimDevice::in_memory());
        let mut plan = corgipile_storage::FaultPlan::new(7);
        for &b in dead {
            plan = plan.with_permanent(t.config().table_id, b);
        }
        dev.set_fault_plan(plan);
        let mut ctx = ExecContext::new(&mut dev);
        ctx.retry = RetryPolicy::with_max_retries(1);
        ctx.on_fault = FaultAction::SkipBlock;
        let table_pages: Vec<Arc<Page>> = (0..t.num_blocks())
            .flat_map(|b| t.block_handle(b).unwrap().pages().to_vec())
            .collect();
        let (mut out, mut fills, mut on_slab) = (RowBatch::default(), 0, Vec::new());
        op.init(&mut ctx);
        for epoch in 0..2u64 {
            let salt = splitmix64((params.seed ^ 0x70_5F).wrapping_add(epoch * 0x9E37_79B9));
            let blocks: Vec<usize> = (0..t.num_blocks()).collect();
            for window in blocks.chunks(cap) {
                let mut expected: Vec<corgipile_storage::Tuple> = window
                    .iter()
                    .filter(|b| !dead.contains(b))
                    .flat_map(|&b| t.block_tuples(b).unwrap())
                    .filter(|row| keep.as_ref().is_none_or(|p| p.matches(row.view())))
                    .map(|row| match &cols {
                        None => row,
                        Some(cols) => corgipile_storage::Tuple::dense(
                            row.id,
                            cols.iter().map(|&c| row.features.get(c)).collect(),
                            row.label,
                        ),
                    })
                    .collect();
                if expected.is_empty() {
                    continue; // an emptied window merges into the next one
                }
                expected.sort_by_key(|row| splitmix64(salt ^ row.id));
                assert!(op.next_batch(&mut ctx, &mut out).unwrap());
                assert_eq!(out.len(), expected.len());
                for (got, want) in out.rows().zip(&expected) {
                    assert_eq!(got, want.view(), "epoch {epoch} fill {fills}");
                }
                let owned = |p: &Arc<Page>| table_pages.iter().any(|t| Arc::ptr_eq(t, p));
                let in_place = out.pages.iter().all(owned);
                assert!(in_place || out.pages.len() == 1, "a copy sits on one page");
                on_slab.push(!in_place);
                fills += 1;
            }
            assert!(!op.next_batch(&mut ctx, &mut out).unwrap());
            assert!(out.is_empty());
            op.rescan(&mut ctx);
        }
        (fills, on_slab)
    }

    #[test]
    fn a_narrow_fill_read_back_from_its_slab_is_the_key_sorted_window() {
        let label = |value| Predicate::Cmp {
            col: crate::sql::ColumnRef::Label,
            op: crate::sql::CmpOp::Eq,
            value,
        };
        for (name, t) in [
            ("dense", shaped(3000, 12, |_| false)),
            ("sparse", shaped(3000, 12, |_| true)),
            ("mixed", shaped(3000, 12, |id| id % 3 == 0)),
        ] {
            let blocks = t.num_blocks();
            assert!(blocks > 6, "{name}: {blocks} blocks");
            let (fills, on_slab) = check_fills(&t, 3, None, None, &[]);
            assert_eq!(fills, 2 * blocks.div_ceil(3), "{name}");
            assert!(on_slab.iter().all(|&s| s), "{name}: every fill is a copy");
            // WHERE: label runs of 100 rows empty whole blocks and, at one
            // block per window, whole windows.
            let (kept, on_slab) = check_fills(&t, 1, Some(label(1.0)), None, &[]);
            assert!(kept < 2 * blocks && on_slab.iter().all(|&s| s), "{name}");
            check_fills(
                &t,
                2,
                Some(id_pred(crate::sql::CmpOp::Ge, 1400.0)),
                None,
                &[],
            );
            // A projection, alone and under a filter.
            check_fills(&t, 3, None, Some(vec![5, 0, 7]), &[]);
            check_fills(&t, 2, Some(label(-1.0)), Some(vec![1, 2]), &[]);
            // Dead blocks, skipped: alone in their window, and beside others.
            let (fills, _) = check_fills(&t, 1, None, None, &[0, 4]);
            assert_eq!(fills, 2 * (blocks - 2), "{name}");
            check_fills(&t, 3, None, None, &[1, blocks - 1]);
        }
    }

    #[test]
    fn a_fill_of_wide_rows_stays_on_the_tables_pages() {
        // 300 dense features are 1.2 KB a row, over the width constant: the
        // fill is handles on the table's own pinned pages, as before.
        let t = shaped(120, 300, |_| false);
        let (fills, on_slab) = check_fills(&t, 3, None, None, &[]);
        assert!(fills > 4);
        assert!(on_slab.iter().all(|&s| !s), "no copy of wide rows");
        // Just under it (250 features, ~1 KB) the rows are copied.
        let (_, on_slab) = check_fills(&shaped(120, 250, |_| false), 3, None, None, &[]);
        assert!(on_slab.iter().all(|&s| s));
    }

    fn id_pred(op: crate::sql::CmpOp, value: f64) -> Predicate {
        Predicate::Cmp {
            col: crate::sql::ColumnRef::Id,
            op,
            value,
        }
    }

    #[test]
    fn fused_pipeline_skips_fully_filtered_batches() {
        // ClusteredByLabel puts each class in contiguous blocks, so a
        // label predicate annihilates entire source blocks: the fused
        // loop must skip them without ever emitting an empty batch.
        let t = table(1000);
        let survivors = t.rows().filter(|tp| tp.label == 1.0).count();
        assert!(survivors > 0 && survivors < 1000);
        let scan =
            BlockShuffleOp::new(t, ScanOrder::RandomBlocks, 11).with_predicate(Predicate::Cmp {
                col: crate::sql::ColumnRef::Label,
                op: crate::sql::CmpOp::Eq,
                value: 1.0,
            });
        let mut op = FusedPipelineOp::new(Box::new(scan), "scan→filter→sgd");
        let mut dev = DeviceHandle::private(SimDevice::in_memory());
        let mut ctx = ExecContext::new(&mut dev);
        op.init(&mut ctx);
        let mut out = RowBatch::default();
        let mut rows = 0usize;
        while op.next_batch(&mut ctx, &mut out).unwrap() {
            assert!(!out.is_empty(), "next_batch must never yield empty");
            assert!(out.rows().all(|r| r.label == 1.0));
            rows += out.len();
        }
        assert_eq!(rows, survivors);
        let mut stats = Vec::new();
        op.collect_stats(1, &mut stats);
        assert_eq!(stats.len(), 1, "fused chain folds into one node");
        assert_eq!(stats[0].rows_filtered as usize, 1000 - survivors);
    }

    #[test]
    fn fused_pipeline_empty_result_and_partial_last_block() {
        // A predicate nothing matches ends the stream cleanly...
        let t = table(500);
        let scan = BlockShuffleOp::new(t.clone(), ScanOrder::Sequential, 1)
            .with_predicate(id_pred(crate::sql::CmpOp::Lt, 0.0));
        let mut op = FusedPipelineOp::new(Box::new(scan), "scan→sgd");
        let mut dev = DeviceHandle::private(SimDevice::in_memory());
        let mut ctx = ExecContext::new(&mut dev);
        op.init(&mut ctx);
        let mut out = RowBatch::default();
        assert!(!op.next_batch(&mut ctx, &mut out).unwrap());
        assert!(out.is_empty());
        op.close(&mut ctx);

        // ...and a table whose last block is partial is covered exactly,
        // across rescans (the batch reuse must not leak stale tuples).
        let scan = BlockShuffleOp::new(t, ScanOrder::RandomBlocks, 3);
        let mut op = FusedPipelineOp::new(Box::new(scan), "scan→sgd");
        op.init(&mut ctx);
        for _pass in 0..2 {
            let mut ids = Vec::new();
            while op.next_batch(&mut ctx, &mut out).unwrap() {
                ids.extend(out.rows().map(|r| r.id));
            }
            ids.sort_unstable();
            assert_eq!(ids, (0..500).collect::<Vec<_>>());
            op.rescan(&mut ctx);
        }
    }

    #[test]
    fn per_epoch_metric_reporting() {
        let t = table(2000);
        let child: Box<dyn PhysicalOperator> = Box::new(TupleShuffleOp::new(
            Box::new(BlockShuffleOp::new(t.clone(), ScanOrder::RandomBlocks, 5)),
            3,
            StrategyParams::default(),
        ));
        let mut op = SgdOperator::new(
            child,
            build_model(&ModelKind::Svm, 28, 1),
            OptimizerKind::default_sgd(0.05).build(),
            TrainOptions::default(),
            ComputeCostModel::in_db_core(),
            3,
            true,
        );
        op.eval_each_epoch = Some(Arc::new(RowBatch::scan(&t, None, None).unwrap()));
        let mut dev = DeviceHandle::private(SimDevice::in_memory());
        let mut ctx = ExecContext::new(&mut dev);
        let result = op.execute(&mut ctx).unwrap();
        let metrics: Vec<f64> = result
            .epochs
            .iter()
            .map(|e| e.train_metric.unwrap())
            .collect();
        assert_eq!(metrics.len(), 3);
        assert!(metrics.iter().all(|&m| m > 0.4 && m <= 1.0));
        // Accuracy should not collapse across epochs.
        assert!(metrics[2] > 0.5, "final per-epoch metric {:?}", metrics);
    }

    #[test]
    fn op_stats_and_epoch_events_from_sgd_run() {
        let t = table(2000);
        let child: Box<dyn PhysicalOperator> = Box::new(TupleShuffleOp::new(
            Box::new(BlockShuffleOp::new(t, ScanOrder::RandomBlocks, 5)),
            3,
            StrategyParams::default(),
        ));
        let op = SgdOperator::new(
            child,
            build_model(&ModelKind::Svm, 28, 1),
            OptimizerKind::default_sgd(0.05).build(),
            TrainOptions::default(),
            ComputeCostModel::in_db_core(),
            2,
            true,
        );
        let mut dev = DeviceHandle::private(SimDevice::hdd_scaled(1000.0, 0));
        dev.set_telemetry(Telemetry::enabled());
        let mut ctx = ExecContext::new(&mut dev);
        let result = op.execute(&mut ctx).unwrap();

        let names: Vec<&str> = result.op_stats.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["SGD", "TupleShuffle", "BlockShuffle"]);
        let sgd = &result.op_stats[0];
        assert_eq!((sgd.depth, sgd.rows, sgd.loops), (0, 4000, 2));
        let ts = &result.op_stats[1];
        assert_eq!((ts.depth, ts.rows, ts.loops), (1, 4000, 2));
        assert!(ts.fills >= 2, "two epochs mean at least two buffer fills");
        assert_eq!(ts.buffered_tuples, 4000, "every tuple passes the buffer");
        assert!(ts.io_seconds > 0.0);
        let bs = &result.op_stats[2];
        assert_eq!((bs.depth, bs.rows), (2, 4000));
        assert!(bs.blocks_read > 0 && bs.io_seconds > 0.0);
        assert_eq!(bs.retries, 0);

        // Per-epoch events flowed through the device's telemetry handle.
        let ev = ctx.telemetry.events();
        let per = |n: &str| ev.iter().filter(|e| e.name == n).count();
        assert_eq!(per("db.epoch.epoch_seconds"), 2);
        assert_eq!(per("db.epoch.io_seconds"), 2);
        assert!(ev
            .iter()
            .any(|e| e.name == "db.epoch.gradient_steps" && e.value > 0.0));
        // The fill span landed in the histogram registry.
        let snap = ctx.telemetry.snapshot();
        let hist = snap
            .metrics
            .histograms
            .iter()
            .find(|(n, _)| n == "db.tuple_shuffle.fill.sim_seconds")
            .map(|(_, h)| h)
            .expect("fill span histogram");
        assert_eq!(hist.count, ts.fills);
    }

    #[test]
    fn buffer_pool_makes_later_epochs_cheap() {
        let t = table(2000);
        let mut dev = DeviceHandle::private(SimDevice::hdd_scaled(1000.0, 0)); // no OS cache
        let mut pool = corgipile_storage::SharedBufferPool::new(64 << 20).handle();
        let mut ctx = ExecContext::new(&mut dev);
        ctx.pool = Some(&mut pool);
        let mut op = BlockShuffleOp::new(t, ScanOrder::RandomBlocks, 5);
        op.init(&mut ctx);
        drain(&mut op, &mut ctx);
        let cold = ctx.dev.stats().io_seconds;
        op.rescan(&mut ctx);
        drain(&mut op, &mut ctx);
        let warm = ctx.dev.stats().io_seconds - cold;
        assert_eq!(warm, 0.0, "all blocks must come from shared_buffers");
        assert!(pool.stats().hits > 0 && pool.stats().misses > 0);
    }

    #[test]
    fn sgd_operator_trains_and_reports() {
        let t = table(3000);
        let mut dev = DeviceHandle::private(SimDevice::hdd_scaled(1000.0, 0));
        let mut ctx = ExecContext::new(&mut dev);
        let child: Box<dyn PhysicalOperator> = Box::new(TupleShuffleOp::new(
            Box::new(BlockShuffleOp::new(t.clone(), ScanOrder::RandomBlocks, 5)),
            4,
            StrategyParams::default(),
        ));
        let model = build_model(&ModelKind::Svm, 28, 1);
        let op = SgdOperator::new(
            child,
            model,
            OptimizerKind::default_sgd(0.05).build(),
            TrainOptions::default(),
            ComputeCostModel::in_db_core(),
            3,
            true,
        );
        let result = op.execute(&mut ctx).unwrap();
        assert_eq!(result.epochs.len(), 3);
        for e in &result.epochs {
            assert_eq!(e.tuples, 3000);
            assert!(e.io_seconds > 0.0);
            assert!(e.compute_seconds > 0.0);
            assert!(e.epoch_seconds <= e.io_seconds + e.compute_seconds + 1e-12);
        }
        let acc = corgipile_ml::accuracy(result.model.as_ref(), &t.all_tuples());
        assert!(acc > 0.55, "SGD operator should learn, acc {acc}");
    }

    #[test]
    fn sgd_over_seqscan_equals_no_shuffle_behaviour() {
        // No TupleShuffle: plan = SGD ← BlockShuffle(sequential). The
        // stream is the clustered order, so training accuracy collapses to
        // the majority of the tail (the paper's No-Shuffle pathology).
        let t = table(3000);
        let mut dev = DeviceHandle::private(SimDevice::hdd_scaled(1000.0, 0));
        let mut ctx = ExecContext::new(&mut dev);
        let child: Box<dyn PhysicalOperator> =
            Box::new(BlockShuffleOp::new(t.clone(), ScanOrder::Sequential, 1));
        let op = SgdOperator::new(
            child,
            build_model(&ModelKind::LogisticRegression, 28, 1),
            OptimizerKind::default_sgd(0.1).build(),
            TrainOptions::default(),
            ComputeCostModel::in_db_core(),
            2,
            false,
        );
        let result = op.execute(&mut ctx).unwrap();
        let test = DatasetSpec::higgs_like(3000).build(9).test;
        let acc = corgipile_ml::accuracy(result.model.as_ref(), &test);
        assert!(
            acc < 0.6,
            "sequential scan on clustered data should underperform, acc {acc}"
        );
    }

    #[test]
    fn double_buffer_reduces_reported_epoch_time() {
        let t = table(2000);
        let run = |double| {
            let mut dev = DeviceHandle::private(SimDevice::hdd_scaled(1000.0, 0));
            let mut ctx = ExecContext::new(&mut dev);
            let child: Box<dyn PhysicalOperator> = Box::new(TupleShuffleOp::new(
                Box::new(BlockShuffleOp::new(t.clone(), ScanOrder::RandomBlocks, 5)),
                3,
                StrategyParams::default(),
            ));
            let op = SgdOperator::new(
                child,
                build_model(&ModelKind::Svm, 28, 1),
                OptimizerKind::default_sgd(0.05).build(),
                TrainOptions::default(),
                ComputeCostModel::in_db_core(),
                1,
                double,
            );
            op.execute(&mut ctx).unwrap().epochs[0].epoch_seconds
        };
        assert!(run(true) < run(false));
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_capacity_buffer_rejected() {
        let t = table(10);
        let child = Box::new(BlockShuffleOp::new(t, ScanOrder::Sequential, 1));
        TupleShuffleOp::new(child, 0, StrategyParams::default());
    }

    #[test]
    fn transient_faults_are_invisible_to_the_plan() {
        use corgipile_storage::FaultPlan;
        let t = table(600);
        let run = |plan: Option<FaultPlan>| -> Vec<u64> {
            let mut dev = DeviceHandle::private(SimDevice::hdd_scaled(1000.0, 0));
            if let Some(p) = plan {
                dev.set_fault_plan(p);
            }
            let mut ctx = ExecContext::new(&mut dev);
            let mut op = BlockShuffleOp::new(t.clone(), ScanOrder::RandomBlocks, 2);
            op.init(&mut ctx);
            drain(&mut op, &mut ctx)
        };
        let tid = t.config().table_id;
        let clean = run(None);
        let faulty = run(Some(
            FaultPlan::new(7)
                .with_transient(tid, 0, 2)
                .with_transient(tid, 2, 1),
        ));
        assert_eq!(
            clean, faulty,
            "retried transients must not change the stream"
        );
    }

    #[test]
    fn dead_block_fails_the_query_by_default() {
        use corgipile_storage::FaultPlan;
        let t = table(600);
        let mut dev = DeviceHandle::private(SimDevice::hdd_scaled(1000.0, 0));
        dev.set_fault_plan(FaultPlan::new(7).with_permanent(t.config().table_id, 0));
        let mut ctx = ExecContext::new(&mut dev);
        ctx.retry = RetryPolicy::with_max_retries(1);
        let mut op = BlockShuffleOp::new(t, ScanOrder::RandomBlocks, 2);
        op.init(&mut ctx);
        let mut batch = RowBatch::default();
        let err = loop {
            match op.next_batch(&mut ctx, &mut batch) {
                Ok(true) => continue,
                Ok(false) => break None,
                Err(e) => break Some(e),
            }
        };
        match err {
            Some(DbError::Storage(corgipile_storage::StorageError::ReadFailed {
                block: 0,
                attempts,
                ..
            })) => assert_eq!(attempts, 2),
            other => panic!("expected ReadFailed on block 0, got {other:?}"),
        }
    }

    #[test]
    fn skip_block_mode_degrades_gracefully_and_reports() {
        use corgipile_storage::FaultPlan;
        let t = table(600);
        let dead = t.block(1).unwrap().tuples.clone();
        let dead_tuples = (dead.end - dead.start) as usize;
        let mut dev = DeviceHandle::private(SimDevice::hdd_scaled(1000.0, 0));
        dev.set_fault_plan(FaultPlan::new(7).with_permanent(t.config().table_id, 1));
        let mut ctx = ExecContext::new(&mut dev);
        ctx.retry = RetryPolicy::with_max_retries(1);
        ctx.on_fault = FaultAction::SkipBlock;
        let child: Box<dyn PhysicalOperator> = Box::new(TupleShuffleOp::new(
            Box::new(BlockShuffleOp::new(t.clone(), ScanOrder::RandomBlocks, 5)),
            2,
            StrategyParams::default(),
        ));
        let op = SgdOperator::new(
            child,
            build_model(&ModelKind::Svm, 28, 1),
            OptimizerKind::default_sgd(0.05).build(),
            TrainOptions::default(),
            ComputeCostModel::in_db_core(),
            2,
            false,
        );
        let result = op.execute(&mut ctx).unwrap();
        assert_eq!(
            result.epochs.len(),
            2,
            "training must survive the dead block"
        );
        for e in &result.epochs {
            assert_eq!(e.skipped_blocks, vec![1], "dead block reported every epoch");
            assert_eq!(e.tuples, 600 - dead_tuples);
        }
    }

    #[test]
    fn halt_checkpoint_resume_is_bit_identical() {
        let t = table(1500);
        let plan = |t: &Arc<Table>| -> Box<dyn PhysicalOperator> {
            Box::new(TupleShuffleOp::new(
                Box::new(BlockShuffleOp::new(t.clone(), ScanOrder::RandomBlocks, 5)),
                2,
                StrategyParams::default(),
            ))
        };
        let sgd = |t: &Arc<Table>| {
            SgdOperator::new(
                plan(t),
                build_model(&ModelKind::Svm, 28, 9),
                OptimizerKind::default_sgd(0.05).build(),
                TrainOptions::default(),
                ComputeCostModel::in_db_core(),
                4,
                true,
            )
        };
        // Uninterrupted reference run.
        let mut dev = DeviceHandle::private(SimDevice::hdd_scaled(1000.0, 0));
        let straight = sgd(&t).execute(&mut ExecContext::new(&mut dev)).unwrap();
        // Crashed run: halt after epoch 1, its sink keeping the last
        // checkpoint (what the durable store would hold).
        let last: Arc<std::sync::Mutex<Option<TrainCheckpoint>>> = Arc::default();
        let mut op = sgd(&t);
        op.driver.seed = 9;
        op.halt_after_epoch = Some(1);
        let keep = Arc::clone(&last);
        op.checkpoint_sink = Some(Box::new(move |ck, _| {
            *keep.lock().unwrap() = Some(ck.clone());
            Ok(())
        }));
        let mut dev = DeviceHandle::private(SimDevice::hdd_scaled(1000.0, 0));
        let crashed = op.execute(&mut ExecContext::new(&mut dev)).unwrap();
        assert!(crashed.halted);
        assert_eq!(crashed.epochs.len(), 2);
        // Resume in a fresh "process": new operators, same seeds.
        let ck = last.lock().unwrap().take().unwrap();
        assert_eq!(ck.epoch_next, 2);
        let mut op = sgd(&t);
        op.driver.seed = 9;
        op.driver.resume_from = Some(ck.clone());
        let mut dev = DeviceHandle::private(SimDevice::hdd_scaled(1000.0, 0));
        let resumed = op.execute(&mut ExecContext::new(&mut dev)).unwrap();
        assert!(!resumed.halted);
        assert_eq!(resumed.epochs.len(), 2, "epochs 2 and 3 remain");
        assert_eq!(
            resumed.model.params(),
            straight.model.params(),
            "resumed model must equal the uninterrupted one bit-for-bit"
        );
        assert!(
            (resumed.epochs.last().unwrap().sim_seconds_end
                - straight.epochs.last().unwrap().sim_seconds_end)
                .abs()
                < 1e-9,
            "cumulative simulated time must survive the resume"
        );
        // Mismatched seed is refused.
        let mut op = sgd(&t);
        op.driver.seed = 10;
        op.driver.resume_from = Some(ck);
        let mut dev = DeviceHandle::private(SimDevice::hdd_scaled(1000.0, 0));
        let err = op.execute(&mut ExecContext::new(&mut dev)).unwrap_err();
        assert!(matches!(err, DbError::Checkpoint(_)));
    }

    /// SGD ← TupleShuffle ← BlockShuffle plan over `n` tuples.
    fn corgi_plan(t: &Arc<Table>, buffer_blocks: usize, seed: u64) -> Box<dyn PhysicalOperator> {
        Box::new(TupleShuffleOp::new(
            Box::new(BlockShuffleOp::new(
                t.clone(),
                ScanOrder::RandomBlocks,
                seed,
            )),
            buffer_blocks,
            StrategyParams::default(),
        ))
    }

    #[test]
    fn pipelined_sgd_is_bit_identical_to_serial() {
        let t = table(1500);
        for seed in [1u64, 7, 42] {
            let run = |double: bool| {
                let op = SgdOperator::new(
                    corgi_plan(&t, 2, seed),
                    build_model(&ModelKind::LogisticRegression, 28, seed),
                    OptimizerKind::default_sgd(0.05).build(),
                    TrainOptions::default(),
                    ComputeCostModel::in_db_core(),
                    3,
                    double,
                );
                let mut dev = DeviceHandle::private(SimDevice::hdd_scaled(1000.0, 0));
                op.execute(&mut ExecContext::new(&mut dev)).unwrap()
            };
            let serial = run(false);
            let pipelined = run(true);
            assert_eq!(
                serial.model.params(),
                pipelined.model.params(),
                "seed {seed}: pipelined run must visit tuples in the identical order"
            );
            for (s, p) in serial.epochs.iter().zip(&pipelined.epochs) {
                assert_eq!(s.tuples, p.tuples);
                assert!((s.io_seconds - p.io_seconds).abs() < 1e-12);
                assert!((s.compute_seconds - p.compute_seconds).abs() < 1e-12);
                assert!((s.train_loss - p.train_loss).abs() < 1e-12);
            }
            assert_eq!(serial.pipeline, PipelineReport::default());
            assert!(pipelined.pipeline.fills > 0);
        }
    }

    #[test]
    fn pipelined_minibatch_adam_is_bit_identical_to_serial() {
        let t = table(1500);
        let run = |double: bool| {
            let op = SgdOperator::new(
                corgi_plan(&t, 2, 5),
                build_model(&ModelKind::Svm, 28, 3),
                OptimizerKind::default_adam(0.01).build(),
                TrainOptions::minibatch(32),
                ComputeCostModel::in_db_core(),
                2,
                double,
            );
            let mut dev = DeviceHandle::private(SimDevice::hdd_scaled(1000.0, 0));
            op.execute(&mut ExecContext::new(&mut dev)).unwrap()
        };
        let serial = run(false);
        let pipelined = run(true);
        assert_eq!(serial.model.params(), pipelined.model.params());
        for (s, p) in serial.epochs.iter().zip(&pipelined.epochs) {
            assert!((s.train_loss - p.train_loss).abs() < 1e-12);
            assert!((s.compute_seconds - p.compute_seconds).abs() < 1e-12);
        }
    }

    #[test]
    fn pipelined_sgd_under_injected_faults_matches_serial() {
        use corgipile_storage::FaultPlan;
        let t = table(900);
        let run = |double: bool| {
            let mut dev = DeviceHandle::private(SimDevice::hdd_scaled(1000.0, 0));
            dev.set_fault_plan(
                FaultPlan::new(7)
                    .with_transient(t.config().table_id, 0, 1)
                    .with_permanent(t.config().table_id, 1),
            );
            let mut ctx = ExecContext::new(&mut dev);
            ctx.retry = RetryPolicy::with_max_retries(1);
            ctx.on_fault = FaultAction::SkipBlock;
            let op = SgdOperator::new(
                corgi_plan(&t, 2, 5),
                build_model(&ModelKind::Svm, 28, 1),
                OptimizerKind::default_sgd(0.05).build(),
                TrainOptions::default(),
                ComputeCostModel::in_db_core(),
                2,
                double,
            );
            op.execute(&mut ctx).unwrap()
        };
        let serial = run(false);
        let pipelined = run(true);
        assert_eq!(
            serial.model.params(),
            pipelined.model.params(),
            "fault skips must land on the same blocks in both modes"
        );
        for (s, p) in serial.epochs.iter().zip(&pipelined.epochs) {
            assert_eq!(s.skipped_blocks, p.skipped_blocks);
            assert_eq!(s.tuples, p.tuples);
        }
        assert_eq!(serial.epochs[0].skipped_blocks, vec![1]);
    }

    #[test]
    fn overlap_ratio_reported_on_sgd_root() {
        let t = table(2000);
        let run = |double: bool| {
            let op = SgdOperator::new(
                corgi_plan(&t, 3, 5),
                build_model(&ModelKind::Svm, 28, 1),
                OptimizerKind::default_sgd(0.05).build(),
                TrainOptions::default(),
                ComputeCostModel::in_db_core(),
                2,
                double,
            );
            let mut dev = DeviceHandle::private(SimDevice::hdd_scaled(1000.0, 0));
            op.execute(&mut ExecContext::new(&mut dev)).unwrap()
        };
        let serial = run(false);
        assert_eq!(serial.op_stats[0].overlap_ratio, 0.0);
        assert!(!serial.op_stats[0].render().contains("overlap="));
        let pipelined = run(true);
        let sgd = &pipelined.op_stats[0];
        assert!(
            sgd.overlap_ratio > 0.0 && sgd.overlap_ratio < 1.0,
            "double buffering must hide some loading time, got {}",
            sgd.overlap_ratio
        );
        assert!(sgd.render().contains("overlap="));
    }
}
