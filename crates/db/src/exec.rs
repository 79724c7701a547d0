//! Executing a lowered plan (§6.2).
//!
//! The paper integrates CorgiPile into PostgreSQL as three pull operators,
//! `SGD ← TupleShuffle ← BlockShuffle ← heap table`. Here they are the
//! nodes of a plan that `EXPLAIN` renders (`plan.rs`), run as one loop —
//! the strategy's epoch orders streamed by [`EpochStream::fill_epoch`], the
//! loop the library trainer runs too — through this module's scan step:
//!
//! * **BlockShuffle** is the order and the scan step (`SqlScan`): each
//!   epoch's block order and access per read come from the strategy; a
//!   block is read through the buffer pool (random orders) or the device
//!   (scans, like PostgreSQL's ring buffer), its rows admitted by the
//!   `WHERE` predicate and projected in place (`scan_block`), a dead block
//!   skipped under [`FaultAction::SkipBlock`], and every read counted.
//! * **TupleShuffle** is a ranked order's fill: a window of source blocks
//!   ranked by the epoch's key, its narrow rows copied in SGD order into
//!   the recycled slab of the batch. The window is counted in blocks and
//!   the key depends on the row alone, so filtering below the buffer and
//!   filtering its output train bit-identical models (`PostBufferFilter` in
//!   `proptests.rs`).
//! * **SGD** is [`SgdOperator`], the epoch driver shared with the library,
//!   a fresh order per epoch; [`PredictOperator`] reads a stored order
//!   through the same step, one block per call.
//!
//! Fusion (`WITH fuse = 1`, the default) is a price rule and rendering: the
//! compute profile pays its invocation overhead once per batch
//! ([`ComputeCostModel::fused`]), the `db.exec.*` counters count, and
//! `EXPLAIN ANALYZE` shows one `Fused Pipeline (…)` node (`ScanActuals::nodes`).
//! What moves is a [`RowBatch`]: pinned heap pages plus one 8-byte
//! [`RowRef`] per admitted row, read in place, or one slab page the batch
//! owns alone for a fill of narrow rows.

use crate::error::DbError;
use crate::plan::{feature_list, stage_label, PhysicalPlan};
use crate::sql::Predicate;
use corgipile_core::trainer::evaluate;
use corgipile_core::{EpochDriver, EpochHook, EpochOutcome, EpochSink, StrategySource};
use corgipile_ml::{Model, Optimizer, TrainCheckpoint, TrainOptions};
use corgipile_shuffle::{EpochOrder, EpochStream, Fill, ScanStep, ShuffleStrategy};
pub use corgipile_shuffle::{RowBatch, RowRef};
use corgipile_storage::{
    BlockHandle, ComputeCostModel, DeviceHandle, FeatureView, Page, PipelineReport, PoolHandle,
    RetryPolicy, SimDevice, Table, Telemetry, TupleView,
};
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

/// Execution context of one statement.
///
/// Device and pool access goes through per-connection handles
/// ([`corgipile_storage::DeviceHandle`] / [`corgipile_storage::PoolHandle`]): the handles carry this session's
/// fault plan and telemetry onto the shared engine state for the duration
/// of each access, and their local stats expose only this query's I/O.
pub struct ExecContext<'a> {
    /// This connection's view of the storage device (simulated clock +
    /// OS cache); its telemetry handle is the statement's.
    pub dev: &'a mut DeviceHandle,
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
}

impl<'a> ExecContext<'a> {
    /// Create a context over a device handle, without a buffer pool.
    pub fn new(dev: &'a mut DeviceHandle) -> Self {
        ExecContext {
            dev,
            pool: None,
            retry: RetryPolicy::default(),
            on_fault: FaultAction::default(),
        }
    }
}

/// Actual per-operator execution statistics, collected for
/// `EXPLAIN ANALYZE` — PostgreSQL's "actual rows / loops" annotations plus
/// the simulated-I/O dimensions the paper's figures are built from.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpStats {
    /// The plan node's name.
    pub name: String,
    /// Depth in the plan tree (0 = root).
    pub depth: usize,
    /// Tuples emitted (summed over all loops/epochs).
    pub rows: u64,
    /// Number of scans: one per epoch order run, replays included.
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

/// Every row of `table` the scan qualifiers admit, in table order, read
/// without charging a device: the view `TRAIN` computes its metrics over.
pub fn scan_rows(
    table: &Table,
    predicate: Option<&Predicate>,
    projection: Option<&[usize]>,
) -> Result<RowBatch, DbError> {
    let mut out = RowBatch::with_capacity(table.num_tuples() as usize);
    for block in 0..table.num_blocks() {
        scan_block(&table.block_handle(block)?, predicate, projection, &mut out);
    }
    Ok(out)
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
        None => block.pages().iter().for_each(|p| {
            out.push_page(p, |page, slot| {
                filter.is_none_or(|f| f.matches(page.row(slot)))
            })
        }),
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
                out.push_page(&Arc::new(page), |_, _| true);
            }
        }
    }
    (block.len() - (out.len() - before)) as u64
}

/// What a statement's scan counted, for `EXPLAIN ANALYZE`.
#[derive(Debug, Default)]
pub(crate) struct ScanActuals {
    /// The scan node's: rows admitted, orders run, the reads.
    scan: OpStats,
    /// Batches handed on — fills, or a fused `PREDICT`'s blocks — their
    /// rows, and the epochs' loading seconds (every slot's, as the `SGD`
    /// root sums them).
    batches: u64,
    batch_rows: u64,
    fill_seconds: f64,
}

impl ScanActuals {
    /// The plan's `EXPLAIN ANALYZE` nodes below its `kernel` root: under a
    /// fused plan one `Fused Pipeline (…)` node, which also bumps the
    /// `db.exec.*` counters; otherwise `TupleShuffle` (a ranked order's
    /// fills) over the scan node.
    fn nodes(&self, plan: &PhysicalPlan, kernel: &str, tel: &Telemetry) -> Vec<OpStats> {
        let ranked = plan.kind.is_tuple_buffered();
        let scan = OpStats {
            name: plan.kind.scan_node().to_string(),
            depth: 1 + usize::from(ranked),
            batches: if ranked { 0 } else { self.batches },
            predicate: plan.predicate.as_ref().map(|p| p.to_string()),
            projection: plan.projection.as_deref().map(feature_list),
            ..self.scan.clone()
        };
        let (fills, buffered_tuples) = match ranked {
            true => (self.batches, self.batch_rows),
            false => (0, 0),
        };
        if plan.fused {
            // A ranked fill's loading seconds already hold its reads.
            let io_seconds = if ranked {
                self.fill_seconds
            } else {
                scan.io_seconds
            };
            tel.counter("db.exec.batches").add(self.batches);
            tel.counter("db.exec.fused_tuples").add(self.batch_rows);
            let (filter, project) = (plan.predicate.is_some(), plan.projection.is_some());
            let label = stage_label(filter, project, ranked, kernel);
            return vec![OpStats {
                name: format!("Fused Pipeline ({label})"),
                depth: 1,
                rows: self.batch_rows,
                io_seconds,
                fills,
                buffered_tuples,
                batches: self.batches,
                ..scan
            }];
        }
        let shuffle = ranked.then(|| OpStats {
            name: "TupleShuffle".to_string(),
            depth: 1,
            rows: buffered_tuples,
            loops: scan.loops,
            io_seconds: self.fill_seconds,
            fills,
            buffered_tuples,
            batches: fills,
            ..OpStats::default()
        });
        shuffle.into_iter().chain([scan]).collect()
    }
}

/// The SQL scan step: a block of the order read through the pool (random
/// orders) or the device, its rows admitted by the `WHERE` predicate and
/// projected ([`scan_block`]), a dead block skipped under
/// [`FaultAction::SkipBlock`], and every read counted.
pub(crate) struct SqlScan<'s, 'c> {
    ctx: &'s mut ExecContext<'c>,
    predicate: Option<&'s Predicate>,
    projection: Option<&'s [usize]>,
    actuals: ScanActuals,
    /// Blocks skipped this epoch.
    skipped: Vec<usize>,
}

impl<'s, 'c> SqlScan<'s, 'c> {
    pub(crate) fn new(
        ctx: &'s mut ExecContext<'c>,
        predicate: Option<&'s Predicate>,
        projection: Option<&'s [usize]>,
    ) -> Self {
        SqlScan {
            ctx,
            predicate,
            projection,
            actuals: ScanActuals::default(),
            skipped: Vec::new(),
        }
    }
}

impl ScanStep for SqlScan<'_, '_> {
    type Error = DbError;

    fn read_at(
        &mut self,
        table: &Table,
        order: &EpochOrder,
        i: usize,
        into: &mut RowBatch,
    ) -> Result<(), DbError> {
        let (ctx, block) = (&mut *self.ctx, order.blocks[i]);
        let (dev, pool, retry) = (&mut *ctx.dev, &mut ctx.pool, &ctx.retry);
        let hits = |dev: &DeviceHandle, pool: &Option<&mut PoolHandle>| {
            dev.stats().cache_hits + pool.as_ref().map_or(0, |p| p.stats().hits)
        };
        let (io, hits_before, retries) =
            (dev.stats().io_seconds, hits(dev, pool), dev.stats().retries);
        let read = match pool.as_deref_mut().filter(|_| order.random) {
            Some(pool) => pool.read_block_retry(table, block, dev, retry),
            None => dev.with(|d| table.read(block, order.access(i), d, retry)),
        };
        let a = &mut self.actuals.scan;
        a.blocks_read += 1;
        a.cache_hits += hits(dev, pool) - hits_before;
        a.retries += dev.stats().retries - retries;
        let before = into.len();
        match read {
            Ok(rows) => a.rows_filtered += scan_block(&rows, self.predicate, self.projection, into),
            Err(e) if ctx.on_fault == FaultAction::SkipBlock && e.is_retryable() => {
                // Dead block after exhausted retries: degrade by moving
                // on, keeping the wasted retry time on the books.
                a.skipped_blocks += 1;
                self.skipped.push(block);
            }
            Err(e) => return Err(e.into()),
        }
        a.rows += (into.len() - before) as u64;
        a.io_seconds += dev.stats().io_seconds - io;
        Ok(())
    }

    fn seconds(&self) -> f64 {
        self.ctx.dev.stats().io_seconds
    }

    fn device<R>(&mut self, f: impl FnOnce(&mut SimDevice) -> R) -> R {
        self.ctx.dev.with(f)
    }

    fn placed(&mut self, fill: &Fill) {
        self.actuals.batches += 1;
        self.actuals.batch_rows += fill.batch.len() as u64;
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
/// the library trainer, and so is its fill source, a [`StrategySource`] —
/// here reading through the plan's scan step, a fresh order per epoch
/// (PostgreSQL's re-scan mechanism, §6.2). This operator turns the driver's
/// per-epoch outcomes into [`DbEpochRecord`]s and `EXPLAIN ANALYZE`
/// actuals.
pub struct SgdOperator {
    plan: PhysicalPlan,
    /// The epoch driver: model, optimizer, options, double buffering and
    /// the resume wiring (`seed`, `resume_from`). A fused plan's compute
    /// profile pays its overhead per fill, and its setup's seconds start
    /// `sim_clock`.
    pub driver: EpochDriver,
    /// Evaluate the training metric over these rows after each epoch
    /// (§6's per-epoch accuracy output; costs one extra pass per epoch).
    /// The planner passes the training view — [`scan_rows`] of the
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
    /// Assemble the root operator over a lowered plan.
    pub fn new(
        plan: PhysicalPlan,
        model: Box<dyn Model>,
        optimizer: Box<dyn Optimizer>,
        options: TrainOptions,
        compute: ComputeCostModel,
        epochs: usize,
        double_buffer: bool,
    ) -> Self {
        let compute = if plan.fused { compute.fused() } else { compute };
        let mut driver =
            EpochDriver::new(model, optimizer, options, compute, epochs, double_buffer);
        driver.sim_clock = plan.setup_seconds;
        SgdOperator {
            plan,
            driver,
            eval_each_epoch: None,
            halt_after_epoch: None,
            checkpoint_sink: None,
        }
    }

    /// Run all epochs (ExecInitSGD + ExecSGD + re-scans, §6.2).
    pub fn execute(mut self, ctx: &mut ExecContext) -> Result<SgdRunResult, DbError> {
        let tel = ctx.dev.telemetry().clone();
        let plan = &mut self.plan;
        let mut scan = SqlScan::new(ctx, plan.predicate.as_ref(), plan.projection.as_deref());
        let mut source = StrategySource {
            stream: EpochStream::new(&mut plan.strategy, &plan.table, "db.tuple_shuffle"),
            scan: &mut scan,
            hook: PlanEpochs {
                eval: self.eval_each_epoch.take(),
                halt_after_epoch: self.halt_after_epoch,
                records: Vec::with_capacity(self.driver.epochs),
            },
        };
        let run = self.driver.run(
            &tel,
            &mut source,
            self.checkpoint_sink
                .as_mut()
                .map(|s| s.as_mut() as EpochSink<'_, DbError>),
        )?;
        let (loops, records) = (source.stream.started, source.hook.records);
        scan.actuals.scan.loops = loops.max(1); // an empty run still opened its scan

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
        op_stats.extend(scan.actuals.nodes(plan, "sgd", &tel));
        Ok(SgdRunResult {
            model: self.driver.model,
            epochs: records,
            halted: run.halted,
            op_stats,
            pipeline: run.pipeline,
        })
    }
}

/// The SQL run's per-epoch hook: evaluate the training view, emit the
/// `db.epoch.*` events, keep the [`DbEpochRecord`] with the epoch's skipped
/// blocks, and halt at `halt_after_epoch`.
struct PlanEpochs {
    eval: Option<Arc<RowBatch>>,
    halt_after_epoch: Option<usize>,
    records: Vec<DbEpochRecord>,
}

impl EpochHook<SqlScan<'_, '_>> for PlanEpochs {
    fn epoch_done(&mut self, scan: &mut SqlScan, done: EpochOutcome<'_>) -> ControlFlow<()> {
        let train_metric = self
            .eval
            .as_ref()
            .map(|all| evaluate(done.model, all.rows()));
        let skipped = std::mem::take(&mut scan.skipped);
        scan.actuals.fill_seconds += done.io_seconds;
        let (tel, gradient_steps) = (scan.ctx.dev.telemetry(), done.stats.updates as u64);
        tel.counter("db.sgd.gradient_steps").add(gradient_steps);
        let e = done.epoch as u64;
        let event = |name, value| tel.event(e, name, value);
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
/// Like [`SgdOperator`] it is a driver over a lowered plan and a *pinned*
/// immutable model ([`crate::ServableModel`]): it reads the plan's stored
/// order through the scan step, one block per call, and regroups the rows
/// into `batch_rows`-sized prediction batches run through
/// [`Model::predict_rows_into`] over the page memory itself. Each batch's
/// rows and stored features are priced on the clock's list under the
/// model's inference FLOPs, the overhead once per batch for a fused plan;
/// predictions are bit-identical either way. The pin is taken before the
/// first block is read, so a hot-reload publishing a newer version
/// mid-scan never changes this batch's predictions.
pub struct PredictOperator {
    plan: PhysicalPlan,
    model: Arc<crate::serving::ServableModel>,
    compute: ComputeCostModel,
    batch_rows: usize,
}

impl PredictOperator {
    /// Assemble the serving root over a lowered plan.
    pub fn new(
        plan: PhysicalPlan,
        model: Arc<crate::serving::ServableModel>,
        compute: ComputeCostModel,
        batch_rows: usize,
    ) -> Self {
        let compute = if plan.fused { compute.fused() } else { compute };
        PredictOperator {
            plan,
            model,
            compute,
            batch_rows: batch_rows.max(1),
        }
    }

    /// Run the scan to completion, predicting in batches.
    pub fn execute(mut self, ctx: &mut ExecContext) -> Result<PredictRunResult, DbError> {
        let (io_before, tel) = (ctx.dev.stats().io_seconds, ctx.dev.telemetry().clone());
        let plan = &mut self.plan;
        let mut order = EpochOrder::default();
        plan.strategy.next_order(&plan.table, &mut order);
        let mut scan = SqlScan::new(ctx, plan.predicate.as_ref(), None);
        scan.actuals.scan.loops = 1;
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
        let (cost, fused) = (self.compute, plan.fused);
        let per_row = m.inference_flops_per_example(0);
        let flops = (per_row, m.inference_flops_per_example(1) - per_row);

        {
            // Scoped so the closure's borrows of the accumulators end here.
            // One feature-view buffer serves every batch of the statement.
            let mut spare = Vec::new();
            let mut flush = |batch: &mut RowBatch| {
                if batch.is_empty() {
                    return;
                }
                let started = std::time::Instant::now();
                let start = predictions.len();
                let mut xs = recycle(std::mem::take(&mut spare));
                xs.extend(batch.rows().map(|r| r.features));
                m.predict_rows_into(&xs, &mut predictions);
                compute_seconds += cost.price(xs.len(), batch.features(), flops);
                spare = recycle(xs);
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
            // batches; both batches' capacities are reused across blocks. A
            // block the filter empties appends nothing.
            let mut fetch = RowBatch::default();
            for i in 0..order.blocks.len() {
                scan.read_at(&plan.table, &order, i, &mut fetch)?;
                if fused {
                    scan.actuals.batches += 1;
                    scan.actuals.batch_rows += fetch.len() as u64;
                }
                for &r in fetch.refs() {
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
        let io_seconds = scan.seconds() - io_before;
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
        op_stats.extend(scan.actuals.nodes(plan, "predict", &tel));
        let rows_filtered = scan.actuals.scan.rows_filtered;
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

/// `v` emptied, its allocation kept for views that borrow something else
/// (one element layout, so the collect happens in place).
fn recycle<'b>(mut v: Vec<FeatureView<'_>>) -> Vec<FeatureView<'b>> {
    v.clear();
    v.into_iter().map(|_| unreachable!()).collect()
}

/// `epochs` epochs of `plan` through the SQL scan step, as `TRAIN`
/// streams them, each fill handed to `each` with its epoch. Returns
/// every epoch's fill slots and the scan's actuals.
#[cfg(test)]
pub(crate) fn stream(
    plan: &mut PhysicalPlan,
    ctx: &mut ExecContext,
    epochs: usize,
    mut each: impl FnMut(usize, &Fill),
) -> Result<(Vec<Vec<f64>>, ScanActuals), DbError> {
    let mut scan = SqlScan::new(ctx, plan.predicate.as_ref(), plan.projection.as_deref());
    let mut stream = EpochStream::new(&mut plan.strategy, &plan.table, "t");
    let (mut fill, mut slots) = (Fill::default(), Vec::new());
    for epoch in 0..epochs {
        scan.device(|dev| stream.start(dev))?;
        let mut io = Vec::new();
        stream.fill_epoch(&mut scan, &mut fill, &|| false, &mut io, |fill| {
            each(epoch, fill);
            true
        })?;
        slots.push(io);
    }
    scan.actuals.scan.loops = stream.started;
    Ok((slots, scan.actuals))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::StrategyKind;
    use corgipile_data::{DatasetSpec, Order};
    use corgipile_ml::{build_model, ModelKind, OptimizerKind};
    use corgipile_shuffle::StrategyParams;
    use corgipile_storage::splitmix64;

    /// A scan of `t` in the orders of `kind` under `seed`.
    fn plain(t: &Arc<Table>, kind: StrategyKind, seed: u64) -> PhysicalPlan {
        PhysicalPlan::new(t.clone(), kind, StrategyParams::default().with_seed(seed))
    }

    /// A CorgiPile-like scan (`kind` ranks its fills) whose fills are
    /// `blocks` source blocks.
    fn buffered(t: &Arc<Table>, kind: StrategyKind, blocks: usize, seed: u64) -> PhysicalPlan {
        let fraction = (blocks as f64 / t.num_blocks() as f64).min(1.0);
        let params = StrategyParams::default().with_seed(seed);
        PhysicalPlan::new(t.clone(), kind, params.with_buffer_fraction(fraction))
    }

    fn table(n: usize) -> Arc<Table> {
        Arc::new(
            DatasetSpec::higgs_like(n)
                .with_order(Order::ClusteredByLabel)
                .with_block_bytes(8192)
                .build_table(1)
                .unwrap(),
        )
    }

    /// Each epoch's ids, in stream order.
    fn drain(plan: &mut PhysicalPlan, ctx: &mut ExecContext, epochs: usize) -> Vec<Vec<u64>> {
        let mut ids = vec![Vec::new(); epochs];
        let each = |epoch: usize, fill: &Fill| ids[epoch].extend(fill.batch.rows().map(|r| r.id));
        stream(plan, ctx, epochs, each).unwrap();
        ids
    }

    #[test]
    fn seq_scan_emits_table_order() {
        let t = table(300);
        let mut dev = DeviceHandle::private(SimDevice::hdd_scaled(1000.0, 0));
        let mut ctx = ExecContext::new(&mut dev);
        let ids = drain(&mut plain(&t, StrategyKind::NoShuffle, 1), &mut ctx, 1);
        assert_eq!(ids[0], (0..300).collect::<Vec<_>>());
    }

    #[test]
    fn block_shuffle_permutes_blocks_and_rescan_reshuffles() {
        let t = table(600);
        let mut dev = DeviceHandle::private(SimDevice::hdd_scaled(1000.0, 0));
        let mut ctx = ExecContext::new(&mut dev);
        let [a, b] = &drain(&mut plain(&t, StrategyKind::BlockOnly, 2), &mut ctx, 2)[..] else {
            unreachable!("two epochs")
        };
        assert_ne!(*a, (0..600).collect::<Vec<_>>());
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..600).collect::<Vec<_>>());
        assert_ne!(a, b, "a re-scan must produce a fresh block order");
    }

    #[test]
    fn tuple_shuffle_covers_all_and_records_fills() {
        let t = table(600);
        let blocks = t.num_blocks();
        let mut dev = DeviceHandle::private(SimDevice::hdd_scaled(1000.0, 0));
        let mut ctx = ExecContext::new(&mut dev);
        let mut ids = Vec::new();
        let mut plan = buffered(&t, StrategyKind::CorgiPile, 2, 3);
        let each = |_, fill: &Fill| ids.extend(fill.batch.rows().map(|r| r.id));
        let (slots, _) = stream(&mut plan, &mut ctx, 1, each).unwrap();
        assert_eq!(
            slots[0].len(),
            blocks.div_ceil(2),
            "one fill per two blocks"
        );
        assert!(slots[0].iter().all(|&io| io > 0.0));
        ids.sort_unstable();
        assert_eq!(ids, (0..600).collect::<Vec<_>>());
    }

    #[test]
    fn tuple_shuffle_actually_shuffles_within_fills() {
        let t = table(600);
        let mut dev = DeviceHandle::private(SimDevice::hdd_scaled(1000.0, 0));
        let mut ctx = ExecContext::new(&mut dev);
        let ids = &drain(
            &mut buffered(&t, StrategyKind::CorgiPile, 3, 4),
            &mut ctx,
            1,
        )[0];
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

    /// Drive a Tuple-Only scan of `cap`-block fills for two epochs, refilling one
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
        let seed = StrategyParams::default().seed;
        let mut scan = buffered(t, StrategyKind::TupleOnly, cap, seed);
        (scan.predicate, scan.projection) = (keep.clone(), cols.clone());
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
        // Each fill: its epoch, its rows, and whether it sits on a slab.
        let mut got = Vec::new();
        stream(&mut scan, &mut ctx, 2, |epoch, fill| {
            let out = &fill.batch;
            let owned = |p: &Arc<Page>| table_pages.iter().any(|t| Arc::ptr_eq(t, p));
            let in_place = out.pages().iter().all(owned);
            assert!(
                in_place || out.pages().len() == 1,
                "a copy sits on one page"
            );
            assert!(!out.is_empty(), "no empty fill is handed on");
            let rows: Vec<_> = out.rows().map(|r| r.to_tuple()).collect();
            got.push((epoch, rows, !in_place));
        })
        .unwrap();
        let mut want = Vec::new();
        for epoch in 0..2u64 {
            let salt = splitmix64((seed ^ 0x70_5F).wrapping_add(epoch * 0x9E37_79B9));
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
                want.push((epoch as usize, expected));
            }
        }
        assert_eq!(got.len(), want.len());
        for (fill, ((epoch, rows, _), (want_epoch, expected))) in got.iter().zip(&want).enumerate()
        {
            assert_eq!(epoch, want_epoch, "fill {fill}");
            assert_eq!(rows, expected, "epoch {epoch} fill {fill}");
        }
        (got.len(), got.iter().map(|g| g.2).collect())
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
    fn a_fused_scan_skips_fully_filtered_blocks() {
        // ClusteredByLabel puts each class in contiguous blocks, so a
        // label predicate annihilates entire source blocks: the loop must
        // skip them without ever handing on an empty batch.
        let t = table(1000);
        let survivors = t.rows().filter(|tp| tp.label == 1.0).count();
        assert!(survivors > 0 && survivors < 1000);
        let mut scan = plain(&t, StrategyKind::BlockOnly, 11);
        scan.predicate = Some(Predicate::Cmp {
            col: crate::sql::ColumnRef::Label,
            op: crate::sql::CmpOp::Eq,
            value: 1.0,
        });
        scan.fused = true;
        let mut dev = DeviceHandle::private(SimDevice::in_memory());
        let mut ctx = ExecContext::new(&mut dev);
        let mut rows = 0usize;
        let (_, actuals) = stream(&mut scan, &mut ctx, 1, |_, fill| {
            assert!(!fill.batch.is_empty(), "never an empty batch");
            assert!(fill.batch.rows().all(|r| r.label == 1.0));
            rows += fill.batch.len();
        })
        .unwrap();
        assert_eq!(rows, survivors);
        let stats = actuals.nodes(&scan, "sgd", &Telemetry::disabled());
        assert_eq!(stats.len(), 1, "a fused plan is one node");
        assert_eq!(stats[0].name, "Fused Pipeline (scan→filter→sgd)");
        assert_eq!(stats[0].rows_filtered as usize, 1000 - survivors);
        scan.fused = false;
        let stats = actuals.nodes(&scan, "sgd", &Telemetry::disabled());
        assert_eq!(stats[0].name, "BlockShuffle");
    }

    #[test]
    fn an_empty_result_and_a_partial_last_block_stream_exactly() {
        // A predicate nothing matches ends the stream cleanly...
        let t = table(500);
        let mut scan = plain(&t, StrategyKind::NoShuffle, 1);
        scan.predicate = Some(id_pred(crate::sql::CmpOp::Lt, 0.0));
        let mut dev = DeviceHandle::private(SimDevice::in_memory());
        let mut ctx = ExecContext::new(&mut dev);
        assert_eq!(drain(&mut scan, &mut ctx, 1), [Vec::<u64>::new()]);

        // ...and a table whose last block is partial is covered exactly,
        // across re-scans (the batch reuse must not leak stale tuples).
        for mut ids in drain(&mut plain(&t, StrategyKind::BlockOnly, 3), &mut ctx, 2) {
            ids.sort_unstable();
            assert_eq!(ids, (0..500).collect::<Vec<_>>());
        }
    }

    #[test]
    fn per_epoch_metric_reporting() {
        let t = table(2000);
        let mut op = SgdOperator::new(
            buffered(&t, StrategyKind::CorgiPile, 3, 5),
            build_model(&ModelKind::Svm, 28, 1),
            OptimizerKind::default_sgd(0.05).build(),
            TrainOptions::default(),
            ComputeCostModel::in_db_core(),
            3,
            true,
        );
        op.eval_each_epoch = Some(Arc::new(scan_rows(&t, None, None).unwrap()));
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
        let op = SgdOperator::new(
            buffered(&t, StrategyKind::CorgiPile, 3, 5),
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
        let ev = ctx.dev.telemetry().events();
        let per = |n: &str| ev.iter().filter(|e| e.name == n).count();
        assert_eq!(per("db.epoch.epoch_seconds"), 2);
        assert_eq!(per("db.epoch.io_seconds"), 2);
        assert!(ev
            .iter()
            .any(|e| e.name == "db.epoch.gradient_steps" && e.value > 0.0));
        // The fill span landed in the histogram registry.
        let snap = ctx.dev.telemetry().snapshot();
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
        let mut scan = plain(&t, StrategyKind::BlockOnly, 5);
        let (slots, _) = stream(&mut scan, &mut ctx, 2, |_, _| ()).unwrap();
        assert!(slots[0].iter().sum::<f64>() > 0.0);
        let warm: f64 = slots[1].iter().sum();
        assert_eq!(warm, 0.0, "all blocks must come from shared_buffers");
        assert!(pool.stats().hits > 0 && pool.stats().misses > 0);
    }

    #[test]
    fn sgd_operator_trains_and_reports() {
        let t = table(3000);
        let mut dev = DeviceHandle::private(SimDevice::hdd_scaled(1000.0, 0));
        let mut ctx = ExecContext::new(&mut dev);
        let model = build_model(&ModelKind::Svm, 28, 1);
        let op = SgdOperator::new(
            buffered(&t, StrategyKind::CorgiPile, 4, 5),
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
        let op = SgdOperator::new(
            plain(&t, StrategyKind::NoShuffle, 1),
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
            let op = SgdOperator::new(
                buffered(&t, StrategyKind::CorgiPile, 3, 5),
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
    fn transient_faults_are_invisible_to_the_plan() {
        use corgipile_storage::FaultPlan;
        let t = table(600);
        let run = |plan: Option<FaultPlan>| -> Vec<u64> {
            let mut dev = DeviceHandle::private(SimDevice::hdd_scaled(1000.0, 0));
            if let Some(p) = plan {
                dev.set_fault_plan(p);
            }
            let mut ctx = ExecContext::new(&mut dev);
            drain(&mut plain(&t, StrategyKind::BlockOnly, 2), &mut ctx, 1).remove(0)
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
        let mut scan = plain(&t, StrategyKind::BlockOnly, 2);
        match stream(&mut scan, &mut ctx, 1, |_, _| ()) {
            Err(DbError::Storage(corgipile_storage::StorageError::ReadFailed {
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
        let op = SgdOperator::new(
            buffered(&t, StrategyKind::CorgiPile, 2, 5),
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
        let plan = |t: &Arc<Table>| buffered(t, StrategyKind::CorgiPile, 2, 5);
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
        // Replaying epochs 0 and 1 regenerated their orders and read no
        // block: the scan read two epochs' blocks, on the device too.
        let blocks = 2 * t.num_blocks() as u64;
        let reads = dev.stats().random_reads + dev.stats().sequential_reads;
        assert_eq!((resumed.op_stats[2].blocks_read, reads), (blocks, blocks));
        assert_eq!(straight.op_stats[2].blocks_read, 2 * blocks);
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

    /// The CorgiPile scan of `buffer_blocks`-block fills.
    fn corgi_plan(t: &Arc<Table>, buffer_blocks: usize, seed: u64) -> PhysicalPlan {
        buffered(t, StrategyKind::CorgiPile, buffer_blocks, seed)
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
