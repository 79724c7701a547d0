//! Multi-process CorgiPile (§5) as a fill source for the one epoch loop.
//!
//! The paper's PyTorch DDP integration works as follows (Figure 5):
//!
//! 1. every process shuffles the *same* block permutation (shared seed) and
//!    takes its share of it;
//! 2. each process fills a local buffer of `n/PN` blocks and shuffles the
//!    buffered tuples;
//! 3. each mini-batch step consumes `batch/PN` tuples per process, computes
//!    local gradients, AllReduces (averages) them, and updates every
//!    replica identically.
//!
//! Synchronous gradient averaging makes step 3 *equal* to mini-batch SGD
//! over the interleaved global stream, so multi-process CorgiPile is a
//! data-order construction and needs no trainer of its own.
//! [`ParallelSource`] is that order as an [`EpochSource`]: per epoch the
//! CorgiPile generator ([`BlockStrategy`]) yields one order of `n/PN`-block fills, fill `k`
//! goes to worker `k mod PN`, and one scoped producer thread per worker
//! builds its fills through the one fill ([`Filler::fill`]) and hands them
//! over a one-slot channel, while the calling thread merges `batch/PN`
//! tuples per worker per round into the stream the
//! [`EpochDriver`](crate::EpochDriver) trains on. A worker holds at most
//! two unconsumed fills (one in its channel slot, one being built): the
//! paper's `2 × n/PN` blocks per process.
//!
//! The workers' fills partition the generator's, each ranked by the
//! epoch's key, so the stream is a function of the seed and the epoch:
//! thread timing cannot reorder it, [`parallel_epoch_plan`] (the same
//! stream, collected) is its reference, and a resumed run regenerates the
//! orders it skips without reading a block.

use crate::driver::{EpochIo, EpochOutcome, EpochSource, Fill};
use crate::trainer::EpochRecorder;
use corgipile_shuffle::{
    BlockStrategy, EpochOrder, Filler, RowBatch, StrategyKind, StrategyParams,
};
use corgipile_storage::{
    Access, FileTable, Page, RetryPolicy, SimDevice, StorageError, Table, Telemetry, Tuple,
};
use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::sync::mpsc::sync_channel;
use std::sync::Arc;

/// Configuration of multi-process CorgiPile. The global batch size and the
/// shared seed are the run's own (see [`ParallelSource::new`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelConfig {
    /// Number of processes (`PN`).
    pub workers: usize,
    /// Total buffer fraction across all workers (each gets `f/PN`, §5.1
    /// step 3).
    pub total_buffer_fraction: f64,
    /// Device scale factor for the per-worker loaders (see
    /// `DeviceProfile::hdd_scaled`); 1.0 = unscaled HDD.
    pub device_scale: f64,
    /// OS-cache bytes available to each worker's loader.
    pub cache_bytes: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            workers: 4,
            total_buffer_fraction: 0.10,
            device_scale: 1.0,
            cache_bytes: 0,
        }
    }
}

impl ParallelConfig {
    /// The simulated loader device every fill starts from. Each fill
    /// charges a fresh pass (its first block pays the seek): a fill is an
    /// independent task, so its I/O cost must not depend on which fills ran
    /// before it on the same thread.
    pub fn fill_device(&self) -> SimDevice {
        SimDevice::hdd_scaled(self.device_scale.max(1.0), self.cache_bytes)
    }

    /// Blocks per worker fill over a table of `blocks` blocks (`n/PN`).
    fn fill_blocks(&self, blocks: usize) -> usize {
        let n_total =
            ((blocks as f64 * self.total_buffer_fraction).round() as usize).max(self.workers);
        (n_total / self.workers).max(1)
    }
}

/// Block-granular read access to a table: what one buffer fill needs.
pub trait BlockReader: Sync {
    /// Number of blocks in the table.
    fn num_blocks(&self) -> usize;

    /// Append the rows of `block`, read under `policy`, to `out`; a
    /// simulated source charges the read to `dev`.
    fn read_block(
        &self,
        block: usize,
        dev: &mut SimDevice,
        policy: &RetryPolicy,
        out: &mut RowBatch,
    ) -> Result<(), StorageError>;
}

/// A heap table, read as random block reads through the simulated device.
impl BlockReader for &Table {
    fn num_blocks(&self) -> usize {
        Table::num_blocks(self)
    }

    fn read_block(
        &self,
        block: usize,
        dev: &mut SimDevice,
        policy: &RetryPolicy,
        out: &mut RowBatch,
    ) -> Result<(), StorageError> {
        out.push_block(&self.read(block, Access::Random, dev, policy)?);
        Ok(())
    }
}

/// An on-disk heap file: real positioned reads, no simulated cost. A
/// block's rows reach the fill as one page.
impl BlockReader for Arc<FileTable> {
    fn num_blocks(&self) -> usize {
        FileTable::num_blocks(self)
    }

    fn read_block(
        &self,
        block: usize,
        _dev: &mut SimDevice,
        policy: &RetryPolicy,
        out: &mut RowBatch,
    ) -> Result<(), StorageError> {
        let tuples = self.read_block_retry(block, policy)?;
        let mut page =
            Page::new_jumbo(4 + tuples.iter().map(|t| t.encoded_len() + 4).sum::<usize>());
        tuples.iter().try_for_each(|t| page.push(t.view()))?;
        out.push_page(&Arc::new(page), |_, _| true);
        Ok(())
    }
}

/// Multi-process CorgiPile over `reader` as the driver's fill source.
///
/// One emitted [`Fill`] is a run of whole merge rounds (`batch/PN` tuples
/// from every worker that still has any), handed over just before the
/// merge would wait on a producer: with equal-sized blocks, one fill from
/// every worker. Its `slot` is the newest fill index any worker has
/// reached; the loading cost of slot `k` is the slowest worker's `k`-th
/// fill, since the workers load in parallel.
pub struct ParallelSource<'a, R> {
    reader: R,
    cfg: ParallelConfig,
    batch_size: usize,
    /// The one generator, and the order of the epoch being streamed.
    orders: BlockStrategy,
    order: EpochOrder,
    /// The state every fill's device starts from: a fresh clone per fill,
    /// fault plan and telemetry handle included.
    pub(crate) device: SimDevice,
    policy: RetryPolicy,
    /// Per-epoch hook; its telemetry handle also takes the fill spans and
    /// counters.
    pub(crate) recorder: EpochRecorder<'a>,
}

impl<'a, R: BlockReader> ParallelSource<'a, R> {
    /// `cfg.workers` processes over `reader`, merged into global batches
    /// of `batch_size` under the shared `seed`; loader device
    /// [`ParallelConfig::fill_device`], default retry policy, no telemetry,
    /// no test set.
    pub fn new(reader: R, cfg: ParallelConfig, batch_size: usize, seed: u64) -> Self {
        assert!(cfg.workers >= 1, "need at least one worker");
        ParallelSource {
            reader,
            orders: BlockStrategy::new(
                StrategyKind::CorgiPile,
                StrategyParams::default().with_seed(seed),
            ),
            order: EpochOrder::default(),
            device: cfg.fill_device(),
            cfg,
            batch_size,
            policy: RetryPolicy::default(),
            recorder: EpochRecorder::new(&[], &Telemetry::disabled()),
        }
    }

    /// Generate the next epoch's order.
    fn next_order(&mut self) {
        let blocks = self.reader.num_blocks();
        let n = self.cfg.fill_blocks(blocks);
        self.orders.order(blocks, n, &mut self.order);
    }

    /// Fill `k` of the current order: its blocks read on a fresh loader
    /// device, its rows ranked by the one fill.
    fn fill(&self, filler: &mut Filler, k: usize) -> Result<(RowBatch, f64), StorageError> {
        let tel = &self.recorder.tel;
        let (mut dev, mut out) = (self.device.clone(), RowBatch::default());
        let stage = |staged: &mut RowBatch| {
            for &b in self.order.fill(k) {
                self.reader.read_block(b, &mut dev, &self.policy, staged)?;
            }
            Ok::<_, StorageError>(false)
        };
        let placed = filler.fill(tel, self.order.rank, stage, &mut out)?;
        let io_seconds = dev.stats().io_seconds;
        if let Some(mut placed) = placed {
            placed.span.add_sim_seconds(io_seconds);
            tel.counter("core.loader.buffered_tuples")
                .add(placed.rows as u64);
        }
        tel.counter("core.loader.fills").inc();
        Ok((out, io_seconds))
    }

    /// Stream the current order: one producer thread per worker, worker `w`
    /// building fills `w, w + PN, …`, merged round-robin on this thread.
    /// `emit` sees each run of rounds with, flattened round by round, how
    /// many tuples every worker gave, and returns `false` to stop early.
    /// Returns the loading cost of every fill received, per worker, once
    /// every producer has been joined; a failed read ends the stream at
    /// that fill.
    fn merge_epoch(
        &self,
        fill: &mut Fill,
        mut emit: impl FnMut(&mut Fill, &[usize]) -> bool,
    ) -> Result<Vec<Vec<f64>>, StorageError>
    where
        Self: Sync,
    {
        let pn = self.cfg.workers;
        std::thread::scope(|scope| {
            let fills: Vec<_> = (0..pn)
                .map(|w| {
                    let (tx, rx) = sync_channel(1);
                    scope.spawn(move || {
                        let mut filler = Filler::new("core.loader");
                        for k in (w..self.order.fills()).step_by(pn) {
                            let built = self.fill(&mut filler, k);
                            let failed = built.is_err();
                            if tx.send(built).is_err() || failed {
                                break;
                            }
                        }
                    });
                    rx
                })
                .collect();

            let share = (self.batch_size / pn).max(1);
            // Per worker: received fills, rows of the front one consumed,
            // rows left in all of them.
            let mut pending: Vec<VecDeque<RowBatch>> = (0..pn).map(|_| VecDeque::new()).collect();
            let (mut at, mut left) = (vec![0; pn], vec![0; pn]);
            let mut io: Vec<Vec<f64>> = vec![Vec::new(); pn];
            let mut slot = 0;
            fill.batch.clear();
            fill.sim_seconds = 0.0;
            let mut takes = Vec::new();
            loop {
                let before = fill.batch.len();
                for w in 0..pn {
                    while left[w] < share {
                        // A closed channel is a worker out of fills.
                        let Ok(built) = fills[w].recv() else { break };
                        let (rows, io_seconds) = built?;
                        slot = slot.max(io[w].len());
                        fill.sim_seconds = fill.sim_seconds.max(io_seconds);
                        io[w].push(io_seconds);
                        left[w] += rows.len();
                        pending[w].push_back(rows);
                    }
                    let n = share.min(left[w]);
                    takes.push(n);
                    left[w] -= n;
                    for _ in 0..n {
                        let front = &pending[w][0];
                        fill.batch.push_from(front, front.refs()[at[w]]);
                        at[w] += 1;
                        if at[w] == front.len() {
                            pending[w].pop_front();
                            at[w] = 0;
                        }
                    }
                }
                fill.slot = slot;
                // The last non-empty round drains every worker, so it was
                // handed over below: nothing is left behind here.
                if fill.batch.len() == before {
                    return Ok(io);
                }
                // Hand over before the next round can wait on a producer, so
                // no fill is held back behind one still being built.
                if left.iter().any(|&l| l < share) {
                    if !emit(fill, &takes) {
                        return Ok(io);
                    }
                    fill.batch.clear();
                    fill.sim_seconds = 0.0;
                    takes.clear();
                }
            }
        })
    }
}

impl<R: BlockReader + Send> EpochSource for ParallelSource<'_, R> {
    type Error = StorageError;

    fn replay(&mut self, epochs: usize) -> Result<(), StorageError> {
        (0..epochs).for_each(|_| self.next_order());
        Ok(())
    }

    fn stream_epoch(
        &mut self,
        _epoch: usize,
        fill: &mut Fill,
        emit: &mut dyn FnMut(&mut Fill) -> bool,
    ) -> Result<EpochIo, StorageError> {
        self.next_order();
        let io = self.merge_epoch(fill, |fill, _| emit(fill))?;
        let slots = io.iter().map(Vec::len).max().unwrap_or(0);
        Ok(EpochIo {
            setup_seconds: 0.0,
            fill_io: (0..slots)
                .map(|k| {
                    io.iter()
                        .filter_map(|w| w.get(k))
                        .fold(0.0f64, |a, &b| a.max(b))
                })
                .collect(),
        })
    }

    fn epoch_done(&mut self, done: EpochOutcome<'_>) -> ControlFlow<()> {
        self.recorder.epoch_done(done)
    }
}

/// The materialized order of one multi-process epoch.
#[derive(Debug, Clone)]
pub struct ParallelEpoch {
    /// Per-worker shuffled streams (what each process's loader yields).
    pub worker_streams: Vec<Vec<Tuple>>,
    /// Global mini-batches after interleaving `batch/PN` tuples per worker.
    pub merged_batches: Vec<Vec<Tuple>>,
    /// Simulated loading seconds, max across workers (they load in
    /// parallel).
    pub io_seconds: f64,
}

/// Epoch `epoch` of [`ParallelSource`] over `table`, collected: the order
/// reference for everything that trains on the stream.
pub fn parallel_epoch_plan(
    table: &Table,
    cfg: &ParallelConfig,
    batch_size: usize,
    seed: u64,
    epoch: usize,
) -> Result<ParallelEpoch, StorageError> {
    let mut source = ParallelSource::new(table, cfg.clone(), batch_size, seed);
    source.replay(epoch + 1)?;
    let mut worker_streams = vec![Vec::new(); cfg.workers];
    let mut merged_batches = Vec::new();
    let io = source.merge_epoch(&mut Fill::default(), |fill, takes| {
        let mut rows = fill.batch.rows().map(|r| r.to_tuple());
        for round in takes.chunks(cfg.workers) {
            let mut batch = Vec::new();
            for (stream, &n) in worker_streams.iter_mut().zip(round) {
                let took: Vec<Tuple> = rows.by_ref().take(n).collect();
                stream.extend_from_slice(&took);
                batch.extend(took);
            }
            merged_batches.push(batch);
        }
        true
    })?;
    Ok(ParallelEpoch {
        worker_streams,
        merged_batches,
        io_seconds: io.iter().map(|w| w.iter().sum::<f64>()).fold(0.0, f64::max),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CorgiPileConfig, EpochDriver, Trainer, TrainerConfig};
    use corgipile_data::{DatasetSpec, Order};
    use corgipile_ml::{
        build_model, train_minibatch, ComputeCostModel, ModelKind, OptimizerKind, TrainOptions,
    };
    use corgipile_shuffle::Rank;
    use corgipile_storage::{splitmix64, FaultPlan};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn clustered(n: usize) -> Table {
        DatasetSpec::higgs_like(n)
            .with_order(Order::ClusteredByLabel)
            .with_block_bytes(2 * 8192)
            .build_table(1)
            .unwrap()
    }

    fn workers(workers: usize) -> ParallelConfig {
        ParallelConfig {
            workers,
            ..Default::default()
        }
    }

    /// `pn` workers over `table` on an in-memory loader device, faulted by
    /// `plan`.
    fn sim(table: &Table, pn: usize, plan: Option<FaultPlan>) -> ParallelSource<'_, &Table> {
        let mut source = ParallelSource::new(table, workers(pn), 16, 11);
        source.device = SimDevice::in_memory();
        if let Some(plan) = plan {
            source.device.set_fault_plan(plan);
        }
        source
    }

    /// Ids of one epoch's stream, in order.
    fn stream_ids<R: BlockReader + Send>(
        source: &mut ParallelSource<'_, R>,
        epoch: usize,
    ) -> Result<Vec<u64>, StorageError> {
        let mut ids = Vec::new();
        source.stream_epoch(epoch, &mut Fill::default(), &mut |fill| {
            ids.extend(fill.batch.rows().map(|t| t.id));
            true
        })?;
        Ok(ids)
    }

    fn merged_ids(plan: &ParallelEpoch) -> Vec<u64> {
        plan.merged_batches.iter().flatten().map(|t| t.id).collect()
    }

    #[test]
    fn plan_partitions_all_tuples_across_workers() {
        let t = clustered(800);
        let plan = parallel_epoch_plan(&t, &workers(4), 64, 0xDD9, 0).unwrap();
        assert_eq!(plan.worker_streams.len(), 4);
        let mut ids: Vec<u64> = plan
            .worker_streams
            .iter()
            .flat_map(|s| s.iter().map(|t| t.id))
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..800).collect::<Vec<_>>());
        // Merged batches cover the same multiset.
        let mut merged = merged_ids(&plan);
        merged.sort_unstable();
        assert_eq!(merged, (0..800).collect::<Vec<_>>());
    }

    #[test]
    fn merged_batches_mix_labels_like_single_process_corgipile() {
        // The Figure-5 equivalence: global batches should mix labels about
        // as well as a single process with a PN×-sized buffer.
        let t = clustered(2000);
        let cfg = ParallelConfig {
            workers: 4,
            total_buffer_fraction: 0.2,
            ..Default::default()
        };
        let plan = parallel_epoch_plan(&t, &cfg, 100, 5, 0).unwrap();
        let mut mixed = 0;
        let total = plan.merged_batches.len();
        for b in &plan.merged_batches {
            let pos = b.iter().filter(|t| t.label > 0.0).count();
            let frac = pos as f64 / b.len() as f64;
            if frac > 0.1 && frac < 0.9 {
                mixed += 1;
            }
        }
        assert!(mixed * 2 >= total, "only {mixed}/{total} batches mixed");
    }

    #[test]
    fn epochs_produce_fresh_orders() {
        let t = clustered(400);
        let cfg = ParallelConfig::default();
        let a = merged_ids(&parallel_epoch_plan(&t, &cfg, 64, 0xDD9, 0).unwrap());
        let b = merged_ids(&parallel_epoch_plan(&t, &cfg, 64, 0xDD9, 1).unwrap());
        assert_ne!(a, b);
    }

    #[test]
    fn single_worker_is_a_valid_degenerate_case() {
        let t = clustered(200);
        let plan = parallel_epoch_plan(&t, &workers(1), 32, 0xDD9, 0).unwrap();
        assert_eq!(plan.worker_streams.len(), 1);
        let total: usize = plan.merged_batches.iter().map(|b| b.len()).sum();
        assert_eq!(total, 200);
        assert_eq!(merged_ids(&plan).len(), plan.worker_streams[0].len());
    }

    #[test]
    fn multi_worker_training_learns_clustered_data() {
        let ds = DatasetSpec::susy_like(2000)
            .with_order(Order::ClusteredByLabel)
            .with_block_bytes(8192)
            .build(2);
        let t = ds.to_table(1).unwrap();
        let cfg = TrainerConfig::new(ModelKind::LogisticRegression, 8)
            .with_batch_size(32)
            .with_optimizer(OptimizerKind::default_sgd(0.5));
        let r = Trainer::new(cfg)
            .with_workers(ParallelConfig {
                workers: 4,
                total_buffer_fraction: 0.2,
                ..Default::default()
            })
            .train_with_test(&t, &ds.test, &mut SimDevice::in_memory(), 3)
            .unwrap();
        let acc = r.final_test_metric().unwrap();
        assert!(acc > 0.65, "parallel CorgiPile should learn: acc {acc}");
        assert_eq!(r.epochs.len(), 8);
        assert!(r.total_sim_seconds() > 0.0);
    }

    /// Epoch `epoch` planned from generated orders alone, with no device:
    /// each worker's stream is its fills (`k mod PN = w`) of the CorgiPile
    /// generator's order, each fill's rows — read in place off the table —
    /// sorted by the epoch's key; the merge takes `batch/PN` rows per
    /// worker per round. Returns the worker streams and merged batches.
    fn planned(
        t: &Table,
        pcfg: &ParallelConfig,
        batch: usize,
        seed: u64,
        epoch: usize,
    ) -> (Vec<Vec<Tuple>>, Vec<Vec<Tuple>>) {
        let mut source = ParallelSource::new(t, pcfg.clone(), batch, seed);
        source.replay(epoch + 1).unwrap();
        let (order, pn) = (&source.order, pcfg.workers);
        let Rank::Key(salt) = order.rank else {
            panic!("CorgiPile fills are key-ranked")
        };
        let streams: Vec<Vec<Tuple>> = (0..pn)
            .map(|w| {
                (w..order.fills())
                    .step_by(pn)
                    .flat_map(|k| {
                        let mut rows: Vec<Tuple> = (order.fill(k).iter())
                            .flat_map(|&b| t.block_tuples(b).unwrap())
                            .collect();
                        rows.sort_by_key(|r| splitmix64(salt ^ r.id));
                        rows
                    })
                    .collect()
            })
            .collect();
        let share = (batch / pn).max(1);
        let mut cursors: Vec<_> = streams.iter().map(|s| s.chunks(share)).collect();
        let merged = std::iter::from_fn(|| {
            let round: Vec<Tuple> = cursors
                .iter_mut()
                .flat_map(|c| c.next())
                .flatten()
                .cloned()
                .collect();
            (!round.is_empty()).then_some(round)
        });
        let merged = merged.collect();
        (streams, merged)
    }

    #[test]
    fn worker_fills_partition_the_generators_fills() {
        // Figure 5 as a property of the order: the PN workers' fills are the
        // one CorgiPile generator's fills, each exactly once, and worker w's
        // are the ones with k mod PN = w.
        let t = clustered(2000);
        for pn in [1usize, 2, 4, 8] {
            let pcfg = ParallelConfig {
                workers: pn,
                total_buffer_fraction: 0.2,
                ..Default::default()
            };
            for epoch in 0..2 {
                let mut source = ParallelSource::new(&t, pcfg.clone(), 16, 9);
                source.replay(epoch + 1).unwrap();
                let params = StrategyParams::default().with_seed(9);
                let mut one = BlockStrategy::new(StrategyKind::CorgiPile, params);
                let mut want = EpochOrder::default();
                for _ in 0..=epoch {
                    one.order(t.num_blocks(), pcfg.fill_blocks(t.num_blocks()), &mut want);
                }
                assert_eq!(source.order, want, "workers {pn} epoch {epoch}");
                let (streams, _) = planned(&t, &pcfg, 16, 9, epoch);
                let mut ids: Vec<u64> = streams.iter().flatten().map(|r| r.id).collect();
                ids.sort_unstable();
                assert_eq!(ids, (0..2000).collect::<Vec<_>>(), "workers {pn}");
            }
        }
    }

    #[test]
    fn training_equals_minibatch_sgd_over_the_planned_stream_bit_for_bit() {
        // Figure 5 as an identity: synchronous data-parallel SGD *is*
        // mini-batch SGD over the interleaved stream planned from the
        // orders, whatever the worker count and whichever thread runs the
        // kernel — and the source streams exactly that plan.
        let t = clustered(600);
        let (batch, seed, epochs) = (30, 4, 3);
        let cfg = TrainerConfig::new(ModelKind::LogisticRegression, epochs).with_batch_size(batch);
        for pn in [1usize, 2, 4, 8] {
            let pcfg = ParallelConfig {
                workers: pn,
                total_buffer_fraction: 0.2,
                ..Default::default()
            };
            let mut model = build_model(&cfg.model, 28, seed);
            let mut opt = cfg.optimizer.build();
            for e in 0..epochs {
                opt.set_epoch(e);
                let (streams, merged) = planned(&t, &pcfg, batch, seed, e);
                let plan = parallel_epoch_plan(&t, &pcfg, batch, seed, e).unwrap();
                assert_eq!(plan.worker_streams, streams, "workers {pn} epoch {e}");
                assert_eq!(plan.merged_batches, merged, "workers {pn} epoch {e}");
                train_minibatch(
                    model.as_mut(),
                    opt.as_mut(),
                    merged.iter().flatten(),
                    &TrainOptions::minibatch(batch),
                );
            }
            for double_buffer in [false, true] {
                let cfg = cfg
                    .clone()
                    .with_corgipile(CorgiPileConfig::default().with_double_buffer(double_buffer));
                let r = Trainer::new(cfg)
                    .with_workers(pcfg.clone())
                    .train(&t, &mut SimDevice::hdd(0), seed)
                    .unwrap();
                assert_eq!(
                    r.model.params(),
                    model.params(),
                    "workers {pn} double_buffer {double_buffer}"
                );
            }
        }
    }

    const PER_BLOCK: usize = 10;

    /// A synthetic table of `blocks` blocks × `PER_BLOCK` tuples that counts
    /// block reads and can make every odd block slow to read.
    struct CountingBlocks {
        blocks: usize,
        read: Arc<AtomicUsize>,
        stall_odd_blocks: bool,
    }

    impl BlockReader for CountingBlocks {
        fn num_blocks(&self) -> usize {
            self.blocks
        }

        fn read_block(
            &self,
            b: usize,
            dev: &mut SimDevice,
            _policy: &RetryPolicy,
            out: &mut RowBatch,
        ) -> Result<(), StorageError> {
            if self.stall_odd_blocks && b % 2 == 1 {
                std::thread::sleep(std::time::Duration::from_micros(300));
            }
            self.read.fetch_add(1, Ordering::SeqCst);
            let mut page = Page::new();
            for i in 0..PER_BLOCK {
                page.push(Tuple::dense((b * PER_BLOCK + i) as u64, vec![b as f32], 1.0).view())?;
            }
            out.push_page(&Arc::new(page), |_, _| true);
            dev.charge_seconds(1.0);
            Ok(())
        }
    }

    /// `pn` workers over 64 counting blocks, one block per fill.
    fn counting_source(
        pn: usize,
        stall_odd_blocks: bool,
    ) -> (ParallelSource<'static, CountingBlocks>, Arc<AtomicUsize>) {
        let read = Arc::new(AtomicUsize::new(0));
        let reader = CountingBlocks {
            blocks: 64,
            read: read.clone(),
            stall_odd_blocks,
        };
        let cfg = ParallelConfig {
            workers: pn,
            total_buffer_fraction: pn as f64 / 64.0,
            ..Default::default()
        };
        (ParallelSource::new(reader, cfg, 8, 7), read)
    }

    #[test]
    fn at_most_two_unconsumed_fills_per_worker() {
        // Every hand-over waits until the producers are as far ahead as
        // they may get — one fill in the channel slot plus one being built,
        // per worker — then gives them time to overshoot.
        for pn in [1usize, 4] {
            let (mut source, read) = counting_source(pn, false);
            let mut consumed = std::collections::HashSet::new();
            source
                .stream_epoch(0, &mut Fill::default(), &mut |fill| {
                    consumed.extend(fill.batch.rows().map(|t| t.id as usize / PER_BLOCK));
                    let allowed = (consumed.len() + 2 * pn).min(64);
                    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                    while read.load(Ordering::SeqCst) < allowed {
                        assert!(std::time::Instant::now() < deadline, "producers stalled");
                        std::thread::yield_now();
                    }
                    std::thread::sleep(std::time::Duration::from_micros(200));
                    assert_eq!(
                        read.load(Ordering::SeqCst),
                        allowed,
                        "fills built but unconsumed with {pn} workers"
                    );
                    true
                })
                .unwrap();
            assert_eq!(consumed.len(), 64, "every fill arrives");
        }
    }

    #[test]
    fn thread_timing_cannot_reorder_the_stream() {
        for pn in [1usize, 3, 4] {
            let (mut even, _) = counting_source(pn, false);
            let (mut uneven, _) = counting_source(pn, true);
            for epoch in 0..2 {
                assert_eq!(
                    stream_ids(&mut even, epoch).unwrap(),
                    stream_ids(&mut uneven, epoch).unwrap(),
                    "workers {pn} epoch {epoch}"
                );
            }
        }
    }

    #[test]
    fn stream_reports_the_slowest_worker_per_fill_slot() {
        // Every counting fill costs 1 s; PN workers load in parallel, so an
        // epoch of 64 one-block fills costs 64 / PN slots of 1 s each.
        let (mut source, _) = counting_source(4, false);
        let mut slots = Vec::new();
        let io = source
            .stream_epoch(0, &mut Fill::default(), &mut |fill| {
                slots.push(fill.slot);
                true
            })
            .unwrap();
        assert_eq!(io.fill_io, vec![1.0; 16]);
        assert_eq!(slots, (0..16).collect::<Vec<_>>(), "one Fill per slot");
    }

    #[test]
    fn transient_faults_are_retried_and_the_stream_completes() {
        let t = clustered(600);
        let tid = t.config().table_id;
        for pn in [1usize, 4] {
            let plan = FaultPlan::new(5)
                .with_transient(tid, 0, 2)
                .with_transient(tid, 1, 1);
            let faulted = stream_ids(&mut sim(&t, pn, Some(plan)), 0).unwrap();
            let clean = stream_ids(&mut sim(&t, pn, None), 0).unwrap();
            assert_eq!(faulted, clean, "retries must hide transients");
            assert_eq!(faulted.len(), 600);
        }
    }

    #[test]
    fn permanent_fault_surfaces_a_typed_error_from_the_driver() {
        let t = clustered(600);
        assert!(t.num_blocks() > 1);
        let plan = FaultPlan::new(5).with_permanent(t.config().table_id, 0);
        for pn in [1usize, 4] {
            for double_buffer in [false, true] {
                let mut source = sim(&t, pn, Some(plan.clone()));
                source.policy = RetryPolicy::with_max_retries(2);
                let mut driver = EpochDriver::new(
                    build_model(&ModelKind::Svm, 28, 1),
                    OptimizerKind::default_sgd(0.1).build(),
                    TrainOptions::minibatch(16),
                    ComputeCostModel::in_db_core(),
                    2,
                    double_buffer,
                );
                let mut consumed = 0;
                let err = driver
                    .run(&Telemetry::disabled(), &mut source, None)
                    .unwrap_err();
                assert!(
                    matches!(
                        err,
                        StorageError::ReadFailed {
                            block: 0,
                            attempts: 3,
                            ..
                        }
                    ),
                    "workers {pn} double_buffer {double_buffer}: {err:?}"
                );
                // The stream itself ends early, at the dead fill.
                let err = source
                    .stream_epoch(0, &mut Fill::default(), &mut |fill| {
                        consumed += fill.batch.len();
                        true
                    })
                    .unwrap_err();
                assert!(matches!(err, StorageError::ReadFailed { block: 0, .. }));
                assert!(consumed < 600, "stream must end early on a dead block");
            }
        }
    }

    #[test]
    fn early_drop_does_not_hang() {
        let t = clustered(600);
        for pn in [1usize, 4] {
            let mut source = sim(&t, pn, None);
            let mut rounds = 0;
            source
                .stream_epoch(0, &mut Fill::default(), &mut |_| {
                    rounds += 1;
                    false
                })
                .unwrap(); // must not deadlock
            assert_eq!(rounds, 1);
        }
    }

    fn saved(t: &Table, tag: &str) -> (Arc<FileTable>, std::path::PathBuf) {
        let path =
            std::env::temp_dir().join(format!("corgi_parallel_{tag}_{}.tbl", std::process::id()));
        corgipile_storage::save_table(t, &path).unwrap();
        (Arc::new(FileTable::open(&path).unwrap()), path)
    }

    #[test]
    fn file_backed_source_streams_from_real_disk() {
        let t = clustered(500);
        let (ft, path) = saved(&t, "disk");
        for pn in [1usize, 4] {
            let ids = |seed| {
                stream_ids(
                    &mut ParallelSource::new(ft.clone(), workers(pn), 16, seed),
                    0,
                )
                .unwrap()
            };
            let mut a = ids(5);
            assert_ne!(a, (0..500).collect::<Vec<_>>(), "must be shuffled");
            // Deterministic per seed, and the in-memory table's order.
            assert_eq!(a, ids(5));
            assert_ne!(a, ids(9));
            assert_eq!(
                a,
                merged_ids(&parallel_epoch_plan(&t, &workers(pn), 16, 5, 0).unwrap())
            );
            a.sort_unstable();
            assert_eq!(a, (0..500).collect::<Vec<_>>());
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn file_source_recovers_from_transient_faults() {
        let t = clustered(500);
        let (ft, path) = saved(&t, "fault");
        for pn in [1usize, 4] {
            ft.set_fault_plan(FaultPlan::new(3).with_transient(ft.config().table_id, 0, 3));
            let mut ids =
                stream_ids(&mut ParallelSource::new(ft.clone(), workers(pn), 16, 5), 0).unwrap();
            ids.sort_unstable();
            assert_eq!(ids, (0..500).collect::<Vec<_>>());
            assert!(ft.fault_stats().unwrap().transient_failures >= 3);
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn fills_record_spans_and_counters() {
        let t = clustered(600);
        for pn in [1usize, 4] {
            let mut dev = SimDevice::in_memory();
            let tel = Telemetry::enabled();
            dev.set_telemetry(tel.clone());
            Trainer::new(TrainerConfig::new(ModelKind::Svm, 2))
                .with_workers(workers(pn))
                .train(&t, &mut dev, 42)
                .unwrap();
            let snap = tel.snapshot();
            let counter = |name: &str| {
                snap.metrics
                    .counters
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, v)| *v)
                    .unwrap_or(0)
            };
            let fills = counter("core.loader.fills");
            assert!(fills >= 4, "two epochs of several fills, got {fills}");
            assert_eq!(counter("core.loader.buffered_tuples"), 1200);
            assert_eq!(counter("core.trainer.tuples"), 1200);
            let span_count = snap
                .metrics
                .histograms
                .iter()
                .find(|(n, _)| n == "core.loader.fill.wall_seconds")
                .map(|(_, h)| h.count)
                .unwrap_or(0);
            assert_eq!(span_count, fills, "one fill span per buffer");
        }
    }
}
