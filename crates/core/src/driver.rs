//! The one epoch loop (§6.2–6.3).
//!
//! The paper's in-database integration is three operators and *one* SGD
//! loop with a double-buffer switch. [`EpochDriver`] is that loop, and
//! [`StrategySource`] its one fill source: the library
//! [`Trainer`](crate::Trainer) and the SQL `SGD` operator hand it their scan
//! step and an [`EpochHook`] that reads the per-epoch [`EpochOutcome`]s
//! back. One run is
//!
//! ```text
//! resume: validate → replay → restore
//! per epoch:  source ─fills→ kernel stage → clock → hook → checkpoint
//! ```
//!
//! * **Source.** [`EpochSource::stream_epoch`] pushes the epoch's buffer
//!   fills, in order, through [`run_epoch_pipeline`]; for a
//!   [`StrategySource`] that is the strategy's setup and order, and the one
//!   loop over its fills ([`EpochStream::fill_epoch`]). With `double_buffer`
//!   set the source runs on a scoped producer thread and overlaps the
//!   kernel; without it the very same closures run inline on the calling
//!   thread. There is exactly one producer, one consumer and
//!   an order-preserving hand-off either way, so the kernel sees the same
//!   tuple sequence and trains bit-identical models — also when the kernel
//!   stage settles a fill handed over while it waited (`RowBatch::settle`).
//! * **Kernel stage.** One of two accumulators carried across the epoch's
//!   fills: [`PerTupleTrainer`] (standard SGD, lazy L2 decay) when
//!   `batch_size <= 1` under plain SGD, else a [`MinibatchTrainer`] whose
//!   batches span fill boundaries. Each row gets one model call, whose
//!   forward pass also yields the row's pre-update loss.
//! * **Clock.** The kernel lane keeps none. The source leaves each fill
//!   slot's loading seconds, the device clock's difference over its reads
//!   and buffering; the producer hands every fill over with its counts, its
//!   rows and their stored features, and the driver prices them on the list
//!   ([`ComputeCostModel::price`], from the model's
//!   [`Model::flops_per_example`]: the overhead per row, or per fill for a
//!   fused plan's profile). After the epoch, [`clock::epoch_seconds`]
//!   combines the slots, serial or double-buffered.
//! * **Hook.** [`EpochSource::epoch_done`] — a [`StrategySource`]'s
//!   [`EpochHook`] — sees the settled epoch (and the model) to evaluate,
//!   record, emit telemetry, or halt the run.
//! * **Checkpoint.** Only when a sink is set, a [`TrainCheckpoint`] is
//!   built after the hook and handed to it — the run's one checkpoint
//!   output (the SQL path's is the durable model store).

use corgipile_ml::{
    EpochStats, MinibatchTrainer, Model, Optimizer, PerTupleTrainer, TrainCheckpoint, TrainOptions,
};
pub use corgipile_shuffle::Fill;
use corgipile_shuffle::{Deal, EpochStream, ScanStep, ShuffleStrategy};
use corgipile_storage::{
    clock, run_epoch_pipeline, CacheConfig, ComputeCostModel, PipelineError, PipelineReport,
    SimDevice, StorageError, Telemetry,
};
use std::ops::ControlFlow;

/// One settled epoch, as seen by [`EpochSource::epoch_done`].
pub struct EpochOutcome<'a> {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// The source's setup cost for this epoch.
    pub setup_seconds: f64,
    /// Loading-side simulated seconds (all fills).
    pub io_seconds: f64,
    /// Compute-side simulated seconds (all fills).
    pub compute_seconds: f64,
    /// Epoch duration after the single-/double-buffer overlap model.
    pub epoch_seconds: f64,
    /// Cumulative simulated time at the end of this epoch.
    pub sim_seconds_end: f64,
    /// Mean pre-update loss, tuples consumed, optimizer updates.
    pub stats: EpochStats,
    /// The model after this epoch's updates.
    pub model: &'a dyn Model,
}

/// A checkpoint that cannot continue this run (other seed, other shape,
/// other optimizer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointMismatch(pub String);

impl From<CheckpointMismatch> for StorageError {
    fn from(e: CheckpointMismatch) -> Self {
        StorageError::Corrupt(e.0)
    }
}

/// Where an epoch's buffer fills come from, and where its numbers go.
///
/// `Send` because a double-buffered run borrows the source into the
/// producer thread for the duration of each epoch.
pub trait EpochSource: Send {
    /// Error of the source itself and of the checkpoint sink.
    type Error: From<StorageError> + From<CheckpointMismatch> + Send;

    /// Advance the source past `epochs` completed epochs without touching
    /// the real device or clock (resume). Orders depend only on seeds and
    /// block metadata, so regenerating them lands the source exactly where
    /// the checkpointed run left it, without reading a block.
    fn replay(&mut self, epochs: usize) -> Result<(), Self::Error>;

    /// Stream `epoch`'s fills through `emit`, in order, until the stream
    /// ends or `emit` returns `false`; return the one-off cost charged before
    /// it (offline shuffles), and leave the loading cost of every fill slot
    /// in `fill_io`, over the last epoch's. An emitted fill carries its slot
    /// and its rows' stored features, which price its compute. Every fill is
    /// built in `fill` — one of the run's two buffers, holding stale rows on
    /// entry — and `emit` leaves the other buffer there, or the same one once
    /// drained; either way the next fill overwrites it, and may go
    /// part-copied once `kernel_waits`.
    fn stream_epoch(
        &mut self,
        epoch: usize,
        fill: &mut Fill,
        kernel_waits: &dyn Fn() -> bool,
        fill_io: &mut Vec<f64>,
        emit: &mut dyn FnMut(&mut Fill) -> bool,
    ) -> Result<f64, Self::Error>;

    /// Per-epoch hook, called on the training thread once the epoch's clock
    /// is settled and before any checkpoint is written. `Break` halts the
    /// run after this epoch (and its checkpoint).
    fn epoch_done(&mut self, epoch: EpochOutcome<'_>) -> ControlFlow<()>;
}

/// What a run does with each settled epoch: evaluate, record, emit
/// telemetry, or halt ([`EpochSource::epoch_done`]). `S` is the run's scan
/// step, whose per-epoch state the hook may drain.
pub trait EpochHook<S>: Send {
    /// `Break` halts the run after this epoch (and its checkpoint).
    fn epoch_done(&mut self, scan: &mut S, done: EpochOutcome<'_>) -> ControlFlow<()>;
}

/// The one fill source: a strategy's epochs over a table ([`EpochStream`]),
/// read through a scan step — the library's [`SimDevice`], or the SQL
/// engine's scan — with the caller's [`EpochHook`].
pub struct StrategySource<'a, St: ?Sized, S, H> {
    /// The strategy, its table, order and fill.
    pub stream: EpochStream<'a, St>,
    /// How blocks are read and charged.
    pub scan: &'a mut S,
    /// The caller's per-epoch hook.
    pub hook: H,
}

impl<St, S, H> EpochSource for StrategySource<'_, St, S, H>
where
    St: ShuffleStrategy + ?Sized,
    S: ScanStep + Send,
    S::Error: From<CheckpointMismatch> + Send,
    H: EpochHook<S>,
{
    type Error = S::Error;

    /// Orders read nothing; a setup's copy is remade on a scratch device of
    /// the run's profile, which Corgi²'s recluster picks its blocks against
    /// (a setup made before the run is not made again).
    fn replay(&mut self, epochs: usize) -> Result<(), S::Error> {
        let profile = self.scan.device(|dev| dev.profile().clone());
        let mut scratch = SimDevice::new(profile, CacheConfig::disabled());
        for _ in 0..epochs {
            self.stream.start(&mut scratch)?;
        }
        Ok(())
    }

    fn stream_epoch(
        &mut self,
        _epoch: usize,
        fill: &mut Fill,
        kernel_waits: &dyn Fn() -> bool,
        fill_io: &mut Vec<f64>,
        emit: &mut dyn FnMut(&mut Fill) -> bool,
    ) -> Result<f64, S::Error> {
        let stream = &mut self.stream;
        let setup = self.scan.device(|dev| stream.start(dev))?;
        stream.fill_epoch(self.scan, fill, kernel_waits, fill_io, &mut *emit)?;
        // Workers load in parallel: a slot costs the slowest of its fills.
        if let Some(Deal { workers, .. }) = stream.order.deal {
            let slots = fill_io.len().div_ceil(workers);
            for slot in 0..slots {
                let fills = fill_io[slot * workers..].iter().take(workers);
                fill_io[slot] = fills.fold(0.0f64, |a, &b| a.max(b));
            }
            fill_io.truncate(slots);
        }
        Ok(setup)
    }

    fn epoch_done(&mut self, done: EpochOutcome<'_>) -> ControlFlow<()> {
        self.hook.epoch_done(self.scan, done)
    }
}

/// Per-epoch checkpoint consumer: the freshly built [`TrainCheckpoint`] and
/// the epoch's mean training loss. An `Err` aborts the run at that epoch
/// boundary, exactly where a dead process would have stopped.
pub type EpochSink<'a, E> = &'a mut dyn FnMut(&TrainCheckpoint, f64) -> Result<(), E>;

/// What a finished [`EpochDriver::run`] reports beyond the hook's records.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DriverRun {
    /// The hook stopped the run before the last epoch.
    pub halted: bool,
    /// Summed pipeline report of all overlapped epochs (all-zero for
    /// inline runs).
    pub pipeline: PipelineReport,
}

/// The accumulator carried across one epoch's fills.
enum KernelStage {
    PerTuple(PerTupleTrainer),
    Minibatch(MinibatchTrainer),
}

/// Model + optimizer + options, and the loop that trains them.
pub struct EpochDriver {
    /// The model being trained.
    pub model: Box<dyn Model>,
    /// Its optimizer.
    pub optimizer: Box<dyn Optimizer>,
    /// Batch size, clipping, L2.
    pub options: TrainOptions,
    /// Compute profile the clock prices each fill with (a fused plan's
    /// pays its overhead once per fill).
    pub compute: ComputeCostModel,
    /// Total epochs of the run (a resumed run executes the remainder).
    pub epochs: usize,
    /// Overlap loading with the kernel on a producer thread (§6.3).
    pub double_buffer: bool,
    /// Seed stamped into checkpoints and validated on resume.
    pub seed: u64,
    /// The simulated clock: set it to any one-off setup cost before the
    /// run; a resume overwrites it from the checkpoint.
    pub sim_clock: f64,
    /// Resume from this checkpoint instead of starting at epoch 0.
    pub resume_from: Option<TrainCheckpoint>,
}

impl EpochDriver {
    /// A driver with a zero clock, seed 0 and nothing to resume from.
    pub fn new(
        model: Box<dyn Model>,
        optimizer: Box<dyn Optimizer>,
        options: TrainOptions,
        compute: ComputeCostModel,
        epochs: usize,
        double_buffer: bool,
    ) -> Self {
        EpochDriver {
            model,
            optimizer,
            options,
            compute,
            epochs,
            double_buffer,
            seed: 0,
            sim_clock: 0.0,
            resume_from: None,
        }
    }

    /// Validate and apply `resume_from`; returns the first epoch to run.
    fn resume<S: EpochSource>(&mut self, source: &mut S) -> Result<usize, S::Error> {
        let Some(ck) = self.resume_from.take() else {
            return Ok(0);
        };
        if ck.seed != self.seed {
            return Err(CheckpointMismatch(format!(
                "checkpoint was taken under seed {}, cannot resume under seed {}",
                ck.seed, self.seed
            ))
            .into());
        }
        if ck.model_params.len() != self.model.params().len() {
            return Err(CheckpointMismatch(format!(
                "checkpoint carries {} model parameters, this run expects {}",
                ck.model_params.len(),
                self.model.params().len()
            ))
            .into());
        }
        let start = ck.epoch_next.min(self.epochs);
        source.replay(start)?;
        self.model.params_mut().copy_from_slice(&ck.model_params);
        if !self.optimizer.load_state(&ck.optimizer_state) {
            return Err(CheckpointMismatch(
                "checkpoint optimizer state does not match this optimizer".into(),
            )
            .into());
        }
        self.sim_clock = ck.sim_clock;
        Ok(start)
    }

    /// Run the remaining epochs over `source`.
    pub fn run<S: EpochSource>(
        &mut self,
        telemetry: &Telemetry,
        source: &mut S,
        mut sink: Option<EpochSink<'_, S::Error>>,
    ) -> Result<DriverRun, S::Error> {
        let start = self.resume(source)?;
        let per_tuple = self.options.batch_size <= 1 && self.optimizer.name() == "sgd";
        let (cost, per_row) = (self.compute, self.model.flops_per_example(0));
        let flops = (per_row, self.model.flops_per_example(1) - per_row);
        let mut run = DriverRun::default();
        // The run's two buffers (§6.3): one being filled, one being drained,
        // traded at every hand-off and kept across epochs, like the costs.
        let mut fills: [Fill; 2] = Default::default();
        let (mut compute, mut io, mut setup) = (Vec::new(), Vec::new(), 0.0);
        for epoch in start..self.epochs {
            self.optimizer.set_epoch(epoch);
            let mut stage = if per_tuple {
                KernelStage::PerTuple(PerTupleTrainer::new(self.optimizer.lr(), &self.options))
            } else {
                KernelStage::Minibatch(MinibatchTrainer::new(
                    self.model.num_params(),
                    self.options.clone(),
                ))
            };
            compute.clear();
            let (model, optimizer) = (self.model.as_mut(), self.optimizer.as_mut());
            let result = run_epoch_pipeline(
                telemetry,
                self.double_buffer,
                &mut fills,
                |fill, sender| {
                    let waits = &sender.kernel_waits();
                    setup = source.stream_epoch(epoch, fill, waits, &mut io, &mut |fill| {
                        if compute.len() <= fill.slot {
                            compute.resize(fill.slot + 1, 0.0);
                        }
                        compute[fill.slot] += cost.price(fill.batch.len(), fill.features, flops);
                        let sim_seconds = fill.sim_seconds;
                        sender.fill_and_send(fill, sim_seconds)
                    })?;
                    Ok(())
                },
                |fill: &mut Fill| {
                    fill.batch.settle(); // into this lane's cache
                    for t in fill.batch.rows() {
                        match &mut stage {
                            KernelStage::PerTuple(pt) => pt.feed(model, t),
                            KernelStage::Minibatch(mb) => mb.feed(model, optimizer, t),
                        }
                    }
                    true
                },
            );
            match result {
                Ok(report) => {
                    run.pipeline.fills += report.fills;
                    run.pipeline.batches_consumed += report.batches_consumed;
                    run.pipeline.stall_wall_seconds += report.stall_wall_seconds;
                    run.pipeline.backpressure_wall_seconds += report.backpressure_wall_seconds;
                }
                Err(PipelineError::Producer(e)) => return Err(e),
                Err(PipelineError::ProducerPanicked(msg)) => {
                    panic!("epoch pipeline producer panicked: {msg}")
                }
            }
            let stats = match stage {
                KernelStage::PerTuple(pt) => pt.finish(),
                KernelStage::Minibatch(mb) => mb.finish(model, optimizer),
            };

            // Sources whose scan reports no fills of its own account the
            // whole epoch as one fill with zero separate loading cost.
            let slots = io.len().max(compute.len());
            io.resize(slots, 0.0);
            compute.resize(slots, 0.0);
            let epoch_seconds = clock::epoch_seconds(&io, &compute, self.double_buffer);
            self.sim_clock += setup + epoch_seconds;
            let flow = source.epoch_done(EpochOutcome {
                epoch,
                setup_seconds: setup,
                io_seconds: io.iter().sum(),
                compute_seconds: compute.iter().sum(),
                epoch_seconds,
                sim_seconds_end: self.sim_clock,
                stats,
                model: self.model.as_ref(),
            });
            if let Some(sink) = sink.as_mut() {
                let ck = TrainCheckpoint {
                    epoch_next: epoch + 1,
                    seed: self.seed,
                    sim_clock: self.sim_clock,
                    model_params: self.model.params().to_vec(),
                    optimizer_state: self.optimizer.state_bytes(),
                };
                sink(&ck, stats.mean_loss)?;
            }
            if flow.is_break() {
                run.halted = true;
                break;
            }
        }
        Ok(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corgipile_ml::{build_model, ModelKind, OptimizerKind};
    use corgipile_storage::{Page, Tuple};
    use std::sync::Arc;

    /// Sparse rows of three widths, in fills whose width changes mid-fill;
    /// slot 1 takes two fills, so its charge accumulates across them.
    fn mixed_fills() -> Vec<(usize, Vec<Tuple>)> {
        let widths: [(usize, &[usize]); 4] = [
            (0, &[3, 3, 7, 7, 7, 12]),
            (1, &[12, 3, 12, 7]),
            (1, &[7, 7, 3]),
            (2, &[3, 12, 12, 12, 7, 3]),
        ];
        let mut id = 0;
        widths
            .iter()
            .map(|&(slot, nnzs)| {
                let rows = nnzs.iter().map(|&nnz| {
                    id += 1;
                    let idx: Vec<u32> = (0..nnz as u32).map(|j| j * 3).collect();
                    let vals = idx.iter().map(|&j| (j as f32 - 10.0) / 7.0).collect();
                    let label = if id % 2 == 0 { 1.0 } else { -1.0 };
                    Tuple::sparse(id, 40, idx, vals, label)
                });
                (slot, rows.collect())
            })
            .collect()
    }

    /// Epoch 0 streams every fill; epoch `e > 0` streams fill `e − 1` alone,
    /// so that epoch's compute total is exactly that fill's slot charge.
    struct MixedSource {
        fills: Vec<(usize, Vec<Tuple>)>,
        compute: Vec<f64>,
    }

    impl EpochSource for MixedSource {
        type Error = StorageError;

        fn replay(&mut self, _epochs: usize) -> Result<(), StorageError> {
            Ok(())
        }

        fn stream_epoch(
            &mut self,
            epoch: usize,
            fill: &mut Fill,
            _kernel_waits: &dyn Fn() -> bool,
            fill_io: &mut Vec<f64>,
            emit: &mut dyn FnMut(&mut Fill) -> bool,
        ) -> Result<f64, StorageError> {
            let picked = if epoch == 0 {
                0..self.fills.len()
            } else {
                epoch - 1..epoch
            };
            for (slot, rows) in &self.fills[picked] {
                let mut page = Page::new_jumbo(1 << 20);
                rows.iter().for_each(|t| page.push(t.view()).unwrap());
                fill.slot = *slot;
                fill.batch.clear();
                fill.batch.push_page(&Arc::new(page), |_, _| true);
                fill.features = fill.batch.features();
                if !emit(fill) {
                    break;
                }
            }
            fill_io.clear();
            Ok(0.0)
        }

        fn epoch_done(&mut self, epoch: EpochOutcome<'_>) -> ControlFlow<()> {
            self.compute.push(epoch.compute_seconds);
            ControlFlow::Continue(())
        }
    }

    /// Each slot's charge as the clock added it before it priced counts, in
    /// a walk of its own: the overhead plus the row's FLOPs ÷ the rate per
    /// row, or, per fill, the overhead plus the fill's summed FLOPs ÷ the
    /// rate.
    fn per_row_charges(
        model: &dyn Model,
        cost: ComputeCostModel,
        fills: &[(usize, Vec<Tuple>)],
    ) -> Vec<f64> {
        let mut slots = vec![0.0f64; 3];
        let rate = cost.flops_per_second;
        for (slot, rows) in fills {
            let flops = rows
                .iter()
                .map(|t| model.flops_per_example(t.features.nnz()));
            if cost.per_fill {
                slots[*slot] += cost.per_tuple_overhead + flops.fold(0.0, |a, f| a + f) / rate;
            } else {
                for f in flops {
                    slots[*slot] += cost.per_tuple_overhead + f / rate;
                }
            }
        }
        slots
    }

    /// The priced counts against the per-row reference: bit for bit per
    /// fill (the FLOPs sum is an exact integer either way), within 1e-12
    /// relative per row (count × price rounds once where the walk rounded
    /// per row).
    #[test]
    fn counted_fills_price_each_slot_like_the_per_row_sum() {
        let fills = mixed_fills();
        for cost in [
            ComputeCostModel::in_db_core(),
            ComputeCostModel::in_db_core().fused(),
        ] {
            for options in [TrainOptions::default(), TrainOptions::minibatch(4)] {
                let mut driver = EpochDriver::new(
                    build_model(&ModelKind::LogisticRegression, 40, 1),
                    OptimizerKind::default_sgd(0.1).build(),
                    options.clone(),
                    cost,
                    1 + fills.len(),
                    false,
                );
                let mut source = MixedSource {
                    fills: fills.clone(),
                    compute: Vec::new(),
                };
                driver
                    .run(&Telemetry::disabled(), &mut source, None)
                    .unwrap();
                let same = |got: f64, want: f64, ctx: &str| match cost.per_fill {
                    true => assert_eq!(got.to_bits(), want.to_bits(), "{ctx}"),
                    false => assert!((got - want).abs() <= 1e-12 * want, "{ctx}: {got} {want}"),
                };
                let want = per_row_charges(driver.model.as_ref(), cost, &fills);
                let ctx = format!("per fill {}, {options:?}", cost.per_fill);
                same(source.compute[0], want.iter().sum(), &ctx);
                for (i, (slot, _)) in fills.iter().enumerate() {
                    let alone = per_row_charges(driver.model.as_ref(), cost, &fills[i..=i])[*slot];
                    same(source.compute[1 + i], alone, &ctx);
                }
            }
        }
    }
}
