//! The end-to-end trainer: strategy × model × optimizer × device.
//!
//! [`Trainer::train`] runs `epochs` passes of a [`ShuffleStrategy`] over a
//! heap table, feeding the stream to per-tuple or mini-batch SGD while
//! accounting simulated time:
//!
//! * **I/O time** comes from the strategy's segment costs (device cost
//!   model);
//! * **compute time** comes from the model's FLOP estimate × the
//!   [`ComputeCostModel`];
//! * the two are combined with the single- or double-buffer pipeline model
//!   of §6.3 (double buffering overlaps loading with SGD).
//!
//! The per-epoch records ([`EpochRecord`]) carry cumulative simulated time,
//! train loss, and test metric — exactly the data plotted in the paper's
//! convergence/time figures.

use corgipile_ml::{
    accuracy, build_model, mean_loss, r_squared, train_minibatch, train_per_tuple,
    ComputeCostModel, EpochStats, MinibatchTrainer, Model, ModelKind, OptimizerKind,
    TrainCheckpoint, TrainOptions,
};
use corgipile_shuffle::{build_strategy, Segment, ShuffleStrategy, StrategyKind, StrategyParams};
use corgipile_storage::{
    run_epoch_pipeline, DoubleBufferModel, PipelineError, SimDevice, StorageError, Table, Tuple,
};

use std::path::Path;

use crate::config::CorgiPileConfig;

/// Full configuration of a training run.
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Model to train.
    pub model: ModelKind,
    /// Number of epochs.
    pub epochs: usize,
    /// Shuffle strategy.
    pub strategy: StrategyKind,
    /// CorgiPile-specific knobs (buffer fraction, sampling, double buffer).
    pub corgipile: CorgiPileConfig,
    /// Optimizer.
    pub optimizer: OptimizerKind,
    /// Batch size / clipping.
    pub train_options: TrainOptions,
    /// Compute cost model for the simulated clock.
    pub compute: ComputeCostModel,
}

impl TrainerConfig {
    /// A config with the paper's defaults: CorgiPile strategy, per-tuple
    /// SGD at lr 0.1 with 0.95 decay, in-DB compute costs.
    pub fn new(model: ModelKind, epochs: usize) -> Self {
        TrainerConfig {
            model,
            epochs,
            strategy: StrategyKind::CorgiPile,
            corgipile: CorgiPileConfig::default(),
            optimizer: OptimizerKind::default_sgd(0.1),
            train_options: TrainOptions::default(),
            compute: ComputeCostModel::in_db_core(),
        }
    }

    /// Override the strategy.
    pub fn with_strategy(mut self, s: StrategyKind) -> Self {
        self.strategy = s;
        self
    }

    /// Override the CorgiPile config (also sets buffer fraction/seed for
    /// the buffered baselines).
    pub fn with_corgipile(mut self, c: CorgiPileConfig) -> Self {
        self.corgipile = c;
        self
    }

    /// Override the optimizer.
    pub fn with_optimizer(mut self, o: OptimizerKind) -> Self {
        self.optimizer = o;
        self
    }

    /// Set the mini-batch size (1 = per-tuple SGD).
    pub fn with_batch_size(mut self, b: usize) -> Self {
        self.train_options.batch_size = b;
        self
    }

    /// Set gradient clipping.
    pub fn with_clip_norm(mut self, c: f32) -> Self {
        self.train_options.clip_norm = c;
        self
    }

    /// Override the compute cost model.
    pub fn with_compute(mut self, c: ComputeCostModel) -> Self {
        self.compute = c;
        self
    }

    fn strategy_params(&self, seed: u64) -> StrategyParams {
        self.corgipile.strategy_params().with_seed(seed)
    }
}

/// One epoch's measurements.
#[derive(Debug, Clone)]
pub struct EpochRecord {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// One-off setup cost charged this epoch (offline shuffles).
    pub setup_seconds: f64,
    /// Loading-side simulated seconds this epoch.
    pub io_seconds: f64,
    /// Compute-side simulated seconds this epoch.
    pub compute_seconds: f64,
    /// Pipelined epoch duration (after single-/double-buffer overlap).
    pub epoch_seconds: f64,
    /// Cumulative simulated time at the *end* of this epoch.
    pub sim_seconds_end: f64,
    /// Mean training loss over the epoch stream (pre-update).
    pub train_loss: f64,
    /// Test metric at epoch end: accuracy for classifiers, R² for
    /// regression. `None` when no test set was supplied.
    pub test_metric: Option<f64>,
}

/// The result of a training run.
pub struct TrainReport {
    /// Strategy used.
    pub strategy: StrategyKind,
    /// Model kind trained.
    pub model_kind: ModelKind,
    /// Per-epoch records.
    pub epochs: Vec<EpochRecord>,
    /// The trained model.
    pub model: Box<dyn Model>,
    /// Final accuracy (classifiers) or R² (regression) on the train table.
    pub final_train_metric: f64,
    /// Wall-clock seconds actually spent.
    pub wall_seconds: f64,
}

impl std::fmt::Debug for TrainReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainReport")
            .field("strategy", &self.strategy)
            .field("model_kind", &self.model_kind)
            .field("epochs", &self.epochs.len())
            .field("final_train_metric", &self.final_train_metric)
            .field("wall_seconds", &self.wall_seconds)
            .finish_non_exhaustive()
    }
}

impl TrainReport {
    /// Total simulated seconds (setup + all epochs).
    pub fn total_sim_seconds(&self) -> f64 {
        self.epochs.last().map(|e| e.sim_seconds_end).unwrap_or(0.0)
    }

    /// Final training accuracy (alias of the final train metric for
    /// classifiers).
    pub fn final_train_accuracy(&self) -> f64 {
        self.final_train_metric
    }

    /// Final test metric, if a test set was supplied.
    pub fn final_test_metric(&self) -> Option<f64> {
        self.epochs.last().and_then(|e| e.test_metric)
    }

    /// First epoch (0-based) whose test metric reaches `target`, with the
    /// cumulative simulated time at that point.
    pub fn time_to_metric(&self, target: f64) -> Option<(usize, f64)> {
        self.epochs
            .iter()
            .find(|e| e.test_metric.map(|m| m >= target).unwrap_or(false))
            .map(|e| (e.epoch, e.sim_seconds_end))
    }
}

/// Per-epoch checkpoint sink: receives the freshly-built
/// [`TrainCheckpoint`] and the epoch's mean training loss; an `Err`
/// aborts the run at that epoch boundary.
pub type EpochSink<'a> = &'a mut dyn FnMut(&TrainCheckpoint, f64) -> corgipile_storage::Result<()>;

/// Runs training jobs described by a [`TrainerConfig`].
#[derive(Debug, Clone)]
pub struct Trainer {
    cfg: TrainerConfig,
}

impl Trainer {
    /// Create a trainer.
    pub fn new(cfg: TrainerConfig) -> Self {
        Trainer { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &TrainerConfig {
        &self.cfg
    }

    /// Train on `table` with no test set.
    pub fn train(
        &self,
        table: &Table,
        dev: &mut SimDevice,
        seed: u64,
    ) -> corgipile_storage::Result<TrainReport> {
        self.train_with_test(table, &[], dev, seed)
    }

    /// Train on `table`, evaluating on `test` after each epoch.
    pub fn train_with_test(
        &self,
        table: &Table,
        test: &[Tuple],
        dev: &mut SimDevice,
        seed: u64,
    ) -> corgipile_storage::Result<TrainReport> {
        self.train_resumable(table, test, dev, seed, None, None)
    }

    /// [`Trainer::train_with_test`] with epoch-granular checkpoint/resume.
    ///
    /// When `checkpoint_path` is set, a [`TrainCheckpoint`] is written
    /// atomically after every epoch. When `resume` is set, epochs
    /// `0..resume.epoch_next` are *replayed* rather than re-trained: the
    /// strategy's per-epoch RNG draws depend only on the seed and the table
    /// shape, so driving it against a scratch in-memory device lands every
    /// internal stream exactly where the checkpointed run left it, after
    /// which the saved model parameters, optimizer state and simulated
    /// clock are restored. A killed run resumed this way produces a
    /// **bit-identical** final model to an uninterrupted one.
    ///
    /// The returned report covers only the epochs actually executed here
    /// (`resume.epoch_next..epochs`); `sim_seconds_end` stays cumulative
    /// across the resume because the clock is restored from the checkpoint.
    pub fn train_resumable(
        &self,
        table: &Table,
        test: &[Tuple],
        dev: &mut SimDevice,
        seed: u64,
        resume: Option<&TrainCheckpoint>,
        checkpoint_path: Option<&Path>,
    ) -> corgipile_storage::Result<TrainReport> {
        self.train_resumable_sink(table, test, dev, seed, resume, checkpoint_path, None)
    }

    /// [`Trainer::train_resumable`] with a per-epoch checkpoint sink,
    /// mirroring the in-DB `SGD` operator's: `sink` receives the
    /// freshly-built [`TrainCheckpoint`] and the epoch's mean training loss
    /// after every epoch (alongside any `checkpoint_path` file write). An
    /// `Err` from the sink aborts the run at that epoch boundary — the
    /// library-layer hook for WAL-backed durable stores.
    #[allow(clippy::too_many_arguments)]
    pub fn train_resumable_sink(
        &self,
        table: &Table,
        test: &[Tuple],
        dev: &mut SimDevice,
        seed: u64,
        resume: Option<&TrainCheckpoint>,
        checkpoint_path: Option<&Path>,
        mut sink: Option<EpochSink<'_>>,
    ) -> corgipile_storage::Result<TrainReport> {
        let dim = table.dim()?;
        let wall_start = std::time::Instant::now();
        let mut model = build_model(&self.cfg.model, dim, seed);
        let mut optimizer = self.cfg.optimizer.build();
        let mut strategy: Box<dyn ShuffleStrategy> =
            build_strategy(self.cfg.strategy, self.cfg.strategy_params(seed));

        let mut sim_clock = 0.0f64;
        let mut start_epoch = 0usize;
        if let Some(ck) = resume {
            if ck.seed != seed {
                return Err(StorageError::Corrupt(format!(
                    "checkpoint was taken under seed {}, cannot resume under seed {}",
                    ck.seed, seed
                )));
            }
            if ck.model_params.len() != model.params().len() {
                return Err(StorageError::Corrupt(format!(
                    "checkpoint carries {} model parameters, this run expects {}",
                    ck.model_params.len(),
                    model.params().len()
                )));
            }
            start_epoch = ck.epoch_next.min(self.cfg.epochs);
            let mut scratch = SimDevice::in_memory();
            for _ in 0..start_epoch {
                let _ = strategy.next_epoch(table, &mut scratch);
            }
            model.params_mut().copy_from_slice(&ck.model_params);
            if !optimizer.load_state(&ck.optimizer_state) {
                return Err(StorageError::Corrupt(
                    "checkpoint optimizer state does not match this optimizer".into(),
                ));
            }
            sim_clock = ck.sim_clock;
        }

        // Observability: per-epoch events + counters through the device's
        // telemetry handle (no-ops when the handle is disabled).
        let tel = dev.telemetry().clone();
        let tuple_counter = tel.counter("core.trainer.tuples");
        let epoch_counter = tel.counter("core.trainer.epochs");

        let per_tuple_mode = self.cfg.train_options.batch_size <= 1
            && matches!(
                self.cfg.optimizer,
                OptimizerKind::Sgd { .. } | OptimizerKind::SgdInverseTime { .. }
            );

        let mut records = Vec::with_capacity(self.cfg.epochs - start_epoch);
        for epoch in start_epoch..self.cfg.epochs {
            optimizer.set_epoch(epoch);

            // Per-segment loading/compute costs for the pipeline model.
            let mut io = Vec::new();
            let mut compute = Vec::new();
            let (setup_seconds, stats) = if self.cfg.corgipile.double_buffer {
                // Double-buffered path: a producer thread streams buffer
                // fills (strategy + device mutably borrowed into it for the
                // epoch) while this thread trains on the previous fill. The
                // producer emits exactly `next_epoch`'s segments in order,
                // so the visit order — and therefore the final model — is
                // bit-identical to the serial path below.
                let mut setup_seconds = 0.0f64;
                let mut loss_sum = 0.0f64;
                let mut examples = 0usize;
                let mut updates = 0usize;
                // Mini-batches span buffer fills, exactly as a DataLoader's
                // batches span the loader's internal buffers: the
                // accumulator carries partial batches across segments and
                // flushes the trailing remainder once, at epoch end.
                let mut mb = (!per_tuple_mode).then(|| {
                    MinibatchTrainer::new(model.num_params(), self.cfg.train_options.clone())
                });
                let strategy = strategy.as_mut();
                let dev = &mut *dev;
                let result = run_epoch_pipeline::<Segment, std::convert::Infallible, _, _>(
                    &tel,
                    |sender| {
                        setup_seconds = strategy.stream_epoch(table, dev, &mut |seg| {
                            sender.fill_and_send(move |span| {
                                span.add_sim_seconds(seg.io_seconds);
                                seg
                            })
                        });
                        Ok(())
                    },
                    |seg| {
                        io.push(seg.io_seconds);
                        let flops: f64 = seg
                            .tuples
                            .first()
                            .map(|t| model.flops_per_example(t.features.nnz()))
                            .unwrap_or(0.0);
                        compute.push(self.cfg.compute.seconds(flops, seg.tuples.len()));
                        if let Some(mb) = mb.as_mut() {
                            for t in &seg.tuples {
                                mb.feed(model.as_mut(), optimizer.as_mut(), t);
                            }
                        } else {
                            let s =
                                train_per_tuple(model.as_mut(), optimizer.as_ref(), &seg.tuples);
                            loss_sum += s.mean_loss * s.examples as f64;
                            examples += s.examples;
                            updates += s.updates;
                        }
                        true
                    },
                );
                match result {
                    Ok(_) => {}
                    Err(PipelineError::Producer(e)) => match e {},
                    Err(PipelineError::ProducerPanicked(msg)) => {
                        panic!("epoch pipeline producer panicked: {msg}")
                    }
                }
                let stats = match mb {
                    Some(mb) => mb.finish(model.as_mut(), optimizer.as_mut()),
                    None => EpochStats {
                        mean_loss: if examples > 0 {
                            loss_sum / examples as f64
                        } else {
                            0.0
                        },
                        examples,
                        updates,
                    },
                };
                (setup_seconds, stats)
            } else {
                let plan = strategy.next_epoch(table, dev);
                for seg in &plan.segments {
                    io.push(seg.io_seconds);
                    let flops: f64 = seg
                        .tuples
                        .first()
                        .map(|t| model.flops_per_example(t.features.nnz()))
                        .unwrap_or(0.0);
                    compute.push(self.cfg.compute.seconds(flops, seg.tuples.len()));
                }
                // Train over the continuous epoch stream: mini-batches span
                // buffer fills, exactly as a DataLoader's batches span the
                // loader's internal buffers.
                let stream = plan.segments.iter().flat_map(|s| s.tuples.iter());
                let stats = if per_tuple_mode {
                    train_per_tuple(model.as_mut(), optimizer.as_ref(), stream)
                } else {
                    train_minibatch(
                        model.as_mut(),
                        optimizer.as_mut(),
                        stream,
                        &self.cfg.train_options,
                    )
                };
                (plan.setup_seconds, stats)
            };
            let loss_sum = stats.mean_loss * stats.examples as f64;
            let examples = stats.examples;
            let epoch_seconds = if self.cfg.corgipile.double_buffer {
                DoubleBufferModel::double_buffer(&io, &compute)
            } else {
                DoubleBufferModel::single_buffer(&io, &compute)
            };
            sim_clock += setup_seconds + epoch_seconds;

            let test_metric = if test.is_empty() {
                None
            } else {
                Some(evaluate(model.as_ref(), test))
            };
            let epoch_io: f64 = io.iter().sum();
            let epoch_compute: f64 = compute.iter().sum();
            let train_loss = if examples > 0 {
                loss_sum / examples as f64
            } else {
                0.0
            };
            tuple_counter.add(examples as u64);
            epoch_counter.inc();
            let e = epoch as u64;
            tel.event(e, "core.epoch.io_seconds", epoch_io);
            tel.event(e, "core.epoch.compute_seconds", epoch_compute);
            tel.event(e, "core.epoch.epoch_seconds", epoch_seconds);
            tel.event(e, "core.epoch.train_loss", train_loss);
            tel.event(e, "core.epoch.tuples", examples as f64);
            records.push(EpochRecord {
                epoch,
                setup_seconds,
                io_seconds: epoch_io,
                compute_seconds: epoch_compute,
                epoch_seconds,
                sim_seconds_end: sim_clock,
                train_loss,
                test_metric,
            });
            if checkpoint_path.is_some() || sink.is_some() {
                let ck = TrainCheckpoint {
                    epoch_next: epoch + 1,
                    seed,
                    sim_clock,
                    model_params: model.params().to_vec(),
                    optimizer_state: optimizer.state_bytes(),
                };
                if let Some(path) = checkpoint_path {
                    ck.save(path)?;
                }
                if let Some(sink) = sink.as_mut() {
                    sink(&ck, train_loss)?;
                }
            }
        }

        let train_tuples = table.all_tuples();
        let final_train_metric = evaluate(model.as_ref(), &train_tuples);
        Ok(TrainReport {
            strategy: self.cfg.strategy,
            model_kind: self.cfg.model.clone(),
            epochs: records,
            model,
            final_train_metric,
            wall_seconds: wall_start.elapsed().as_secs_f64(),
        })
    }
}

/// Accuracy for classifiers, R² for regression.
pub fn evaluate(model: &dyn Model, tuples: &[Tuple]) -> f64 {
    if model.is_classifier() {
        accuracy(model, tuples)
    } else {
        r_squared(model, tuples)
    }
}

/// Mean loss helper re-exported for reports.
pub fn evaluate_loss(model: &dyn Model, tuples: &[Tuple]) -> f64 {
    mean_loss(model, tuples)
}

/// Grid-search the initial learning rate (paper §7.1.3: {0.1, 0.01, 0.001})
/// with a short run each, returning the best rate by final train metric.
pub fn grid_search_lr(
    base: &TrainerConfig,
    table: &Table,
    test: &[Tuple],
    probe_epochs: usize,
    seed: u64,
) -> corgipile_storage::Result<f32> {
    let mut best = (f64::NEG_INFINITY, 0.1f32);
    for lr in [0.1f32, 0.01, 0.001] {
        let mut cfg = base.clone();
        cfg.epochs = probe_epochs;
        cfg.optimizer = match cfg.optimizer {
            OptimizerKind::Sgd { decay, .. } => OptimizerKind::Sgd { lr0: lr, decay },
            OptimizerKind::SgdInverseTime { a, .. } => OptimizerKind::SgdInverseTime { lr0: lr, a },
            OptimizerKind::Adam {
                beta1, beta2, eps, ..
            } => OptimizerKind::Adam {
                lr0: lr,
                beta1,
                beta2,
                eps,
            },
        };
        let mut dev = SimDevice::in_memory();
        let report = Trainer::new(cfg).train_with_test(table, test, &mut dev, seed)?;
        let metric = report
            .final_test_metric()
            .unwrap_or(report.final_train_metric);
        if metric > best.0 {
            best = (metric, lr);
        }
    }
    Ok(best.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use corgipile_data::{DatasetSpec, Order};

    /// Laptop-scale experiments keep the paper's seek-to-transfer ratio by
    /// scaling the device latency with the dataset (DESIGN.md §4).
    const DEV_SCALE: f64 = 1000.0;

    fn clustered_higgs(n: usize) -> (Table, Vec<Tuple>) {
        let ds = DatasetSpec::higgs_like(n)
            .with_order(Order::ClusteredByLabel)
            .with_block_bytes(8192)
            .build(7);
        (ds.to_table(1).unwrap(), ds.test.clone())
    }

    #[test]
    fn corgipile_matches_shuffle_once_and_beats_no_shuffle_on_clustered_data() {
        // The paper's headline claim, in miniature (Figures 1/11/12). The
        // table is sized so a 10% buffer spans ~20 blocks per fill — small
        // buffers over label-pure blocks need enough blocks per fill for
        // the mixture to concentrate, exactly as in the paper's setups.
        let (table, test) = clustered_higgs(12_000);
        let metric = |kind: StrategyKind| {
            let cfg = TrainerConfig::new(ModelKind::Svm, 5).with_strategy(kind);
            let mut dev = SimDevice::hdd_scaled(DEV_SCALE, 0);
            let r = Trainer::new(cfg)
                .train_with_test(&table, &test, &mut dev, 3)
                .unwrap();
            // Mean of the last three epochs damps last-iterate noise.
            let tail: Vec<f64> = r
                .epochs
                .iter()
                .rev()
                .take(3)
                .filter_map(|e| e.test_metric)
                .collect();
            tail.iter().sum::<f64>() / tail.len() as f64
        };
        let so = metric(StrategyKind::ShuffleOnce);
        let cp = metric(StrategyKind::CorgiPile);
        let ns = metric(StrategyKind::NoShuffle);
        assert!(
            (so - cp).abs() < 0.04,
            "CorgiPile {cp} should match Shuffle Once {so} within 4 points"
        );
        assert!(
            cp > ns + 0.05,
            "CorgiPile {cp} should beat No Shuffle {ns} clearly"
        );
    }

    #[test]
    fn corgipile_total_time_beats_shuffle_once() {
        let (table, _) = clustered_higgs(12_000);
        let time = |kind: StrategyKind| {
            let cfg = TrainerConfig::new(ModelKind::LogisticRegression, 3).with_strategy(kind);
            let mut dev = SimDevice::hdd_scaled(DEV_SCALE, 0);
            Trainer::new(cfg)
                .train(&table, &mut dev, 1)
                .unwrap()
                .total_sim_seconds()
        };
        let so = time(StrategyKind::ShuffleOnce);
        let cp = time(StrategyKind::CorgiPile);
        assert!(
            cp < so,
            "CorgiPile {cp}s should be faster end-to-end than Shuffle Once {so}s"
        );
    }

    #[test]
    fn double_buffer_reduces_epoch_time() {
        let (table, _) = clustered_higgs(2000);
        let run = |db: bool| {
            let cfg = TrainerConfig::new(ModelKind::Svm, 2)
                .with_corgipile(CorgiPileConfig::default().with_double_buffer(db));
            let mut dev = SimDevice::hdd(0);
            Trainer::new(cfg).train(&table, &mut dev, 1).unwrap();
            let r = Trainer::new(
                TrainerConfig::new(ModelKind::Svm, 2)
                    .with_corgipile(CorgiPileConfig::default().with_double_buffer(db)),
            )
            .train(&table, &mut SimDevice::hdd(0), 1)
            .unwrap();
            r.epochs[0].epoch_seconds
        };
        let single = run(false);
        let double = run(true);
        assert!(
            double < single,
            "double buffering {double} !< single {single}"
        );
    }

    /// Final model parameters for a run with the given double-buffer knob.
    fn final_params(cfg: &TrainerConfig, table: &Table, db: bool, seed: u64) -> Vec<f32> {
        let cfg = cfg
            .clone()
            .with_corgipile(CorgiPileConfig::default().with_double_buffer(db));
        let mut dev = SimDevice::hdd(0);
        let r = Trainer::new(cfg).train(table, &mut dev, seed).unwrap();
        r.model.params().to_vec()
    }

    #[test]
    fn pipelined_epochs_are_bit_identical_to_serial_per_tuple_sgd() {
        // The tentpole correctness bar: for a fixed seed the double-buffered
        // producer/consumer pipeline must visit tuples in exactly the serial
        // order, so the trained models match bit-for-bit.
        let (table, _) = clustered_higgs(1500);
        for strategy in [
            StrategyKind::CorgiPile,
            StrategyKind::Mrs,
            StrategyKind::ShuffleOnce,
        ] {
            for seed in [1u64, 7, 42] {
                let cfg = TrainerConfig::new(ModelKind::Svm, 3).with_strategy(strategy);
                let serial = final_params(&cfg, &table, false, seed);
                let pipelined = final_params(&cfg, &table, true, seed);
                assert_eq!(serial, pipelined, "{strategy} seed {seed} diverged");
            }
        }
    }

    #[test]
    fn pipelined_minibatch_adam_is_bit_identical_to_serial() {
        // Mini-batches span buffer fills; the pipelined consumer's carry-over
        // accumulator must flush on exactly the same tuple boundaries as the
        // serial single-stream call (including the trailing partial batch).
        let (table, _) = clustered_higgs(1100);
        let cfg = TrainerConfig::new(ModelKind::LogisticRegression, 3)
            .with_batch_size(32)
            .with_optimizer(OptimizerKind::default_adam(0.05));
        for seed in [2u64, 19] {
            let serial = final_params(&cfg, &table, false, seed);
            let pipelined = final_params(&cfg, &table, true, seed);
            assert_eq!(serial, pipelined, "seed {seed} diverged");
        }
    }

    #[test]
    fn pipelined_epochs_record_fill_spans() {
        let (table, _) = clustered_higgs(800);
        let cfg = TrainerConfig::new(ModelKind::Svm, 2);
        let mut dev = SimDevice::hdd(0);
        let tel = corgipile_storage::Telemetry::enabled();
        dev.set_telemetry(tel.clone());
        Trainer::new(cfg).train(&table, &mut dev, 1).unwrap();
        let snap = tel.snapshot();
        let fill = snap
            .metrics
            .histograms
            .iter()
            .find(|(n, _)| n == "pipeline.fill.sim_seconds")
            .map(|(_, h)| h)
            .expect("pipelined epochs should record fill spans");
        assert!(fill.count > 0);
        assert!(
            fill.sum > 0.0,
            "fill spans should carry the segment io_seconds"
        );
    }

    #[test]
    fn records_are_cumulative_and_complete() {
        let (table, test) = clustered_higgs(1000);
        let cfg = TrainerConfig::new(ModelKind::LogisticRegression, 3);
        let mut dev = SimDevice::hdd(0);
        let r = Trainer::new(cfg)
            .train_with_test(&table, &test, &mut dev, 1)
            .unwrap();
        assert_eq!(r.epochs.len(), 3);
        for w in r.epochs.windows(2) {
            assert!(w[1].sim_seconds_end > w[0].sim_seconds_end);
            assert_eq!(w[1].epoch, w[0].epoch + 1);
        }
        assert!(r.epochs.iter().all(|e| e.test_metric.is_some()));
        assert!(r.wall_seconds > 0.0);
        assert!(r.total_sim_seconds() > 0.0);
    }

    #[test]
    fn minibatch_and_adam_paths_work() {
        let (table, test) = clustered_higgs(1500);
        let cfg = TrainerConfig::new(ModelKind::LogisticRegression, 3)
            .with_batch_size(64)
            .with_optimizer(OptimizerKind::default_adam(0.05));
        let mut dev = SimDevice::ssd(0);
        let r = Trainer::new(cfg)
            .train_with_test(&table, &test, &mut dev, 2)
            .unwrap();
        assert!(
            r.final_test_metric().unwrap() > 0.55,
            "adam minibatch should learn"
        );
    }

    #[test]
    fn regression_reports_r2() {
        let ds = DatasetSpec::msd_like(1200)
            .with_block_bytes(4 * 8192)
            .build(3);
        let table = ds.to_table(2).unwrap();
        let cfg =
            TrainerConfig::new(ModelKind::LinearRegression, 6).with_optimizer(OptimizerKind::Sgd {
                lr0: 0.01,
                decay: 0.95,
            });
        let mut dev = SimDevice::ssd(0);
        let r = Trainer::new(cfg)
            .train_with_test(&table, &ds.test, &mut dev, 1)
            .unwrap();
        let r2 = r.final_test_metric().unwrap();
        assert!(
            r2 > 0.8,
            "linear regression should fit the linear data, R² {r2}"
        );
    }

    #[test]
    fn trainer_emits_per_epoch_events_when_telemetry_enabled() {
        let (table, _) = clustered_higgs(800);
        let cfg = TrainerConfig::new(ModelKind::Svm, 2);
        let mut dev = SimDevice::hdd(0);
        let tel = corgipile_storage::Telemetry::enabled();
        dev.set_telemetry(tel.clone());
        Trainer::new(cfg).train(&table, &mut dev, 1).unwrap();
        let ev = tel.events();
        assert_eq!(
            ev.iter()
                .filter(|e| e.name == "core.epoch.epoch_seconds")
                .count(),
            2
        );
        assert!(ev
            .iter()
            .any(|e| e.name == "core.epoch.tuples" && e.value > 0.0));
        let snap = tel.snapshot();
        let counter = |name: &str| {
            snap.metrics
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert_eq!(counter("core.trainer.epochs"), 2);
        assert_eq!(counter("core.trainer.tuples"), 1600);
        // The device mirrors its I/O counters into the same registry.
        assert!(counter("storage.device.device_bytes") > 0);
    }

    #[test]
    fn empty_table_is_an_error() {
        let table = Table::from_tuples(
            corgipile_storage::TableConfig::new("empty", 1),
            std::iter::empty(),
        )
        .unwrap();
        let cfg = TrainerConfig::new(ModelKind::Svm, 1);
        let mut dev = SimDevice::in_memory();
        assert!(Trainer::new(cfg).train(&table, &mut dev, 1).is_err());
    }

    #[test]
    fn time_to_metric_finds_crossing() {
        let (table, test) = clustered_higgs(1500);
        let cfg = TrainerConfig::new(ModelKind::Svm, 5);
        let mut dev = SimDevice::hdd(0);
        let r = Trainer::new(cfg)
            .train_with_test(&table, &test, &mut dev, 1)
            .unwrap();
        let final_metric = r.final_test_metric().unwrap();
        let hit = r.time_to_metric(final_metric - 0.01);
        assert!(hit.is_some());
        assert!(r.time_to_metric(1.1).is_none());
    }

    #[test]
    fn grid_search_returns_a_candidate_rate() {
        let (table, test) = clustered_higgs(600);
        let base = TrainerConfig::new(ModelKind::LogisticRegression, 2);
        let lr = grid_search_lr(&base, &table, &test, 1, 1).unwrap();
        assert!([0.1f32, 0.01, 0.001].contains(&lr));
    }

    /// Simulate a crash after `split` of `epochs` epochs and resume from the
    /// checkpoint; return (interrupted final params, straight final params).
    fn crash_and_resume(
        tag: &str,
        cfg: TrainerConfig,
        table: &Table,
        seed: u64,
        split: usize,
    ) -> (Vec<f32>, Vec<f32>, f64, f64) {
        let epochs = cfg.epochs;
        let path = std::env::temp_dir().join(format!(
            "corgi_resume_{tag}_{}_{}_{}.ckpt",
            std::process::id(),
            seed,
            split
        ));
        // Phase 1: run `split` epochs, checkpointing each, then "crash".
        let mut partial_cfg = cfg.clone();
        partial_cfg.epochs = split;
        Trainer::new(partial_cfg)
            .train_resumable(table, &[], &mut SimDevice::hdd(0), seed, None, Some(&path))
            .unwrap();
        // Phase 2: a fresh process loads the checkpoint and resumes.
        let ck = TrainCheckpoint::load(&path).unwrap();
        assert_eq!(ck.epoch_next, split);
        let resumed = Trainer::new(cfg.clone())
            .train_resumable(
                table,
                &[],
                &mut SimDevice::hdd(0),
                seed,
                Some(&ck),
                Some(&path),
            )
            .unwrap();
        assert_eq!(resumed.epochs.len(), epochs - split);
        // Reference: the uninterrupted run.
        let straight = Trainer::new(cfg)
            .train_with_test(table, &[], &mut SimDevice::hdd(0), seed)
            .unwrap();
        std::fs::remove_file(path).ok();
        (
            resumed.model.params().to_vec(),
            straight.model.params().to_vec(),
            resumed.total_sim_seconds(),
            straight.total_sim_seconds(),
        )
    }

    #[test]
    fn checkpoint_sink_sees_every_epoch_and_can_abort() {
        let (table, _) = clustered_higgs(600);
        let cfg = TrainerConfig::new(ModelKind::Svm, 3);
        // The sink fires once per epoch with the same checkpoint the file
        // path would have written.
        let mut seen: Vec<(usize, usize)> = Vec::new();
        let mut sink = |ck: &TrainCheckpoint, loss: f64| {
            assert!(loss.is_finite());
            seen.push((ck.epoch_next, ck.model_params.len()));
            Ok(())
        };
        let r = Trainer::new(cfg.clone())
            .train_resumable_sink(
                &table,
                &[],
                &mut SimDevice::hdd(0),
                7,
                None,
                None,
                Some(&mut sink),
            )
            .unwrap();
        let nparams = r.model.params().len();
        assert_eq!(seen, vec![(1, nparams), (2, nparams), (3, nparams)]);
        // An erroring sink aborts the run at that epoch boundary, the way
        // an injected WAL crash would kill a durable training query.
        let mut fail = |ck: &TrainCheckpoint, _loss: f64| {
            if ck.epoch_next == 2 {
                Err(corgipile_storage::StorageError::Crashed {
                    site: "wal.after_fsync".into(),
                })
            } else {
                Ok(())
            }
        };
        let err = Trainer::new(cfg)
            .train_resumable_sink(
                &table,
                &[],
                &mut SimDevice::hdd(0),
                7,
                None,
                None,
                Some(&mut fail),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            corgipile_storage::StorageError::Crashed { .. }
        ));
    }

    #[test]
    fn resume_after_crash_is_bit_identical_sgd() {
        let (table, _) = clustered_higgs(1200);
        let cfg = TrainerConfig::new(ModelKind::Svm, 5);
        let (resumed, straight, t_res, t_straight) = crash_and_resume("sgd", cfg, &table, 13, 2);
        assert_eq!(
            resumed, straight,
            "resumed SGD model must match bit-for-bit"
        );
        assert!(
            (t_res - t_straight).abs() < 1e-9,
            "simulated clock must survive resume"
        );
    }

    #[test]
    fn resume_after_crash_is_bit_identical_adam_minibatch() {
        let (table, _) = clustered_higgs(900);
        let cfg = TrainerConfig::new(ModelKind::LogisticRegression, 4)
            .with_batch_size(32)
            .with_optimizer(OptimizerKind::default_adam(0.05));
        let (resumed, straight, _, _) = crash_and_resume("adam", cfg, &table, 21, 3);
        assert_eq!(
            resumed, straight,
            "resumed Adam model must match bit-for-bit"
        );
    }

    #[test]
    fn resume_rejects_seed_and_shape_mismatches() {
        let (table, _) = clustered_higgs(600);
        let cfg = TrainerConfig::new(ModelKind::Svm, 2);
        let path =
            std::env::temp_dir().join(format!("corgi_resume_reject_{}.ckpt", std::process::id()));
        Trainer::new(cfg.clone())
            .train_resumable(
                &table,
                &[],
                &mut SimDevice::in_memory(),
                7,
                None,
                Some(&path),
            )
            .unwrap();
        let ck = TrainCheckpoint::load(&path).unwrap();
        // Wrong seed: the replayed RNG streams would diverge — refuse.
        let err = Trainer::new(cfg.clone())
            .train_resumable(&table, &[], &mut SimDevice::in_memory(), 8, Some(&ck), None)
            .unwrap_err();
        assert!(err.to_string().contains("seed"), "unexpected error: {err}");
        // Wrong model shape: parameter count differs — refuse.
        let mut bad = ck.clone();
        bad.model_params.push(0.0);
        let err = Trainer::new(cfg)
            .train_resumable(
                &table,
                &[],
                &mut SimDevice::in_memory(),
                7,
                Some(&bad),
                None,
            )
            .unwrap_err();
        assert!(
            err.to_string().contains("parameters"),
            "unexpected error: {err}"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn checkpoint_at_final_epoch_resumes_to_a_noop() {
        let (table, _) = clustered_higgs(400);
        let cfg = TrainerConfig::new(ModelKind::Svm, 3);
        let path =
            std::env::temp_dir().join(format!("corgi_resume_noop_{}.ckpt", std::process::id()));
        let full = Trainer::new(cfg.clone())
            .train_resumable(
                &table,
                &[],
                &mut SimDevice::in_memory(),
                5,
                None,
                Some(&path),
            )
            .unwrap();
        let ck = TrainCheckpoint::load(&path).unwrap();
        assert_eq!(ck.epoch_next, 3);
        let resumed = Trainer::new(cfg)
            .train_resumable(&table, &[], &mut SimDevice::in_memory(), 5, Some(&ck), None)
            .unwrap();
        assert!(resumed.epochs.is_empty(), "nothing left to train");
        assert_eq!(resumed.model.params(), full.model.params());
        std::fs::remove_file(path).ok();
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]
        /// Satellite property: for arbitrary seeds and crash points, a
        /// checkpoint→resume run equals the uninterrupted run bit-for-bit.
        #[test]
        fn prop_resume_is_bit_identical(seed in 0u64..10_000, split in 1usize..4) {
            let ds = DatasetSpec::higgs_like(400)
                .with_order(Order::ClusteredByLabel)
                .with_block_bytes(8192)
                .build(7);
            let table = ds.to_table(1).unwrap();
            let cfg = TrainerConfig::new(ModelKind::LogisticRegression, 4);
            let (resumed, straight, _, _) = crash_and_resume("prop", cfg, &table, seed, split);
            proptest::prop_assert_eq!(resumed, straight);
        }
    }
}
