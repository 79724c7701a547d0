//! The end-to-end trainer: strategy × model × optimizer × device.
//!
//! [`Trainer::train`] runs `epochs` passes of a [`ShuffleStrategy`]'s order
//! over a heap table — or, handed a [`ParallelConfig`], of multi-process
//! CorgiPile's (§5) — through the one fill and the one epoch loop
//! ([`EpochDriver`]), its loading charged by the device and its compute
//! priced from each fill's counts by the [`ComputeCostModel`], overlapped
//! serially or by two buffers (§6.3) on the clock's price list. The per-epoch records
//! ([`EpochRecord`]) carry cumulative simulated time, train loss and test
//! metric: the data plotted in the paper's convergence and time figures.

use corgipile_ml::{
    accuracy, build_model, r_squared, Model, ModelKind, OptimizerKind, TrainOptions,
};
use corgipile_shuffle::{
    build_strategy, EpochStream, ShuffleStrategy, StrategyKind, StrategyParams,
};
use corgipile_storage::{
    ComputeCostModel, Counter, SimDevice, StorageError, Table, Tuple, TupleView,
};
use std::ops::ControlFlow;

use crate::config::CorgiPileConfig;
use crate::driver::{EpochDriver, EpochHook, EpochOutcome, EpochSink, StrategySource};
use crate::parallel::ParallelConfig;

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

/// Runs training jobs described by a [`TrainerConfig`].
#[derive(Debug, Clone)]
pub struct Trainer {
    cfg: TrainerConfig,
    workers: Option<ParallelConfig>,
}

impl Trainer {
    /// Create a trainer.
    pub fn new(cfg: TrainerConfig) -> Self {
        Trainer { cfg, workers: None }
    }

    /// Train over multi-process CorgiPile (§5) instead of the configured
    /// single-process strategy: `workers.workers` loaders merged into
    /// global batches of the configured batch size. Data-parallel compute
    /// is the caller's [`ComputeCostModel`] to scale.
    pub fn with_workers(mut self, workers: ParallelConfig) -> Self {
        self.workers = Some(workers);
        self
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
        let wall_start = std::time::Instant::now();
        let mut driver = self.driver(table, seed)?;
        let epochs = self.run(&mut driver, table, test, dev, seed, None)?;
        let final_train_metric = evaluate(driver.model.as_ref(), table.rows());
        Ok(TrainReport {
            strategy: match self.workers {
                Some(_) => StrategyKind::CorgiPile,
                None => self.cfg.strategy,
            },
            model_kind: self.cfg.model.clone(),
            epochs,
            model: driver.model,
            final_train_metric,
            wall_seconds: wall_start.elapsed().as_secs_f64(),
        })
    }

    /// The [`EpochDriver`] this configuration describes: model, optimizer,
    /// options, compute profile, `seed` stamped into checkpoints.
    fn driver(&self, table: &Table, seed: u64) -> corgipile_storage::Result<EpochDriver> {
        let mut driver = EpochDriver::new(
            build_model(&self.cfg.model, table.dim()?, seed),
            self.cfg.optimizer.build(),
            self.cfg.train_options.clone(),
            self.cfg.compute,
            self.cfg.epochs,
            self.cfg.corgipile.double_buffer,
        );
        driver.seed = seed;
        Ok(driver)
    }

    /// Run `driver` over the configured order — the shuffle strategy's, or
    /// multi-process CorgiPile's when workers were handed in — and return
    /// the per-epoch records. Observability goes through the device's
    /// telemetry handle (no-ops when the handle is disabled).
    fn run(
        &self,
        driver: &mut EpochDriver,
        table: &Table,
        test: &[Tuple],
        dev: &mut SimDevice,
        seed: u64,
        sink: Option<EpochSink<'_, StorageError>>,
    ) -> corgipile_storage::Result<Vec<EpochRecord>> {
        let (tel, params) = (dev.telemetry().clone(), self.cfg.strategy_params(seed));
        let (mut strategy, mut loader): (Box<dyn ShuffleStrategy>, _) = match &self.workers {
            None => (build_strategy(self.cfg.strategy, params), None),
            Some(workers) => {
                // Worker fills read on fresh copies of the workers' loader
                // device, which carries the run's telemetry handle and, for
                // the run, its one fault injector.
                let mut loader = workers.fill_device();
                loader.set_telemetry(tel.clone());
                if let Some(injector) = dev.clear_fault_injector() {
                    loader.set_fault_injector(injector);
                }
                let batch_size = self.cfg.train_options.batch_size;
                let dealt = workers.strategy(table.num_blocks(), batch_size, seed);
                (Box::new(dealt), Some(loader))
            }
        };
        let mut source = StrategySource {
            stream: EpochStream::new(strategy.as_mut(), table, "shuffle"),
            scan: loader.as_mut().unwrap_or(&mut *dev),
            hook: TrainerEpochs {
                test,
                counters: ["core.trainer.tuples", "core.trainer.epochs"].map(|c| tel.counter(c)),
                records: Vec::new(),
            },
        };
        let run = driver.run(&tel, &mut source, sink);
        let records = source.hook.records;
        if let Some(injector) = loader.and_then(|mut loader| loader.clear_fault_injector()) {
            dev.set_fault_injector(injector);
        }
        run?;
        Ok(records)
    }
}

/// The library run's per-epoch hook: evaluate on the test set, count, emit
/// `core.epoch.*` events, keep the [`EpochRecord`].
struct TrainerEpochs<'a> {
    test: &'a [Tuple],
    /// `core.trainer.tuples` and `core.trainer.epochs`.
    counters: [Counter; 2],
    records: Vec<EpochRecord>,
}

impl EpochHook<SimDevice> for TrainerEpochs<'_> {
    fn epoch_done(&mut self, dev: &mut SimDevice, done: EpochOutcome<'_>) -> ControlFlow<()> {
        let test_metric = (!self.test.is_empty())
            .then(|| evaluate(done.model, self.test.iter().map(Tuple::view)));
        self.counters[0].add(done.stats.examples as u64);
        self.counters[1].inc();
        let e = done.epoch as u64;
        let event = |name, value| dev.telemetry().event(e, name, value);
        event("core.epoch.io_seconds", done.io_seconds);
        event("core.epoch.compute_seconds", done.compute_seconds);
        event("core.epoch.epoch_seconds", done.epoch_seconds);
        event("core.epoch.train_loss", done.stats.mean_loss);
        event("core.epoch.tuples", done.stats.examples as f64);
        self.records.push(EpochRecord {
            epoch: done.epoch,
            setup_seconds: done.setup_seconds,
            io_seconds: done.io_seconds,
            compute_seconds: done.compute_seconds,
            epoch_seconds: done.epoch_seconds,
            sim_seconds_end: done.sim_seconds_end,
            train_loss: done.stats.mean_loss,
            test_metric,
        });
        ControlFlow::Continue(())
    }
}

/// Accuracy for classifiers, R² for regression.
pub fn evaluate<'a, I>(model: &dyn Model, tuples: I) -> f64
where
    I: Iterator<Item = TupleView<'a>> + Clone,
{
    if model.is_classifier() {
        accuracy(model, tuples)
    } else {
        r_squared(model, tuples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corgipile_data::{DatasetSpec, Order};
    use corgipile_ml::TrainCheckpoint;

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
        // Mean over six seeds of the mean of the last three epochs: one
        // seed's last-iterate noise alone swings the gap by ±5 points.
        let metric = |kind: StrategyKind| {
            let cfg = TrainerConfig::new(ModelKind::Svm, 5).with_strategy(kind);
            let tail = (1..=6u64).flat_map(|seed| {
                let mut dev = SimDevice::hdd_scaled(DEV_SCALE, 0);
                let r = Trainer::new(cfg.clone())
                    .train_with_test(&table, &test, &mut dev, seed)
                    .unwrap();
                r.epochs
                    .into_iter()
                    .rev()
                    .take(3)
                    .filter_map(|e| e.test_metric)
            });
            tail.sum::<f64>() / 18.0
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
            std::iter::empty::<Tuple>(),
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

    /// Drive `trainer` through the same driver + source [`Trainer::train`]
    /// assembles, with the driver's resume field set by `setup` and an
    /// optional per-epoch sink. Returns the records, the parameters and the
    /// device's `(block reads, device bytes)`.
    fn drive(
        trainer: &Trainer,
        table: &Table,
        seed: u64,
        setup: impl FnOnce(&mut EpochDriver),
        sink: Option<EpochSink<'_, StorageError>>,
    ) -> corgipile_storage::Result<(Vec<EpochRecord>, Vec<f32>, [u64; 2])> {
        let mut driver = trainer.driver(table, seed)?;
        setup(&mut driver);
        let mut dev = SimDevice::hdd(0);
        let records = trainer.run(&mut driver, table, &[], &mut dev, seed, sink)?;
        let s = dev.stats();
        let reads = [s.random_reads + s.sequential_reads, s.device_bytes];
        Ok((records, driver.model.params().to_vec(), reads))
    }

    /// Run `trainer` to the end and return the last checkpoint its sink saw
    /// — what a process killed right after that epoch would leave behind —
    /// and the run's device reads.
    fn last_checkpoint(trainer: &Trainer, table: &Table, seed: u64) -> (TrainCheckpoint, [u64; 2]) {
        let mut last = None;
        let mut keep = |ck: &TrainCheckpoint, _loss: f64| {
            last = Some(ck.clone());
            Ok(())
        };
        let (_, _, reads) = drive(trainer, table, seed, |_| {}, Some(&mut keep)).unwrap();
        (last.expect("the sink fires once per epoch"), reads)
    }

    /// Simulate a crash after `split` of the trainer's epochs and resume
    /// from the last checkpoint; return (resumed final params, straight
    /// final params, resumed clock, straight clock). The resume replays
    /// orders, not reads: its device reads exactly what the uninterrupted
    /// run read after the crash point.
    fn crash_and_resume(
        trainer: Trainer,
        table: &Table,
        seed: u64,
        split: usize,
    ) -> (Vec<f32>, Vec<f32>, f64, f64) {
        let epochs = trainer.cfg.epochs;
        // Phase 1: run `split` epochs, checkpointing each, then "crash".
        let mut partial = trainer.clone();
        partial.cfg.epochs = split;
        let (ck, before_crash) = last_checkpoint(&partial, table, seed);
        assert_eq!(ck.epoch_next, split);
        // Phase 2: a fresh driver resumes from the checkpoint.
        let (resumed, resumed_params, resumed_reads) =
            drive(&trainer, table, seed, |d| d.resume_from = Some(ck), None).unwrap();
        assert_eq!(resumed.len(), epochs - split);
        // Reference: the uninterrupted run.
        let (straight, straight_params, reads) =
            drive(&trainer, table, seed, |_| {}, None).unwrap();
        let after_crash = [0, 1].map(|i| reads[i] - before_crash[i]);
        assert_eq!(
            resumed_reads, after_crash,
            "the resume read only the remaining epochs"
        );
        (
            resumed_params,
            straight_params,
            resumed.last().unwrap().sim_seconds_end,
            straight.last().unwrap().sim_seconds_end,
        )
    }

    #[test]
    fn checkpoint_sink_sees_every_epoch_and_can_abort() {
        let (table, _) = clustered_higgs(600);
        let cfg = Trainer::new(TrainerConfig::new(ModelKind::Svm, 3));
        // The sink fires once per epoch with that epoch's checkpoint.
        let mut seen: Vec<(usize, usize)> = Vec::new();
        let mut sink = |ck: &TrainCheckpoint, loss: f64| {
            assert!(loss.is_finite());
            seen.push((ck.epoch_next, ck.model_params.len()));
            Ok(())
        };
        let (_, params, _) = drive(&cfg, &table, 7, |_| {}, Some(&mut sink)).unwrap();
        let nparams = params.len();
        assert_eq!(seen, vec![(1, nparams), (2, nparams), (3, nparams)]);
        // An erroring sink aborts the run at that epoch boundary, the way
        // an injected WAL crash would kill a durable training query.
        let mut fail = |ck: &TrainCheckpoint, _loss: f64| {
            if ck.epoch_next == 2 {
                Err(StorageError::Crashed {
                    site: "wal.after_fsync".into(),
                })
            } else {
                Ok(())
            }
        };
        let err = drive(&cfg, &table, 7, |_| {}, Some(&mut fail)).unwrap_err();
        assert!(matches!(err, StorageError::Crashed { .. }));
    }

    #[test]
    fn resume_after_crash_is_bit_identical_sgd() {
        // Every strategy resumes by regenerating the orders it skips — setups
        // remade as the run made them — and reading nothing.
        let (table, _) = clustered_higgs(1200);
        for kind in StrategyKind::all() {
            let cfg = TrainerConfig::new(ModelKind::Svm, 5).with_strategy(kind);
            let (resumed, straight, t_res, t_straight) =
                crash_and_resume(Trainer::new(cfg), &table, 13, 2);
            assert_eq!(
                resumed, straight,
                "{kind}: resumed SGD model must match bit-for-bit"
            );
            assert!(
                (t_res - t_straight).abs() < 1e-9,
                "{kind}: simulated clock must survive resume"
            );
        }
    }

    #[test]
    fn resume_after_crash_is_bit_identical_adam_minibatch() {
        let (table, _) = clustered_higgs(900);
        let cfg = TrainerConfig::new(ModelKind::LogisticRegression, 4)
            .with_batch_size(32)
            .with_optimizer(OptimizerKind::default_adam(0.05));
        let (resumed, straight, _, _) = crash_and_resume(Trainer::new(cfg), &table, 21, 3);
        assert_eq!(
            resumed, straight,
            "resumed Adam model must match bit-for-bit"
        );
    }

    #[test]
    fn resume_after_crash_is_bit_identical_with_four_workers() {
        // A multi-worker fill is a pure function of (seed, worker, fill,
        // epoch): the source replays nothing and still resumes exactly.
        let (table, _) = clustered_higgs(900);
        let cfg = TrainerConfig::new(ModelKind::LogisticRegression, 4)
            .with_batch_size(32)
            .with_optimizer(OptimizerKind::default_adam(0.05));
        let trainer = Trainer::new(cfg).with_workers(ParallelConfig {
            workers: 4,
            total_buffer_fraction: 0.2,
            ..Default::default()
        });
        let (resumed, straight, t_res, t_straight) = crash_and_resume(trainer, &table, 21, 1);
        assert_eq!(resumed, straight, "resumed model must match bit-for-bit");
        assert!((t_res - t_straight).abs() < 1e-9);
    }

    #[test]
    fn resume_rejects_seed_and_shape_mismatches() {
        let (table, _) = clustered_higgs(600);
        let cfg = Trainer::new(TrainerConfig::new(ModelKind::Svm, 2));
        let (ck, _) = last_checkpoint(&cfg, &table, 7);
        // Wrong seed: the replayed RNG streams would diverge — refuse.
        let err = drive(&cfg, &table, 8, |d| d.resume_from = Some(ck.clone()), None).unwrap_err();
        assert!(err.to_string().contains("seed"), "unexpected error: {err}");
        // Wrong model shape: parameter count differs — refuse.
        let mut bad = ck.clone();
        bad.model_params.push(0.0);
        let err = drive(&cfg, &table, 7, |d| d.resume_from = Some(bad), None).unwrap_err();
        assert!(
            err.to_string().contains("parameters"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn checkpoint_at_final_epoch_resumes_to_a_noop() {
        let (table, _) = clustered_higgs(400);
        let cfg = Trainer::new(TrainerConfig::new(ModelKind::Svm, 3));
        let (ck, _) = last_checkpoint(&cfg, &table, 5);
        assert_eq!(ck.epoch_next, 3);
        let full = ck.model_params.clone();
        let (resumed, params, reads) =
            drive(&cfg, &table, 5, |d| d.resume_from = Some(ck), None).unwrap();
        assert_eq!(reads, [0, 0], "replaying every epoch reads nothing");
        assert!(resumed.is_empty(), "nothing left to train");
        assert_eq!(params, full);
    }

    #[test]
    fn l2_regularizes_per_tuple_sgd_and_zero_skips_the_decay() {
        // `train_options.l2` used to be dropped at batch_size = 1.
        let (table, _) = clustered_higgs(1200);
        let run = |l2: Option<f32>| {
            let mut cfg = TrainerConfig::new(ModelKind::LogisticRegression, 3);
            if let Some(l2) = l2 {
                cfg.train_options = TrainOptions::default().with_l2(l2);
            }
            let r = Trainer::new(cfg)
                .train(&table, &mut SimDevice::hdd(0), 3)
                .unwrap();
            r.model.params().to_vec()
        };
        let norm = |w: &[f32]| w.iter().map(|p| p * p).sum::<f32>();
        let (plain, zero, reg) = (run(None), run(Some(0.0)), run(Some(0.5)));
        assert_eq!(plain, zero, "l2 = 0 must not touch the weights");
        assert_ne!(plain, reg);
        assert!(
            norm(&reg) < norm(&plain),
            "{} !< {}",
            norm(&reg),
            norm(&plain)
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]
        /// For arbitrary seeds and crash points, a checkpoint→resume run
        /// equals the uninterrupted run bit-for-bit, and its replay reads no
        /// block: the resumed device reads exactly the remaining epochs'
        /// blocks.
        #[test]
        fn prop_resume_is_bit_identical(seed in 0u64..10_000, split in 1usize..4) {
            let ds = DatasetSpec::higgs_like(400)
                .with_order(Order::ClusteredByLabel)
                .with_block_bytes(8192)
                .build(7);
            let table = ds.to_table(1).unwrap();
            let trainer = Trainer::new(TrainerConfig::new(ModelKind::LogisticRegression, 4));
            let (resumed, straight, _, _) = crash_and_resume(trainer, &table, seed, split);
            proptest::prop_assert_eq!(resumed, straight);
        }
    }
}
