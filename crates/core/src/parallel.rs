//! Multi-process CorgiPile (§5) as a data order.
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
//! over the interleaved global stream, so multi-process CorgiPile is a data
//! order, with no trainer, thread or channel of its own: the CorgiPile
//! generator's `n/PN`-block fills dealt to the workers
//! ([`ParallelConfig::strategy`]), built and interleaved `batch/PN` rows per
//! worker per round by the one fill ([`EpochStream::fill_epoch`]). Each fill is priced on
//! a fresh [`ParallelConfig::fill_device`]; the workers load in parallel, so
//! a slot costs its slowest fill. [`parallel_epoch_plan`] collects the
//! stream as the order reference.

use corgipile_shuffle::{BlockStrategy, Deal, EpochStream, Fill, StrategyKind, StrategyParams};
use corgipile_storage::{SimDevice, StorageError, Table, Tuple};

/// Configuration of multi-process CorgiPile. The global batch size and the
/// shared seed are the run's own (see [`ParallelConfig::strategy`]).
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
    /// The simulated loader device every fill starts from, fresh: a fill is
    /// an independent task, so its first block pays the seek whichever fills
    /// ran before it.
    pub fn fill_device(&self) -> SimDevice {
        SimDevice::hdd_scaled(self.device_scale.max(1.0), self.cache_bytes)
    }

    /// Blocks per worker fill over a table of `blocks` blocks (`n/PN`).
    fn fill_blocks(&self, blocks: usize) -> usize {
        let n_total =
            ((blocks as f64 * self.total_buffer_fraction).round() as usize).max(self.workers);
        (n_total / self.workers).max(1)
    }

    /// The order over a table of `blocks` blocks: the CorgiPile generator
    /// under the shared `seed`, its fills of `n/PN` blocks dealt to the
    /// workers, `batch_size/PN` rows (at least one) per worker per round.
    pub fn strategy(&self, blocks: usize, batch_size: usize, seed: u64) -> BlockStrategy {
        assert!(self.workers >= 1, "need at least one worker");
        let (workers, share) = (self.workers, (batch_size / self.workers).max(1));
        let params = StrategyParams::default().with_seed(seed);
        let deal = Deal { workers, share };
        BlockStrategy::new(StrategyKind::CorgiPile, params).dealt(deal, self.fill_blocks(blocks))
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

/// Epoch `epoch` of multi-process CorgiPile over `table`, collected: the
/// order reference for everything that trains on the stream.
pub fn parallel_epoch_plan(
    table: &Table,
    cfg: &ParallelConfig,
    batch_size: usize,
    seed: u64,
    epoch: usize,
) -> Result<ParallelEpoch, StorageError> {
    let mut strategy = cfg.strategy(table.num_blocks(), batch_size, seed);
    let mut stream = EpochStream::new(&mut strategy, table, "shuffle");
    let mut dev = cfg.fill_device();
    for _ in 0..=epoch {
        stream.start(&mut dev)?;
    }
    let (mut rows, mut io) = (Vec::new(), Vec::new());
    stream.fill_epoch(&mut dev, &mut Fill::default(), &|| false, &mut io, |fill| {
        rows.extend(fill.batch.rows().map(|r| r.to_tuple()));
        true
    })?;
    let order = &stream.order;
    // Cut the stream back into rounds: every worker gives `share` rows per
    // round, or what is left of its fills.
    let Deal { workers, share } = order.deal.expect("a multi-process order is dealt");
    let mut left = vec![0; workers];
    for k in 0..order.fills() {
        for &b in order.fill(k) {
            left[k % workers] += table.block(b)?.tuple_count();
        }
    }
    let (mut worker_streams, mut merged_batches) = (vec![Vec::new(); workers], Vec::new());
    let mut rows = rows.into_iter();
    while left.iter().any(|&l| l > 0) {
        let mut batch = Vec::new();
        for (stream, left) in worker_streams.iter_mut().zip(&mut left) {
            let took: Vec<Tuple> = rows.by_ref().take(share.min(*left)).collect();
            *left -= took.len();
            stream.extend_from_slice(&took);
            batch.extend(took);
        }
        merged_batches.push(batch);
    }
    let worker_io = (0..workers).map(|w| io.iter().skip(w).step_by(workers).sum::<f64>());
    Ok(ParallelEpoch {
        worker_streams,
        merged_batches,
        io_seconds: worker_io.fold(0.0, f64::max),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CorgiPileConfig, Trainer, TrainerConfig};
    use corgipile_data::{DatasetSpec, Order};
    use corgipile_ml::{build_model, train_minibatch, ModelKind, OptimizerKind, TrainOptions};
    use corgipile_shuffle::{EpochOrder, Rank, ShuffleStrategy};
    use corgipile_storage::{splitmix64, Access, FaultPlan, RetryPolicy, Telemetry};

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

    /// Epoch `epoch`'s order of `pcfg` over `t`.
    fn order(
        t: &Table,
        pcfg: &ParallelConfig,
        batch: usize,
        seed: u64,
        epoch: usize,
    ) -> EpochOrder {
        let (mut strategy, mut order) = (
            pcfg.strategy(t.num_blocks(), batch, seed),
            EpochOrder::default(),
        );
        (0..=epoch).for_each(|_| strategy.next_order(t, &mut order));
        order
    }

    /// Epoch 0 of `pn` workers over `t`, read through `dev`: the ids
    /// streamed, and how the stream ended.
    fn stream(
        t: &Table,
        pn: usize,
        dev: &mut SimDevice,
    ) -> (Vec<u64>, Result<Vec<f64>, StorageError>) {
        let mut strategy = workers(pn).strategy(t.num_blocks(), 16, 11);
        let mut stream = EpochStream::new(&mut strategy, t, "shuffle");
        stream.start(dev).unwrap();
        let (mut ids, mut io) = (Vec::new(), Vec::new());
        let ended = stream.fill_epoch(dev, &mut Fill::default(), &|| false, &mut io, |fill| {
            ids.extend(fill.batch.rows().map(|r| r.id));
            true
        });
        (ids, ended.map(|()| io))
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
        let (order, pn) = (&order(t, pcfg, batch, seed, epoch), pcfg.workers);
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
                let params = StrategyParams::default().with_seed(9);
                let mut one = BlockStrategy::new(StrategyKind::CorgiPile, params);
                let mut want = EpochOrder::default();
                for _ in 0..=epoch {
                    one.order(t.num_blocks(), pcfg.fill_blocks(t.num_blocks()), &mut want);
                }
                let dealt = order(&t, &pcfg, 16, 9, epoch);
                assert_eq!(
                    dealt.deal.map(|d| (d.workers, d.share)),
                    Some((pn, 16 / pn))
                );
                want.deal = dealt.deal;
                assert_eq!(dealt, want, "workers {pn} epoch {epoch}");
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
        // kernel — and the trainer streams exactly that plan.
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

    #[test]
    fn stream_reports_the_slowest_worker_per_fill_slot() {
        // Every fill is priced from zero on a fresh loader device, and PN
        // workers load in parallel: slot j costs the slowest of fills
        // jPN … jPN + PN − 1.
        let t = clustered(2000);
        for pn in [1usize, 4] {
            let pcfg = ParallelConfig {
                workers: pn,
                total_buffer_fraction: 0.2,
                ..Default::default()
            };
            let order = order(&t, &pcfg, 16, 7, 0);
            let priced: Vec<f64> = (0..order.fills())
                .map(|k| {
                    let mut dev = pcfg.fill_device();
                    for &b in order.fill(k) {
                        let policy = RetryPolicy::default();
                        t.read(b, Access::Random, &mut dev, &policy).unwrap();
                    }
                    dev.stats().io_seconds
                })
                .collect();
            let slowest = priced
                .chunks(pn)
                .map(|c| c.iter().copied().fold(0.0, f64::max));
            let r = Trainer::new(TrainerConfig::new(ModelKind::Svm, 1).with_batch_size(16))
                .with_workers(pcfg)
                .train(&t, &mut SimDevice::in_memory(), 7)
                .unwrap();
            assert_eq!(r.epochs[0].io_seconds, slowest.sum::<f64>(), "workers {pn}");
        }
    }

    #[test]
    fn transient_faults_are_retried_and_the_stream_completes() {
        let t = clustered(600);
        let tid = t.config().table_id;
        for pn in [1usize, 4] {
            let plan = FaultPlan::new(5)
                .with_transient(tid, 0, 2)
                .with_transient(tid, 1, 1);
            let mut dev = SimDevice::in_memory();
            dev.set_fault_plan(plan);
            let (faulted, ended) = stream(&t, pn, &mut dev);
            ended.unwrap();
            let (clean, _) = stream(&t, pn, &mut SimDevice::in_memory());
            assert_eq!(faulted, clean, "retries must hide transients");
            assert_eq!(faulted.len(), 600);
            // The run's one injector saw every failure, once.
            let failures = dev.fault_injector().unwrap().stats().transient_failures;
            assert_eq!(failures, 3, "workers {pn}");
        }
    }

    #[test]
    fn permanent_fault_surfaces_a_typed_error_and_ends_the_stream_at_its_fill() {
        let t = clustered(600);
        assert!(t.num_blocks() > 1);
        let plan = FaultPlan::new(5).with_permanent(t.config().table_id, 0);
        let attempts = RetryPolicy::default().max_retries + 1;
        for pn in [1usize, 4] {
            for double_buffer in [false, true] {
                let mut dev = SimDevice::in_memory();
                dev.set_fault_plan(plan.clone());
                let cfg = TrainerConfig::new(ModelKind::Svm, 2)
                    .with_corgipile(CorgiPileConfig::default().with_double_buffer(double_buffer));
                let err = Trainer::new(cfg)
                    .with_workers(workers(pn))
                    .train(&t, &mut dev, 11)
                    .unwrap_err();
                assert!(
                    matches!(err, StorageError::ReadFailed { block: 0, attempts: a, .. } if a == attempts),
                    "workers {pn} double_buffer {double_buffer}: {err:?}"
                );
            }
            let mut dev = SimDevice::in_memory();
            dev.set_fault_plan(plan.clone());
            let (streamed, ended) = stream(&t, pn, &mut dev);
            let err = ended.unwrap_err();
            assert!(matches!(err, StorageError::ReadFailed { block: 0, .. }));
            assert!(
                streamed.len() < 600,
                "stream must end early on a dead block"
            );
        }
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
            assert_eq!(counter("core.trainer.tuples"), 1200);
            let span_count = snap
                .metrics
                .histograms
                .iter()
                .find(|(n, _)| n == "shuffle.fill.wall_seconds")
                .map(|(_, h)| h.count)
                .unwrap_or(0);
            let fills = order(&t, &workers(pn), 1, 42, 0).fills() as u64;
            assert_eq!(span_count, 2 * fills, "one fill span per worker fill");
        }
    }
}
