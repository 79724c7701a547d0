//! One fault plan, every way into training: `Trainer::train` under each
//! shuffle strategy, `Trainer::with_workers`, and SQL `TRAIN`. A block that
//! fails twice and recovers is invisible in the model and visible on the
//! simulated clock, and fails twice per run, not per epoch or per fill; a
//! block that never recovers is a typed [`StorageError::ReadFailed`] naming
//! it, not a panic.

use corgipile::core::{CorgiPileConfig, ParallelConfig, Trainer, TrainerConfig};
use corgipile::data::{DatasetSpec, Order};
use corgipile::db::{Database, DbError};
use corgipile::ml::ModelKind;
use corgipile::shuffle::StrategyKind;
use corgipile::storage::{FaultPlan, RetryPolicy, SimDevice, StorageError, Table, Telemetry};

const EPOCHS: usize = 3;

fn higgs() -> Table {
    DatasetSpec::higgs_like(600)
        .with_order(Order::ClusteredByLabel)
        .with_block_bytes(8192)
        .build_table(1)
        .unwrap()
}

/// `fault` placed on the table — and on Corgi²'s recluster of it, which
/// leaves the blocks it does not rewrite where they are but reads the
/// whole copy under an id of its own.
fn plan(table_id: u32, fault: impl Fn(FaultPlan, u32) -> FaultPlan) -> FaultPlan {
    fault(fault(FaultPlan::new(7), table_id), table_id | 0xC000_0000)
}

fn transient(table_id: u32) -> FaultPlan {
    plan(table_id, |p, id| p.with_transient(id, 0, 2))
}

fn dead(table_id: u32) -> FaultPlan {
    plan(table_id, |p, id| p.with_permanent(id, 1))
}

fn assert_block_1_is_dead(what: &str, err: &StorageError) {
    match err {
        StorageError::ReadFailed {
            block: 1, attempts, ..
        } => assert_eq!(
            *attempts,
            RetryPolicy::default().max_retries + 1,
            "{what}: every retry is spent first"
        ),
        other => panic!("{what}: expected ReadFailed on block 1, got {other}"),
    }
}

/// What one `Trainer` run leaves behind: parameter bits, loading-side
/// simulated seconds (setup included), retries counted by the devices, and
/// the transient failures the caller's device reports.
struct Run {
    params: Vec<u32>,
    io_seconds: f64,
    retries: u64,
    transient_failures: u64,
}

fn train(trainer: &Trainer, table: &Table, faults: Option<FaultPlan>) -> Result<Run, StorageError> {
    let telemetry = Telemetry::enabled();
    let mut dev = SimDevice::hdd(0);
    dev.set_telemetry(telemetry.clone());
    if let Some(faults) = faults {
        dev.set_fault_plan(faults);
    }
    let report = trainer.train(table, &mut dev, 11)?;
    Ok(Run {
        params: report.model.params().iter().map(|p| p.to_bits()).collect(),
        io_seconds: report
            .epochs
            .iter()
            .map(|e| e.setup_seconds + e.io_seconds)
            .sum(),
        retries: telemetry.counter("storage.device.retries").get(),
        transient_failures: dev
            .fault_injector()
            .map_or(0, |injector| injector.stats().transient_failures),
    })
}

/// The same runs for any trainer of `epochs` epochs: clean, flaky block 0
/// (for `EPOCHS` epochs and for one), dead block 1.
fn check_trainer(what: &str, trainer: impl Fn(usize) -> Trainer, table: &Table) {
    let table_id = table.config().table_id;
    let clean = train(&trainer(EPOCHS), table, None).unwrap();
    assert_eq!(clean.retries, 0, "{what}");

    let flaky = train(&trainer(EPOCHS), table, Some(transient(table_id))).unwrap();
    assert_eq!(
        flaky.params, clean.params,
        "{what}: a retried read changed the model"
    );
    assert!(flaky.retries > 0, "{what}: nothing was retried");
    // The fault is the run's: it does not re-arm per epoch or per fill, and
    // the caller's device holds its count.
    let one_epoch = train(&trainer(1), table, Some(transient(table_id))).unwrap();
    assert_eq!(
        flaky.retries, one_epoch.retries,
        "{what}: {EPOCHS} epochs retried more than one"
    );
    assert_eq!(flaky.transient_failures, flaky.retries, "{what}");
    // Each failed attempt also costs the seek that found it.
    let overhead = flaky.io_seconds - clean.io_seconds;
    assert!(
        overhead >= RetryPolicy::default().total_backoff(2),
        "{what}: retries cost {overhead} simulated seconds"
    );

    match train(&trainer(EPOCHS), table, Some(dead(table_id))) {
        Err(e) => assert_block_1_is_dead(what, &e),
        Ok(_) => panic!("{what}: trained over a dead block"),
    }
}

#[test]
fn every_strategy_retries_a_flaky_block_and_reports_a_dead_one() {
    let table = higgs();
    for kind in StrategyKind::all() {
        for double_buffer in [false, true] {
            let trainer = |epochs| {
                Trainer::new(
                    TrainerConfig::new(ModelKind::Svm, epochs)
                        .with_strategy(kind)
                        .with_corgipile(
                            CorgiPileConfig::default()
                                .with_buffer_fraction(0.2)
                                .with_double_buffer(double_buffer),
                        ),
                )
            };
            check_trainer(
                &format!("{} double_buffer={double_buffer}", kind.name()),
                trainer,
                &table,
            );
        }
    }
}

#[test]
fn multi_worker_training_retries_a_flaky_block_and_reports_a_dead_one() {
    let table = higgs();
    for pn in [1, 2, 4] {
        for double_buffer in [false, true] {
            // One block per fill: the flaky block's fill is then the slowest
            // of its slot, which is what a slot is charged.
            let workers = ParallelConfig {
                workers: pn,
                total_buffer_fraction: pn as f64 / table.num_blocks() as f64,
                ..Default::default()
            };
            let trainer = |epochs| {
                let cfg = TrainerConfig::new(ModelKind::Svm, epochs)
                    .with_batch_size(8)
                    .with_corgipile(CorgiPileConfig::default().with_double_buffer(double_buffer));
                Trainer::new(cfg).with_workers(workers.clone())
            };
            check_trainer(
                &format!("{pn} workers double_buffer={double_buffer}"),
                trainer,
                &table,
            );
        }
    }
}

#[test]
fn sql_train_retries_a_flaky_block_and_reports_a_dead_one() {
    for double_buffer in [0, 1] {
        let sql = format!(
            "SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = {EPOCHS}, seed = 11, \
             strategy = 'corgipile', double_buffer = {double_buffer}, model_name = m"
        );
        // A fresh engine per run: device statistics start at zero.
        let run = |faults: Option<fn(u32) -> FaultPlan>| {
            let db = Database::new(SimDevice::hdd(0));
            db.register_table("higgs", higgs());
            let table_id = db.catalog().table("higgs").unwrap().config().table_id;
            let mut s = db.connect();
            if let Some(faults) = faults {
                s.inject_faults(faults(table_id));
            }
            let outcome = s.execute(&sql).map(|_| {
                let params = &s.catalog().model("m").unwrap().params;
                params.iter().map(|p| p.to_bits()).collect::<Vec<u32>>()
            });
            (outcome, s.device_mut().stats().clone())
        };
        let (clean, clean_io) = run(None);
        let (flaky, flaky_io) = run(Some(transient));
        assert_eq!(flaky.unwrap(), clean.unwrap());
        assert_eq!(clean_io.retries, 0);
        assert!(flaky_io.retries > 0);
        assert!(
            flaky_io.io_seconds - clean_io.io_seconds >= RetryPolicy::default().total_backoff(2)
        );
        match run(Some(dead)).0 {
            Err(DbError::Storage(e)) => assert_block_1_is_dead("sql", &e),
            other => panic!("expected a storage error, got {other:?}"),
        }
    }
}
