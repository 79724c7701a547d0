//! Concurrency stress: many sessions over one `Arc<Database>`.
//!
//! The engine/connection split's contract is that concurrency is purely a
//! scheduling concern — a trained model depends only on the tuple stream
//! (table contents + RNG seeds), never on device timing, cache residency,
//! or what other sessions are doing. These tests drive TRAIN / PREDICT /
//! EXPLAIN from many threads at once — one of them under an injected
//! fault plan — and require every model to be bit-identical to its serial
//! counterpart, at the SQL layer and at the physical-operator layer.

use corgipile::data::{DatasetSpec, Order};
use corgipile::db::{Database, QueryResult};
use corgipile::storage::{FaultPlan, SimDevice, Table};
use std::sync::Arc;

fn higgs(n: usize) -> Table {
    DatasetSpec::higgs_like(n)
        .with_order(Order::ClusteredByLabel)
        .with_block_bytes(8192)
        .build_table(1)
        .unwrap()
}

fn train_sql(seed: usize, name: &str) -> String {
    format!(
        "SELECT * FROM higgs TRAIN BY svm WITH learning_rate = 0.05, \
         max_epoch_num = 2, seed = {seed}, model_name = {name}"
    )
}

/// The serial counterpart: the same query on a private single-session
/// engine (no shared pool, nobody else on the device).
fn serial_params(table: &Table, seed: usize, fault: Option<FaultPlan>) -> Vec<f32> {
    let db = Database::new(SimDevice::hdd_scaled(1000.0, 0));
    db.register_table("higgs", table.clone());
    let mut s = db.connect();
    if let Some(plan) = fault {
        s.inject_faults(plan);
    }
    s.execute(&train_sql(seed, "m")).unwrap();
    db.catalog().model("m").unwrap().params.clone()
}

#[test]
fn concurrent_sessions_match_their_serial_counterparts_bit_for_bit() {
    const SESSIONS: usize = 6;
    let table = higgs(2000);
    let table_id = table.config().table_id;
    let fault_plan = || {
        FaultPlan::new(77)
            .with_transient(table_id, 0, 2)
            .with_random_transient(0.05, 2)
    };

    // Serial references, one engine each.
    let want: Vec<Vec<f32>> = (0..SESSIONS)
        .map(|i| {
            let fault = (i == 0).then(fault_plan);
            serial_params(&table, i, fault)
        })
        .collect();

    // Concurrent run: every session on the same engine, same shared pool,
    // all threads training (plus EXPLAIN and PREDICT) at once. Session 0
    // carries the fault plan; its transients must stay invisible to the
    // others and to its own trained model.
    let db = Database::with_shared_buffers(SimDevice::hdd_scaled(1000.0, 0), 64 << 20);
    db.register_table("higgs", table.clone());
    std::thread::scope(|scope| {
        for i in 0..SESSIONS {
            let db = Arc::clone(&db);
            scope.spawn(move || {
                let mut s = db.connect();
                if i == 0 {
                    s.inject_faults(fault_plan());
                }
                match s
                    .execute("EXPLAIN SELECT * FROM higgs TRAIN BY svm")
                    .unwrap()
                {
                    QueryResult::Plan(lines) => assert!(!lines.is_empty()),
                    _ => panic!("expected a plan"),
                }
                let name = format!("m{i}");
                match s.execute(&train_sql(i, &name)).unwrap() {
                    QueryResult::Train(t) => {
                        assert!(t.skipped_blocks().is_empty(), "retries recover everything")
                    }
                    _ => panic!("expected a train result"),
                }
                // Inference scans have no retry path; lift the fault plan
                // first (through the handle, so it stays session-scoped).
                s.device_mut().clear_fault_injector();
                match s
                    .execute(&format!("SELECT * FROM higgs PREDICT BY {name}"))
                    .unwrap()
                {
                    QueryResult::Predict { predictions, .. } => {
                        assert_eq!(predictions.len(), 2000)
                    }
                    _ => panic!("expected predictions"),
                }
            });
        }
    });

    for (i, want) in want.iter().enumerate() {
        let got = db.catalog().model(&format!("m{i}")).unwrap().params.clone();
        assert_eq!(
            &got, want,
            "session {i} diverged from its serial counterpart under concurrency"
        );
    }
}

#[test]
fn shared_pool_cache_hit_rate_beats_cold_per_session_pools() {
    let table = higgs(2000);
    let sql = "SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 1, model_name = m";
    let rate = |hits: u64, misses: u64| -> f64 {
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    };

    // Cold: every session gets its own engine and its own pool, so each
    // one faults the whole table in from the device.
    let mut cold_hits = 0u64;
    let mut cold_misses = 0u64;
    for _ in 0..4 {
        let db = Database::with_shared_buffers(SimDevice::hdd_scaled(1000.0, 0), 64 << 20);
        db.register_table("higgs", table.clone());
        db.connect().execute(sql).unwrap();
        let stats = db.pool_stats();
        cold_hits += stats.hits;
        cold_misses += stats.misses;
    }

    // Shared: the same four single-epoch sessions over one engine. The
    // first faults the blocks in; the other three ride its cache.
    let db = Database::with_shared_buffers(SimDevice::hdd_scaled(1000.0, 0), 64 << 20);
    db.register_table("higgs", table.clone());
    for _ in 0..4 {
        db.connect().execute(sql).unwrap();
    }
    let stats = db.pool_stats();

    let cold_rate = rate(cold_hits, cold_misses);
    let shared_rate = rate(stats.hits, stats.misses);
    assert!(
        shared_rate > cold_rate,
        "shared pool hit rate {shared_rate:.3} must beat cold per-session pools \
         {cold_rate:.3}"
    );
    assert_eq!(cold_rate, 0.0, "single-epoch cold sessions never hit");
    assert!(
        shared_rate > 0.5,
        "three of four shared sessions run fully cached"
    );
}

#[test]
fn per_session_stats_sum_to_engine_totals_under_concurrency() {
    let table = higgs(1000);
    let db = Database::new(SimDevice::hdd_scaled(1000.0, 0));
    db.register_table("higgs", table);
    let per_session: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let db = Arc::clone(&db);
                scope.spawn(move || {
                    let mut s = db.connect();
                    s.execute(&train_sql(i, &format!("m{i}"))).unwrap();
                    s.device().stats().device_bytes
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(per_session.iter().all(|&b| b > 0));
    assert_eq!(
        db.device_stats().device_bytes,
        per_session.iter().sum::<u64>(),
        "engine-wide stats are the sum of the per-session handles"
    );
}

#[test]
fn operator_layer_concurrent_execution_is_bit_identical() {
    use corgipile::db::{ExecContext, PhysicalPlan, SgdOperator, StrategyKind};
    use corgipile::ml::{build_model, ModelKind, OptimizerKind, TrainOptions};
    use corgipile::shuffle::StrategyParams;
    use corgipile::storage::{ComputeCostModel, DeviceHandle, SharedDevice};

    let table = Arc::new(higgs(1500));
    let table_id = table.config().table_id;
    let run = |dev: &mut DeviceHandle, seed: u64| -> Vec<f32> {
        let params = StrategyParams::default()
            .with_buffer_fraction(0.2)
            .with_seed(seed);
        let plan = PhysicalPlan::new(table.clone(), StrategyKind::CorgiPile, params);
        let op = SgdOperator::new(
            plan,
            build_model(&ModelKind::Svm, 28, seed),
            OptimizerKind::default_sgd(0.05).build(),
            TrainOptions::default(),
            ComputeCostModel::in_db_core(),
            2,
            true,
        );
        let mut ctx = ExecContext::new(dev);
        let result = op.execute(&mut ctx).expect("plan executes");
        result.model.params().to_vec()
    };

    // Serial references on private devices.
    let want: Vec<Vec<f32>> = (0..4u64)
        .map(|seed| {
            let mut dev = DeviceHandle::private(SimDevice::hdd_scaled(1000.0, 0));
            run(&mut dev, seed)
        })
        .collect();

    // The same four plans concurrently over one shared device, one of them
    // retrying through injected transient faults.
    let shared = SharedDevice::new(SimDevice::hdd_scaled(1000.0, 0));
    let got: Vec<Vec<f32>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4u64)
            .map(|seed| {
                let shared = &shared;
                let run = &run;
                scope.spawn(move || {
                    let mut dev = shared.handle();
                    if seed == 0 {
                        dev.set_fault_plan(
                            FaultPlan::new(5)
                                .with_transient(table_id, 1, 2)
                                .with_random_transient(0.03, 2),
                        );
                    }
                    run(&mut dev, seed)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(
        got, want,
        "operator-layer plans diverged under shared-device concurrency"
    );
}
