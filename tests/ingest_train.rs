//! Ingest-while-training end-to-end: `INSERT` appends through the
//! versioned block storage, `TRAIN` pins a snapshot and stays
//! bit-reproducible under concurrent writers, `TRAIN … CONTINUOUS`
//! re-pins at refresh boundaries while `PREDICT` serves, and the table
//! WAL recovers acknowledged appends after a crash at every write site
//! on the append path.

use corgipile::data::{DatasetSpec, Order};
use corgipile::db::{Database, DbError, QueryResult};
use corgipile::storage::{sites, FaultPlan, SimDevice, StorageError, Table, Tuple};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const DIM: usize = 28;

fn higgs(n: usize) -> Table {
    DatasetSpec::higgs_like(n)
        .with_order(Order::ClusteredByLabel)
        .with_block_bytes(8192)
        .build_table(1)
        .unwrap()
}

fn engine(n: usize) -> Arc<Database> {
    let db = Database::new(SimDevice::hdd_scaled(1000.0, 0));
    db.register_table("higgs", higgs(n));
    db
}

fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("corgi_ingest_{}_{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A deterministic drift batch: `n` rows whose features walk with `tag`.
fn batch(tag: usize, n: usize) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            let x = (tag * 1000 + i) as f32 * 0.001;
            Tuple::dense(0, vec![x; DIM], (i % 2) as f32)
        })
        .collect()
}

/// Fixed-plan training SQL: strategy and buffer pinned so the model bits
/// depend only on the tuple stream and the seed, never on what the
/// cost-based planner happens to estimate while writers race.
fn train_sql(model: &str, epochs: usize, seed: u64) -> String {
    format!(
        "SELECT * FROM higgs TRAIN BY svm CONTINUOUS WITH max_epoch_num = {epochs}, \
         seed = {seed}, strategy = 'corgipile', buffer_fraction = 0.2, model_name = {model}, \
         refresh = 1"
    )
}

fn pinned_train_sql(model: &str, epochs: usize, seed: u64) -> String {
    format!(
        "SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = {epochs}, seed = {seed}, \
         strategy = 'corgipile', buffer_fraction = 0.2, model_name = {model}"
    )
}

fn train(db: &Arc<Database>, sql: &str) -> corgipile::db::DbTrainSummary {
    match db.connect().execute(sql).unwrap() {
        QueryResult::Train(t) => t,
        other => panic!("expected Train result, got {other:?}"),
    }
}

fn params(db: &Database, name: &str) -> Vec<f32> {
    db.catalog().model(name).unwrap().params.clone()
}

#[test]
fn inserted_rows_are_visible_to_the_next_train() {
    let db = engine(300);
    db.catalog().append_rows("higgs", batch(0, 50)).unwrap();

    // The SQL surface appends through the same writer.
    let mut vals: Vec<String> = (0..DIM).map(|i| format!("{}.25", i % 5)).collect();
    vals.push("1".into());
    let row = format!("({})", vals.join(", "));
    let mut s = db.connect();
    match s
        .execute(&format!("INSERT INTO higgs VALUES {row}, {row}"))
        .unwrap()
    {
        QueryResult::Insert {
            rows,
            version,
            total_tuples,
            ..
        } => {
            assert_eq!(rows, 2);
            assert_eq!(version, 3, "each statement publishes a new version");
            assert_eq!(total_tuples, 352);
        }
        other => panic!("expected Insert result, got {other:?}"),
    }

    // A subsequent TRAIN pins the latest snapshot and scans every row.
    let t = train(&db, &pinned_train_sql("m", 2, 7));
    assert_eq!(t.snapshot_version, 3);
    let scanned: u64 = t.op_stats.iter().map(|s| s.rows).max().unwrap();
    assert_eq!(scanned, 2 * 352, "both epochs must cover the appended rows");
}

#[test]
fn pinned_snapshot_train_is_bit_identical_under_a_concurrent_writer() {
    let db = engine(800);
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        // Bounded writer: at most 6 publishes, so the version the train
        // pins always stays within the catalog's retained window.
        thread::spawn(move || {
            for i in 0..6 {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                db.catalog().append_rows("higgs", batch(i, 25)).unwrap();
                thread::sleep(Duration::from_millis(1));
            }
        })
    };
    let live = train(&db, &pinned_train_sql("live", 3, 11));
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();

    // Cold rerun: a fresh engine over exactly the snapshot the live train
    // pinned must produce the same bits, whatever the writer interleaved.
    let snap = db
        .catalog()
        .snapshot_at("higgs", live.snapshot_version)
        .unwrap();
    let cold_db = Database::new(SimDevice::hdd_scaled(1000.0, 0));
    cold_db.register_table("higgs", snap.table().as_ref().clone());
    train(&cold_db, &pinned_train_sql("cold", 3, 11));
    assert_eq!(
        params(&db, "live"),
        params(&cold_db, "cold"),
        "pinning must make the train independent of concurrent appends"
    );
}

#[test]
fn a_pinned_snapshot_outlives_its_eviction_from_the_retained_chain() {
    let db = engine(800);
    let pinned = db.catalog().snapshot("higgs").unwrap();
    assert_eq!(pinned.version(), 1);
    let rows_before = pinned.all_tuples();
    let cold_train = |model: &str| {
        let cold = Database::new(SimDevice::hdd_scaled(1000.0, 0));
        cold.register_table("higgs", pinned.table().as_ref().clone());
        train(&cold, &pinned_train_sql(model, 3, 11));
        params(&cold, model)
    };
    let params_before = cold_train("before");

    // The writer publishes until told to stop and reports each version, so
    // everything below the `recv` loop runs against live appends — into the
    // very blocks and open page v1 shares with the writer.
    let stop = Arc::new(AtomicBool::new(false));
    let (published, versions) = std::sync::mpsc::channel();
    let writer = {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            for i in 0.. {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let out = db.catalog().append_rows("higgs", batch(i, 3)).unwrap();
                published.send(out.version).ok();
            }
        })
    };
    // The catalog retains 8 versions: once v10 exists, v1 is long gone.
    while versions.recv().unwrap() < 10 {}
    assert!(
        db.catalog().snapshot_at("higgs", 1).is_err(),
        "v1 should have left the retained chain"
    );
    let rows_during = pinned.all_tuples();
    let params_during = cold_train("during");
    // One more publish *after* the train finished: the writer raced all of it.
    while versions.try_recv().is_ok() {}
    let still_writing = versions.recv().is_ok();
    stop.store(true, Ordering::SeqCst);
    writer.join().unwrap();

    assert!(still_writing, "the writer must have been live throughout");
    assert_eq!(pinned.num_tuples(), 800);
    assert_eq!(rows_during, rows_before, "a pinned snapshot never changes");
    assert_eq!(
        params_during, params_before,
        "training on an evicted-but-pinned snapshot must not see later appends"
    );
}

#[test]
fn continuous_train_runs_alongside_inserts_and_serving() {
    let db = engine(600);
    // Seed a model so PREDICT traffic has something to serve from epoch 0.
    train(&db, &pinned_train_sql("serve", 1, 3));

    thread::scope(|sc| {
        let wdb = Arc::clone(&db);
        sc.spawn(move || {
            for i in 0..5 {
                wdb.catalog().append_rows("higgs", batch(i, 30)).unwrap();
                thread::sleep(Duration::from_millis(1));
            }
        });
        let rdb = Arc::clone(&db);
        sc.spawn(move || {
            let mut s = rdb.connect();
            for _ in 0..5 {
                match s.execute("PREDICT serve ON higgs").unwrap() {
                    QueryResult::Serve(p) => assert!(p.rows >= 600),
                    other => panic!("expected Serve result, got {other:?}"),
                }
            }
        });
        let tdb = Arc::clone(&db);
        sc.spawn(move || {
            let t = train(&tdb, &train_sql("cont", 4, 5));
            assert_eq!(t.epochs.len(), 4);
            assert!(
                t.snapshot_version >= 1,
                "continuous train reports its last pin"
            );
        });
    });

    assert!(db.catalog().model("cont").is_ok());
    let final_tuples = db.catalog().table("higgs").unwrap().num_tuples();
    assert_eq!(final_tuples, 600 + 5 * 30);
}

/// One `CONTINUOUS` statement over deterministic drift: a refresh hook
/// appends one `rows`-row batch at every chunk boundary, so every run sees
/// the same snapshot sequence. Returns the engine and the device bytes the
/// training session read.
fn continuous_over_drift(
    model: &str,
    n: usize,
    epochs: usize,
    rows: usize,
) -> (Arc<Database>, u64) {
    let db = engine(n);
    let hook_db = Arc::clone(&db);
    let mut s = db.connect();
    s.set_refresh_hook(move |chunk| {
        hook_db
            .catalog()
            .append_rows("higgs", batch(chunk, rows))
            .unwrap();
    });
    match s.execute(&train_sql(model, epochs, 13)).unwrap() {
        QueryResult::Train(t) => {
            assert_eq!(
                t.snapshot_version, epochs as u64,
                "every boundary append re-pinned"
            );
        }
        other => panic!("expected Train result, got {other:?}"),
    }
    let io = s.device().stats().device_bytes;
    (db, io)
}

#[test]
fn continuous_train_reruns_bit_identically_over_the_same_drift() {
    let run = |model: &str| params(&continuous_over_drift(model, 400, 3, 20).0, model);
    assert_eq!(run("a"), run("b"));
}

#[test]
fn continuous_train_reaches_the_retrain_loss_with_less_device_io() {
    // What `CONTINUOUS` is for: rows keep arriving and the model must stay
    // current. It trains once, re-pinning at each boundary and keeping the
    // warm model — K epoch scans. Without it every drift step means a
    // retrain from scratch over the grown table, with the epochs the
    // continuous run has consumed by then — K·(K+1)/2 scans. Same append
    // schedule, same seed, same plan.
    const EPOCHS: usize = 4;
    const ROWS: usize = 50;
    let (continuous, continuous_io) = continuous_over_drift("m", 2_000, EPOCHS, ROWS);
    let continuous_loss = continuous.catalog().model("m").unwrap().train_loss;

    let db = engine(2_000);
    let mut s = db.connect();
    for step in 0..EPOCHS {
        if step > 0 {
            db.catalog()
                .append_rows("higgs", batch(step, ROWS))
                .unwrap();
        }
        s.execute(&pinned_train_sql("m", step + 1, 13)).unwrap();
    }
    let retrain_io = s.device().stats().device_bytes;
    let retrain_loss = db.catalog().model("m").unwrap().train_loss;

    assert!(
        continuous_io * 2 < retrain_io,
        "continuous read {continuous_io} B, retraining {retrain_io} B"
    );
    assert!(
        continuous_loss <= retrain_loss * 1.1 + 1e-6,
        "continuous loss {continuous_loss} vs retrain {retrain_loss}"
    );
}

#[test]
fn table_wal_recovers_acked_appends_at_every_crash_site() {
    // One cell per write site on the append path. `survives` says whether
    // the crashing statement's WAL frame was durable when the process
    // died: the statement either fully replays or fully vanishes —
    // never a prefix.
    enum Fault {
        Crash(&'static str),
        Torn(&'static str, usize),
    }
    let cells: &[(&str, Fault, bool)] = &[
        ("append_rows", Fault::Crash(sites::TABLE_APPEND_ROWS), false),
        ("wal_before", Fault::Crash(sites::WAL_BEFORE_APPEND), false),
        ("wal_torn", Fault::Torn(sites::WAL_BEFORE_APPEND, 7), false),
        (
            "wal_pre_fsync",
            Fault::Crash(sites::WAL_AFTER_APPEND_BEFORE_FSYNC),
            false,
        ),
        ("wal_post_fsync", Fault::Crash(sites::WAL_AFTER_FSYNC), true),
        // Batch B overflows the tail block, so the seal marker fires
        // mid-apply — after the row frame was already fsynced.
        ("seal_block", Fault::Crash(sites::TABLE_SEAL_BLOCK), true),
    ];
    let base = higgs(200);
    let acked = batch(0, 10);
    let lost_or_durable = batch(1, 100); // large enough to force a seal

    for (tag, fault, survives) in cells {
        let dir = store_dir(tag);
        {
            let db = Database::with_model_store(SimDevice::hdd_scaled(1000.0, 0), 0, &dir).unwrap();
            db.register_table("higgs", base.clone());
            db.catalog().append_rows("higgs", acked.clone()).unwrap();
            let plan = match fault {
                Fault::Crash(site) => FaultPlan::new(9).with_crash_point(site, 1),
                Fault::Torn(site, bytes) => FaultPlan::new(9).with_torn_write(site, *bytes),
            };
            db.catalog().set_append_faults(plan);
            let err = db
                .catalog()
                .append_rows("higgs", lost_or_durable.clone())
                .unwrap_err();
            assert!(
                matches!(err, DbError::Storage(StorageError::Crashed { .. })),
                "{tag}: expected an injected crash, got {err:?}"
            );
        } // engine dies with the crash

        // Restart: fresh engine over the same store, re-register the
        // original base, replay the table WAL.
        let db = Database::with_model_store(SimDevice::hdd_scaled(1000.0, 0), 0, &dir).unwrap();
        db.register_table("higgs", base.clone());
        let replayed = db.catalog().recover_table_wal("higgs").unwrap();
        let expect = if *survives { 110 } else { 10 };
        assert_eq!(replayed, expect, "{tag}: replayed row count");
        let recovered = db.catalog().table("higgs").unwrap();
        assert_eq!(recovered.num_tuples(), 200 + expect, "{tag}: total tuples");

        // The recovered tuple stream is byte-identical to a never-crashed
        // control that saw exactly the durable statements…
        let control_db = engine(200);
        control_db
            .catalog()
            .append_rows("higgs", acked.clone())
            .unwrap();
        if *survives {
            control_db
                .catalog()
                .append_rows("higgs", lost_or_durable.clone())
                .unwrap();
        }
        let control = control_db.catalog().table("higgs").unwrap();
        assert_eq!(
            recovered.all_tuples(),
            control.all_tuples(),
            "{tag}: recovered stream must match the control"
        );

        // …and therefore trains bit-identically to it.
        train(&db, &pinned_train_sql("after_crash", 2, 17));
        train(&control_db, &pinned_train_sql("control", 2, 17));
        assert_eq!(
            params(&db, "after_crash"),
            params(&control_db, "control"),
            "{tag}: training over the recovered table must match the control"
        );

        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn recovery_replay_is_idempotent() {
    let dir = store_dir("idempotent");
    let base = higgs(100);
    {
        let db = Database::with_model_store(SimDevice::hdd_scaled(1000.0, 0), 0, &dir).unwrap();
        db.register_table("higgs", base.clone());
        db.catalog().append_rows("higgs", batch(0, 7)).unwrap();
    }
    let db = Database::with_model_store(SimDevice::hdd_scaled(1000.0, 0), 0, &dir).unwrap();
    db.register_table("higgs", base.clone());
    assert_eq!(db.catalog().recover_table_wal("higgs").unwrap(), 7);
    let version = db.catalog().table_version("higgs").unwrap();
    // Replay is idempotent: a second recovery reports the same replayed
    // rows, publishes nothing new, and the tuple count is unchanged.
    assert_eq!(db.catalog().recover_table_wal("higgs").unwrap(), 7);
    assert_eq!(db.catalog().table_version("higgs").unwrap(), version);
    assert_eq!(db.catalog().table("higgs").unwrap().num_tuples(), 107);
    std::fs::remove_dir_all(&dir).ok();
}
