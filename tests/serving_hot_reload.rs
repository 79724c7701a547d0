//! Serving under mid-traffic hot-reload.
//!
//! The serving cache's contract is that a `PREDICT` run pins one immutable
//! model version before its first block is read, and nothing that happens
//! afterwards — most importantly a concurrent `TRAIN … durable = 1`
//! publishing a newer version — can change that run's predictions. These
//! tests race N predictor sessions against a trainer that hot-reloads the
//! model several times, and require every batch's predictions to be
//! bit-identical to its pinned version's post-hoc reference (no torn
//! reads, no mixed-version batches).

use corgipile::data::{DatasetSpec, Order};
use corgipile::db::{Database, QueryResult, Session};
use corgipile::storage::{SimDevice, Table};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const ROWS: usize = 2000;
const PREDICTORS: usize = 4;
const RELOADS: u32 = 4; // versions 2..=5 published mid-traffic

fn higgs(n: usize) -> Table {
    DatasetSpec::higgs_like(n)
        .with_order(Order::ClusteredByLabel)
        .with_block_bytes(8192)
        .build_table(1)
        .unwrap()
}

fn train_sql(seed: u32) -> String {
    // Distinct seeds per version: every reload publishes a genuinely
    // different model, so a torn read would change the predictions.
    format!(
        "SELECT * FROM higgs TRAIN BY svm WITH learning_rate = 0.05, \
         max_epoch_num = 2, seed = {seed}, model_name = m, durable = 1"
    )
}

#[test]
fn concurrent_predictions_stay_bit_identical_to_their_pinned_version() {
    let dir = std::env::temp_dir().join(format!("corgi_serve_reload_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let db = Database::with_model_store(SimDevice::hdd_scaled(1000.0, 0), 64 << 20, &dir).unwrap();
    db.register_table("higgs", higgs(ROWS));

    // Version 1 exists before traffic starts.
    db.connect().execute(&train_sql(1)).unwrap();

    let done = AtomicBool::new(false);
    // (version, predictions) for every serve run of every predictor.
    let observed: Vec<Vec<(u32, Vec<f32>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..PREDICTORS)
            .map(|_| {
                let db = Arc::clone(&db);
                let done = &done;
                scope.spawn(move || {
                    let mut s = db.connect();
                    let mut runs = Vec::new();
                    while !done.load(Ordering::Relaxed) || runs.is_empty() {
                        match s
                            .execute("PREDICT m ON higgs WITH batch_rows = 128")
                            .unwrap()
                        {
                            QueryResult::Serve(p) => {
                                assert_eq!(p.rows as usize, ROWS, "no partial scans");
                                assert_eq!(p.predictions.len(), ROWS);
                                runs.push((p.version, p.predictions));
                            }
                            other => panic!("unexpected {other:?}"),
                        }
                    }
                    runs
                })
            })
            .collect();

        // The trainer hot-reloads versions 2..=5 while traffic flows.
        let mut trainer = db.connect();
        for v in 2..=(1 + RELOADS) {
            trainer.execute(&train_sql(v)).unwrap();
        }
        done.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Every finished training run was published: the last one is active.
    let cache = db.model_cache();
    assert_eq!(cache.active_version("m"), Some(1 + RELOADS));

    // Post-hoc references: one serial prediction per version, through the
    // explicit pin path.
    let mut reference: BTreeMap<u32, Vec<f32>> = BTreeMap::new();
    let mut s = db.connect();
    for v in 1..=(1 + RELOADS) {
        match s
            .execute(&format!(
                "PREDICT m VERSION {v} ON higgs WITH batch_rows = 128"
            ))
            .unwrap()
        {
            QueryResult::Serve(p) => {
                assert_eq!(p.version, v);
                reference.insert(v, p.predictions);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    let distinct: Vec<&Vec<f32>> = reference.values().collect();
    for (i, a) in distinct.iter().enumerate() {
        for b in &distinct[i + 1..] {
            assert_ne!(a, b, "reload versions must be distinguishable models");
        }
    }

    // The core assertion: every racing run matches its pinned version's
    // reference bit for bit, and each session's pins only move forward.
    let mut total_runs = 0usize;
    for (tid, runs) in observed.iter().enumerate() {
        let mut last_version = 0u32;
        for (version, predictions) in runs {
            assert!(
                *version >= last_version,
                "thread {tid}: active version went backwards ({last_version} -> {version})"
            );
            last_version = *version;
            assert_eq!(
                predictions,
                reference.get(version).expect("version was published"),
                "thread {tid}: predictions diverged from pinned version {version}"
            );
            total_runs += 1;
        }
    }
    assert!(
        total_runs >= PREDICTORS,
        "every predictor ran at least once"
    );

    // The cache saw real traffic: pins on every serve, one publish per
    // training run plus the recovery-free baseline, no evictions of the
    // active version.
    let stats = cache.stats();
    assert!(stats.hits >= total_runs as u64);
    assert_eq!(stats.publishes, (1 + RELOADS) as u64);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn restart_serves_the_recovered_version_warm() {
    let dir = std::env::temp_dir().join(format!("corgi_serve_restart_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let serve = |s: &mut Session, stmt: &str| match s.execute(stmt).unwrap() {
        QueryResult::Serve(p) => p,
        other => panic!("unexpected {other:?}"),
    };
    let (want_v1, want_v2) = {
        let db = Database::with_model_store(SimDevice::hdd_scaled(1000.0, 0), 0, &dir).unwrap();
        db.register_table("higgs", higgs(500));
        let mut s = db.connect();
        s.execute(&train_sql(7)).unwrap();
        let v1 = serve(&mut s, "PREDICT m ON higgs").predictions;
        s.execute(&train_sql(8)).unwrap();
        (v1, serve(&mut s, "PREDICT m ON higgs").predictions)
    };
    // Reopen over the same store: recovery republishes the latest version
    // into the serving cache, so the first PREDICT is a cache hit with the
    // same bits — no LOAD MODEL, no retrain.
    let db = Database::with_model_store(SimDevice::hdd_scaled(1000.0, 0), 0, &dir).unwrap();
    db.register_table("higgs", higgs(500));
    let mut s = db.connect();
    let active = serve(&mut s, "PREDICT m ON higgs");
    assert!(active.cache_hit, "recovery must pre-warm the serving cache");
    assert_eq!(active.version, 2);
    assert_eq!(active.predictions, want_v2);
    // An older version is not resident after a restart: its first pin is
    // cold (fetched from the store's history), the repeat is warm, and
    // neither steals traffic from the active version.
    let cold = serve(&mut s, "PREDICT m VERSION 1 ON higgs");
    let warm = serve(&mut s, "PREDICT m VERSION 1 ON higgs");
    assert!(!cold.cache_hit && warm.cache_hit);
    assert_eq!(cold.predictions, want_v1);
    assert_eq!(warm.predictions, want_v1);
    assert_eq!(db.model_cache().active_version("m"), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}
