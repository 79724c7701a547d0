//! Concurrency benchmark: multi-worker epochs per worker count, plus
//! cross-session buffer-pool sharing.
//!
//! Two measurements:
//!
//! 1. **Multi-worker epochs.** The one training path — [`EpochDriver`] over
//!    a [`ParallelSource`] (one loader thread per worker, round-robin merge
//!    and the SGD kernel on the calling thread) — at 1/2/4/8 workers, same
//!    table and batch size: wall-clock seconds, the ratio to the one-worker
//!    wall, and whether the streamed order equals [`parallel_epoch_plan`]'s.
//!    A 64 × 28 gradient is far too small to thread, so the honest
//!    expectation is a flat line, not a speedup.
//! 2. **Shared buffers.** Four sessions over one [`Database`] with a
//!    shared `shared_buffers` pool vs the same four sessions on cold
//!    per-session engines: cross-session `cache_hit_rate`.
//!
//! Writes `results/concurrency.{tsv,json}` plus the root-level
//! `BENCH_concurrency.json` artifact (directory override:
//! `CORGI_BENCH_ROOT`). `CORGI_CONCURRENCY_TUPLES` /
//! `CORGI_CONCURRENCY_EPOCHS` shrink the run for CI smoke tests.

use std::time::Instant;

use crate::report::Report;
use corgipile_core::{
    parallel_epoch_plan, EpochDriver, EpochSource, ParallelConfig, ParallelSource, SimulatedBlocks,
};
use corgipile_data::{DatasetSpec, Order};
use corgipile_db::{Database, QueryResult};
use corgipile_ml::{build_model, ComputeCostModel, ModelKind, OptimizerKind, TrainOptions};
use corgipile_storage::{SimDevice, Table, Telemetry};

const BATCH: usize = 64;
const SEED: u64 = 0xC0C0;

/// The multi-worker epoch at one worker count.
#[derive(Debug, Clone)]
pub struct WorkerRun {
    /// Loader count (`PN`).
    pub workers: usize,
    /// Wall seconds of the training run (best of the repeats).
    pub wall_seconds: f64,
    /// Whether every epoch streamed exactly the planned order.
    pub order_matches_plan: bool,
}

/// Cross-session buffer-pool sharing measurement.
#[derive(Debug, Clone, Copy)]
pub struct PoolSharing {
    /// Aggregate hit rate of four cold per-session pools.
    pub cold_hit_rate: f64,
    /// Hit rate of one pool shared by the same four sessions.
    pub shared_hit_rate: f64,
}

fn clustered(n: usize) -> Table {
    DatasetSpec::higgs_like(n)
        .with_order(Order::ClusteredByLabel)
        .with_block_bytes(8 << 10)
        .build_table(1)
        .unwrap()
}

fn config(workers: usize) -> ParallelConfig {
    ParallelConfig {
        workers,
        total_buffer_fraction: 0.2,
        ..Default::default()
    }
}

fn source(table: &Table, workers: usize) -> ParallelSource<'_, SimulatedBlocks<'_>> {
    let cfg = config(workers);
    let reader = SimulatedBlocks {
        table,
        device: cfg.fill_device(),
    };
    ParallelSource::new(reader, cfg, BATCH, SEED)
}

fn run_training(table: &Table, workers: usize, epochs: usize) -> f64 {
    let mut driver = EpochDriver::new(
        build_model(&ModelKind::LogisticRegression, 28, 1),
        OptimizerKind::default_sgd(0.1).build(),
        TrainOptions::minibatch(BATCH),
        ComputeCostModel::in_db_core(),
        epochs,
        false,
    );
    let start = Instant::now();
    driver
        .run(&Telemetry::disabled(), &mut source(table, workers), None)
        .expect("fault-free table");
    start.elapsed().as_secs_f64()
}

fn order_matches_plan(table: &Table, workers: usize, epochs: usize) -> bool {
    let mut source = source(table, workers);
    (0..epochs).all(|epoch| {
        let mut streamed: Vec<u64> = Vec::new();
        source
            .stream_epoch(epoch, &mut |fill| {
                streamed.extend(fill.batch.iter().map(|t| t.id));
                true
            })
            .expect("fault-free table");
        let plan = parallel_epoch_plan(table, &config(workers), BATCH, SEED, epoch);
        streamed
            .iter()
            .eq(plan.merged_batches.iter().flatten().map(|t| &t.id))
    })
}

/// Measure the multi-worker epoch at each worker count (best of `repeats`
/// wall times after one warm-up run).
pub fn measure_workers(
    n_tuples: usize,
    epochs: usize,
    worker_counts: &[usize],
    repeats: usize,
) -> Vec<WorkerRun> {
    let table = clustered(n_tuples);
    worker_counts
        .iter()
        .map(|&workers| {
            // Warm-up: fault the table into the page cache before timing.
            run_training(&table, workers, 1);
            let wall_seconds = (0..repeats.max(1))
                .map(|_| run_training(&table, workers, epochs))
                .fold(f64::INFINITY, f64::min);
            WorkerRun {
                workers,
                wall_seconds,
                order_matches_plan: order_matches_plan(&table, workers, epochs),
            }
        })
        .collect()
}

/// Measure cross-session pool sharing: four single-epoch training
/// sessions, cold per-session engines vs one shared engine.
pub fn measure_pool_sharing(n_tuples: usize) -> PoolSharing {
    let table = clustered(n_tuples);
    let sql = "SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 1, model_name = m";
    let pool_bytes = 64 << 20;
    let rate = |hits: u64, misses: u64| {
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    };

    let mut cold_hits = 0u64;
    let mut cold_misses = 0u64;
    for _ in 0..4 {
        let db = Database::with_shared_buffers(SimDevice::hdd_scaled(1000.0, 0), pool_bytes);
        db.register_table("higgs", table.clone());
        match db.connect().execute(sql).expect("training runs") {
            QueryResult::Train(_) => {}
            other => panic!("expected a train result, got {other:?}"),
        }
        let stats = db.pool_stats();
        cold_hits += stats.hits;
        cold_misses += stats.misses;
    }

    let db = Database::with_shared_buffers(SimDevice::hdd_scaled(1000.0, 0), pool_bytes);
    db.register_table("higgs", table);
    for _ in 0..4 {
        db.connect().execute(sql).expect("training runs");
    }
    let stats = db.pool_stats();
    PoolSharing {
        cold_hit_rate: rate(cold_hits, cold_misses),
        shared_hit_rate: rate(stats.hits, stats.misses),
    }
}

/// Wall of each run relative to the one-worker run (the first run when no
/// one-worker run was measured).
fn wall_vs_1_worker(runs: &[WorkerRun]) -> Vec<f64> {
    let base = runs
        .iter()
        .find(|r| r.workers == 1)
        .or(runs.first())
        .map_or(1.0, |r| r.wall_seconds);
    runs.iter().map(|r| r.wall_seconds / base).collect()
}

/// Render the root-level `BENCH_concurrency.json` artifact.
pub fn render_bench_json(runs: &[WorkerRun], pool: PoolSharing) -> String {
    let mut out = String::from("{\n  \"id\": \"concurrency\",\n  \"workers\": [\n");
    for (i, (r, ratio)) in runs.iter().zip(wall_vs_1_worker(runs)).enumerate() {
        let comma = if i + 1 < runs.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"workers\": {}, \"wall_seconds\": {:.6}, \"wall_vs_1_worker\": {:.4}, \
             \"order_matches_plan\": {}}}{}\n",
            r.workers, r.wall_seconds, ratio, r.order_matches_plan, comma,
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"shared_pool\": {{\"cold_hit_rate\": {:.4}, \"shared_hit_rate\": {:.4}}}\n}}",
        pool.cold_hit_rate, pool.shared_hit_rate,
    ));
    out
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The `concurrency` experiment: wall per worker count plus the root JSON
/// artifact.
pub fn concurrency() {
    let n = env_usize("CORGI_CONCURRENCY_TUPLES", 24_000);
    let epochs = env_usize("CORGI_CONCURRENCY_EPOCHS", 3);
    let runs = measure_workers(n, epochs, &[1, 2, 4, 8], 7);
    let pool = measure_pool_sharing(n.min(6_000));

    let mut rep = Report::new(
        "concurrency",
        "multi-worker epoch wall per worker count + cross-session shared buffers",
        &[
            "workers",
            "wall_s",
            "wall_vs_1_worker",
            "order_matches_plan",
        ],
    );
    for (r, ratio) in runs.iter().zip(wall_vs_1_worker(&runs)) {
        rep.row_strings(vec![
            r.workers.to_string(),
            format!("{:.4}", r.wall_seconds),
            format!("{ratio:.2}x"),
            r.order_matches_plan.to_string(),
        ]);
    }
    rep.note(format!(
        "shared_buffers across sessions: cold hit rate {:.1}% vs shared {:.1}%",
        pool.cold_hit_rate * 100.0,
        pool.shared_hit_rate * 100.0,
    ));
    rep.note(
        "one loader thread per worker, round-robin merge + one SGD kernel on the calling \
         thread (EpochDriver over ParallelSource); a 64 x 28 gradient is too small to thread, \
         so wall should stay flat as workers grow.",
    );
    rep.finish();

    let root = std::env::var("CORGI_BENCH_ROOT").unwrap_or_else(|_| ".".into());
    let path = std::path::Path::new(&root).join("BENCH_concurrency.json");
    match std::fs::write(&path, render_bench_json(&runs, pool) + "\n") {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_stream_the_planned_order_at_smoke_scale() {
        let runs = measure_workers(1_500, 1, &[1, 4], 1);
        assert!(
            runs.iter().all(|r| r.order_matches_plan),
            "order diverged: {runs:?}"
        );
        assert!(runs.iter().all(|r| r.wall_seconds > 0.0));
    }

    #[test]
    fn pool_sharing_shows_cross_session_hits() {
        let pool = measure_pool_sharing(2_000);
        assert_eq!(
            pool.cold_hit_rate, 0.0,
            "single-epoch cold sessions never hit"
        );
        assert!(
            pool.shared_hit_rate > 0.5,
            "three of four shared sessions run cached: {pool:?}"
        );
    }

    #[test]
    fn bench_json_is_well_formed() {
        let runs = vec![
            WorkerRun {
                workers: 1,
                wall_seconds: 1.0,
                order_matches_plan: true,
            },
            WorkerRun {
                workers: 4,
                wall_seconds: 1.5,
                order_matches_plan: true,
            },
        ];
        let json = render_bench_json(
            &runs,
            PoolSharing {
                cold_hit_rate: 0.0,
                shared_hit_rate: 0.75,
            },
        );
        assert!(json.contains("\"wall_vs_1_worker\": 1.5000"));
        assert!(json.contains("\"shared_hit_rate\": 0.7500"));
        assert!(json.ends_with('}'));
    }
}
