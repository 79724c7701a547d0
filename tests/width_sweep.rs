//! The row-width sweep behind the fill's copy-or-in-place constant
//! (`SLAB_ROW_BYTES` in `crates/shuffle/src/fill.rs`; DESIGN.md §9 "Rows in
//! place" has the table this printed). A measurement, not a gate, hence
//! `#[ignore]`:
//!
//! ```sh
//! cargo test --release --offline --test width_sweep -- --ignored --nocapture
//! ```
//!
//! It times a warm `TRAIN … strategy = 'corgipile'` over dense tables of
//! 28 / 128 / 512 / 2000 features, about 48 MB each. One build shows one side
//! of the constant per width; for the other side run it from a scratch copy
//! with the constant set to `0` (every fill in place) or `usize::MAX` (every
//! fill copied).

use corgipile::data::{DataKind, DatasetSpec, Order};
use corgipile::db::{Database, QueryResult};
use corgipile::storage::SimDevice;
use std::time::Instant;

/// User + system CPU seconds of this process, from `/proc/self/stat`
/// (clock ticks of 10 ms).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_name = stat.rsplit(')').next().unwrap_or_default();
    let ticks: Vec<f64> = after_name
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse().ok())
        .collect();
    ticks.iter().sum::<f64>() / 100.0
}

#[test]
#[ignore = "a measurement: run with --ignored --nocapture"]
fn train_time_per_row_visit_by_row_width() {
    const EPOCHS: usize = 4;
    const REPS: usize = 7;
    println!("dim  stored_B/row  rows  wall_ns/visit(median)  cpu_ns/visit");
    for dim in [28usize, 128, 512, 2000] {
        let row_bytes = 13 + 4 * dim;
        let rows = (48 << 20) / row_bytes;
        let kind = DataKind::DenseBinary {
            dim,
            separation: 1.0,
            noise_rank: 0,
        };
        let table = DatasetSpec::new("sweep", kind, rows)
            .with_order(Order::ClusteredByLabel)
            .with_block_bytes((64 << 10).max(128 * row_bytes))
            .build_table(1)
            .expect("lay out the table");
        let stored = table.total_bytes() / rows;
        let db = Database::new(SimDevice::ssd_scaled(1000.0, 0));
        db.register_table("t", table);
        let mut session = db.connect();
        let sql = format!(
            "SELECT * FROM t TRAIN BY svm WITH max_epoch_num = {EPOCHS}, \
             strategy = 'corgipile', seed = 41, model_name = m"
        );
        let mut run = || match session.execute(&sql).expect("TRAIN") {
            QueryResult::Train(t) => assert_eq!(t.epochs.len(), EPOCHS),
            other => panic!("unexpected result {other:?}"),
        };
        run();
        let visits = (rows * EPOCHS) as f64;
        let cpu0 = cpu_seconds();
        let mut wall: Vec<f64> = (0..REPS)
            .map(|_| {
                let t0 = Instant::now();
                run();
                t0.elapsed().as_secs_f64() * 1e9 / visits
            })
            .collect();
        let cpu = (cpu_seconds() - cpu0) * 1e9 / (visits * REPS as f64);
        wall.sort_by(f64::total_cmp);
        println!(
            "{dim:<4} {stored:<13} {rows:<8} {:<22.1} {cpu:.1}",
            wall[REPS / 2]
        );
    }
}
