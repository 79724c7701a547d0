//! Allocation budget of the scan and insert paths: rows are read in place.
//!
//! A warm `TRAIN … strategy = 'corgipile'`, a `TRAIN … WHERE …` with a
//! projection and a `PREDICT … WHERE` each walk an N-row table without
//! decoding, cloning or boxing a row: what they allocate is per statement
//! (the two fill buffers, the sort scratch), per block (one projected page)
//! and per epoch — never per fill or per row. The test counts every heap
//! allocation of the process while one statement runs and holds it under
//! N/10 calls — and, on a 2000-feature table whose rows are 8 KB each, under
//! 256 B per row. A narrow `TRAIN` is held to what it measured plus a
//! quarter, and four more epochs of it to what an epoch allocates. The
//! library trainer runs the same fill: a warm `Trainer::train` is held to
//! what an epoch allocates, a two-worker run to a bound per epoch of fills,
//! and double-buffered runs to the same count wherever the hand-off falls.
//! A warm `INSERT` of 64 or 640 rows, and the narrow `PREDICT`, are held to
//! what they measured plus a quarter; so are Shuffle Once's copy and a
//! `RECLUSTER`, per page of the table they write.
//!
//! At the commit before columnar pages every block read decoded each row
//! into a `Vec<f32>` of its own (≥ 1 allocation and, on the wide table,
//! ≥ 8 KB per row per epoch), and the statement's closing metric copied the
//! table once more.

use corgipile::core::{CorgiPileConfig, ParallelConfig, Trainer, TrainerConfig};
use corgipile::data::{DatasetSpec, Order};
use corgipile::db::{Database, QueryResult, Session};
use corgipile::ml::ModelKind;
use corgipile::storage::{SimDevice, Telemetry};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// The system allocator plus two counters that run only while `COUNTING`
/// is set, as `benchmark/src/sample.rs` does.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
/// The counters are process-wide: one counted statement at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are statistics and publish no data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        // SAFETY: same block, layout and size the caller vouches for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// What `f` returns, with the `(allocations, bytes requested)` of every
/// thread while it runs.
fn count<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let before = (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    );
    COUNTING.store(true, Ordering::Relaxed);
    let result = f();
    COUNTING.store(false, Ordering::Relaxed);
    let after = (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    );
    (result, after.0 - before.0, after.1 - before.1)
}

/// `(allocations, bytes requested)` by every thread while `sql` executes.
fn counted(session: &mut Session, sql: &str) -> (QueryResult, u64, u64) {
    let (result, allocs, bytes) = count(|| session.execute(sql));
    let result = result.unwrap_or_else(|e| panic!("{sql}: {e}"));
    (result, allocs, bytes)
}

/// A session over one clustered `spec` table named `t`.
fn session(spec: DatasetSpec) -> (Session, u64) {
    let table = spec
        .with_order(Order::ClusteredByLabel)
        .build_table(7)
        .expect("lay out the table");
    let rows = table.num_tuples();
    let db = Database::new(SimDevice::ssd_scaled(1000.0, 0));
    db.register_table("t", table);
    (db.connect(), rows)
}

const TRAIN: &str = "SELECT * FROM t TRAIN BY lr WITH max_epoch_num = 2, \
                     strategy = 'corgipile', buffer_fraction = 0.25, seed = 41, model_name = m";
const TRAIN_WHERE: &str = "SELECT f0, f3, f5, label FROM t WHERE f1 > -0.5 TRAIN BY lr \
                           WITH max_epoch_num = 2, strategy = 'corgipile', \
                           buffer_fraction = 0.25, seed = 41, model_name = p";
const PREDICT_WHERE: &str = "PREDICT m ON t WHERE f3 > 0.0";

/// Run the three statements warm and return each one's `(allocations,
/// bytes)`, having checked that they did real work.
fn budgets(session: &mut Session, rows: u64) -> [(&'static str, u64, u64); 3] {
    // Warm: catalog entries, telemetry instruments, the model cache.
    for sql in [TRAIN, TRAIN_WHERE, PREDICT_WHERE] {
        session
            .execute(sql)
            .unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
    [TRAIN, TRAIN_WHERE, PREDICT_WHERE].map(|sql| {
        let (result, allocs, bytes) = counted(session, sql);
        match result {
            QueryResult::Train(t) => {
                assert_eq!(t.epochs.len(), 2, "{sql}");
                let visited = t.epochs[0].tuples as u64;
                assert!(visited > rows / 4 && visited <= rows, "{sql}: {visited}");
            }
            QueryResult::Serve(p) => {
                assert!(p.rows > rows / 4 && p.rows < rows, "{sql}: {}", p.rows);
            }
            other => panic!("{sql}: unexpected result {other:?}"),
        }
        (sql, allocs, bytes)
    })
}

#[test]
fn scans_of_a_narrow_table_allocate_per_block_not_per_row() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (mut session, rows) = session(DatasetSpec::higgs_like(20_000).with_block_bytes(64 << 10));
    for (sql, allocs, bytes) in budgets(&mut session, rows) {
        assert!(
            allocs < rows / 10,
            "{allocs} allocations, {rows} rows: {sql}"
        );
        // The plain TRAIN measured 97.8 B/row: two fill buffers of a quarter
        // of the table each (140 B a row), the sort scratch, the metric's
        // handles.
        let budget = if sql == TRAIN { 123 } else { 256 };
        assert!(bytes < budget * rows, "{bytes} bytes, {rows} rows: {sql}");
        // The PREDICT measured 64 calls and 157 900 B: its prediction
        // batches share one feature-view buffer, where a buffer per
        // 256-row batch made it 103 calls and 535 572 B.
        if sql == PREDICT_WHERE {
            assert!(
                allocs <= 80 && bytes <= 197_375,
                "{allocs} allocations, {bytes} bytes: {sql}"
            );
        }
    }
}

#[test]
fn later_fills_of_a_narrow_train_allocate_no_batch_memory() {
    // The statement's two fill buffers are sized by its first fills and
    // recycled from then on, across epochs, and every span a fill records
    // was resolved once: what four more epochs (sixteen fills) may add is
    // per epoch — its thread and lanes, its span and event names, its fill
    // I/O record. Measured: 10 732 B for the four, where a span per fill
    // made it 15 560 B, and the batch vectors each fill used to regrow were
    // 120 KB a fill.
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (mut session, _) = session(DatasetSpec::higgs_like(20_000).with_block_bytes(64 << 10));
    let mut measure = |epochs: usize| {
        let sql = TRAIN.replace("max_epoch_num = 2", &format!("max_epoch_num = {epochs}"));
        session
            .execute(&sql)
            .unwrap_or_else(|e| panic!("{sql}: {e}"));
        let (result, _, bytes) = counted(&mut session, &sql);
        let QueryResult::Train(t) = result else {
            panic!("{sql}: not a TRAIN result")
        };
        assert_eq!(t.epochs.len(), epochs);
        let fills: u64 = t.op_stats.iter().map(|s| s.fills).sum();
        (fills, bytes)
    };
    let (short_fills, short_bytes) = measure(2);
    let (long_fills, long_bytes) = measure(6);
    assert_eq!((short_fills, long_fills), (8, 24), "four fills an epoch");
    let allowance = 3 * 1024 * 4; // 3 KiB for each extra epoch

    assert!(
        long_bytes <= short_bytes + allowance,
        "6 epochs allocated {long_bytes} bytes, 2 epochs {short_bytes}"
    );
}

#[test]
fn a_narrow_train_allocates_the_same_wherever_the_hand_off_falls() {
    // Double-buffered, a fill goes to the kernel lane part-copied whenever
    // that lane waits for it, which is timing: what a statement allocates
    // must not depend on where (or whether) that happens. The counted runs
    // record no telemetry, whose event log grows by doubling across
    // statements.
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (mut session, _) = session(DatasetSpec::higgs_like(20_000).with_block_bytes(64 << 10));
    let sql = TRAIN.replace("model_name", "double_buffer = 1, model_name");
    let run = |session: &mut Session| {
        let (_, allocs, bytes) = counted(session, &sql);
        (allocs, bytes)
    };
    run(&mut session);
    let site = "db.tuple_shuffle.settle.wall_seconds";
    let settled = session.telemetry().histogram(site).count();
    assert!(settled > 0, "the kernel lane finished no fill");
    session.set_telemetry_enabled(false);
    run(&mut session);
    let runs: Vec<(u64, u64)> = (0..3).map(|_| run(&mut session)).collect();
    assert!(runs.iter().all(|&r| r == runs[0]), "{runs:?}");
}

#[test]
fn scans_of_a_2000_wide_table_stay_under_256_bytes_a_row() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (mut session, rows) = session(DatasetSpec::epsilon_like(6_000).with_block_bytes(4 << 20));
    for (sql, allocs, bytes) in budgets(&mut session, rows) {
        assert!(
            allocs < rows / 10,
            "{allocs} allocations, {rows} rows: {sql}"
        );
        assert!(bytes < 256 * rows, "{bytes} bytes, {rows} rows: {sql}");
    }
}

#[test]
fn library_training_allocates_per_fill_not_per_row() {
    // The library path runs the SQL fill: a warm `Trainer::train` reuses its
    // two buffers across fills and epochs, so four more epochs add only what
    // an epoch allocates (measured: 15 calls and 2.8 KB each); two workers'
    // fills are built one after another on the one producer, each into a
    // fresh slab, since the rows a worker has yet to hand over still pin
    // the last one (measured: 141 calls an epoch). Neither allocates per
    // row.
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let table = DatasetSpec::higgs_like(20_000)
        .with_block_bytes(64 << 10)
        .with_order(Order::ClusteredByLabel)
        .build_table(7)
        .expect("lay out the table");
    let rows = table.num_tuples();
    let run = |workers: usize, epochs: usize| {
        let cfg = TrainerConfig::new(ModelKind::LogisticRegression, epochs)
            .with_corgipile(CorgiPileConfig::default().with_buffer_fraction(0.25));
        let trainer = match workers {
            1 => Trainer::new(cfg),
            pn => Trainer::new(cfg.with_batch_size(8)).with_workers(ParallelConfig {
                workers: pn,
                total_buffer_fraction: 0.25,
                ..Default::default()
            }),
        };
        let train = || trainer.train(&table, &mut SimDevice::ssd_scaled(1000.0, 0), 41);
        train().expect("warm run");
        let (report, allocs, bytes) = count(train);
        assert_eq!(report.expect("counted run").epochs.len(), epochs);
        assert!(
            allocs < rows / 10,
            "{workers} workers: {allocs} allocations, {rows} rows"
        );
        (allocs, bytes)
    };
    let per_epoch = |workers| {
        let ((short, short_bytes), (long, long_bytes)) = (run(workers, 2), run(workers, 6));
        ((long - short) / 4, (long_bytes - short_bytes) / 4)
    };
    let (allocs, bytes) = per_epoch(1);
    assert!(
        allocs <= 20 && bytes <= 4096,
        "Trainer::train: {allocs} calls, {bytes} B an epoch"
    );
    let (allocs, _) = per_epoch(2);
    assert!(allocs <= 176, "two workers: {allocs} calls an epoch");
}

#[test]
fn library_training_allocates_the_same_wherever_the_hand_off_falls() {
    // `Trainer::train` runs the SQL fill, hand-off included: double-buffered,
    // a fill goes to the kernel lane part-copied whenever that lane waits,
    // and what a run allocates must not depend on where that happens.
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let table = DatasetSpec::higgs_like(20_000)
        .with_block_bytes(64 << 10)
        .with_order(Order::ClusteredByLabel)
        .build_table(7)
        .expect("lay out the table");
    let cfg = TrainerConfig::new(ModelKind::Svm, 3)
        .with_corgipile(CorgiPileConfig::default().with_buffer_fraction(0.1));
    let trainer = Trainer::new(cfg);
    let mut traced = SimDevice::ssd_scaled(1000.0, 0);
    traced.set_telemetry(Telemetry::enabled());
    trainer.train(&table, &mut traced, 5).expect("traced run");
    let settled = traced.telemetry().histogram("shuffle.settle.wall_seconds");
    assert!(settled.count() > 0, "the kernel lane finished no fill");
    let run = || {
        let train = || trainer.train(&table, &mut SimDevice::ssd_scaled(1000.0, 0), 5);
        let (report, allocs, bytes) = count(train);
        report.expect("counted run");
        (allocs, bytes)
    };
    run();
    let runs: Vec<(u64, u64)> = (0..3).map(|_| run()).collect();
    assert!(runs.iter().all(|&r| r == runs[0]), "{runs:?}");
}

#[test]
fn inserts_allocate_per_statement_page_and_block_not_per_row() {
    // An INSERT's values go from the SQL text into one row-major buffer and
    // from there, read in place, onto the open page: what it allocates is
    // per statement (that buffer, the publish, the result), per page (its
    // columns) and per block (its seal), never per row.
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (mut session, _) = session(DatasetSpec::higgs_like(2_000).with_block_bytes(64 << 10));
    let insert = |first: usize, rows: usize| {
        let row = |i: usize| {
            let values: Vec<String> = (0..29).map(|j| format!("{}", (i * 29 + j) % 97)).collect();
            format!("({})", values.join(", "))
        };
        let rows: Vec<String> = (first..first + rows).map(row).collect();
        format!("INSERT INTO t VALUES {}", rows.join(", "))
    };
    session
        .execute(&insert(0, 64))
        .unwrap_or_else(|e| panic!("warm INSERT: {e}"));
    let mut at = 64;
    for rows in [64, 640] {
        let sql = insert(at, rows);
        at += rows;
        let (result, allocs, _) = counted(&mut session, &sql);
        let QueryResult::Insert { rows: n, .. } = result else {
            panic!("not an INSERT result")
        };
        assert_eq!(n, rows as u64);
        // Measured: 33 calls for 64 rows and 90 for 640 (eleven more pages,
        // one more block), where a token vector and a `Tuple` per row made
        // them 110 and 751.
        let budget = if rows == 64 { 41 } else { 112 };
        assert!(allocs <= budget, "{allocs} allocations, {rows} rows");
    }
}

#[test]
fn offline_rewrites_allocate_per_page_not_per_row() {
    // Shuffle Once's copy and RECLUSTER's both go through the one table
    // builder, fed rows borrowed from the source's pages: what they allocate
    // is per page of the new table (its columns, its `Arc`) and per block,
    // never per row.
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (mut session, rows) = session(DatasetSpec::higgs_like(20_000).with_block_bytes(64 << 10));
    // The rows are one width, so the shuffled copy packs into as many pages
    // as the source.
    let pages = session.catalog().table("t").unwrap().num_pages() as u64;
    let once = "SELECT * FROM t TRAIN BY lr WITH max_epoch_num = 1, strategy = 'once', \
                seed = 41, model_name = m";
    session
        .execute(once)
        .unwrap_or_else(|e| panic!("warm {once}: {e}"));
    let (result, once_allocs, _) = counted(&mut session, once);
    let QueryResult::Train(t) = result else {
        panic!("{once}: not a TRAIN result")
    };
    assert_eq!(t.epochs[0].tuples as u64, rows);
    let recluster = "RECLUSTER t WITH io_budget = 0.5, seed = 7";
    let (result, recluster_allocs, _) = counted(&mut session, recluster);
    let QueryResult::Recluster {
        blocks_rewritten, ..
    } = result
    else {
        panic!("{recluster}: not a RECLUSTER result")
    };
    assert!(blocks_rewritten > 0);
    let rewritten = session.catalog().table("t").unwrap().num_pages() as u64;
    // Measured, in hundredths of a call per page of the new table: 572 for
    // the TRAIN (its fills and epoch included) and 549 for the RECLUSTER,
    // where an owned `Tuple` per row made them 6 472 and 6 450.
    for (sql, allocs, pages, budget) in [
        (once, once_allocs, pages, 715),
        (recluster, recluster_allocs, rewritten, 686),
    ] {
        assert!(
            allocs * 100 <= budget * pages,
            "{allocs} allocations, {pages} pages: {sql}"
        );
    }
}
