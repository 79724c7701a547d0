//! Model bits pinned **across commits**, not only across toggles.
//!
//! Every `bit_identical*` test elsewhere compares two runs of the same
//! build, so a refactor that changes both sides still passes. The tables
//! below hold `crc32` of the final parameter bytes and `f64::to_bits` of
//! the last epoch's `train_loss` for a fixed small clustered table, over
//! the SQL surface (strategy × model × batch size × `double_buffer` ×
//! `fuse`, `WHERE` / projection, faults + skip, halt and durable
//! auto-resume, `CONTINUOUS` with a drift schedule), `Trainer::train`, and
//! the multi-worker order (`parallel_epoch_plan` at 1/2/4/8 workers); and
//! the per-epoch simulated clock of the runs no other constant times.
//!
//! A change that moves any of them changed what the engine computes. When
//! that is intended, the failure message prints the whole table as Rust
//! literals to paste back in — and CHANGES.md must say why.

use corgipile::core::{
    parallel_epoch_plan, CorgiPileConfig, ParallelConfig, Trainer, TrainerConfig,
};
use corgipile::data::{DatasetSpec, Order};
use corgipile::db::{Database, DbTrainSummary, QueryResult, Session};
use corgipile::ml::{ModelKind, OptimizerKind};
use corgipile::shuffle::StrategyKind;
use corgipile::storage::{
    crc32, scan_valid_prefix, FaultPlan, SimDevice, Table, Tuple, RT_TABLE_SEAL,
};
use std::path::PathBuf;
use std::sync::Arc;

/// `(case, crc32 of the parameter bytes, bits of the last train_loss)`.
type Golden = (&'static str, u32, u64);

fn higgs(n: usize) -> Table {
    DatasetSpec::higgs_like(n)
        .with_order(Order::ClusteredByLabel)
        .with_block_bytes(8192)
        .build_table(1)
        .unwrap()
}

fn engine() -> Arc<Database> {
    let db = Database::new(SimDevice::hdd_scaled(1000.0, 0));
    db.register_table("higgs", higgs(600));
    db
}

fn scratch(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("corgi_golden_{}_{tag}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    p
}

fn params_crc(params: &[f32]) -> u32 {
    let bytes: Vec<u8> = params.iter().flat_map(|p| p.to_le_bytes()).collect();
    crc32(&bytes)
}

fn train(s: &mut Session, sql: &str) -> DbTrainSummary {
    match s.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}")) {
        QueryResult::Train(t) => t,
        other => panic!("expected a Train result, got {other:?}"),
    }
}

/// Hash of the stored model `m` plus the last epoch's loss bits.
fn sql_bits(s: &Session, t: &DbTrainSummary) -> (u32, u64) {
    let params = s.catalog().model("m").unwrap().params.clone();
    (
        params_crc(&params),
        t.epochs.last().unwrap().train_loss.to_bits(),
    )
}

/// Compare `got` against `want`; on any difference print the whole table
/// as Rust literals so it can be pasted back.
fn check(table: &str, got: &[(String, u32, u64)], want: &[Golden]) {
    let same = got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.0 == w.0 && g.1 == w.1 && g.2 == w.2);
    if !same {
        let mut lines = format!("{table} moved; actual values:\n");
        for (name, crc, loss) in got {
            lines.push_str(&format!("    (\"{name}\", 0x{crc:08x}, 0x{loss:016x}),\n"));
        }
        panic!("{lines}");
    }
}

const SQL_GRID: &[Golden] = &[
    ("svm/b1/corgipile", 0xe3abc017, 0x3fea010cc7f77777),
    ("svm/b1/block_only", 0xc69ed23f, 0x3fe5a0abcd69d037),
    ("svm/b1/shuffle_once", 0xe1cb9222, 0x3fedb7594e051eb8),
    ("svm/b1/no_shuffle", 0x37c8ea9a, 0x3fde13dea5c5f92c),
    ("svm/b8/corgipile", 0xb8e3e5dd, 0x3fe6403c860bf259),
    ("svm/b8/block_only", 0xeebd4d1f, 0x3fe6406bbb555555),
    ("svm/b8/shuffle_once", 0x0de90927, 0x3fe6e6980f8bf259),
    ("svm/b8/no_shuffle", 0x52fb75a4, 0x3fe5ddf1b70f5c29),
    ("lr/b1/corgipile", 0x7b32b500, 0x3fe3174471e51224),
    ("lr/b1/block_only", 0xa35d098f, 0x3fe163cc90d5824f),
    ("lr/b1/shuffle_once", 0xc73c4a15, 0x3fe55f3f349c3d76),
    ("lr/b1/no_shuffle", 0x8ee2e5e9, 0x3fdc7500d12b006d),
    // The four lr/b8 losses are the only constants that differ from the
    // commit before the shared epoch driver (by < 5 ulp): the SQL loop used
    // to round-trip each mini-batch's loss through `mean_loss × n`; the
    // driver accumulates it once. Parameter hashes did not move.
    ("lr/b8/corgipile", 0x8c494851, 0x3fe2924d2f58d3bf),
    ("lr/b8/block_only", 0xbecb25fd, 0x3fe2a0221f8a21b6),
    ("lr/b8/shuffle_once", 0x9a49235b, 0x3fe2d9b23945d6af),
    ("lr/b8/no_shuffle", 0x582db7ca, 0x3fe298ce727d5f41),
];

#[test]
fn sql_grid_is_pinned_across_double_buffer_and_fuse() {
    let mut got = Vec::new();
    for model in ["svm", "lr"] {
        for batch in [1usize, 8] {
            for strategy in ["corgipile", "block_only", "shuffle_once", "no_shuffle"] {
                let name = format!("{model}/b{batch}/{strategy}");
                let mut cell: Option<(u32, u64)> = None;
                for double_buffer in [0, 1] {
                    for fuse in [0, 1] {
                        let mut s = engine().connect();
                        let t = train(
                            &mut s,
                            &format!(
                                "SELECT * FROM higgs TRAIN BY {model} WITH max_epoch_num = 3, \
                                 seed = 11, learning_rate = 0.05, buffer_fraction = 0.2, \
                                 batch_size = {batch}, strategy = '{strategy}', \
                                 double_buffer = {double_buffer}, fuse = {fuse}, model_name = m"
                            ),
                        );
                        let bits = sql_bits(&s, &t);
                        match cell {
                            None => cell = Some(bits),
                            Some(first) => assert_eq!(
                                first, bits,
                                "{name}: double_buffer={double_buffer} fuse={fuse} diverged"
                            ),
                        }
                    }
                }
                let (crc, loss) = cell.unwrap();
                got.push((name, crc, loss));
            }
        }
    }
    check("SQL_GRID", &got, SQL_GRID);
}

const SQL_PATHS: &[Golden] = &[
    ("pushdown", 0xfad6990e, 0x3fe49eb4f457ea98),
    ("where/corgipile/half", 0x538f507a, 0x3fede5e0b7accccd),
    (
        "where_project/corgipile/half",
        0xa629451f,
        0x3fe7d7819ff1999a,
    ),
    ("where/corgipile/tenth", 0xa019338d, 0x3fe1113069dae607),
    (
        "where_project/corgipile/tenth",
        0x4ce88bde,
        0x3fe5f318f7c4a33f,
    ),
    ("where/block_only/half", 0xf0490e1a, 0x3fe908690beccccd),
    (
        "where_project/block_only/half",
        0x77ed0f7b,
        0x3fdd1d26c0fccccd,
    ),
    ("where/block_only/tenth", 0x983d2efb, 0x3fe4e916d4c0ed73),
    (
        "where_project/block_only/tenth",
        0x91cae09f,
        0x3fe2d96dad642c86,
    ),
    ("where/no_shuffle/half", 0xbab2cd09, 0x3fe171ff1cb33333),
    (
        "where_project/no_shuffle/half",
        0x0ecadc5d,
        0x3fc84f7a94000000,
    ),
    ("where/no_shuffle/tenth", 0xf67fc17c, 0x3fe512f870000000),
    (
        "where_project/no_shuffle/tenth",
        0x9b09fc26,
        0x3fda476d2c0ed730,
    ),
    ("where/shuffle_once/half", 0x3a754efd, 0x3ff163d6a509999a),
    (
        "where_project/shuffle_once/half",
        0x3ed4c33f,
        0x3ff099a869380000,
    ),
    ("where/shuffle_once/tenth", 0xbe41f40b, 0x3fe00c08efc4a33f),
    (
        "where_project/shuffle_once/tenth",
        0x6a61875b,
        0x3ff1e7f0859f8946,
    ),
    ("fault_skip", 0xa75b9aed, 0x3fec84afc5f596f3),
    ("checkpoint_resume", 0x1a1b295a, 0x3fe9273afa5f92c6),
    ("durable_resume", 0x15b7f8cc, 0x3fe83b165c5314e9),
    ("continuous", 0xa8c35b81, 0x3fed7c8746048485),
];

#[test]
fn sql_pushdown_faults_resume_durable_and_continuous_are_pinned() {
    let mut got = Vec::new();

    // WHERE + projection. This constant and the sixteen below were
    // recorded with the filter *above* the tuple-shuffle buffer (the
    // `pushdown = 0` plans of the commit that still had them): the scan's
    // filter below the buffer must keep training exactly these bits.
    let mut s = engine().connect();
    let t = train(
        &mut s,
        "SELECT f0, f1, f2, f5 FROM higgs WHERE f3 > 0.0 TRAIN BY lr WITH max_epoch_num = 3, \
         seed = 11, strategy = 'corgipile', buffer_fraction = 0.2, model_name = m",
    );
    let (crc, loss) = sql_bits(&s, &t);
    got.push(("pushdown".to_string(), crc, loss));

    // WHERE and WHERE + projection on every scan shape, at about one half
    // and about one tenth selectivity.
    for strategy in ["corgipile", "block_only", "no_shuffle", "shuffle_once"] {
        for (sel, predicate) in [("half", "f3 > 0.0"), ("tenth", "f3 > 1.3")] {
            for (shape, cols) in [("where", "*"), ("where_project", "f1, f3, f7")] {
                let mut s = engine().connect();
                let t = train(
                    &mut s,
                    &format!(
                        "SELECT {cols} FROM higgs WHERE {predicate} TRAIN BY svm WITH \
                         max_epoch_num = 3, seed = 11, strategy = '{strategy}', \
                         buffer_fraction = 0.2, model_name = m"
                    ),
                );
                let (crc, loss) = sql_bits(&s, &t);
                got.push((format!("{shape}/{strategy}/{sel}"), crc, loss));
            }
        }
    }

    // A transient fault (retried) plus a dead block skipped every epoch.
    let db = engine();
    let mut s = db.connect();
    let tid = db.catalog().table("higgs").unwrap().config().table_id;
    s.inject_faults(
        FaultPlan::new(7)
            .with_transient(tid, 0, 1)
            .with_permanent(tid, 1),
    );
    let t = train(
        &mut s,
        "SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 3, seed = 11, \
         strategy = 'corgipile', buffer_fraction = 0.2, on_fault = 'skip', max_retries = 1, \
         model_name = m",
    );
    assert_eq!(t.skipped_blocks(), vec![1]);
    let (crc, loss) = sql_bits(&s, &t);
    got.push(("fault_skip".to_string(), crc, loss));

    // Durable store: halt after epoch 1, drop the engine, reopen, re-issue
    // the same SQL. `checkpoint_resume` was recorded through a `CORGICK1`
    // checkpoint file (`checkpoint = '…'`, then `resume = 1`); halt-and-
    // resume is `durable = 1` now, and the bits are the same.
    for (case, model, batch) in [
        ("checkpoint_resume", "svm", ", batch_size = 4"),
        ("durable_resume", "lr", ""),
    ] {
        let dir = scratch(case);
        let durable = format!(
            "SELECT * FROM higgs TRAIN BY {model} WITH max_epoch_num = 4, seed = 11, \
             strategy = 'corgipile', buffer_fraction = 0.2{batch}, model_name = m, durable = 1"
        );
        let open = || {
            let db = Database::with_model_store(SimDevice::hdd_scaled(1000.0, 0), 0, &dir).unwrap();
            db.register_table("higgs", higgs(600));
            db
        };
        let t = train(
            &mut open().connect(),
            &format!("{durable}, halt_after_epoch = 1"),
        );
        assert!(t.halted);
        let mut s = open().connect();
        let t = train(&mut s, &durable);
        assert_eq!(t.epochs.len(), 2, "auto-resume runs only epochs 2 and 3");
        let (crc, loss) = sql_bits(&s, &t);
        got.push((case.to_string(), crc, loss));
        std::fs::remove_dir_all(&dir).ok();
    }

    // CONTINUOUS over a deterministic drift schedule.
    let db = engine();
    let mut s = db.connect();
    let writer = db.clone();
    s.set_refresh_hook(move |chunk| {
        let rows: Vec<Tuple> = (0..40)
            .map(|i| {
                let x = (chunk * 40 + i) as f32 * 0.01;
                Tuple::dense(0, vec![x; 28], (i % 2) as f32)
            })
            .collect();
        writer.catalog().append_rows("higgs", rows).unwrap();
    });
    let t = train(
        &mut s,
        "SELECT * FROM higgs TRAIN BY svm CONTINUOUS WITH max_epoch_num = 6, refresh = 2, \
         seed = 11, strategy = 'corgipile', buffer_fraction = 0.2, model_name = m",
    );
    assert_eq!(t.snapshot_version, 3);
    let (crc, loss) = sql_bits(&s, &t);
    got.push(("continuous".to_string(), crc, loss));

    check("SQL_PATHS", &got, SQL_PATHS);
}

/// The `corgipile/*` rows were re-recorded when the library strategies
/// became the SQL engine's order generators: CorgiPile's block permutation
/// and tuple rank moved to the SQL ones (`StdRng(seed ⊕ 0xB50F)`,
/// `splitmix64(salt ⊕ id)`). The other rows did not move.
const TRAINER: &[Golden] = &[
    ("corgipile/per_tuple", 0xf9a49b8a, 0x3fe5a2fafc6dd121),
    ("corgipile/minibatch_adam", 0xbfd90656, 0x3fe611f2da7a4043),
    ("shuffle_once/per_tuple", 0x31182211, 0x3fe91aeee89da2a7),
    (
        "shuffle_once/minibatch_adam",
        0xa202b125,
        0x3fe4fabb6184b019,
    ),
    ("mrs/per_tuple", 0xf10c56d2, 0x3fe14f72a601f308),
    ("mrs/minibatch_adam", 0x8f407f2d, 0x3fe8dc38a6dd37ca),
    ("sliding_window/per_tuple", 0x89b3bce8, 0x3fe17cc4867d9718),
    (
        "sliding_window/minibatch_adam",
        0x7ed81e10,
        0x3fe9a25c00938ec1,
    ),
];

#[test]
fn trainer_is_pinned_across_double_buffer() {
    let table = higgs(600);
    let mut got = Vec::new();
    for strategy in [
        StrategyKind::CorgiPile,
        StrategyKind::ShuffleOnce,
        StrategyKind::Mrs,
        StrategyKind::SlidingWindow,
    ] {
        for minibatch_adam in [false, true] {
            let name = format!(
                "{}/{}",
                strategy.name(),
                if minibatch_adam {
                    "minibatch_adam"
                } else {
                    "per_tuple"
                }
            );
            let mut cell: Option<(u32, u64)> = None;
            for double_buffer in [false, true] {
                let mut cfg = TrainerConfig::new(ModelKind::LogisticRegression, 3)
                    .with_strategy(strategy)
                    .with_corgipile(
                        CorgiPileConfig::default()
                            .with_buffer_fraction(0.2)
                            .with_double_buffer(double_buffer),
                    );
                if minibatch_adam {
                    cfg = cfg
                        .with_batch_size(8)
                        .with_optimizer(OptimizerKind::default_adam(0.05));
                }
                let r = Trainer::new(cfg)
                    .train(&table, &mut SimDevice::hdd_scaled(1000.0, 0), 11)
                    .unwrap();
                let bits = (
                    params_crc(r.model.params()),
                    r.epochs.last().unwrap().train_loss.to_bits(),
                );
                assert_eq!(
                    *cell.get_or_insert(bits),
                    bits,
                    "{name}: double_buffer diverged"
                );
            }
            let (crc, loss) = cell.unwrap();
            got.push((name, crc, loss));
        }
    }
    check("TRAINER", &got, TRAINER);
}

#[test]
fn trainer_and_sql_train_are_one_path() {
    // Every strategy SQL accepts is the library's order generator and the
    // one fill: `Trainer::train` and `TRAIN … WITH strategy = …` on the same
    // table, seed, buffer fraction, learning rate and decay train the same
    // parameter bits and the same last-epoch loss, either way buffered.
    let table = higgs(600);
    let kinds = StrategyKind::all()
        .into_iter()
        .filter(|k| k.available_in_db());
    for kind in kinds {
        for double_buffer in [false, true] {
            let case = format!("{} double_buffer={double_buffer}", kind.name());
            let cfg = TrainerConfig::new(ModelKind::Svm, 3)
                .with_strategy(kind)
                .with_optimizer(OptimizerKind::Sgd {
                    lr0: 0.05,
                    decay: 0.9,
                })
                .with_corgipile(
                    CorgiPileConfig::default()
                        .with_buffer_fraction(0.2)
                        .with_double_buffer(double_buffer),
                );
            let r = Trainer::new(cfg)
                .train(&table, &mut SimDevice::hdd_scaled(1000.0, 0), 11)
                .unwrap();
            let mut s = engine().connect();
            let t = train(
                &mut s,
                &format!(
                    "SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 3, seed = 11, \
                     learning_rate = 0.05, decay = 0.9, buffer_fraction = 0.2, \
                     strategy = '{}', double_buffer = {}, model_name = m",
                    kind.name(),
                    u8::from(double_buffer)
                ),
            );
            let bits = |params: &[f32]| params.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
            let sql = &s.catalog().model("m").unwrap().params;
            assert_eq!(bits(r.model.params()), bits(sql), "{case}");
            let (lib, sql) = (&r.epochs[2], t.epochs.last().unwrap());
            assert_eq!(lib.train_loss.to_bits(), sql.train_loss.to_bits(), "{case}");
        }
    }
}

/// A narrow TRAIN of 3 000-row fills: the kernel lane waits for the first
/// fill of every epoch while it is still being copied, so it finishes that
/// fill itself. Recorded on the commit before the hand-off, whose producer
/// copied every fill.
const HANDED_OVER: Golden = ("svm/30k", 0x2746b7e6, 0x3fefed470104a463);

#[test]
fn fills_the_kernel_lane_finishes_train_the_same_bits() {
    let db = Database::new(SimDevice::hdd_scaled(1000.0, 0));
    let table = DatasetSpec::higgs_like(30_000)
        .with_order(Order::ClusteredByLabel)
        .with_block_bytes(64 << 10)
        .build_table(1)
        .unwrap();
    db.register_table("narrow", table);
    let mut cell: Option<(u32, u64)> = None;
    for double_buffer in [0, 1] {
        let mut s = db.connect();
        let t = train(
            &mut s,
            &format!(
                "SELECT * FROM narrow TRAIN BY svm WITH max_epoch_num = 3, seed = 5, \
                 buffer_fraction = 0.1, double_buffer = {double_buffer}, model_name = m"
            ),
        );
        // Settled fills are the ones the kernel lane copied rows of.
        let settled = s
            .telemetry()
            .histogram("db.tuple_shuffle.settle.wall_seconds");
        assert_eq!(
            settled.count() > 0,
            double_buffer == 1,
            "{}",
            settled.count()
        );
        let bits = sql_bits(&s, &t);
        assert_eq!(*cell.get_or_insert(bits), bits, "double_buffer diverged");
    }
    let (crc, loss) = cell.unwrap();
    check(
        "HANDED_OVER",
        &[(HANDED_OVER.0.into(), crc, loss)],
        &[HANDED_OVER],
    );
}

/// `(case, crc32 of the merged id stream, crc32 over the per-worker stream
/// crc32s, bits of io_seconds)`. Re-recorded, with the one-worker
/// parameters below, when the workers' fills became the CorgiPile
/// generator's fills (dealt round-robin, ranked by the SQL key) instead of
/// per-worker Fisher–Yates shuffles of a split permutation.
const PARALLEL_ORDER: &[(&str, u32, u32, u64)] = &[
    ("pn1/e0", 0x89b62875, 0x6d00aa50, 0x3fd1890b3225ce4d),
    ("pn1/e1", 0x98c5eea1, 0x3fb664ab, 0x3fd1890b3225ce4d),
    ("pn2/e0", 0x4057489d, 0x2a98ceb9, 0x3fc2911ae9cdad42),
    ("pn2/e1", 0x91de1d84, 0x42ea49ce, 0x3fc2911ae9cdad42),
    ("pn4/e0", 0x6e4c073c, 0xba5430ca, 0x3fb4a13a591d6b2d),
    ("pn4/e1", 0xf499b824, 0xb3c649ac, 0x3fb4a13a591d6b2d),
    ("pn8/e0", 0x35e8ae54, 0x895175bf, 0x3fa4a13a591d6b2d),
    ("pn8/e1", 0xfa1890f9, 0x2f422b2a, 0x3fa4a13a591d6b2d),
];

/// Parameter crc32 of a 2-epoch, one-worker, batch-8 run of
/// `Trainer::with_workers`.
const PARALLEL_ONE_WORKER_PARAMS: u32 = 0x7ce4e4ef;

fn ids_crc<'a>(tuples: impl IntoIterator<Item = &'a Tuple>) -> u32 {
    let bytes: Vec<u8> = tuples
        .into_iter()
        .flat_map(|t| t.id.to_le_bytes())
        .collect();
    crc32(&bytes)
}

#[test]
fn multi_worker_order_and_one_worker_bits_are_pinned() {
    let table = higgs(2000);
    let workers = |workers| ParallelConfig {
        workers,
        total_buffer_fraction: 0.25,
        ..Default::default()
    };
    let mut got = Vec::new();
    for pn in [1usize, 2, 4, 8] {
        for epoch in [0usize, 1] {
            let plan = parallel_epoch_plan(&table, &workers(pn), 16, 11, epoch).unwrap();
            let per_worker: Vec<u8> = plan
                .worker_streams
                .iter()
                .flat_map(|s| ids_crc(s).to_le_bytes())
                .collect();
            got.push((
                format!("pn{pn}/e{epoch}"),
                ids_crc(plan.merged_batches.iter().flatten()),
                crc32(&per_worker),
                plan.io_seconds.to_bits(),
            ));
        }
    }
    let same = got.len() == PARALLEL_ORDER.len()
        && got
            .iter()
            .zip(PARALLEL_ORDER)
            .all(|(g, w)| (g.0.as_str(), g.1, g.2, g.3) == *w);
    if !same {
        let mut lines = String::from("PARALLEL_ORDER moved; actual values:\n");
        for (name, merged, per_worker, io) in &got {
            lines.push_str(&format!(
                "    (\"{name}\", 0x{merged:08x}, 0x{per_worker:08x}, 0x{io:016x}),\n"
            ));
        }
        panic!("{lines}");
    }

    let cfg = TrainerConfig::new(ModelKind::LogisticRegression, 2)
        .with_batch_size(8)
        .with_optimizer(OptimizerKind::default_sgd(0.05));
    let r = Trainer::new(cfg)
        .with_workers(workers(1))
        .train(&table, &mut SimDevice::in_memory(), 11)
        .unwrap();
    assert_eq!(
        params_crc(r.model.params()),
        PARALLEL_ONE_WORKER_PARAMS,
        "one-worker parameters moved: 0x{:08x}",
        params_crc(r.model.params())
    );
}

#[test]
fn pagination_is_pinned_across_page_layouts() {
    // Recorded at the last commit whose pages held encoded bytes. How a
    // page keeps its rows in memory may change; where a page ends may not —
    // block boundaries, `device_bytes_per_row`, `stored_bytes_per_user_byte`
    // and every sim-clock charge follow from these numbers.
    use corgipile::storage::BlockMeta;
    let meta = |id, pages, tuples, bytes| BlockMeta {
        id,
        pages,
        tuples,
        bytes,
    };
    let higgs = DatasetSpec::higgs_like(3000).with_block_bytes(64 << 10);
    let epsilon = DatasetSpec::epsilon_like(60).with_block_bytes(1 << 20);
    let criteo = DatasetSpec::criteo_like(2000).with_block_bytes(64 << 10);
    for (spec, blocks, bytes, first, last) in [
        (
            higgs,
            7,
            417_792,
            meta(0, 0..8, 0..472, 65_536),
            meta(6, 48..51, 2832..3000, 24_576),
        ),
        (
            epsilon,
            1,
            491_520,
            meta(0, 0..60, 0..60, 491_520),
            meta(0, 0..60, 0..60, 491_520),
        ),
        (
            criteo,
            11,
            688_128,
            meta(0, 0..8, 0..192, 65_536),
            meta(10, 80..84, 1920..2000, 32_768),
        ),
    ] {
        let t = spec.build_table(7).unwrap();
        assert_eq!((t.num_blocks(), t.total_bytes()), (blocks, bytes));
        assert_eq!(t.block(0).unwrap(), &first);
        assert_eq!(t.block(blocks - 1).unwrap(), &last);
    }
}

/// `(case, per epoch: bits of io_seconds, compute_seconds, epoch_seconds)`
/// of the runs whose clock no other constant pins: `Trainer::with_workers`
/// at 2 and 4 workers, and `Trainer` under MRS and Sliding-Window, each
/// with `double_buffer` off and on. Re-recorded when the per-row compute
/// rule became count × price (`ComputeCostModel::price`); the new sums
/// agree with the per-row f64 walk to 1e-12 relative (`driver.rs`'s
/// `per_row_charges` test).
const CLOCK: &[(&str, [[u64; 3]; 2])] = &[
    (
        "workers/pn2/db0",
        [
            [0x3fc2911ae9cdad42, 0x3f2b43526527a207, 0x3fc297ebbe66f72b],
            [0x3fc2911ae9cdad42, 0x3f2b43526527a207, 0x3fc297ebbe66f72b],
        ],
    ),
    (
        "workers/pn4/db0",
        [
            [0x3fb4a13a591d6b2d, 0x3f2b43526527a206, 0x3fb4aedc024ffefe],
            [0x3fb4a13a591d6b2d, 0x3f2b43526527a206, 0x3fb4aedc024ffefe],
        ],
    ),
    (
        "mrs/db0",
        [
            [0x3f45804ac2be0ea6, 0x3f105b97d64afad0, 0x3f478bbdbd876e00],
            [0x3f45804ac2be0eac, 0x3f105b97d64afad0, 0x3f478bbdbd876e06],
        ],
    ),
    (
        "sliding_window/db0",
        [
            [0x3f45f1adde20a897, 0x3f105b97d64afacf, 0x3f47fd20d8ea07f1],
            [0x3f45f1adde20a891, 0x3f105b97d64afacf, 0x3f47fd20d8ea07eb],
        ],
    ),
    (
        "workers/pn2/db1",
        [
            [0x3fc2911ae9cdad42, 0x3f2b43526527a207, 0x3fc29181dbb9065b],
            [0x3fc2911ae9cdad42, 0x3f2b43526527a207, 0x3fc29181dbb9065b],
        ],
    ),
    (
        "workers/pn4/db1",
        [
            [0x3fb4a13a591d6b2d, 0x3f2b43526527a206, 0x3fb4a2083cf41d5e],
            [0x3fb4a13a591d6b2d, 0x3f2b43526527a206, 0x3fb4a2083cf41d5e],
        ],
    ),
    (
        "mrs/db1",
        [
            [0x3f45804ac2be0ea6, 0x3f105b97d64afad0, 0x3f458ba2289a504a],
            [0x3f45804ac2be0eac, 0x3f105b97d64afad0, 0x3f458ba2289a5050],
        ],
    ),
    (
        "sliding_window/db1",
        [
            [0x3f45f1adde20a897, 0x3f105b97d64afacf, 0x3f466317d8bb38fc],
            [0x3f45f1adde20a891, 0x3f105b97d64afacf, 0x3f466317d8bb38f6],
        ],
    ),
];

#[test]
fn worker_mrs_and_sliding_window_clocks_are_pinned() {
    let (small, large) = (higgs(600), higgs(2000));
    let mut got = Vec::new();
    for double_buffer in [false, true] {
        let cfg = |strategy| {
            TrainerConfig::new(ModelKind::LogisticRegression, 2)
                .with_strategy(strategy)
                .with_corgipile(
                    CorgiPileConfig::default()
                        .with_buffer_fraction(0.2)
                        .with_double_buffer(double_buffer),
                )
        };
        let db = u8::from(double_buffer);
        let mut runs = Vec::new();
        for pn in [2usize, 4] {
            let trainer = Trainer::new(cfg(StrategyKind::CorgiPile).with_batch_size(16))
                .with_workers(ParallelConfig {
                    workers: pn,
                    total_buffer_fraction: 0.25,
                    ..Default::default()
                });
            runs.push((format!("workers/pn{pn}/db{db}"), trainer, &large));
        }
        for strategy in [StrategyKind::Mrs, StrategyKind::SlidingWindow] {
            let name = format!("{}/db{db}", strategy.name());
            runs.push((name, Trainer::new(cfg(strategy)), &small));
        }
        for (name, trainer, table) in runs {
            let r = trainer
                .train(table, &mut SimDevice::hdd_scaled(1000.0, 0), 11)
                .unwrap();
            let epoch = |e: usize| {
                let e = &r.epochs[e];
                [e.io_seconds, e.compute_seconds, e.epoch_seconds].map(f64::to_bits)
            };
            got.push((name, [epoch(0), epoch(1)]));
        }
    }
    if got.len() != CLOCK.len()
        || got
            .iter()
            .zip(CLOCK)
            .any(|(g, w)| (g.0.as_str(), g.1) != *w)
    {
        let mut lines = String::from("CLOCK moved; actual values:\n");
        for (name, epochs) in &got {
            let hex = |e: &[u64; 3]| e.map(|b| format!("0x{b:016x}")).join(", ");
            lines.push_str(&format!(
                "    (\"{name}\", [[{}], [{}]]),\n",
                hex(&epochs[0]),
                hex(&epochs[1])
            ));
        }
        panic!("{lines}");
    }
}

/// `(case, crc32 of the EXPLAIN ANALYZE text, per epoch: bits of
/// io_seconds, compute_seconds, sim_seconds_end)` of SQL statements on a
/// 3 000-row table; a `PREDICT` has one row, its io and compute seconds and
/// a zero. `WHERE id < 1500` empties whole blocks and, in two-block fills,
/// whole fills; `max_epoch_num = 0` scans no block. `fuse0`'s compute was
/// re-recorded with `CLOCK`, when the per-row rule became count × price; the
/// ranked plans' EXPLAIN crcs and `where/corgipile/2_blocks`' first epoch
/// when the scan-side node stopped counting reads twice and the reads of
/// windows `WHERE` empties at an epoch's end took its last slot.
const SQL_CLOCK: &[(&str, u32, &[[u64; 3]])] = &[
    (
        "corgipile",
        0x0cb9d8df,
        &[
            [0x3f6ccfbe56303235, 0x3f13000ceb1ff411, 0x3f6cd2e17edcd74d],
            [0x3f6ccfbe56303231, 0x3f13000ceb1ff411, 0x3f7cd2e17edcd74b],
        ],
    ),
    (
        "fuse0",
        0xbf244f53,
        &[
            [0x3f6ccfbe56303235, 0x3f34727dcbddb984, 0x3f6cdc9c939b554c],
            [0x3f6ccfbe56303231, 0x3f34727dcbddb984, 0x3f7cdc9c939b554a],
        ],
    ),
    (
        "double_buffer0",
        0xa228dbb2,
        &[
            [0x3f6ccfbe56303235, 0x3f13000ceb1ff411, 0x3f6d67bebd8931d6],
            [0x3f6ccfbe56303231, 0x3f13000ceb1ff411, 0x3f7d67bebd8931d4],
        ],
    ),
    (
        "where/corgipile",
        0x3413286b,
        &[
            [0x3f6c4ce1977dda5f, 0x3f03204341733ce3, 0x3f6c5004c02a7f77],
            [0x3f6c4ce1977dda5d, 0x3f03204341733ce3, 0x3f7c5004c02a7f76],
        ],
    ),
    (
        "where/corgipile/2_blocks",
        0x997e1216,
        &[
            [0x3f6c4ce1977dda5d, 0x3f03c152f113a901, 0x3f6c4ce1977dda5d],
            [0x3f6c4ce1977dda5d, 0x3f03cc0fb884c147, 0x3f7c4e732bd42ce9],
        ],
    ),
    (
        "where/no_shuffle",
        0xf49ba929,
        &[
            [0x3f6883287b67fa1c, 0x3f03f702d649225f, 0x3f6883287b67fa1c],
            [0x3f6883287b67fa0c, 0x3f03f702d649225f, 0x3f7883287b67fa14],
        ],
    ),
    (
        "fault_skip",
        0x4cdc887b,
        &[
            [0x3f7248e7f376e66f, 0x3f12a1063943dd3e, 0x3f724a7987cd38fb],
            [0x3f7248e7f376e66f, 0x3f12a1063943dd3e, 0x3f824a7987cd38fb],
        ],
    ),
    (
        "once",
        0xb80b6cf4,
        &[
            [0x3f6883287b67fa70, 0x3f13f1a47290963c, 0x3f8e9c3aeae8af4c],
            [0x3f6883287b67f9d4, 0x3f13f1a47290963c, 0x3f925ed86b1cdfa3],
        ],
    ),
    ("no_epochs", 0x1ed5a434, &[]),
    (
        "predict/fused",
        0x933fb1ed,
        &[[0x3f6883287b67fa56, 0x3ef360afee19ce89, 0x0000000000000000]],
    ),
    (
        "predict/fuse0",
        0xd1173256,
        &[[0x3f6883287b67fa56, 0x3f221682f944241d, 0x0000000000000000]],
    ),
];

#[test]
fn sql_clock_and_explain_analyze_are_pinned() {
    let engine = || {
        let db = Database::new(SimDevice::hdd_scaled(1000.0, 0));
        db.register_table("big", higgs(3000));
        db
    };
    let connect = |faulted: bool| {
        let db = engine();
        let mut s = db.connect();
        if faulted {
            let tid = db.catalog().table("big").unwrap().config().table_id;
            s.inject_faults(FaultPlan::new(7).with_permanent(tid, 1));
        }
        s
    };
    let explain = |s: &mut Session, sql: &str| match s.execute(&format!("EXPLAIN ANALYZE {sql}")) {
        Ok(QueryResult::Plan(lines)) => crc32(lines.join("\n").as_bytes()),
        other => panic!("{sql}: {other:?}"),
    };
    let base = "TRAIN BY svm WITH learning_rate = 0.05, model_name = m, max_epoch_num = ";
    let mut got: Vec<(String, u32, Vec<[u64; 3]>)> = Vec::new();
    let (all, half) = ("SELECT * FROM big", "SELECT * FROM big WHERE id < 1500");
    for (case, head, with, faulted) in [
        (
            "corgipile",
            all,
            "2, seed = 11, buffer_fraction = 0.2",
            false,
        ),
        (
            "fuse0",
            all,
            "2, seed = 11, buffer_fraction = 0.2, fuse = 0",
            false,
        ),
        (
            "double_buffer0",
            all,
            "2, seed = 11, buffer_fraction = 0.2, double_buffer = 0",
            false,
        ),
        (
            "where/corgipile",
            half,
            "2, seed = 11, buffer_fraction = 0.2",
            false,
        ),
        // Two-block fills: the filter empties whole fills, the last ones
        // of an epoch among them.
        (
            "where/corgipile/2_blocks",
            half,
            "2, seed = 1, buffer_fraction = 0.04",
            false,
        ),
        (
            "where/no_shuffle",
            half,
            "2, seed = 11, strategy = 'no'",
            false,
        ),
        (
            "fault_skip",
            all,
            "2, seed = 11, buffer_fraction = 0.2, on_fault = 'skip', max_retries = 1",
            true,
        ),
        ("once", all, "2, seed = 11, strategy = 'once'", false),
        ("no_epochs", all, "0, seed = 11", false),
    ] {
        let sql = format!("{head} {base}{with}");
        let t = train(&mut connect(faulted), &sql);
        let epochs = t
            .epochs
            .iter()
            .map(|e| [e.io_seconds, e.compute_seconds, e.sim_seconds_end].map(f64::to_bits));
        let crc = explain(&mut connect(faulted), &sql);
        got.push((case.to_string(), crc, epochs.collect()));
    }
    for (case, with) in [("predict/fused", ""), ("predict/fuse0", " WITH fuse = 0")] {
        let sql = format!("PREDICT m ON big WHERE id < 1500{with}");
        let mut clock = Vec::new();
        let mut s = connect(false);
        train(
            &mut s,
            &format!("{all} {base}2, seed = 11, buffer_fraction = 0.2"),
        );
        match s.execute(&sql) {
            Ok(QueryResult::Serve(p)) => {
                clock.push([p.io_seconds.to_bits(), p.compute_seconds.to_bits(), 0])
            }
            other => panic!("{sql}: {other:?}"),
        }
        let mut s = connect(false);
        train(
            &mut s,
            &format!("{all} {base}2, seed = 11, buffer_fraction = 0.2"),
        );
        got.push((case.to_string(), explain(&mut s, &sql), clock));
    }
    let same = got.len() == SQL_CLOCK.len()
        && got
            .iter()
            .zip(SQL_CLOCK)
            .all(|(g, w)| g.0 == w.0 && g.1 == w.1 && g.2 == w.2);
    if !same {
        let mut lines = String::from("SQL_CLOCK moved; actual values:\n");
        for (name, crc, epochs) in &got {
            let hex = |e: &[u64; 3]| e.map(|b| format!("0x{b:016x}")).join(", ");
            let epochs: Vec<String> = epochs.iter().map(|e| format!("[{}]", hex(e))).collect();
            lines.push_str(&format!(
                "    (\"{name}\", 0x{crc:08x}, &[{}]),\n",
                epochs.join(", ")
            ));
        }
        panic!("{lines}");
    }
}

/// `(file, crc32 of its bytes, its length)` of the two write-ahead logs a
/// durable engine keeps: the table WAL after three fixed `INSERT`s that
/// seal two blocks, and `models.wal` after a two-epoch
/// `durable = 1` TRAIN. Table files, model snapshots and saved model files
/// share the logs' frame codec, so a change to any of them must leave
/// these bytes where they are.
const WAL_BYTES: &[Golden] = &[
    ("tables/higgs.wal", 0x1892549d, 0x00000000000040b9),
    ("models.wal", 0xc8f2b516, 0x00000000000001b0),
];

#[test]
fn table_and_model_wal_bytes_are_pinned() {
    let dir = scratch("wal_bytes");
    let db = Database::with_model_store(SimDevice::hdd_scaled(1000.0, 0), 0, &dir).unwrap();
    db.register_table("higgs", higgs(600));
    let mut s = db.connect();
    for stmt in 0..3usize {
        let rows: Vec<String> = (0..40usize)
            .map(|i| {
                let mut row: Vec<String> = (0..28usize)
                    .map(|j| (((stmt * 40 + i) * 28 + j) % 17) as f32 * 0.25 - 2.0)
                    .map(|x| x.to_string())
                    .collect();
                row.push((i % 2).to_string());
                format!("({})", row.join(", "))
            })
            .collect();
        let sql = format!("INSERT INTO higgs VALUES {}", rows.join(", "));
        s.execute(&sql).unwrap_or_else(|e| panic!("{e}"));
    }
    train(
        &mut s,
        "SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 2, seed = 11, \
         strategy = 'corgipile', buffer_fraction = 0.2, model_name = m, durable = 1",
    );
    let mut got = Vec::new();
    for (case, path) in [
        ("tables/higgs.wal", dir.join("tables").join("higgs.wal")),
        ("models.wal", dir.join("models.wal")),
    ] {
        let bytes = std::fs::read(&path).unwrap();
        let (records, valid) = scan_valid_prefix(&bytes);
        assert_eq!(valid, bytes.len(), "{case} has a torn tail");
        if case.starts_with("tables") {
            let seals = records.iter().filter(|r| r.rtype == RT_TABLE_SEAL).count();
            assert_eq!((records.len(), seals), (5, 2), "three INSERTs, two seals");
        }
        got.push((case.to_string(), crc32(&bytes), bytes.len() as u64));
    }
    check("WAL_BYTES", &got, WAL_BYTES);
    std::fs::remove_dir_all(&dir).ok();
}

/// `(case, crc32 of the copy, bits of io_seconds)` of Corgi²'s offline pass
/// (`recluster_table`) at budgets 0.5 and 1.0 on two clustered tables: the
/// dense `higgs` one and a sparse one whose rows vary in width, so the
/// rewritten pages pack differently from the source's. The crc covers the
/// number of blocks rewritten, every block's page, tuple and byte bounds,
/// and every row's id, label and features in table order. The last case is
/// a `TRAIN … WITH strategy = 'corgi2'`: `(case, parameter crc32, bits of the
/// last train_loss)`, as in `SQL_GRID`.
const RECLUSTER: &[Golden] = &[
    ("higgs/0.5", 0xb69cbf83, 0x3f7811cac643a1d9),
    ("higgs/1.0", 0xee271714, 0x3f7a1e332e49635e),
    ("ragged/0.5", 0xe57274de, 0x3f888c06add6862b),
    ("ragged/1.0", 0x15f6c8e5, 0x3f8989d766090bf6),
    ("train/corgi2", 0xe74e451d, 0x3fecf4e58a111111),
];

/// A label-clustered sparse table over 1024 dimensions whose rows hold
/// 1–61 non-zeros.
fn ragged_sparse(n: u64) -> Table {
    use corgipile::storage::TableConfig;
    let row = |i: u64| {
        let nnz = 1 + (i * 37 % 61) as u32;
        let indices = (0..nnz).map(|k| k * 16 + (i % 16) as u32).collect();
        let values = (0..nnz)
            .map(|k| ((i + k as u64) % 7) as f32 * 0.5 - 1.5)
            .collect();
        let label = if i < n / 2 { 1.0 } else { -1.0 };
        Tuple::sparse(i, 1024, indices, values, label)
    };
    let cfg = TableConfig::new("ragged", 1).with_block_bytes(16 << 10);
    Table::from_tuples(cfg, (0..n).map(row)).unwrap()
}

fn table_crc(t: &Table, rewritten: usize) -> u32 {
    let mut bytes: Vec<u8> = (rewritten as u64).to_le_bytes().to_vec();
    for b in t.blocks() {
        for x in [b.pages.start, b.pages.end, b.bytes] {
            bytes.extend((x as u64).to_le_bytes());
        }
        bytes.extend(b.tuples.start.to_le_bytes());
        bytes.extend(b.tuples.end.to_le_bytes());
    }
    for r in t.rows() {
        bytes.extend(r.id.to_le_bytes());
        bytes.extend(r.label.to_bits().to_le_bytes());
        for (i, v) in r.features.to_vec().iter() {
            bytes.extend((i as u64).to_le_bytes());
            bytes.extend(v.to_bits().to_le_bytes());
        }
    }
    crc32(&bytes)
}

#[test]
fn recluster_and_corgi2_train_are_pinned() {
    use corgipile::shuffle::recluster_table;
    let mut got = Vec::new();
    for (name, table) in [("higgs", higgs(3000)), ("ragged", ragged_sparse(3000))] {
        assert!(
            table.num_blocks() >= 8,
            "{name}: {} blocks",
            table.num_blocks()
        );
        for budget in [0.5, 1.0] {
            let mut dev = SimDevice::hdd_scaled(1000.0, 0);
            let out = recluster_table(&table, "rc", 9, budget, 7, &mut dev).unwrap();
            got.push((
                format!("{name}/{budget:?}"),
                table_crc(&out.table, out.blocks_rewritten),
                out.io_seconds.to_bits(),
            ));
        }
    }
    let mut s = engine().connect();
    let t = train(
        &mut s,
        "SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 3, seed = 11, \
         learning_rate = 0.05, buffer_fraction = 0.2, io_budget = 0.5, \
         strategy = 'corgi2', model_name = m",
    );
    let (crc, loss) = sql_bits(&s, &t);
    got.push(("train/corgi2".to_string(), crc, loss));
    check("RECLUSTER", &got, RECLUSTER);
}
