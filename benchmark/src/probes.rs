//! Per-layer probes: the benchmark's own files time calls into each crate's
//! public functions, outside in. Run only with `--trace 1`, after the reps.
//!
//! Probes that depend on the shape of the data (`storage.decode_*`,
//! `shuffle.*`, `ml.*`, `core.*`, the `db.*` statement ratios) run on the
//! workload's own table, so each workload's trace says where *its* time goes.
//! Probes of the write path and the serving path run on fixed 28-feature data
//! (50 000 rows, "1x", and 200 000 rows, "4x") whatever the workload, because
//! every workload reports every metric.

use crate::sample::{count_allocs, process_cpu_s};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workloads::{device, higgs_spec, train_sql, Checks, Ingest, Workload};
use corgipile_core::{Trainer, TrainerConfig};
use corgipile_db::{parse, Database, Session};
use corgipile_ml::{build_model, train_per_tuple, ModelKind, Sgd};
use corgipile_shuffle::{block_variance_sampled, build_strategy, StrategyKind, StrategyParams};
use corgipile_storage::{
    save_table, AppendableTable, FeatureVec, FileTable, Table, Tuple, Wal, RT_TABLE_ROWS,
};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Epochs of the TRAIN statement the `db.*` ratios and `core.trainer` run:
/// enough to reach steady state, short enough to repeat in A/B rounds.
const PROBE_EPOCHS: usize = 2;
const AB_ROUNDS: usize = 5;

pub type Metrics = Vec<(&'static str, f64)>;

/// Wall seconds of `f`, inside a `call:` span.
fn call<T>(tr: &mut Tracer, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    tr.scope(&format!("call:{name}"), 0, |_| {
        let t0 = Instant::now();
        let out = f();
        (out, t0.elapsed().as_secs_f64())
    })
}

/// Median wall seconds of `n` calls of `f`.
fn median_call<T>(tr: &mut Tracer, name: &str, n: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..n)
        .map(|_| call(tr, name, || black_box(f())).1)
        .collect();
    median(&times)
}

fn model_kind(name: &str) -> ModelKind {
    match name {
        "lr" => ModelKind::LogisticRegression,
        _ => ModelKind::Svm,
    }
}

fn decode_all(table: &Table) -> usize {
    (0..table.num_blocks())
        .map(|b| black_box(table.block_tuples(b).expect("decode block")).len())
        .sum()
}

/// Read bandwidth of one core streaming over a buffer larger than any cache:
/// the ceiling `ml.sgd_gb_per_s` and `storage.decode_gb_per_s` are read against.
fn mem_stream_gb_per_s(tr: &mut Tracer) -> f64 {
    let buf = vec![1.0f32; 64 << 20 >> 2];
    let s = median_call(tr, "mem_stream", 3, || buf.iter().sum::<f32>());
    (buf.len() * 4) as f64 / s / 1e9
}

pub fn run(w: &mut dyn Workload, seed: u64, out: &Path, tr: &mut Tracer) -> Metrics {
    let mut m: Metrics = Vec::new();
    let table = w.session().catalog().table("t").expect("table t");
    let rows = table.num_tuples() as f64;
    let kind = model_kind(w.model());
    let us_per_row = |s: f64| s / rows * 1e6;

    let (gen_s, gen_rows) = w.generated();
    m.push(("data.gen_us_per_row", gen_s / gen_rows as f64 * 1e6));
    m.push((
        "bench.mem_stream_gb_per_s",
        tr.scope("probe:bench.mem_stream", 0, mem_stream_gb_per_s),
    ));

    // storage: page decode into Vec<Tuple>, every block of the workload's table.
    let decode_s = tr.scope("probe:storage.decode", 0, |tr| {
        let s = median_call(tr, "Table::block_tuples", 3, || decode_all(&table));
        let (_, allocs, _) = count_allocs(|| decode_all(&table));
        m.push(("storage.decode_us_per_row", us_per_row(s)));
        m.push((
            "storage.decode_gb_per_s",
            table.total_bytes() as f64 / s / 1e9,
        ));
        m.push(("storage.decode_allocs_per_row", allocs as f64 / rows));
        s
    });

    // shuffle: one CorgiPile epoch plan (block shuffle + buffered tuple
    // shuffle); self time excludes the block decodes it performs.
    let (plan, shuffle_s) = tr.scope("probe:shuffle", 0, |tr| {
        let params = StrategyParams::default().with_seed(41);
        let mut strategy = build_strategy(StrategyKind::CorgiPile, params);
        let mut dev = device();
        let mut plan = None;
        let mut times = Vec::new();
        for _ in 0..2 {
            drop(plan.take()); // freeing the previous epoch's tuples is not shuffle time
            let (p, s) = call(tr, "ShuffleStrategy::next_epoch", || {
                strategy.next_epoch(&table, &mut dev)
            });
            plan = Some(p);
            times.push(s);
        }
        let shuffle_s = median(&times) - decode_s;
        m.push(("shuffle.epoch_us_per_row", us_per_row(shuffle_s)));
        let hd = median_call(tr, "block_variance_sampled", 3, || {
            block_variance_sampled(&table, 0.1, 41, &mut dev)
        });
        m.push(("shuffle.hd_sample_ms", hd * 1e3));
        (plan.expect("one epoch plan"), shuffle_s)
    });
    let tuples: Vec<&Tuple> = plan.tuples().collect();
    let dim = tuples[0].features.dim();

    // ml: the gradient kernel alone, over pre-decoded tuples in epoch order.
    let sgd_s = tr.scope("probe:ml", 0, |tr| {
        let opt = Sgd::new(0.1, 0.95);
        let mut model = build_model(&kind, dim, 0);
        let s = median_call(tr, "train_per_tuple", 3, || {
            train_per_tuple(model.as_mut(), &opt, tuples.iter().copied()).examples
        });
        let flops = model.flops_per_example(dim) * rows;
        m.push(("ml.sgd_us_per_row", us_per_row(s)));
        m.push(("ml.sgd_gflops", flops / s / 1e9));
        m.push(("ml.sgd_gb_per_s", rows * dim as f64 * 4.0 / s / 1e9));
        let xs: Vec<&FeatureVec> = tuples.iter().map(|t| &t.features).collect();
        let mut preds = Vec::with_capacity(256);
        let p = median_call(tr, "Model::predict_batch_into", 3, || {
            for batch in xs.chunks(256) {
                preds.clear();
                model.predict_batch_into(batch, &mut preds);
            }
            preds.len()
        });
        m.push(("ml.predict_us_per_row", us_per_row(p)));
        s
    });
    drop(tuples);
    drop(plan);

    // core: the trainer without SQL, same table, strategy and model.
    tr.scope("probe:core.trainer", 0, |tr| {
        let trainer = Trainer::new(TrainerConfig::new(kind.clone(), PROBE_EPOCHS));
        let s = median_call(tr, "Trainer::train", 2, || {
            trainer
                .train(&table, &mut device(), 41)
                .expect("trainer run")
                .epochs
                .len()
        });
        m.push((
            "core.trainer_us_per_row",
            us_per_row(s) / PROBE_EPOCHS as f64,
        ));
    });

    // db: the TRAIN statement with one option at a time switched off, in
    // rotating order so host drift falls on every variant alike.
    tr.scope("probe:db.train_options", 0, |tr| {
        let variants = ["", ", double_buffer = 0", ", fuse = 0", ""];
        let mut wall = vec![Vec::new(); variants.len()];
        let mut cpu = vec![Vec::new(); variants.len()];
        for round in 0..AB_ROUNDS {
            for k in 0..variants.len() {
                let v = (k + round) % variants.len();
                let sql = train_sql(w.model(), PROBE_EPOCHS, "probe", variants[v]);
                // The last variant is the default statement with telemetry off.
                w.session().set_telemetry_enabled(v != variants.len() - 1);
                let c0 = process_cpu_s();
                let (r, s) = call(tr, "Session::execute(TRAIN)", || w.session().execute(&sql));
                r.expect("probe TRAIN");
                wall[v].push(s);
                cpu[v].push(process_cpu_s() - c0);
            }
        }
        w.session().set_telemetry_enabled(true);
        let whole = median(&wall[0]);
        m.push(("db.double_buffer_wall_ratio", median(&wall[1]) / whole));
        m.push((
            "db.double_buffer_cpu_ratio",
            median(&cpu[1]) / median(&cpu[0]),
        ));
        m.push(("db.fuse_wall_ratio", median(&wall[2]) / whole));
        m.push(("telemetry.overhead_frac", whole / median(&wall[3]) - 1.0));
        let whole_us = us_per_row(whole) / PROBE_EPOCHS as f64;
        let parts_us = us_per_row(decode_s + shuffle_s + sgd_s);
        m.push(("db.train_residual_us_per_row", whole_us - parts_us));
        m.push(("db.train_parts_over_whole", parts_us / whole_us));
        println!(
            "base db.train_parts_over_whole: parts {parts_us} us/row over whole {whole_us} us/row"
        );
    });

    // db: parse and plan.
    let probe_data = Ingest::setup(seed, &out.join("probe"), tr);
    tr.scope("probe:db.parse_plan", 0, |tr| {
        let sql = train_sql(w.model(), PROBE_EPOCHS, "probe", "");
        let s = median_call(tr, "sql::parse(TRAIN)", 2_000, || parse(&sql).is_ok());
        m.push(("db.parse_us_per_stmt", s * 1e6));
        let insert = probe_data.first_insert_sql();
        let s = median_call(tr, "sql::parse(INSERT)", 50, || parse(insert).is_ok());
        m.push((
            "db.parse_insert_us_per_row",
            s * 1e6 / probe_data.first_batch().len() as f64,
        ));
        let explain = format!("EXPLAIN {sql}");
        let s = median_call(tr, "Session::execute(EXPLAIN)", 50, || {
            w.session().execute(&explain).is_ok()
        });
        m.push(("db.plan_us_per_stmt", s * 1e6));
    });

    write_path(probe_data, seed, out, tr, &mut m);
    m
}

/// The write and serving paths, on fixed 28-feature data.
fn write_path(mut data: Ingest, seed: u64, out: &Path, tr: &mut Tracer, m: &mut Metrics) {
    let batch: Vec<Tuple> = data.first_batch().to_vec();
    let big = tr.scope("probe:generate_4x", 0, |_| {
        higgs_spec(4 * data.base().num_tuples() as usize)
            .build_table(seed)
            .expect("lay out 4x table")
    });

    // storage: one fsynced WAL frame of 64 rows.
    tr.scope("probe:storage.wal", 0, |tr| {
        let path = out.join(format!("probe-{}.wal", std::process::id()));
        std::fs::create_dir_all(out).expect("create out dir");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = Wal::open(&path).expect("open probe wal");
        let mut payload = Vec::new();
        batch.iter().for_each(|t| t.encode(&mut payload));
        let (bytes0, fsyncs0) = (wal.len_bytes(), wal.fsync_count());
        let n = 200;
        let times: Vec<f64> = (0..n)
            .map(|_| {
                call(tr, "Wal::append", || {
                    wal.append(RT_TABLE_ROWS, &payload, None)
                        .expect("wal append")
                })
                .1
            })
            .collect();
        m.push(("storage.wal_append_p50_ms", median(&times) * 1e3));
        m.push((
            "storage.wal_bytes_per_frame",
            (wal.len_bytes() - bytes0) as f64 / n as f64,
        ));
        m.push((
            "storage.wal_fsyncs_per_stmt",
            (wal.fsync_count() - fsyncs0) as f64 / n as f64,
        ));
        drop(wal);
        std::fs::remove_file(&path).ok();
    });

    // storage: the in-memory append writer and the snapshot it republishes.
    tr.scope("probe:storage.append", 0, |tr| {
        let mut writer = AppendableTable::open_in_memory(data.base());
        let s = median_call(tr, "AppendableTable::append_rows", 100, || {
            writer
                .append_rows(batch.clone(), None)
                .expect("append rows")
        });
        m.push((
            "storage.append_rows_us_per_row",
            s * 1e6 / batch.len() as f64,
        ));
        let s = median_call(tr, "AppendableTable::snapshot_table@1x", 20, || {
            writer.snapshot_table(1)
        });
        m.push(("storage.snapshot_us_at_1x", s * 1e6));
        let writer = AppendableTable::open_in_memory(&big);
        let s = median_call(tr, "AppendableTable::snapshot_table@4x", 10, || {
            writer.snapshot_table(1)
        });
        m.push(("storage.snapshot_us_at_4x", s * 1e6));
    });

    // storage: real file reads with CRC. No SQL path reaches FileTable today;
    // recorded as the baseline for the change that adds one.
    tr.scope("probe:storage.file", 0, |tr| {
        let path = out.join(format!("probe-{}.tbl", std::process::id()));
        save_table(data.base(), &path).expect("save probe table");
        let file = FileTable::open(&path).expect("open probe table");
        let s = median_call(tr, "FileTable::read_block", 3, || {
            (0..file.num_blocks())
                .map(|b| file.read_block(b).expect("read block").len())
                .sum::<usize>()
        });
        m.push((
            "storage.file_block_read_us_per_row",
            s * 1e6 / file.num_tuples() as f64,
        ));
        std::fs::remove_file(&path).ok();
    });

    // db: catalog append = writer append + snapshot publish, at both sizes.
    tr.scope("probe:db.catalog_append", 0, |tr| {
        for (name, table, n) in [
            ("db.catalog_append_us_at_1x", data.base().clone(), 30),
            ("db.catalog_append_us_at_4x", big, 15),
        ] {
            let db = Database::new(device());
            db.register_table("t", table);
            let s = median_call(tr, "Catalog::append_rows", n, || {
                db.catalog()
                    .append_rows("t", batch.clone())
                    .expect("catalog append")
            });
            m.push((name, s * 1e6));
        }
    });

    // db: serving, first PREDICT on a fresh engine against the ones after it.
    data.prepare_rep();
    tr.scope("probe:db.serving", 0, |tr| {
        let session: &mut Session = data.session();
        let times: Vec<f64> = (0..10)
            .map(|_| {
                call(tr, "Session::execute(PREDICT)", || {
                    session.execute("PREDICT m ON t").expect("probe PREDICT")
                })
                .1
            })
            .collect();
        m.push(("db.serving_cold_first_ms", times[0] * 1e3));
        m.push(("db.serving_warm_p50_ms", median(&times[1..]) * 1e3));
    });

    // db: one ingest rep's INSERT statements, then restart and recover.
    tr.scope("probe:db.insert_recovery", 0, |tr| {
        let mut ck = Checks::default();
        let rep = data.rep(tr, &mut ck);
        assert_eq!(ck.failed, 0, "probe ingest rep failed: {:?}", ck.notes);
        m.push(("db.insert_p99_ms", percentile(&rep.stmt_s, 99.0) * 1e3));
        let (s, replayed) = call(tr, "reopen + Catalog::recover_table_wal", || data.restart()).0;
        replayed.expect("probe recovery");
        m.push(("db.recovery_ms", s * 1e3));
    });
}
