//! The four end-to-end workloads. Each drives only `Database` +
//! `Session::execute(sql)`: the engine sees generated tables and SQL text.
//!
//! Load shape: closed loop, one client, one process. The simulated device is
//! an SSD profile with cache 0, so every block read is counted. Data is
//! `Order::ClusteredByLabel` (the paper's hard case) generated from `--seed`.
//! Every TRAIN pins `strategy = 'corgipile', seed = 41` so the statement, not
//! the planner, decides what runs, and `--seed` changes the data only.

use crate::cal::Shares;
use crate::sample::{dir_bytes, process_cpu_s};
use crate::trace::Tracer;
use corgipile_data::{Dataset, DatasetSpec, Order};
use corgipile_db::{Database, DbError, QueryResult, Session};
use corgipile_storage::{SimDevice, Table, Tuple};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

pub const NAMES: [&str; 4] = [
    "train_narrow",
    "train_wide",
    "predict_filter",
    "ingest_mixed",
];

const NARROW_ROWS: usize = 300_000;
const WIDE_ROWS: usize = 20_000;
const INGEST_BASE_ROWS: usize = 50_000;
const INSERT_STMTS: usize = 300;
const ROWS_PER_INSERT: usize = 64;
const PREDICT_EVERY: usize = 100;
const PREDICTS_PER_REP: usize = 8;
const SIGN_SAMPLE: usize = 1_000;

/// Statements issued and statements that errored or failed a check.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    /// Count one statement; `problem` is `Some` when it errored or failed a
    /// correctness check.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(p);
            }
        }
    }
}

/// What one rep measured. Times cover the rep's statements only, not the
/// checks that follow them.
pub struct Rep {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Latency of each primary statement (TRAIN, TRAIN, PREDICT, INSERT).
    pub stmt_s: Vec<f64>,
    /// Simulated-device bytes read.
    pub device_bytes: u64,
}

pub trait Workload {
    /// Rows one rep trains on, scans or inserts.
    fn rows_per_rep(&self) -> u64;
    /// Untimed work a rep needs first; true if it did any.
    fn prepare_rep(&mut self) -> bool {
        false
    }
    fn rep(&mut self, tr: &mut Tracer, ck: &mut Checks) -> Rep;
    /// End-of-run checks. Returns (bytes stored, bytes of user data).
    fn finish(&mut self, ck: &mut Checks) -> (u64, u64);
    /// The session the reps ran on, with table `t` registered (for probes).
    fn session(&mut self) -> &mut Session;
    /// Model family of the workload's TRAIN statement.
    fn model(&self) -> &'static str;
    /// Weights of the calibration loop's parts in this workload's normaliser,
    /// see `cal.rs`. The compute share is the value, to one decimal, at which
    /// the normalised rep time varied least over 20 runs spanning calm and
    /// contended host states; the io share is the part of a calm rep spent
    /// waiting for fsync.
    fn shares(&self) -> Shares;
    /// Data generation alone: (seconds, rows).
    fn generated(&self) -> (f64, u64);
}

/// What tells the two train workloads apart.
///
/// `accuracy_floor`: the generator's separating direction comes from `--seed`,
/// so final train accuracy moves with it: over seeds 1-30 it was 0.562-0.666
/// on `train_narrow` (0.615 at seed 1) and 0.925-0.953 on `train_wide` (0.948
/// at seed 1). The floors sit below those ranges: they catch a model that
/// stopped learning, not a drift of a point.
///
/// `compute_share`: per-row work on 28 features is mostly instructions; a
/// 2000-feature dot product over a 164 MB table is mostly memory.
struct TrainSpec {
    data: fn() -> DatasetSpec,
    model: &'static str,
    epochs: usize,
    accuracy_floor: f64,
    compute_share: f64,
}

const TRAIN_NARROW: TrainSpec = TrainSpec {
    data: narrow_spec,
    model: "svm",
    epochs: 6,
    accuracy_floor: 0.53,
    compute_share: 0.6,
};

const TRAIN_WIDE: TrainSpec = TrainSpec {
    data: wide_spec,
    model: "lr",
    epochs: 5,
    accuracy_floor: 0.90,
    compute_share: 0.1,
};

pub fn setup(name: &str, seed: u64, out: &Path, tr: &mut Tracer) -> Option<Box<dyn Workload>> {
    Some(match name {
        "train_narrow" => Box::new(Train::setup(&TRAIN_NARROW, seed, tr)),
        "train_wide" => Box::new(Train::setup(&TRAIN_WIDE, seed, tr)),
        "predict_filter" => Box::new(Predict::setup(seed, tr)),
        "ingest_mixed" => Box::new(Ingest::setup(seed, out, tr)),
        _ => return None,
    })
}

/// 28 dense features, clustered by label, 64 KiB blocks.
pub fn higgs_spec(rows: usize) -> DatasetSpec {
    DatasetSpec::higgs_like(rows)
        .with_order(Order::ClusteredByLabel)
        .with_block_bytes(64 << 10)
        .with_test(1)
}

fn narrow_spec() -> DatasetSpec {
    higgs_spec(NARROW_ROWS)
}

fn wide_spec() -> DatasetSpec {
    DatasetSpec::epsilon_like(WIDE_ROWS)
        .with_order(Order::ClusteredByLabel)
        .with_block_bytes(1 << 20)
        .with_test(1)
}

pub fn device() -> SimDevice {
    SimDevice::ssd_scaled(1000.0, 0)
}

pub fn train_sql(model: &str, epochs: usize, name: &str, extra: &str) -> String {
    format!(
        "SELECT * FROM t TRAIN BY {model} WITH max_epoch_num = {epochs}, \
         strategy = 'corgipile', seed = 41, model_name = {name}{extra}"
    )
}

/// Bytes of user data in `rows` rows of `dim` f32 features and a label.
fn user_bytes(rows: u64, dim: usize) -> u64 {
    rows * (dim as u64 + 1) * 4
}

fn timed(
    session: &mut Session,
    tr: &mut Tracer,
    span: &str,
    stmt_id: u64,
    sql: &str,
) -> (Result<QueryResult, DbError>, f64) {
    tr.scope(span, stmt_id, |_| {
        let t0 = Instant::now();
        let r = session.execute(sql);
        (r, t0.elapsed().as_secs_f64())
    })
}

/// `train_narrow` and `train_wide`: one TRAIN statement per rep.
struct Train {
    spec: &'static TrainSpec,
    db: Arc<Database>,
    session: Session,
    sql: String,
    rows: u64,
    dim: usize,
    first_params: Option<Vec<f32>>,
    gen_s: f64,
    stmts: u64,
}

/// Generate `spec` from `seed` and lay its train split out as a table. Also
/// returns the seconds generation alone took.
fn generate(spec: &DatasetSpec, seed: u64, tr: &mut Tracer) -> (Dataset, Table, f64) {
    let (ds, gen_s) = tr.scope("setup:generate", 0, |_| {
        let t0 = Instant::now();
        let ds = spec.build(seed);
        (ds, t0.elapsed().as_secs_f64())
    });
    let table = tr.scope("setup:build_table", 0, |_| {
        ds.to_table(0).expect("lay out table")
    });
    (ds, table, gen_s)
}

/// [`generate`] as table `t` of a fresh engine, with the generated rows.
fn open_engine(spec: &DatasetSpec, seed: u64, tr: &mut Tracer) -> (Arc<Database>, f64, Vec<Tuple>) {
    let (ds, table, gen_s) = generate(spec, seed, tr);
    let db = Database::new(device());
    db.register_table("t", table);
    (db, gen_s, ds.train)
}

/// Clock, CPU and simulated-device readings taken as a rep's statements start.
struct Meter {
    t0: Instant,
    cpu0: f64,
    device0: u64,
}

impl Meter {
    fn start(db: &Database) -> Meter {
        Meter {
            device0: db.device_stats().device_bytes,
            cpu0: process_cpu_s(),
            t0: Instant::now(),
        }
    }

    /// What the rep measured; the caller fills in the statement latencies.
    fn stop(self, db: &Database) -> Rep {
        Rep {
            wall_s: self.t0.elapsed().as_secs_f64(),
            cpu_s: process_cpu_s() - self.cpu0,
            stmt_s: Vec::new(),
            device_bytes: db.device_stats().device_bytes - self.device0,
        }
    }
}

/// Bytes the in-memory table `t` holds, and bytes of user data in it.
fn table_footprint(db: &Database, rows: u64, dim: usize) -> (u64, u64) {
    let table = db.catalog().table("t").expect("table t");
    (table.total_bytes() as u64, user_bytes(rows, dim))
}

impl Train {
    fn setup(spec: &'static TrainSpec, seed: u64, tr: &mut Tracer) -> Train {
        let data = (spec.data)();
        let (db, gen_s, rows) = open_engine(&data, seed, tr);
        let session = db.connect();
        Train {
            spec,
            db,
            session,
            sql: train_sql(spec.model, spec.epochs, "m", ""),
            rows: rows.len() as u64,
            dim: data.dim(),
            first_params: None,
            gen_s,
            stmts: 0,
        }
    }
}

impl Workload for Train {
    fn rows_per_rep(&self) -> u64 {
        self.rows * self.spec.epochs as u64
    }

    fn rep(&mut self, tr: &mut Tracer, ck: &mut Checks) -> Rep {
        self.stmts += 1;
        let meter = Meter::start(&self.db);
        let (result, stmt_s) = timed(&mut self.session, tr, "stmt:train", self.stmts, &self.sql);
        let mut rep = meter.stop(&self.db);
        rep.stmt_s.push(stmt_s);

        let problem = match result {
            Err(e) => Some(format!("TRAIN failed: {e}")),
            Ok(QueryResult::Train(s)) => {
                let params = self
                    .db
                    .catalog()
                    .model("m")
                    .map(|m| m.params)
                    .unwrap_or_default();
                if self.first_params.is_none() {
                    println!(
                        "train accuracy {} (floor {})",
                        s.final_train_metric, self.spec.accuracy_floor
                    );
                }
                let first = self.first_params.get_or_insert_with(|| params.clone());
                let same_bits = first.len() == params.len()
                    && first
                        .iter()
                        .zip(&params)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                if !same_bits {
                    Some("TRAIN parameters differ from the first rep's".into())
                } else if s.epochs.len() != self.spec.epochs
                    || s.epochs.iter().any(|e| e.tuples as u64 != self.rows)
                {
                    Some("TRAIN did not visit every row in every epoch".into())
                } else if s.final_train_metric < self.spec.accuracy_floor {
                    Some(format!(
                        "TRAIN accuracy {} below floor {}",
                        s.final_train_metric, self.spec.accuracy_floor
                    ))
                } else {
                    None
                }
            }
            Ok(_) => Some("TRAIN returned a non-train result".into()),
        };
        ck.op(problem);
        rep
    }

    fn finish(&mut self, _ck: &mut Checks) -> (u64, u64) {
        table_footprint(&self.db, self.rows, self.dim)
    }

    fn session(&mut self) -> &mut Session {
        &mut self.session
    }

    fn model(&self) -> &'static str {
        self.spec.model
    }

    fn shares(&self) -> Shares {
        Shares {
            compute: self.spec.compute_share,
            io: 0.0,
        }
    }

    fn generated(&self) -> (f64, u64) {
        (self.gen_s, self.rows)
    }
}

/// `predict_filter`: eight filtered PREDICT scans per rep over the
/// `train_narrow` table, with a model trained once in set-up.
struct Predict {
    db: Arc<Database>,
    session: Session,
    rows: u64,
    dim: usize,
    sql: String,
    /// The benchmark's own count of rows matching the predicate.
    expected: u64,
    /// (position among the surviving rows, features) of the sign sample.
    sample: Vec<(usize, Vec<f32>)>,
    params: Vec<f32>,
    first_predictions: Option<Vec<f32>>,
    gen_s: f64,
    stmts: u64,
}

impl Predict {
    fn setup(seed: u64, tr: &mut Tracer) -> Predict {
        let spec = narrow_spec();
        let (db, gen_s, rows) = open_engine(&spec, seed, tr);
        // The predicate keeps the rows above the median of f3: half the table
        // at every seed, so counts per row do not move with the data.
        let mut f3: Vec<f32> = rows.iter().map(|t| t.features.get(3)).collect();
        f3.sort_by(f32::total_cmp);
        let threshold = (f64::from(f3[f3.len() / 2 - 1]) + f64::from(f3[f3.len() / 2])) / 2.0;
        let survivors: Vec<&Tuple> = rows
            .iter()
            .filter(|t| f64::from(t.features.get(3)) > threshold)
            .collect();
        let stride = (survivors.len() / SIGN_SAMPLE).max(1);
        let sample = (0..survivors.len())
            .step_by(stride)
            .take(SIGN_SAMPLE)
            .map(|i| {
                (
                    i,
                    (0..spec.dim())
                        .map(|j| survivors[i].features.get(j))
                        .collect(),
                )
            })
            .collect();
        let expected = survivors.len() as u64;

        let mut session = db.connect();
        tr.scope("setup:train_model", 0, |_| {
            session
                .execute(&train_sql(TRAIN_NARROW.model, TRAIN_NARROW.epochs, "m", ""))
                .expect("train the served model")
        });
        let params = db.catalog().model("m").expect("model m").params;
        Predict {
            db,
            session,
            rows: rows.len() as u64,
            dim: spec.dim(),
            sql: format!("PREDICT m ON t WHERE f3 > {threshold}"),
            expected,
            sample,
            params,
            first_predictions: None,
            gen_s,
            stmts: 0,
        }
    }

    /// Does `predictions` agree in sign with a naive f64 dot product on the
    /// sample? Scores within 1e-3 of zero may round either way and are skipped.
    fn signs_agree(&self, predictions: &[f32]) -> bool {
        let (w, b) = self.params.split_at(self.dim);
        self.sample.iter().all(|(pos, x)| {
            let score: f64 = x
                .iter()
                .zip(w)
                .map(|(a, b)| f64::from(*a) * f64::from(*b))
                .sum::<f64>()
                + f64::from(b[0]);
            score.abs() < 1e-3
                || predictions
                    .get(*pos)
                    .is_some_and(|p| (*p > 0.0) == (score > 0.0))
        })
    }
}

impl Workload for Predict {
    fn rows_per_rep(&self) -> u64 {
        self.rows * PREDICTS_PER_REP as u64
    }

    fn rep(&mut self, tr: &mut Tracer, ck: &mut Checks) -> Rep {
        let meter = Meter::start(&self.db);
        let mut results = Vec::with_capacity(PREDICTS_PER_REP);
        for _ in 0..PREDICTS_PER_REP {
            self.stmts += 1;
            results.push(timed(
                &mut self.session,
                tr,
                "stmt:predict",
                self.stmts,
                &self.sql,
            ));
        }
        let mut rep = meter.stop(&self.db);

        for (result, s) in results {
            rep.stmt_s.push(s);
            let problem = match result {
                Err(e) => Some(format!("PREDICT failed: {e}")),
                Ok(QueryResult::Serve(p)) => {
                    if p.rows != self.expected || p.predictions.len() as u64 != self.expected {
                        Some(format!(
                            "PREDICT returned {} rows, {} match the predicate",
                            p.rows, self.expected
                        ))
                    } else if !self.signs_agree(&p.predictions) {
                        Some("PREDICT disagrees in sign with a naive dot product".into())
                    } else if self
                        .first_predictions
                        .get_or_insert_with(|| p.predictions.clone())
                        != &p.predictions
                    {
                        Some("PREDICT output differs from the first statement's".into())
                    } else {
                        None
                    }
                }
                Ok(_) => Some("PREDICT returned a non-serve result".into()),
            };
            ck.op(problem);
        }
        rep
    }

    fn finish(&mut self, _ck: &mut Checks) -> (u64, u64) {
        table_footprint(&self.db, self.rows, self.dim)
    }

    fn session(&mut self) -> &mut Session {
        &mut self.session
    }

    fn model(&self) -> &'static str {
        "svm"
    }

    fn shares(&self) -> Shares {
        Shares {
            compute: 0.6,
            io: 0.0,
        }
    }

    fn generated(&self) -> (f64, u64) {
        (self.gen_s, self.rows)
    }
}

/// `ingest_mixed`: a durable engine in a fresh directory per rep; 300 INSERT
/// statements of 64 rows, each one fsynced table-WAL frame, with a PREDICT
/// after every 100th. The schedule is fixed by statement count, not time:
/// INSERT latency grows with table size (each statement republishes a full
/// snapshot) and that growth must stay in the measurement.
pub struct Ingest {
    base: Table,
    dim: usize,
    /// The rows the INSERT statements carry, in insert order.
    rows: Vec<Tuple>,
    inserts: Vec<String>,
    dir: PathBuf,
    live: Option<(Arc<Database>, Session)>,
    gen_s: f64,
    stmts: u64,
}

fn checksum<'a>(rows: impl Iterator<Item = &'a Tuple>, dim: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |x: f32| {
        h = (h ^ u64::from(x.to_bits())).wrapping_mul(0x0000_0100_0000_01b3);
    };
    for t in rows {
        (0..dim).for_each(|j| mix(t.features.get(j)));
        mix(t.label);
    }
    h
}

impl Ingest {
    pub fn setup(seed: u64, out: &Path, tr: &mut Tracer) -> Ingest {
        // The test split comes from the same generator as the base table, in
        // i.i.d. order: those are the rows the INSERT statements carry.
        let spec = higgs_spec(INGEST_BASE_ROWS).with_test(INSERT_STMTS * ROWS_PER_INSERT);
        let dim = spec.dim();
        let (mut ds, base, gen_s) = generate(&spec, seed, tr);
        // Quantise to multiples of 1/1024: exact in f32 and in decimal, so the
        // SQL text round-trips bit for bit and the checksum needs no tolerance.
        for t in &mut ds.test {
            let q: Vec<f32> = (0..dim)
                .map(|j| (t.features.get(j) * 1024.0).round() / 1024.0)
                .collect();
            *t = Tuple::dense(t.id, q, t.label);
        }
        let inserts: Vec<String> = tr.scope("setup:render_sql", 0, |_| {
            ds.test
                .chunks(ROWS_PER_INSERT)
                .map(|rows| {
                    let mut sql = String::from("INSERT INTO t VALUES ");
                    for (i, t) in rows.iter().enumerate() {
                        sql.push_str(if i == 0 { "(" } else { ", (" });
                        for j in 0..dim {
                            sql.push_str(&format!("{}, ", t.features.get(j)));
                        }
                        sql.push_str(&format!("{})", t.label));
                    }
                    sql
                })
                .collect()
        });
        Ingest {
            base,
            dim,
            inserts,
            rows: ds.test,
            dir: out.join(format!("store-{}", std::process::id())),
            live: None,
            gen_s,
            stmts: 0,
        }
    }

    fn open(&self) -> (Arc<Database>, Session) {
        let db = Database::with_model_store(device(), 0, &self.dir).expect("open durable engine");
        db.register_table("t", self.base.clone());
        let session = db.connect();
        (db, session)
    }

    fn inserted_rows(&self) -> u64 {
        self.rows.len() as u64
    }

    /// The 50 000-row base table every rep starts from.
    pub fn base(&self) -> &Table {
        &self.base
    }

    /// The rows of the first INSERT statement.
    pub fn first_batch(&self) -> &[Tuple] {
        &self.rows[..ROWS_PER_INSERT]
    }

    /// The text of the first INSERT statement.
    pub fn first_insert_sql(&self) -> &str {
        &self.inserts[0]
    }

    /// Drop the engine and reopen its directory: model-store recovery, base
    /// table registration and table-WAL replay. Returns the wall seconds and
    /// the rows the WAL replayed.
    pub fn restart(&mut self) -> (f64, Result<u64, DbError>) {
        self.live = None;
        let t0 = Instant::now();
        let (db, session) = self.open();
        let replayed = db.catalog().recover_table_wal("t");
        let s = t0.elapsed().as_secs_f64();
        self.live = Some((db, session));
        (s, replayed)
    }
}

impl Workload for Ingest {
    fn rows_per_rep(&self) -> u64 {
        self.inserted_rows()
    }

    fn prepare_rep(&mut self) -> bool {
        self.live = None;
        std::fs::remove_dir_all(&self.dir).ok();
        let (db, mut session) = self.open();
        session
            .execute(&train_sql("svm", 2, "m", ", durable = 1"))
            .expect("train the served model");
        self.live = Some((db, session));
        true
    }

    fn rep(&mut self, tr: &mut Tracer, ck: &mut Checks) -> Rep {
        let (db, session) = self.live.as_mut().expect("prepare_rep ran");
        let base_rows = self.base.num_tuples();
        let v0 = db.catalog().table_version("t").expect("table t");
        let meter = Meter::start(db);
        let mut results =
            Vec::with_capacity(self.inserts.len() + self.inserts.len() / PREDICT_EVERY);
        for (i, sql) in self.inserts.iter().enumerate() {
            self.stmts += 1;
            results.push(timed(session, tr, "stmt:insert", self.stmts, sql));
            if (i + 1) % PREDICT_EVERY == 0 {
                self.stmts += 1;
                results.push(timed(
                    session,
                    tr,
                    "stmt:predict",
                    self.stmts,
                    "PREDICT m ON t",
                ));
            }
        }
        let mut rep = meter.stop(db);

        let mut acked = 0u64;
        for (result, s) in results {
            let problem = match result {
                Err(e) => Some(format!("statement failed: {e}")),
                Ok(QueryResult::Insert {
                    rows,
                    version,
                    total_tuples,
                    ..
                }) => {
                    rep.stmt_s.push(s);
                    acked += 1;
                    let ok = rows == ROWS_PER_INSERT as u64
                        && version == v0 + acked
                        && total_tuples == base_rows + acked * ROWS_PER_INSERT as u64;
                    (!ok).then(|| format!("INSERT {acked} acked rows={rows} version={version} total={total_tuples}"))
                }
                Ok(QueryResult::Serve(p)) => {
                    let want = base_rows + acked * ROWS_PER_INSERT as u64;
                    (p.rows != want)
                        .then(|| format!("PREDICT saw {} rows, table holds {want}", p.rows))
                }
                Ok(_) => Some("unexpected result kind".into()),
            };
            ck.op(problem);
        }
        rep
    }

    /// Durability: drop the engine, reopen the directory, replay the table
    /// WAL, and require every acknowledged row back with the generated values.
    fn finish(&mut self, ck: &mut Checks) -> (u64, u64) {
        let total = self.base.num_tuples() + self.inserted_rows();
        let predict_rows = |session: &mut Session| match session.execute("PREDICT m ON t") {
            Ok(QueryResult::Serve(p)) => p.rows,
            _ => 0,
        };
        let (db, session) = self.live.as_mut().expect("a rep ran");
        let rows_before = predict_rows(session);
        ck.op((rows_before != total)
            .then(|| format!("PREDICT before restart saw {rows_before} rows of {total}")));
        let table_bytes = db.catalog().table("t").expect("table t").total_bytes() as u64;

        let (_, replayed) = self.restart();
        let stored = table_bytes + dir_bytes(&self.dir);
        let (inserted, want_checksum) =
            (self.inserted_rows(), checksum(self.rows.iter(), self.dim));
        let (db, session) = self.live.as_mut().expect("restart reopened the engine");
        let table = db.catalog().table("t").expect("table t");
        let recovered: Vec<Tuple> = (0..table.num_blocks())
            .flat_map(|b| table.block_tuples(b).expect("decode block"))
            .filter(|t| t.id >= self.base.num_tuples())
            .collect();
        let problem = match replayed {
            Err(e) => Some(format!("table WAL recovery failed: {e}")),
            Ok(n) if n != inserted || table.num_tuples() != total => Some(format!(
                "recovery replayed {n} rows, table holds {} of {total}",
                table.num_tuples()
            )),
            Ok(_) if checksum(recovered.iter(), self.dim) != want_checksum => {
                Some("recovered rows differ from the generated values".into())
            }
            Ok(_) => None,
        };
        ck.op(problem);
        let rows_after = predict_rows(session);
        ck.op((rows_after != rows_before)
            .then(|| format!("PREDICT saw {rows_after} rows after restart, {rows_before} before")));
        (stored, user_bytes(total, self.dim))
    }

    fn session(&mut self) -> &mut Session {
        &mut self.live.as_mut().expect("an engine is open").1
    }

    fn model(&self) -> &'static str {
        "svm"
    }

    /// Each INSERT republishes the table, thousands of page copies, and
    /// waits for one fsync: 300 of about 0.33 ms in a calm 0.85 s rep.
    fn shares(&self) -> Shares {
        Shares {
            compute: 0.0,
            io: 0.1,
        }
    }

    fn generated(&self) -> (f64, u64) {
        (self.gen_s, self.base.num_tuples() + self.inserted_rows())
    }
}

impl Drop for Ingest {
    fn drop(&mut self) {
        self.live = None;
        std::fs::remove_dir_all(&self.dir).ok();
    }
}
