//! Session: a connection to a [`Database`] that parses → plans → executes.
//!
//! A [`Session`] is a lightweight connection opened with
//! [`Database::connect`]: it borrows the engine's catalog and holds
//! per-connection handles onto the shared device and buffer pool, accepts
//! the SQL surface of §6, builds the corresponding physical plan, runs it,
//! and registers trained models:
//!
//! ```text
//! TRAIN BY … strategy='corgipile'  ⇒  SGD ← TupleShuffle ← BlockShuffle(random)
//! TRAIN BY … strategy='once'       ⇒  offline shuffle; SGD ← BlockShuffle(seq) over the copy
//! TRAIN BY … strategy='no'         ⇒  SGD ← BlockShuffle(seq)        (MADlib default)
//! TRAIN BY … strategy='block_only' ⇒  SGD ← BlockShuffle(random)
//! ```
//!
//! Sliding-Window and MRS are *not* offered in-DB — the paper could not
//! compare against them inside PostgreSQL either (Bismarck never released
//! MRS; §7.1.3) — they live in the library layer instead.
//!
//! Sessions are independent: each carries its own telemetry scope and its
//! own fault plan (see [`Session::inject_faults`]), so concurrent sessions
//! neither see each other's injected faults nor pollute each other's
//! `SHOW STATS`.

use crate::catalog::Catalog;
use crate::database::Database;
use crate::error::DbError;
use crate::exec::{DbEpochRecord, ExecContext, OpStats, PredictOperator};
use crate::options::{QueryOptions, Statement};
use crate::plan::{build_physical_with, LogicalPlan, PredictPlanSpec};
use crate::serving::ServableModel;
use crate::sql::{parse, InsertRows, ParamValue, Predicate, Query, ShowTarget};
use corgipile_ml::ModelKind;
use corgipile_shuffle::{recluster_table, StrategyParams};
use corgipile_storage::{ComputeCostModel, DeviceHandle, FaultPlan, PoolHandle, Table, Telemetry};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Summary of a completed `TRAIN BY` query.
#[derive(Debug, Clone)]
pub struct DbTrainSummary {
    /// Name the model was stored under.
    pub model_name: String,
    /// Model kind trained.
    pub model_kind: ModelKind,
    /// Strategy used.
    pub strategy: String,
    /// Table snapshot version the training scan was pinned to (the last
    /// pin, for `TRAIN … CONTINUOUS`). Rerunning the same query against
    /// [`Catalog::snapshot_at`] of this version is bit-identical.
    pub snapshot_version: u64,
    /// One-off pre-shuffle cost, if any.
    pub setup_seconds: f64,
    /// Per-epoch records.
    pub epochs: Vec<DbEpochRecord>,
    /// Final accuracy (classifiers) or R² (regression) over the table.
    pub final_train_metric: f64,
    /// True if the run stopped early at `halt_after_epoch`.
    pub halted: bool,
    /// Per-operator actual execution statistics (root first), the data
    /// behind `EXPLAIN ANALYZE`.
    pub op_stats: Vec<OpStats>,
}

impl DbTrainSummary {
    /// Total simulated seconds including setup.
    pub fn total_seconds(&self) -> f64 {
        self.epochs
            .last()
            .map(|e| e.sim_seconds_end)
            .unwrap_or(self.setup_seconds)
    }

    /// All blocks skipped across epochs under `on_fault = 'skip'`
    /// (deduplicated, sorted).
    pub fn skipped_blocks(&self) -> Vec<usize> {
        let mut all: Vec<usize> = self
            .epochs
            .iter()
            .flat_map(|e| e.skipped_blocks.iter().copied())
            .collect();
        all.sort_unstable();
        all.dedup();
        all
    }
}

/// Options for [`Session::predict_batch`], the programmatic face of
/// `PREDICT <model> [VERSION n] ON <table> [WHERE …]`.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Explicit version pin; `None` serves the cache-active version.
    pub version: Option<u32>,
    /// Optional row predicate, placed on the scan so it is evaluated on
    /// each row in place, before batching.
    pub filter: Option<Predicate>,
    /// Tuples per prediction batch.
    pub batch_rows: usize,
    /// Lower through the pipeline-fusion pass (`WITH fuse = 1`, the
    /// default). Off, the interpreted operator tree runs — the serving
    /// bit-identity oracle.
    pub fuse: bool,
}

impl ServeOptions {
    /// Resolve a `PREDICT … ON …` statement's `WITH` clause (validated
    /// against the typed option registry) around its version pin and
    /// predicate.
    fn resolve(
        version: Option<u32>,
        filter: Option<Predicate>,
        params: &BTreeMap<String, ParamValue>,
    ) -> Result<Self, DbError> {
        let defaults = ServeOptions::default();
        let q = QueryOptions::parse(Statement::Predict, params)?;
        Ok(ServeOptions {
            version,
            filter,
            batch_rows: q.positive_int("batch_rows", defaults.batch_rows)?,
            fuse: q.flag("fuse", defaults.fuse)?,
        })
    }
}

impl Default for ServeOptions {
    /// Active version, no predicate, 256-tuple batches, fused lowering.
    fn default() -> Self {
        ServeOptions {
            version: None,
            filter: None,
            batch_rows: 256,
            fuse: true,
        }
    }
}

/// Summary of one batched `PREDICT … ON …` run (the serving path).
#[derive(Debug, Clone)]
pub struct PredictSummary {
    /// Served model name.
    pub model_name: String,
    /// The version this run was pinned to — every prediction in
    /// `predictions` came from exactly this version, even if training
    /// published a newer one mid-scan.
    pub version: u32,
    /// Predicted labels in scan order (post-filter survivors only).
    pub predictions: Vec<f32>,
    /// Accuracy (classifiers) / R² (regression) against stored labels,
    /// `None` when nothing survived the filter.
    pub metric: Option<f64>,
    /// Tuples predicted.
    pub rows: u64,
    /// Prediction batches executed.
    pub batches: u64,
    /// Tuples dropped by the scan's predicate.
    pub rows_filtered: u64,
    /// True when the pin was served straight from the model cache (no
    /// store/catalog fallback instantiation).
    pub cache_hit: bool,
    /// Cache hit rate of the scan (hits / block reads, 0.0 when nothing
    /// was read). The scan is sequential and bypasses the buffer pool, so
    /// its hits are the device's OS page cache.
    pub scan_cache_hit_rate: f64,
    /// Simulated scan I/O seconds.
    pub io_seconds: f64,
    /// Simulated inference compute seconds.
    pub compute_seconds: f64,
    /// Wall-clock seconds per prediction batch (real latency; the
    /// simulated clock is `io_seconds + compute_seconds`).
    pub batch_wall_seconds: Vec<f64>,
    /// Per-operator actual statistics (EXPLAIN ANALYZE), root first.
    pub op_stats: Vec<OpStats>,
}

impl PredictSummary {
    /// Total simulated seconds for the run (scan I/O + inference compute).
    pub fn sim_seconds(&self) -> f64 {
        self.io_seconds + self.compute_seconds
    }

    /// Wall-clock per-batch latency quantile (`0.5` = p50, `0.99` = p99),
    /// by nearest-rank over the recorded batches; `None` before any batch.
    pub fn latency_quantile(&self, q: f64) -> Option<f64> {
        if self.batch_wall_seconds.is_empty() {
            return None;
        }
        let mut sorted = self.batch_wall_seconds.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        Some(sorted[rank])
    }
}

/// Result of executing one query.
///
/// Marked `#[non_exhaustive]`: downstream matches must include a wildcard
/// arm so new result variants can be added without a breaking release.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum QueryResult {
    /// `TRAIN BY` outcome.
    Train(DbTrainSummary),
    /// `PREDICT BY` outcome.
    Predict {
        /// Predicted labels, in table order.
        predictions: Vec<f32>,
        /// Accuracy (classifiers) or R² (regression) against stored labels.
        metric: f64,
    },
    /// Batched `PREDICT … ON …` outcome (the serving path).
    Serve(PredictSummary),
    /// `EXPLAIN` output: one line per plan node, root first.
    Plan(Vec<String>),
    /// `SHOW TABLES` / `SHOW MODELS` output.
    Names(Vec<String>),
    /// `RECLUSTER` outcome: the bounded-I/O offline pass that backs the
    /// `corgi2` strategy, run as a standalone statement.
    Recluster {
        /// Table that was re-clustered (re-registered under its own name).
        table: String,
        /// Blocks rewritten by the bounded pass.
        blocks_rewritten: usize,
        /// Total blocks in the table.
        blocks_total: usize,
        /// Simulated I/O seconds the pass cost.
        io_seconds: f64,
        /// The declared budget in I/O seconds (`io_budget` × full shuffle).
        budget_io: f64,
        /// What a full offline shuffle would have cost, for comparison.
        full_shuffle_io: f64,
    },
    /// `INSERT INTO … VALUES …` outcome: the rows went through the
    /// table's buffered append writer (journaled as one fsynced WAL frame
    /// on durable engines) and a new snapshot version was published.
    Insert {
        /// Table appended into.
        table: String,
        /// Rows this statement appended.
        rows: u64,
        /// The snapshot version the append published.
        version: u64,
        /// Total tuples in the published snapshot.
        total_tuples: u64,
    },
}

/// A connection to a [`Database`].
///
/// Holds the engine behind an `Arc` plus this connection's device and pool
/// handles: queries executed here account their I/O, faults and telemetry
/// to this session, while the blocks they fault into the engine's buffer
/// pool become cache hits for every other session.
pub struct Session {
    pub(crate) db: Arc<Database>,
    pub(crate) dev: DeviceHandle,
    pub(crate) pool: PoolHandle,
    pub(crate) compute: ComputeCostModel,
    pub(crate) telemetry: Telemetry,
    /// Registry stashed by `set_telemetry_enabled(false)`, restored on
    /// re-enable so accumulated metrics survive an opt-out round trip.
    stashed_telemetry: Option<Telemetry>,
    /// Invoked with the 1-based chunk index before every
    /// `TRAIN … CONTINUOUS` snapshot re-pin (see
    /// [`Session::set_refresh_hook`]).
    pub(crate) refresh_hook: Option<Box<dyn FnMut(usize) + Send>>,
}

impl Session {
    /// Open a connection over a shared engine (use [`Database::connect`]).
    /// Telemetry is on by default — the instruments are bound once at
    /// setup, so the per-tuple hot path stays allocation-free either way;
    /// use [`Session::set_telemetry_enabled`] to opt out entirely.
    pub(crate) fn over(db: Arc<Database>) -> Self {
        let telemetry = Telemetry::enabled();
        let mut dev = db.device().handle();
        dev.set_telemetry(telemetry.clone());
        let pool = db.pool().handle();
        let compute = db.compute();
        Session {
            db,
            dev,
            pool,
            compute,
            telemetry,
            stashed_telemetry: None,
            refresh_hook: None,
        }
    }

    /// Install a hook run right before every `TRAIN … CONTINUOUS`
    /// snapshot re-pin, with the 1-based index of the chunk about to
    /// start. A deterministic stand-in for a concurrent writer: the hook
    /// can append through [`Database::catalog`] (capture the `Arc`
    /// returned by [`Session::database`]) and the next chunk trains over
    /// the result — tests and benches use it to replay the exact same
    /// drift schedule across runs.
    pub fn set_refresh_hook(&mut self, hook: impl FnMut(usize) + Send + 'static) {
        self.refresh_hook = Some(Box::new(hook));
    }

    /// The engine this session is connected to.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// The session's observability handle (for `Telemetry::json`,
    /// `Telemetry::prometheus`, or programmatic snapshots).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Enable or disable telemetry. Disabled handles make every emission a
    /// no-op; `SHOW STATS` then reports nothing. Disabling stashes the live
    /// registry and re-enabling restores it, so metrics accumulated before
    /// an opt-out survive the round trip.
    pub fn set_telemetry_enabled(&mut self, enabled: bool) {
        if enabled == self.telemetry.is_enabled() {
            return;
        }
        self.telemetry = if enabled {
            self.stashed_telemetry
                .take()
                .unwrap_or_else(Telemetry::enabled)
        } else {
            self.stashed_telemetry = Some(self.telemetry.clone());
            Telemetry::disabled()
        };
        self.dev.set_telemetry(self.telemetry.clone());
    }

    /// The shared catalog.
    pub fn catalog(&self) -> &Catalog {
        self.db.catalog()
    }

    /// This connection's device handle (for I/O statistics: the handle's
    /// stats cover exactly the I/O this session caused).
    pub fn device(&self) -> &DeviceHandle {
        &self.dev
    }

    /// Mutable access to this connection's device handle (e.g. to attach a
    /// fault plan). The handle keeps the session's telemetry bound to every
    /// access, so mutating through it cannot bypass the session scope.
    pub fn device_mut(&mut self) -> &mut DeviceHandle {
        &mut self.dev
    }

    /// Attach a [`FaultPlan`] to this connection: subsequent queries *on
    /// this session* see the injected faults on their block reads; other
    /// sessions on the same engine are unaffected.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.dev.set_fault_plan(plan);
    }

    /// Register a table in the shared catalog.
    pub fn register_table(&self, name: impl Into<String>, table: Table) {
        self.db.register_table(name, table);
    }

    /// Parse and execute one query.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult, DbError> {
        self.run(parse(sql)?)
    }

    fn run(&mut self, query: Query) -> Result<QueryResult, DbError> {
        match query {
            q @ Query::Train { .. } => {
                let prepared = self.prepare_train(q)?;
                Ok(QueryResult::Train(self.run_train(prepared)?))
            }
            Query::Insert { table, rows } => self.insert(&table, &rows),
            Query::Predict { table, model } => {
                let t = self.catalog().table(&table)?;
                let servable = self.catalog_servable(&model)?;
                let served = self.serve(&table, &t, servable, ServeOptions::default())?;
                Ok(QueryResult::Predict {
                    predictions: served.predictions,
                    // `None` only when no row was scored, which a table
                    // that has a width cannot produce without a WHERE.
                    metric: served.metric.unwrap_or(0.0),
                })
            }
            Query::PredictServe {
                model,
                version,
                table,
                filter,
                params,
            } => {
                let opts = ServeOptions::resolve(version, filter, &params)?;
                Ok(QueryResult::Serve(
                    self.predict_batch(&table, &model, opts)?,
                ))
            }
            Query::Recluster { table, params } => self.recluster(&table, &params),
            Query::LoadModel {
                name,
                version,
                activate,
            } => self.load_model(&name, version, activate),
            Query::Explain(inner) => self.explain(*inner),
            Query::ExplainAnalyze(inner) => self.explain_analyze(*inner),
            Query::Show { what } => Ok(match what {
                ShowTarget::Tables => QueryResult::Names(self.catalog().table_status()),
                ShowTarget::Models => QueryResult::Names(self.render_models()),
                ShowTarget::Stats => QueryResult::Plan(self.render_stats()),
            }),
        }
    }

    /// `SHOW MODELS`: catalog names, annotated with durable version /
    /// epoch / source when the engine has a model store tracking them, and
    /// a `*` on the version the serving cache currently routes `PREDICT`
    /// traffic to. When the cache serves a *different* version than the
    /// store's latest, the line says so (`active=vN`). Models neither
    /// durably stored nor cached stay bare.
    fn render_models(&self) -> Vec<String> {
        let cache = self.db.model_cache();
        self.catalog()
            .model_names()
            .into_iter()
            .map(|n| {
                let active = cache.active_version(&n);
                match self.db.model_store().and_then(|s| s.latest(&n)) {
                    Some(r) => {
                        let star = if active == Some(r.version) { "*" } else { "" };
                        let mut line = format!(
                            "{n} v{}{star} epoch={} source={}",
                            r.version, r.epoch, r.source
                        );
                        if let Some(a) = active.filter(|a| *a != r.version) {
                            line.push_str(&format!(" active=v{a}"));
                        }
                        line
                    }
                    None => match active {
                        Some(a) => format!("{n} v{a}*"),
                        None => n,
                    },
                }
            })
            .collect()
    }

    /// `LOAD MODEL <name> [VERSION n] [AS ACTIVE]`: re-register a durable
    /// version of `name` into the catalog (e.g. after another session
    /// overwrote the in-memory object with a non-durable retrain) and stash
    /// it in the serving cache. Without `AS ACTIVE` the cache's routing is
    /// untouched — in-flight and future `PREDICT` traffic keeps its active
    /// version; `AS ACTIVE` promotes the loaded version (the explicit
    /// rollback / rollforward path).
    fn load_model(
        &mut self,
        name: &str,
        version: Option<u32>,
        activate: bool,
    ) -> Result<QueryResult, DbError> {
        let store = self.db.model_store().ok_or_else(|| {
            DbError::BadParam(
                "LOAD MODEL requires an engine opened with a model store \
                 (Database::with_model_store)"
                    .into(),
            )
        })?;
        let rec = match version {
            None => store
                .latest(name)
                .ok_or_else(|| DbError::UnknownModel(name.to_string()))?,
            Some(v) => store
                .version(name, v)
                .ok_or_else(|| DbError::UnknownModel(format!("{name} version {v}")))?,
        };
        self.catalog().store_model(name, rec.stored.clone());
        let cache = self.db.model_cache();
        cache.publish(
            ServableModel::new(name, rec.version, rec.stored.clone()),
            false,
        );
        if activate {
            cache.promote(name, rec.version);
        }
        let mark = if activate { " (active)" } else { "" };
        Ok(QueryResult::Names(vec![format!(
            "{name} v{} epoch={} source={}{mark}",
            rec.version, rec.epoch, rec.source
        )]))
    }

    /// `SHOW STATS`: one line per telemetry instrument, sorted by name.
    fn render_stats(&self) -> Vec<String> {
        let snap = self.telemetry.snapshot();
        let mut lines = Vec::new();
        for (name, v) in &snap.metrics.counters {
            lines.push(format!("counter {name} = {v}"));
        }
        for (name, v) in &snap.metrics.gauges {
            lines.push(format!("gauge {name} = {v:.6}"));
        }
        for (name, h) in &snap.metrics.histograms {
            lines.push(format!(
                "histogram {name}: count={} mean={:.6} min={:.6} max={:.6}",
                h.count,
                h.mean(),
                h.min,
                h.max
            ));
        }
        lines.push(format!(
            "events {} recorded, {} dropped",
            snap.events.len(),
            snap.dropped_events
        ));
        lines
    }

    /// `EXPLAIN ANALYZE`: actually execute the training query, then render
    /// per-operator actual statistics plus device I/O and training totals,
    /// PostgreSQL-style. Non-training queries fall back to plain `EXPLAIN`.
    fn explain_analyze(&mut self, query: Query) -> Result<QueryResult, DbError> {
        match query {
            q @ Query::Train { .. } => {
                let prepared = self.prepare_train(q)?;
                let wal_before = match self.db.model_store() {
                    Some(store) if prepared.is_durable() => Some(store.stats()),
                    _ => None,
                };
                let before = self.dev.stats().clone();
                let summary = self.run_train(prepared)?;
                let after = self.dev.stats().clone();
                let mut lines: Vec<String> = summary
                    .op_stats
                    .iter()
                    .flat_map(|s| s.render_lines())
                    .collect();
                let reads = after.total_reads() - before.total_reads();
                let hits = after.cache_hits - before.cache_hits;
                lines.push(format!(
                    "I/O: reads={} cache_hit_rate={:.1}% device_bytes={} retries={} \
                     faults={} io={:.6}s",
                    reads,
                    if reads == 0 {
                        0.0
                    } else {
                        100.0 * hits as f64 / reads as f64
                    },
                    after.device_bytes - before.device_bytes,
                    after.retries - before.retries,
                    after.faults - before.faults,
                    after.io_seconds - before.io_seconds,
                ));
                lines.push(format!(
                    "Training: epochs={} total={:.6}s final_loss={:.6} strategy={}",
                    summary.epochs.len(),
                    summary.total_seconds(),
                    summary.epochs.last().map(|e| e.train_loss).unwrap_or(0.0),
                    summary.strategy,
                ));
                let skipped = summary.skipped_blocks();
                if !skipped.is_empty() {
                    lines.push(format!("Skipped blocks: {skipped:?}"));
                }
                if let (Some(before), Some(store)) = (wal_before, self.db.model_store()) {
                    let s = store.stats();
                    lines.push(format!(
                        "WAL: appends={} bytes={} fsyncs={} compactions={}",
                        s.appends - before.appends,
                        s.appended_bytes - before.appended_bytes,
                        s.fsyncs - before.fsyncs,
                        s.compactions - before.compactions,
                    ));
                }
                Ok(QueryResult::Plan(lines))
            }
            q @ Query::PredictServe { .. } => {
                let summary = match self.run(q)? {
                    QueryResult::Serve(s) => s,
                    _ => unreachable!("PredictServe queries return Serve results"),
                };
                let mut lines: Vec<String> = summary
                    .op_stats
                    .iter()
                    .flat_map(|s| s.render_lines())
                    .collect();
                lines.push(format!(
                    "Serving: model={} v{} rows={} batches={} cache={} \
                     scan_hit_rate={:.1}% io={:.6}s compute={:.6}s",
                    summary.model_name,
                    summary.version,
                    summary.rows,
                    summary.batches,
                    if summary.cache_hit { "hit" } else { "miss" },
                    100.0 * summary.scan_cache_hit_rate,
                    summary.io_seconds,
                    summary.compute_seconds,
                ));
                Ok(QueryResult::Plan(lines))
            }
            other => self.explain(other),
        }
    }

    /// Render the plan a query would execute, PostgreSQL EXPLAIN-style
    /// (root first), without executing it. The logical plan is built and
    /// validated exactly as `train` would — unknown columns or ill-typed
    /// predicates fail here with the same structured [`DbError`].
    fn explain(&mut self, query: Query) -> Result<QueryResult, DbError> {
        match query {
            q @ Query::Train { .. } => {
                Ok(QueryResult::Plan(self.prepare_train(q)?.explain_lines()))
            }
            Query::Insert { table, rows } => {
                let version = self.catalog().table_version(&table)?;
                Ok(QueryResult::Plan(vec![format!(
                    "Insert on {table} (rows={}, current snapshot v{version})",
                    rows.views().len()
                )]))
            }
            Query::Predict { table, model } => {
                let t = self.catalog().table(&table)?;
                let servable = self.catalog_servable(&model)?;
                let plan = predict_plan(&table, &t, &servable, &ServeOptions::default())?;
                Ok(QueryResult::Plan(plan.explain_lines_fused()))
            }
            Query::PredictServe {
                model,
                version,
                table,
                filter,
                params,
            } => {
                // The checks `PREDICT … ON` makes, in its order, so both
                // refuse the same statements with the same error.
                let opts = ServeOptions::resolve(version, filter, &params)?;
                let t = self.catalog().table(&table)?;
                let servable = self.peek_servable(&model, version)?;
                let plan = predict_plan(&table, &t, &servable, &opts)?;
                Ok(QueryResult::Plan(if opts.fuse {
                    plan.explain_lines_fused()
                } else {
                    plan.explain_lines()
                }))
            }
            other => self.run(other),
        }
    }

    /// `INSERT INTO <table> VALUES (…), …`: append through the catalog's
    /// buffered writer. Each row is `feature…, label`; sequence ids are
    /// assigned by the writer. On durable engines the whole statement is
    /// journaled as one fsynced table-WAL frame before it is acknowledged,
    /// and the publish invalidates the planner's cached ĥ_D exactly like
    /// `RECLUSTER` does.
    fn insert(&mut self, table_name: &str, rows: &InsertRows) -> Result<QueryResult, DbError> {
        let table = self.catalog().table(table_name)?;
        // An empty table has no width yet: the statement's rows set it.
        let dim = table.dim().unwrap_or(rows.width());
        if rows.width() != dim {
            return Err(DbError::BadParam(format!(
                "INSERT row has {} features, table {table_name} stores {dim}",
                rows.width()
            )));
        }
        let out = self.catalog().append(table_name, rows.views())?;
        self.telemetry.counter("db.insert.rows").add(out.rows);
        if out.recovered > 0 {
            self.telemetry
                .counter("db.insert.recovered_rows")
                .add(out.recovered);
        }
        Ok(QueryResult::Insert {
            table: table_name.to_string(),
            rows: out.rows,
            version: out.version,
            total_tuples: out.total_tuples,
        })
    }

    /// `RECLUSTER <table> [WITH io_budget = f, seed = n]`: the bounded-I/O
    /// offline pass of Corgi² run as a standalone statement. The result
    /// replaces the table under its own name (later queries — and the
    /// planner's cached ĥ_D — see the re-clustered layout), and the
    /// outcome reports the I/O actually spent against the declared budget.
    fn recluster(
        &mut self,
        table_name: &str,
        params: &BTreeMap<String, ParamValue>,
    ) -> Result<QueryResult, DbError> {
        let opts = QueryOptions::parse(Statement::Recluster, params)?;
        let io_budget = opts.fraction("io_budget", StrategyParams::default().io_budget)?;
        let seed = opts.nonneg_int("seed", 42)? as u64;
        let table = self.catalog().table(table_name)?;
        let copy_id = self.catalog().fresh_table_id();
        let out = self
            .dev
            .with(|d| recluster_table(&table, table_name, copy_id, io_budget, seed, d))?;
        self.telemetry
            .counter("db.recluster.blocks_rewritten")
            .add(out.blocks_rewritten as u64);
        // Re-registering under the same name invalidates the cached ĥ_D.
        self.register_table(table_name, out.table);
        Ok(QueryResult::Recluster {
            table: table_name.to_string(),
            blocks_rewritten: out.blocks_rewritten,
            blocks_total: out.blocks_total,
            io_seconds: out.io_seconds,
            budget_io: out.budget_io,
            full_shuffle_io: out.full_shuffle_io,
        })
    }

    /// Batched inference — the engine behind
    /// `PREDICT <model> [VERSION n] ON <table> [WHERE …]`.
    ///
    /// Pins an immutable [`ServableModel`] from the engine's model cache
    /// *before* the first block is read, then runs the one PREDICT executor
    /// (`Session::serve`) over it. A concurrent `TRAIN` publishing a
    /// newer version mid-scan never changes this run's predictions — the
    /// pin holds until the run returns.
    ///
    /// Cache-miss fallbacks: an explicit `VERSION n` not in the cache is
    /// loaded from the durable store's version history (stashed in the
    /// cache without activating it); an unknown active pin falls back to
    /// the catalog object and becomes the active version.
    pub fn predict_batch(
        &mut self,
        table_name: &str,
        model_name: &str,
        opts: ServeOptions,
    ) -> Result<PredictSummary, DbError> {
        let table = self.catalog().table(table_name)?;
        let (servable, cache_hit) = self.resolve_servable(model_name, opts.version)?;
        let mut summary = self.serve(table_name, &table, servable, opts)?;
        summary.cache_hit = cache_hit;
        self.telemetry
            .counter(if cache_hit {
                "serving.cache.hits"
            } else {
                "serving.cache.misses"
            })
            .add(1);
        self.telemetry
            .gauge("serving.cache.generation")
            .set(self.db.model_cache().generation() as f64);
        Ok(summary)
    }

    /// The catalog's model object as an unpublished [`ServableModel`]
    /// (version 0, never in the cache). `PREDICT BY` scores with it rather
    /// than with the cache's active pin, so a `LOAD MODEL` without
    /// `AS ACTIVE` steers `PREDICT BY` and leaves `PREDICT … ON` alone.
    fn catalog_servable(&self, name: &str) -> Result<Arc<ServableModel>, DbError> {
        let stored = self.catalog().model(name)?;
        Ok(Arc::new(ServableModel::new(name, 0, stored)))
    }

    /// The one PREDICT executor, behind both `PREDICT … ON` and
    /// `PREDICT BY`: check the model's width against the table, lower the
    /// sequential scan through the planner (an optional predicate sits on
    /// the scan and is evaluated in place, before any tuple is batched),
    /// run [`PredictOperator`] over `batch_rows`-sized batches, summarise.
    fn serve(
        &mut self,
        table_name: &str,
        table: &Arc<Table>,
        servable: Arc<ServableModel>,
        opts: ServeOptions,
    ) -> Result<PredictSummary, DbError> {
        let plan = predict_plan(table_name, table, &servable, &opts)?;
        let sparams = StrategyParams::default();
        let physical = build_physical_with(
            &plan,
            table,
            &sparams,
            &mut self.dev,
            self.db.catalog(),
            opts.fuse,
        )?;
        let (model_name, version) = (servable.name().to_string(), servable.version());
        let op = PredictOperator::new(physical, servable, self.compute, opts.batch_rows);
        let mut ctx = ExecContext::new(&mut self.dev);
        if self.pool.capacity() > 0 {
            ctx.pool = Some(&mut self.pool);
        }
        let r = op.execute(&mut ctx)?;

        self.telemetry.counter("serving.predictions").add(r.rows);
        self.telemetry.counter("serving.batches").add(r.batches);
        let hist = self.telemetry.histogram("serving.batch.wall_seconds");
        for w in &r.batch_wall_seconds {
            hist.record(*w);
        }
        if r.rows_filtered > 0 {
            self.telemetry
                .counter("db.scan.rows_filtered")
                .add(r.rows_filtered);
        }

        // The plan is `Predict ← scan`: the scan's node holds its reads.
        let scan_cache_hit_rate = r.op_stats[1].cache_hit_rate();
        Ok(PredictSummary {
            model_name,
            version,
            predictions: r.predictions,
            metric: r.metric,
            rows: r.rows,
            batches: r.batches,
            rows_filtered: r.rows_filtered,
            cache_hit: false,
            scan_cache_hit_rate,
            io_seconds: r.io_seconds,
            compute_seconds: r.compute_seconds,
            batch_wall_seconds: r.batch_wall_seconds,
            op_stats: r.op_stats,
        })
    }

    /// Resolve a serving pin: cache first, then [`Session::uncached_servable`],
    /// published on the way out. Returns the pinned model and whether the
    /// cache had it.
    fn resolve_servable(
        &mut self,
        name: &str,
        version: Option<u32>,
    ) -> Result<(Arc<ServableModel>, bool), DbError> {
        let cache = self.db.model_cache();
        let pinned = match version {
            Some(v) => cache.pin_version(name, v),
            None => cache.pin(name),
        };
        if let Some(pin) = pinned {
            return Ok((pin, true));
        }
        // An explicit pin is stashed without activating: it must not steal
        // traffic from the active version.
        let fresh = self.uncached_servable(name, version)?;
        Ok((cache.publish(fresh, version.is_none()), false))
    }

    /// The model a serving pin would resolve, without executing anything
    /// or moving the cache's counters or contents (used by `EXPLAIN`).
    fn peek_servable(
        &self,
        name: &str,
        version: Option<u32>,
    ) -> Result<Arc<ServableModel>, DbError> {
        match self.db.model_cache().peek(name, version) {
            Some(pin) => Ok(pin),
            None => Ok(Arc::new(self.uncached_servable(name, version)?)),
        }
    }

    /// The entry a pin the cache does not hold resolves to: the durable
    /// store's version history for an explicit pin; for an active pin the
    /// catalog object — models registered before the serving layer saw
    /// them (e.g. straight catalog writes) become the active version on
    /// first use.
    fn uncached_servable(
        &self,
        name: &str,
        version: Option<u32>,
    ) -> Result<ServableModel, DbError> {
        let (v, stored) = match version {
            Some(v) => {
                let rec = self
                    .db
                    .model_store()
                    .and_then(|s| s.version(name, v))
                    .ok_or_else(|| DbError::UnknownModel(format!("{name} version {v}")))?;
                (v, rec.stored)
            }
            None => {
                let stored = self.catalog().model(name)?;
                (self.db.model_cache().next_version(name), stored)
            }
        };
        Ok(ServableModel::new(name, v, stored))
    }
}

/// The plan every PREDICT runs and `EXPLAIN` renders: refuse a model whose
/// width differs from the table's (scoring `f0, f1` against the weights of
/// `f5, f9`, or indexing a 28-wide weight vector with a sparse feature id,
/// is never what the statement meant), then `Predict ← Scan(sequential)`.
fn predict_plan(
    table_name: &str,
    table: &Table,
    servable: &ServableModel,
    opts: &ServeOptions,
) -> Result<LogicalPlan, DbError> {
    let dim = table.dim()?;
    if servable.dim() != dim {
        return Err(DbError::BadParam(format!(
            "model {} v{} expects {} features, table {table_name} has {dim}",
            servable.name(),
            servable.version(),
            servable.dim(),
        )));
    }
    let spec = PredictPlanSpec {
        table: table_name.to_string(),
        model: servable.name().to_string(),
        version: opts.version,
        filter: opts.filter.clone(),
        batch_rows: opts.batch_rows,
    };
    LogicalPlan::build_predict(&spec, table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use corgipile_data::{DatasetSpec, Order};
    use corgipile_storage::{Access, SimDevice, Tuple};

    fn higgs_table(n: usize) -> Table {
        DatasetSpec::higgs_like(n)
            .with_order(Order::ClusteredByLabel)
            .with_block_bytes(8192)
            .build_table(1)
            .unwrap()
    }

    fn session_with_higgs(n: usize) -> Session {
        let db = Database::new(SimDevice::hdd_scaled(1000.0, 0));
        db.register_table("higgs", higgs_table(n));
        db.connect()
    }

    #[test]
    fn train_and_predict_roundtrip() {
        let mut s = session_with_higgs(3000);
        let r = s
            .execute(
                "SELECT * FROM higgs TRAIN BY svm WITH learning_rate = 0.05, \
                 max_epoch_num = 3, model_name = m1",
            )
            .unwrap();
        let summary = match r {
            QueryResult::Train(t) => t,
            _ => panic!("expected train result"),
        };
        assert_eq!(summary.model_name, "m1");
        assert_eq!(summary.epochs.len(), 3);
        assert!(summary.final_train_metric > 0.5);
        assert_eq!(summary.strategy, "corgipile");

        let r = s.execute("SELECT * FROM higgs PREDICT BY m1").unwrap();
        match r {
            QueryResult::Predict {
                predictions,
                metric,
            } => {
                assert_eq!(predictions.len(), 3000);
                assert!(metric > 0.5);
            }
            _ => panic!("expected predictions"),
        }
    }

    #[test]
    fn default_model_name_derives_from_table() {
        let mut s = session_with_higgs(500);
        s.execute("SELECT * FROM higgs TRAIN BY lr WITH max_epoch_num = 1")
            .unwrap();
        assert!(s.catalog().model("higgs_lr").is_ok());
    }

    #[test]
    fn strategies_order_accuracy_as_in_the_paper() {
        let mut s = session_with_higgs(6000);
        let mut run = |strategy: &str| -> f64 {
            let r = s
                .execute(&format!(
                    "SELECT * FROM higgs TRAIN BY svm WITH learning_rate = 0.02, \
                     max_epoch_num = 4, strategy = '{strategy}', model_name = m_{strategy}"
                ))
                .unwrap();
            match r {
                QueryResult::Train(t) => t.final_train_metric,
                _ => unreachable!(),
            }
        };
        let corgi = run("corgipile");
        let once = run("once");
        let no = run("no");
        assert!(
            (corgi - once).abs() < 0.05,
            "corgipile {corgi} vs once {once}"
        );
        assert!(corgi > no + 0.03, "corgipile {corgi} vs no-shuffle {no}");
    }

    #[test]
    fn once_strategy_charges_setup() {
        let mut s = session_with_higgs(2000);
        let r = s
            .execute("SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 1, strategy = 'once'")
            .unwrap();
        match r {
            QueryResult::Train(t) => {
                assert!(t.setup_seconds > 0.0);
                assert!(t.total_seconds() > t.setup_seconds);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn block_size_param_rechunks() {
        let mut s = session_with_higgs(2000);
        // A 64 KB block size must work end to end.
        let r =
            s.execute("SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 1, block_size = 64KB");
        assert!(r.is_ok());
    }

    #[test]
    fn errors_are_reported() {
        let mut s = session_with_higgs(100);
        assert!(matches!(
            s.execute("SELECT * FROM nope TRAIN BY svm"),
            Err(DbError::UnknownTable(_))
        ));
        assert!(matches!(
            s.execute("SELECT * FROM higgs TRAIN BY nonsense"),
            Err(DbError::UnknownModelKind(_))
        ));
        assert!(matches!(
            s.execute("SELECT * FROM higgs TRAIN BY svm WITH strategy = 'mrs'"),
            Err(DbError::UnknownStrategy(_))
        ));
        assert!(matches!(
            s.execute("SELECT * FROM higgs TRAIN BY svm WITH bogus_param = 1"),
            Err(DbError::BadParam(_))
        ));
        assert!(matches!(
            s.execute("SELECT * FROM higgs PREDICT BY ghost"),
            Err(DbError::UnknownModel(_))
        ));
        assert!(matches!(
            s.execute("SELECT * FROM higgs TRAIN BY svm WITH buffer_fraction = 0"),
            Err(DbError::BadParam(_))
        ));
    }

    #[test]
    fn softmax_on_multiclass_table() {
        let table = DatasetSpec::cifar_like(800)
            .with_order(Order::ClusteredByLabel)
            .with_block_bytes(8192)
            .build_table(2)
            .unwrap();
        let db = Database::new(SimDevice::ssd_scaled(1000.0, 0));
        db.register_table("cifar", table);
        let mut s = db.connect();
        let r = s
            .execute(
                "SELECT * FROM cifar TRAIN BY softmax WITH learning_rate = 0.05, \
                 max_epoch_num = 3, model_name = sm",
            )
            .unwrap();
        match r {
            QueryResult::Train(t) => {
                assert!(matches!(t.model_kind, ModelKind::Softmax { classes: 10 }));
                assert!(
                    t.final_train_metric > 0.5,
                    "softmax acc {}",
                    t.final_train_metric
                );
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn explain_and_show_queries() {
        let mut s = session_with_higgs(300);
        // Default lowering is fused: one pipeline node, no operator tree.
        match s
            .execute("EXPLAIN SELECT * FROM higgs TRAIN BY svm WITH strategy = 'corgipile'")
            .unwrap()
        {
            QueryResult::Plan(lines) => {
                assert!(lines[0].starts_with("SGD"));
                assert!(lines
                    .iter()
                    .any(|l| l.contains("Fused Pipeline (scan→shuffle→sgd)")));
                assert!(lines.iter().any(|l| l.contains("Scan: random order over")));
                assert!(!lines.iter().any(|l| l.contains("-> TupleShuffle")));
            }
            _ => panic!("expected a plan"),
        }
        // `fuse = 0` restores the interpreted operator tree.
        match s
            .execute(
                "EXPLAIN SELECT * FROM higgs TRAIN BY svm WITH \
                 strategy = 'corgipile', fuse = 0",
            )
            .unwrap()
        {
            QueryResult::Plan(lines) => {
                assert!(lines[0].starts_with("SGD"));
                assert!(lines.iter().any(|l| l.contains("TupleShuffle")));
                assert!(lines.iter().any(|l| l.contains("BlockShuffle (random")));
                assert!(!lines.iter().any(|l| l.contains("Fused Pipeline")));
            }
            _ => panic!("expected a plan"),
        }
        match s.execute("SHOW TABLES").unwrap() {
            QueryResult::Names(names) => {
                assert_eq!(names.len(), 1);
                let blocks = s.catalog().table("higgs").unwrap().num_blocks();
                assert_eq!(
                    names[0],
                    format!("higgs v1 blocks={blocks} tuples=300"),
                    "SHOW TABLES reports version, block count and tuple count"
                );
            }
            _ => panic!("expected names"),
        }
        // EXPLAIN does not execute: no model stored.
        match s.execute("SHOW MODELS").unwrap() {
            QueryResult::Names(names) => assert!(names.is_empty()),
            _ => panic!("expected names"),
        }
        assert!(s
            .execute("EXPLAIN SELECT * FROM higgs TRAIN BY svm WITH strategy = 'bogus'")
            .is_err());
    }

    #[test]
    fn where_predicate_trains_on_the_matching_subset() {
        let mut s = session_with_higgs(2000);
        let t = train_summary(
            s.execute(
                "SELECT * FROM higgs WHERE id < 500 TRAIN BY svm WITH \
                 max_epoch_num = 2, strategy = 'corgipile', model_name = m",
            )
            .unwrap(),
        );
        // The SGD node sees only the 500 survivors, each epoch — and only
        // they ever occupy the shuffle buffer: the scan filters below it.
        assert_eq!(t.op_stats[0].rows, 1000);
        let dropped: u64 = t.op_stats.iter().map(|s| s.rows_filtered).sum();
        assert_eq!(dropped, 2 * 1500);
        let buffered: u64 = t.op_stats.iter().map(|s| s.buffered_tuples).sum();
        assert_eq!(buffered, 2 * 500);
        assert!(s.catalog().model("m").is_ok());
    }

    #[test]
    fn projection_shrinks_the_model_dimension() {
        let mut s = session_with_higgs(1000);
        let t = train_summary(
            s.execute(
                "SELECT f0, f3, f5 FROM higgs TRAIN BY svm WITH \
                 max_epoch_num = 1, model_name = m",
            )
            .unwrap(),
        );
        assert!(t.final_train_metric > 0.0);
        let m = s.catalog().model("m").unwrap();
        assert_eq!(m.dim, 3);
    }

    #[test]
    fn explain_shows_the_predicate_on_the_scan_node() {
        let mut s = session_with_higgs(1000);
        // Fused rendering (the default) carries the same annotations on
        // the pipeline node.
        let lines = match s
            .execute("EXPLAIN SELECT f0, f1 FROM higgs WHERE f0 > 0.5 AND label = 1 TRAIN BY svm")
            .unwrap()
        {
            QueryResult::Plan(lines) => lines,
            _ => panic!("expected a plan"),
        };
        assert!(
            lines
                .iter()
                .any(|l| l.contains("Fused Pipeline (scan→filter→project→shuffle→sgd)")),
            "{lines:?}"
        );
        assert!(lines.iter().any(|l| l
            .trim_start()
            .starts_with("Filter: (f0 > 0.5 AND label = 1)")));
        // The interpreted tree keeps the predicate on the scan node.
        let lines = match s
            .execute(
                "EXPLAIN SELECT f0, f1 FROM higgs WHERE f0 > 0.5 AND label = 1 \
                 TRAIN BY svm WITH fuse = 0",
            )
            .unwrap()
        {
            QueryResult::Plan(lines) => lines,
            _ => panic!("expected a plan"),
        };
        let scan = lines
            .iter()
            .position(|l| l.contains("BlockShuffle (random"))
            .expect("scan node");
        assert!(
            lines[scan + 1]
                .trim_start()
                .starts_with("Output: f0, f1, label"),
            "projection on scan node: {lines:?}"
        );
        assert!(
            lines[scan + 2]
                .trim_start()
                .starts_with("Filter: (f0 > 0.5 AND label = 1)"),
            "predicate on scan node: {lines:?}"
        );
        assert!(
            !lines.iter().any(|l| l.contains("-> Filter")),
            "no separate Filter node above TupleShuffle: {lines:?}"
        );
    }

    #[test]
    fn explain_rejects_unknown_columns_at_planning_time() {
        let mut s = session_with_higgs(300);
        // f40 is out of range for the 28-feature table: structured error,
        // raised by EXPLAIN without executing anything.
        assert!(matches!(
            s.execute("EXPLAIN SELECT * FROM higgs WHERE f40 > 0 TRAIN BY svm"),
            Err(DbError::UnknownColumn(_))
        ));
        assert!(matches!(
            s.execute("EXPLAIN SELECT f99 FROM higgs TRAIN BY svm"),
            Err(DbError::UnknownColumn(_))
        ));
        assert!(matches!(
            s.execute("SELECT id FROM higgs TRAIN BY svm"),
            Err(DbError::UnknownColumn(_))
        ));
        match s.execute("SHOW MODELS").unwrap() {
            QueryResult::Names(names) => assert!(names.is_empty()),
            _ => panic!("expected names"),
        }
    }

    #[test]
    fn explain_analyze_reports_rows_removed_by_filter() {
        let mut s = session_with_higgs(2000);
        let lines = match s
            .execute(
                "EXPLAIN ANALYZE SELECT * FROM higgs WHERE id < 1000 TRAIN BY svm \
                 WITH max_epoch_num = 2",
            )
            .unwrap()
        {
            QueryResult::Plan(lines) => lines,
            _ => panic!("expected plan lines"),
        };
        assert!(
            lines
                .iter()
                .any(|l| l.trim_start() == "Rows Removed by Filter: 2000"),
            "rows removed: {lines:?}"
        );
        assert!(lines
            .iter()
            .any(|l| l.trim_start().starts_with("Filter: (id < 1000)")));
    }

    #[test]
    fn tuple_only_strategy_in_db() {
        let mut s = session_with_higgs(3000);
        let r = s
            .execute(
                "SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 3,                  strategy = 'tuple_only', model_name = m_to",
            )
            .unwrap();
        match r {
            QueryResult::Train(t) => {
                // Sequential I/O like No Shuffle, partial mixing only.
                assert_eq!(t.strategy, "tuple_only");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn report_metrics_emits_per_epoch_accuracy() {
        let mut s = session_with_higgs(1500);
        match s
            .execute(
                "SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 2,                  report_metrics = 1",
            )
            .unwrap()
        {
            QueryResult::Train(t) => {
                assert!(t.epochs.iter().all(|e| e.train_metric.is_some()));
            }
            _ => unreachable!(),
        }
        // Off by default.
        match s
            .execute("SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 1")
            .unwrap()
        {
            QueryResult::Train(t) => assert!(t.epochs[0].train_metric.is_none()),
            _ => unreachable!(),
        }
    }

    #[test]
    fn engine_pool_serves_queries_without_the_param() {
        // The engine's buffer pool serves every query's random block reads:
        // with one large enough for the table, epochs after the first are
        // compute-bound (no device reads). There is no per-query pool.
        let warm_epochs = |db: &std::sync::Arc<Database>| -> f64 {
            db.register_table("higgs", higgs_table(2000));
            let mut s = db.connect();
            match s
                .execute("SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 3")
                .unwrap()
            {
                QueryResult::Train(t) => t.epochs[1..].iter().map(|e| e.io_seconds).sum(),
                _ => unreachable!(),
            }
        };
        let unpooled = warm_epochs(&Database::new(SimDevice::hdd_scaled(1000.0, 0)));
        let pooled_db = Database::with_shared_buffers(SimDevice::hdd_scaled(1000.0, 0), 64 << 20);
        let pooled = warm_epochs(&pooled_db);
        assert!(
            pooled < unpooled / 5.0,
            "engine-pooled warm epochs {pooled} should be far cheaper than unpooled {unpooled}"
        );
        let stats = pooled_db.pool_stats();
        assert!(stats.hits > 0 && stats.misses > 0);
    }

    #[test]
    fn minibatch_training_in_db() {
        let mut s = session_with_higgs(2000);
        let r =
            s.execute("SELECT * FROM higgs TRAIN BY lr WITH max_epoch_num = 2, batch_size = 128");
        assert!(r.is_ok());
    }

    fn train_summary(r: QueryResult) -> DbTrainSummary {
        match r {
            QueryResult::Train(t) => t,
            _ => panic!("expected a train result"),
        }
    }

    #[test]
    fn injected_transients_do_not_change_the_trained_model() {
        let sql = "SELECT * FROM higgs TRAIN BY svm WITH learning_rate = 0.05, \
                   max_epoch_num = 3, model_name = m";
        let mut clean = session_with_higgs(2000);
        clean.execute(sql).unwrap();
        let clean_params = clean.catalog().model("m").unwrap().params.clone();

        let mut faulty = session_with_higgs(2000);
        let tid = faulty.catalog().table("higgs").unwrap().config().table_id;
        faulty.inject_faults(
            corgipile_storage::FaultPlan::new(77)
                .with_transient(tid, 0, 2)
                .with_random_transient(0.05, 2),
        );
        let t = train_summary(faulty.execute(sql).unwrap());
        assert!(
            t.skipped_blocks().is_empty(),
            "retries must recover every block"
        );
        let faulty_params = faulty.catalog().model("m").unwrap().params.clone();
        assert_eq!(
            clean_params, faulty_params,
            "transients must not alter training"
        );
        // The faults did cost simulated time, though.
        assert!(
            faulty.device().stats().io_seconds > clean.device().stats().io_seconds,
            "retries and backoff must show up on the clock"
        );
    }

    #[test]
    fn fuse_oracle_is_bit_identical_and_charges_less_compute() {
        // The fused pipeline vs the interpreted tree, crossed with the
        // double-buffer knob: all four runs must train the same bits,
        // while fused runs charge strictly less simulated compute (the
        // per-tuple dispatch overhead is paid once per batch).
        let mut s = session_with_higgs(3000);
        let mut run = |fuse: usize, dbuf: usize| -> DbTrainSummary {
            train_summary(
                s.execute(&format!(
                    "SELECT * FROM higgs WHERE f0 > 0.2 TRAIN BY svm WITH \
                     learning_rate = 0.05, max_epoch_num = 2, fuse = {fuse}, \
                     double_buffer = {dbuf}, model_name = m_f{fuse}d{dbuf}"
                ))
                .unwrap(),
            )
        };
        let f_serial = run(1, 0);
        let f_piped = run(1, 1);
        let i_serial = run(0, 0);
        let i_piped = run(0, 1);
        let params = |name: &str| s.catalog().model(name).unwrap().params.clone();
        let want = params("m_f1d0");
        for name in ["m_f1d1", "m_f0d0", "m_f0d1"] {
            assert_eq!(want, params(name), "{name} diverged");
        }
        for (f, i) in [(&f_serial, &i_serial), (&f_piped, &i_piped)] {
            let fc: f64 = f.epochs.iter().map(|e| e.compute_seconds).sum();
            let ic: f64 = i.epochs.iter().map(|e| e.compute_seconds).sum();
            assert!(fc < ic, "fused compute {fc} must undercut interpreted {ic}");
            assert_eq!(
                f.epochs.last().unwrap().train_loss.to_bits(),
                i.epochs.last().unwrap().train_loss.to_bits(),
                "training loss must stay bit-identical"
            );
            let ff: u64 = f.op_stats.iter().map(|o| o.rows_filtered).sum();
            let ii: u64 = i.op_stats.iter().map(|o| o.rows_filtered).sum();
            assert_eq!(ff, ii, "rows_filtered must agree");
        }
    }

    #[test]
    fn fuse_oracle_holds_under_injected_faults_and_skip() {
        let sql = |fuse: usize| {
            format!(
                "SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 2, \
                 max_retries = 1, on_fault = 'skip', fuse = {fuse}, \
                 model_name = m_f{fuse}"
            )
        };
        // Fresh session (and device) per run: injected fault decisions
        // depend on device read position, so both runs must start cold to
        // see the identical fault schedule.
        let run = |fuse: usize| -> (DbTrainSummary, Vec<f32>) {
            let mut s = session_with_higgs(2000);
            let tid = s.catalog().table("higgs").unwrap().config().table_id;
            s.inject_faults(
                corgipile_storage::FaultPlan::new(9)
                    .with_permanent(tid, 2)
                    .with_random_transient(0.05, 2),
            );
            let t = train_summary(s.execute(&sql(fuse)).unwrap());
            let params = s
                .catalog()
                .model(&format!("m_f{fuse}"))
                .unwrap()
                .params
                .clone();
            (t, params)
        };
        let (fused, fused_params) = run(1);
        let (interp, interp_params) = run(0);
        assert!(fused.skipped_blocks().contains(&2));
        assert_eq!(fused.skipped_blocks(), interp.skipped_blocks());
        assert_eq!(
            fused_params, interp_params,
            "degraded fused run must match the degraded interpreted run"
        );
    }

    #[test]
    fn fused_train_emits_batch_telemetry() {
        let mut s = session_with_higgs(1000);
        s.execute("SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 1")
            .unwrap();
        let lines = match s.execute("SHOW STATS").unwrap() {
            QueryResult::Plan(lines) => lines,
            _ => panic!("expected stats lines"),
        };
        let count = |name: &str| -> u64 {
            lines
                .iter()
                .find_map(|l| {
                    l.strip_prefix(&format!("counter {name} = "))
                        .and_then(|v| v.parse().ok())
                })
                .unwrap_or(0)
        };
        assert!(count("db.exec.batches") > 0, "{lines:?}");
        assert_eq!(count("db.exec.fused_tuples"), 1000, "{lines:?}");
    }

    #[test]
    fn fault_plans_do_not_leak_between_sessions() {
        let db = Database::new(SimDevice::hdd_scaled(1000.0, 0));
        db.register_table("higgs", higgs_table(1000));
        let mut faulty = db.connect();
        let mut clean = db.connect();
        let tid = db.catalog().table("higgs").unwrap().config().table_id;
        faulty.inject_faults(corgipile_storage::FaultPlan::new(1).with_permanent(tid, 0));
        let sql = "SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 1, max_retries = 1";
        assert!(
            faulty.execute(sql).is_err(),
            "the faulty session's plan must strike"
        );
        clean.execute(sql).unwrap();
        assert_eq!(
            clean.device().stats().faults,
            0,
            "no cross-session fault bleed"
        );
    }

    #[test]
    fn dead_block_with_skip_completes_degraded() {
        let mut s = session_with_higgs(2000);
        let tid = s.catalog().table("higgs").unwrap().config().table_id;
        s.inject_faults(corgipile_storage::FaultPlan::new(1).with_permanent(tid, 2));
        let t = train_summary(
            s.execute(
                "SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 2, \
                 max_retries = 1, on_fault = 'skip', model_name = m",
            )
            .unwrap(),
        );
        assert_eq!(t.skipped_blocks(), vec![2]);
        assert!(t.epochs.iter().all(|e| e.skipped_blocks == vec![2]));
        assert!(t.final_train_metric > 0.0);
        assert!(
            s.catalog().model("m").is_ok(),
            "degraded run still stores a model"
        );
    }

    #[test]
    fn dead_block_without_skip_fails_the_query() {
        let mut s = session_with_higgs(2000);
        let tid = s.catalog().table("higgs").unwrap().config().table_id;
        s.inject_faults(corgipile_storage::FaultPlan::new(1).with_permanent(tid, 2));
        let err = s
            .execute("SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 2, max_retries = 1")
            .unwrap_err();
        assert!(matches!(err, DbError::Storage(_)), "got {err}");
    }

    #[test]
    fn explain_analyze_executes_and_reports_actuals() {
        let mut s = session_with_higgs(2000);
        let lines = match s
            .execute(
                "EXPLAIN ANALYZE SELECT * FROM higgs TRAIN BY svm WITH \
                 max_epoch_num = 2, model_name = m",
            )
            .unwrap()
        {
            QueryResult::Plan(lines) => lines,
            _ => panic!("expected plan lines"),
        };
        assert!(
            lines[0].starts_with("SGD (actual rows=4000 loops=2"),
            "root line: {}",
            lines[0]
        );
        // The fused run folds the whole chain into one node carrying the
        // per-batch actuals plus the chain's I/O and fill statistics.
        assert!(
            lines.iter().any(|l| l
                .contains("-> Fused Pipeline (scan→shuffle→sgd) (actual rows=4000")
                && l.contains("fills=")
                && l.contains("cache_hit_rate=")
                && l.contains("batches=")),
            "fused node: {lines:?}"
        );
        assert!(lines.iter().any(|l| l.starts_with("I/O: reads=")));
        assert!(lines.iter().any(|l| l.starts_with("Training: epochs=2")));
        // Unlike EXPLAIN, ANALYZE actually executes: the model is stored.
        assert!(s.catalog().model("m").is_ok());
        // The interpreted tree (fuse = 0) still renders per operator.
        let lines = match s
            .execute(
                "EXPLAIN ANALYZE SELECT * FROM higgs TRAIN BY svm WITH \
                 max_epoch_num = 2, model_name = m0, fuse = 0",
            )
            .unwrap()
        {
            QueryResult::Plan(lines) => lines,
            _ => panic!("expected plan lines"),
        };
        assert!(lines
            .iter()
            .any(|l| l.contains("-> TupleShuffle (actual rows=4000") && l.contains("fills=")));
        assert!(lines
            .iter()
            .any(|l| l.contains("-> BlockShuffle (actual rows=4000")
                && l.contains("cache_hit_rate=")
                && l.contains("retries=0")));
    }

    #[test]
    fn double_buffer_knob_is_bit_identical_and_faster() {
        let mut s = session_with_higgs(3000);
        let mut run = |knob: usize| -> DbTrainSummary {
            let r = s
                .execute(&format!(
                    "SELECT * FROM higgs TRAIN BY lr WITH learning_rate = 0.05, \
                     max_epoch_num = 3, double_buffer = {knob}, model_name = m_db{knob}"
                ))
                .unwrap();
            match r {
                QueryResult::Train(t) => t,
                _ => panic!("expected train result"),
            }
        };
        let serial = run(0);
        let pipelined = run(1);
        // The pipelined plan must visit tuples in the identical order: the
        // stored models agree bit for bit.
        assert_eq!(
            s.catalog().model("m_db0").unwrap().params,
            s.catalog().model("m_db1").unwrap().params,
        );
        // ... while its simulated epochs overlap loading with compute.
        for (sr, pr) in serial.epochs.iter().zip(&pipelined.epochs) {
            assert!((sr.io_seconds - pr.io_seconds).abs() < 1e-12);
            assert!(pr.epoch_seconds < sr.epoch_seconds);
        }
    }

    #[test]
    fn explain_analyze_reports_overlap_for_double_buffered_plans() {
        let mut s = session_with_higgs(2000);
        let root = |s: &mut Session, sql: &str| -> String {
            match s.execute(sql).unwrap() {
                QueryResult::Plan(lines) => lines[0].clone(),
                _ => panic!("expected plan lines"),
            }
        };
        let on = root(
            &mut s,
            "EXPLAIN ANALYZE SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 2",
        );
        assert!(
            on.contains("overlap="),
            "pipelined root must report overlap: {on}"
        );
        let off = root(
            &mut s,
            "EXPLAIN ANALYZE SELECT * FROM higgs TRAIN BY svm WITH \
             max_epoch_num = 2, double_buffer = 0",
        );
        assert!(!off.contains("overlap="), "serial root must not: {off}");
    }

    #[test]
    fn show_stats_surfaces_telemetry_and_opt_out_silences_it() {
        let mut s = session_with_higgs(1000);
        s.execute("SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 1")
            .unwrap();
        let lines = match s.execute("SHOW STATS").unwrap() {
            QueryResult::Plan(lines) => lines,
            _ => panic!("expected stats lines"),
        };
        assert!(lines
            .iter()
            .any(|l| l.starts_with("counter storage.device.device_bytes = ")));
        assert!(lines
            .iter()
            .any(|l| l.starts_with("counter db.sgd.gradient_steps = 1000")));
        assert!(lines
            .iter()
            .any(|l| l.contains("histogram db.tuple_shuffle.fill.sim_seconds")));
        // Opting out empties subsequent reports (emissions become no-ops).
        s.set_telemetry_enabled(false);
        s.execute("SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 1")
            .unwrap();
        match s.execute("SHOW STATS").unwrap() {
            QueryResult::Plan(lines) => {
                assert_eq!(lines, vec!["events 0 recorded, 0 dropped"])
            }
            _ => panic!("expected stats lines"),
        }
    }

    #[test]
    fn telemetry_reenable_keeps_accumulated_metrics() {
        let mut s = session_with_higgs(1000);
        s.execute("SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 1")
            .unwrap();
        let steps_before = s.telemetry().counter("db.sgd.gradient_steps").get();
        assert_eq!(steps_before, 1000);
        // Disable, then re-enable: the registry stashed on disable comes
        // back, with every previously accumulated metric intact.
        s.set_telemetry_enabled(false);
        s.set_telemetry_enabled(true);
        assert_eq!(
            s.telemetry().counter("db.sgd.gradient_steps").get(),
            steps_before
        );
        // Redundant toggles are no-ops and must not discard anything.
        s.set_telemetry_enabled(true);
        assert_eq!(
            s.telemetry().counter("db.sgd.gradient_steps").get(),
            steps_before
        );
        // New work keeps accumulating into the restored registry.
        s.execute("SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 1")
            .unwrap();
        assert_eq!(
            s.telemetry().counter("db.sgd.gradient_steps").get(),
            2 * steps_before
        );
    }

    #[test]
    fn device_mut_cannot_bypass_the_session_telemetry() {
        let mut s = session_with_higgs(500);
        // Direct access through device_mut() goes through the handle, so
        // the session telemetry still sees the mirrored device counters.
        let before = s.device().stats().io_seconds;
        let read = s
            .device_mut()
            .with(|d| d.read(None, 1 << 20, Access::Random, None));
        assert!(read > 0.0 && s.device().stats().io_seconds >= before + read);
        let gauge = s.telemetry().snapshot();
        assert!(
            gauge
                .metrics
                .counters
                .iter()
                .any(|(n, _)| n.starts_with("storage.device."))
                || !gauge.metrics.gauges.is_empty(),
            "handle access must mirror into the session registry"
        );
    }

    #[test]
    fn skipped_blocks_are_deduped_and_sorted_across_epochs() {
        let epoch = |i: usize, skipped: Vec<usize>| DbEpochRecord {
            epoch: i,
            io_seconds: 0.0,
            compute_seconds: 0.0,
            epoch_seconds: 0.0,
            sim_seconds_end: 0.0,
            train_loss: 0.0,
            train_metric: None,
            tuples: 0,
            skipped_blocks: skipped,
        };
        let summary = DbTrainSummary {
            model_name: "m".into(),
            model_kind: ModelKind::Svm,
            strategy: "corgipile".into(),
            snapshot_version: 1,
            setup_seconds: 0.0,
            epochs: vec![epoch(0, vec![7, 3]), epoch(1, vec![3, 5, 7])],
            final_train_metric: 0.0,
            halted: false,
            op_stats: Vec::new(),
        };
        assert_eq!(summary.skipped_blocks(), vec![3, 5, 7]);
    }

    #[test]
    fn on_fault_param_is_validated() {
        let mut s = session_with_higgs(200);
        assert!(matches!(
            s.execute("SELECT * FROM higgs TRAIN BY svm WITH on_fault = 'explode'"),
            Err(DbError::BadParam(_))
        ));
    }

    fn store_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("corgi_db_store_{}_{}", tag, std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn durable_session(n: usize, dir: &std::path::Path) -> Session {
        let db = Database::with_model_store(SimDevice::hdd_scaled(1000.0, 0), 0, dir).unwrap();
        db.register_table("higgs", higgs_table(n));
        db.connect()
    }

    #[test]
    fn durable_param_is_validated() {
        let mut s = session_with_higgs(200);
        assert!(matches!(
            s.execute("SELECT * FROM higgs TRAIN BY svm WITH durable = 2"),
            Err(DbError::BadParam(_))
        ));
        // durable = 1 without a model store is a clear error, not a panic.
        match s.execute("SELECT * FROM higgs TRAIN BY svm WITH durable = 1, max_epoch_num = 1") {
            Err(DbError::BadParam(msg)) => assert!(msg.contains("model store"), "{msg}"),
            other => panic!("expected BadParam, got {other:?}"),
        }
        // durable = 0 on a plain engine is a no-op, not an error.
        s.execute("SELECT * FROM higgs TRAIN BY svm WITH durable = 0, max_epoch_num = 1")
            .unwrap();
    }

    #[test]
    fn durable_resume_requires_the_statement_that_wrote_the_record() {
        // Auto-resume continues a record only under the fingerprint of the
        // statement that wrote it. A re-issue that changes the visit order
        // or the update rule trains version 2 from scratch, bit-identical
        // to its own uninterrupted run — it used to stack its epochs on
        // the old checkpoint and match neither run.
        let stmt = |select: &str, epochs: usize, with: &str| {
            format!(
                "{select} TRAIN BY svm WITH max_epoch_num = {epochs}, model_name = m, \
                 durable = 1, {with}"
            )
        };
        let (star, base) = (
            "SELECT * FROM higgs",
            "learning_rate = 0.05, strategy = 'corgipile'",
        );
        let variants = [
            (star, "learning_rate = 0.5, strategy = 'no'".to_string()),
            (
                star,
                "learning_rate = 0.5, strategy = 'corgipile'".to_string(),
            ),
            (
                star,
                "learning_rate = 0.05, strategy = 'block_only'".to_string(),
            ),
            (star, format!("{base}, buffer_fraction = 0.3")),
            (star, format!("{base}, io_budget = 0.5")),
            (star, format!("{base}, block_size = 16KB")),
            (star, format!("{base}, batch_size = 2")),
            (star, format!("{base}, decay = 0.9")),
            (star, format!("{base}, l2 = 0.01")),
            ("SELECT * FROM higgs WHERE f3 > 0.0", base.to_string()),
            ("SELECT f0, f1, f2 FROM higgs", base.to_string()),
        ];
        for (i, (select, with)) in variants.iter().enumerate() {
            let sql = stmt(select, 4, with);
            let ref_dir = store_dir(&format!("fp_ref{i}"));
            let mut reference = durable_session(600, &ref_dir);
            reference.execute(&sql).unwrap();
            let want = reference.catalog().model("m").unwrap().params.clone();

            let dir = store_dir(&format!("fp{i}"));
            let halted = stmt(star, 4, &format!("{base}, halt_after_epoch = 1"));
            assert!(train_summary(durable_session(600, &dir).execute(&halted).unwrap()).halted);
            let mut s = durable_session(600, &dir);
            let t = train_summary(s.execute(&sql).unwrap());
            assert_eq!(t.epochs.len(), 4, "{sql}: must not resume");
            assert_eq!(s.catalog().model("m").unwrap().params, want, "{sql}");
            let store = s.database().model_store().unwrap().clone();
            assert_eq!(store.latest("m").unwrap().version, 2, "{sql}");
            if i == 0 {
                // `max_epoch_num` is not in the fingerprint: extending a
                // finished run resumes it.
                let t = train_summary(s.execute(&stmt(select, 6, with)).unwrap());
                assert_eq!(t.epochs.len(), 2, "epochs 4 and 5 only");
                let rec = store.latest("m").unwrap();
                assert_eq!((rec.version, rec.epoch), (2, 6));
            }
            std::fs::remove_dir_all(&ref_dir).ok();
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn durable_training_recovers_and_resumes_bit_identical() {
        let base = "SELECT * FROM higgs TRAIN BY svm WITH learning_rate = 0.05, \
                    max_epoch_num = 4, model_name = m, durable = 1";

        // Reference: an uninterrupted durable run.
        let ref_dir = store_dir("ref");
        let mut straight = durable_session(2000, &ref_dir);
        straight.execute(base).unwrap();
        let want = straight.catalog().model("m").unwrap().params.clone();

        // Interrupted: halt after epoch 1 (2 epochs durable), then reopen
        // the engine over the same store directory — recovery replays the
        // WAL — and re-issue the *same* SQL: the run auto-resumes from the
        // durable checkpoint, no checkpoint/resume knobs involved.
        let dir = store_dir("resume");
        {
            let mut s = durable_session(2000, &dir);
            let t = train_summary(s.execute(&format!("{base}, halt_after_epoch = 1")).unwrap());
            assert!(t.halted);
            assert_eq!(t.epochs.len(), 2);
        }
        let mut s = durable_session(2000, &dir);
        // Recovery registered the partial model in the catalog…
        assert!(s.catalog().model("m").is_ok());
        // …and SHOW MODELS reports its durable lineage.
        match s.execute("SHOW MODELS").unwrap() {
            QueryResult::Names(names) => {
                assert_eq!(names, vec!["m v1* epoch=2 source=higgs".to_string()])
            }
            other => panic!("unexpected {other:?}"),
        }
        let t = train_summary(s.execute(base).unwrap());
        assert!(!t.halted);
        assert_eq!(t.epochs.len(), 2, "only epochs 2 and 3 run after resume");
        let got = s.catalog().model("m").unwrap().params.clone();
        assert_eq!(got, want, "durable resume must be bit-identical");
        // The finished version no longer resumes: re-running trains v2.
        let t = train_summary(s.execute(base).unwrap());
        assert_eq!(t.epochs.len(), 4);
        let store = s.database().model_store().unwrap().clone();
        let rec = store.latest("m").unwrap();
        assert_eq!((rec.version, rec.epoch), (2, 4));
        std::fs::remove_dir_all(&ref_dir).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_runs_emit_wal_telemetry_and_explain_analyze_line() {
        let dir = store_dir("telemetry");
        let mut s = durable_session(500, &dir);
        let lines = match s
            .execute(
                "EXPLAIN ANALYZE SELECT * FROM higgs TRAIN BY svm WITH \
                 max_epoch_num = 2, model_name = m, durable = 1",
            )
            .unwrap()
        {
            QueryResult::Plan(lines) => lines,
            other => panic!("unexpected {other:?}"),
        };
        let wal = lines
            .iter()
            .find(|l| l.starts_with("WAL: "))
            .expect("durable EXPLAIN ANALYZE must render a WAL line");
        assert!(wal.contains("appends=2"), "one append per epoch: {wal}");
        assert!(wal.contains("fsyncs="), "{wal}");
        let snap = s.telemetry().snapshot();
        let counter = |n: &str| {
            snap.metrics
                .counters
                .iter()
                .find(|(k, _)| k == n)
                .map(|(_, v)| *v)
        };
        assert_eq!(counter("storage.wal.appends"), Some(2));
        assert!(counter("storage.wal.appended_bytes").unwrap() > 0);
        // Non-durable runs render no WAL line and emit no WAL counters.
        let lines = match s
            .execute(
                "EXPLAIN ANALYZE SELECT * FROM higgs TRAIN BY svm WITH \
                 max_epoch_num = 1, model_name = m2",
            )
            .unwrap()
        {
            QueryResult::Plan(lines) => lines,
            other => panic!("unexpected {other:?}"),
        };
        assert!(!lines.iter().any(|l| l.starts_with("WAL: ")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_model_restores_the_durable_version() {
        let dir = store_dir("load");
        let mut s = durable_session(500, &dir);
        s.execute(
            "SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 2, \
             model_name = m, durable = 1",
        )
        .unwrap();
        let want = s.catalog().model("m").unwrap().params.clone();
        // A non-durable retrain overwrites the in-memory object…
        s.execute(
            "SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 1, \
             learning_rate = 0.9, model_name = m",
        )
        .unwrap();
        assert_ne!(s.catalog().model("m").unwrap().params, want);
        // …and LOAD MODEL brings the durable version back.
        match s.execute("LOAD MODEL m").unwrap() {
            QueryResult::Names(names) => {
                assert_eq!(names, vec!["m v1 epoch=2 source=higgs".to_string()])
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s.catalog().model("m").unwrap().params, want);
        assert!(matches!(
            s.execute("LOAD MODEL ghost"),
            Err(DbError::UnknownModel(_))
        ));
        // On a storeless engine LOAD MODEL is a clear error.
        let mut plain = session_with_higgs(100);
        assert!(matches!(
            plain.execute("LOAD MODEL m"),
            Err(DbError::BadParam(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn predict_serve_is_bit_identical_to_the_per_tuple_path() {
        let mut s = session_with_higgs(2000);
        s.execute(
            "SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 2, \
             model_name = m",
        )
        .unwrap();
        // The reference: one `predict_label` call per stored tuple.
        let model = s.catalog().model("m").unwrap().instantiate();
        let tuples = s.catalog().table("higgs").unwrap().all_tuples();
        let per_tuple: (Vec<f32>, f64) = (
            tuples
                .iter()
                .map(|t| model.predict_label(t.features.view()))
                .collect(),
            corgipile_core::trainer::evaluate(model.as_ref(), tuples.iter().map(Tuple::view)),
        );
        // `PREDICT BY` runs the same executor over the catalog object.
        match s.execute("SELECT * FROM higgs PREDICT BY m").unwrap() {
            QueryResult::Predict {
                predictions,
                metric,
            } => assert_eq!((predictions, metric), per_tuple),
            other => panic!("unexpected {other:?}"),
        }
        // Odd batch size: the tail batch is smaller than the rest.
        let served = match s
            .execute("PREDICT m ON higgs WITH batch_rows = 97")
            .unwrap()
        {
            QueryResult::Serve(p) => p,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(served.predictions, per_tuple.0);
        assert_eq!(served.metric, Some(per_tuple.1));
        assert_eq!(served.rows, 2000);
        assert_eq!(served.batches, 2000_u64.div_ceil(97));
        assert_eq!(served.batch_wall_seconds.len() as u64, served.batches);
        assert!(served.cache_hit, "TRAIN publishes into the serving cache");
        assert!(served.io_seconds > 0.0 && served.compute_seconds > 0.0);
        assert!(served.latency_quantile(0.5).unwrap() <= served.latency_quantile(0.99).unwrap());
        // Serving telemetry accumulated on the session: both statements
        // predicted every row, only `PREDICT … ON` consulted the cache.
        assert_eq!(s.telemetry().counter("serving.predictions").get(), 4000);
        assert_eq!(s.telemetry().counter("serving.cache.hits").get(), 1);
        assert_eq!(s.telemetry().counter("serving.cache.misses").get(), 0);
    }

    #[test]
    fn predict_fuse_oracle_is_bit_identical_and_charges_less() {
        // Fused and interpreted serving paths are bit-identical.
        let mut s = session_with_higgs(2000);
        s.execute("SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 1, model_name = m")
            .unwrap();
        let serve = |s: &mut Session, q: &str| match s.execute(q).unwrap() {
            QueryResult::Serve(p) => p,
            other => panic!("unexpected {other:?}"),
        };
        let fused = serve(
            &mut s,
            "PREDICT m ON higgs WHERE id < 700 WITH batch_rows = 128, fuse = 1",
        );
        let interp = serve(
            &mut s,
            "PREDICT m ON higgs WHERE id < 700 WITH batch_rows = 128, fuse = 0",
        );
        assert_eq!(fused.predictions, interp.predictions);
        assert_eq!(fused.metric, interp.metric);
        assert_eq!(fused.rows_filtered, interp.rows_filtered);
        assert_eq!(fused.batches, interp.batches);
        assert!(
            fused.compute_seconds < interp.compute_seconds,
            "fused serving must charge less compute: {} vs {}",
            fused.compute_seconds,
            interp.compute_seconds
        );
    }

    #[test]
    fn predict_serve_filter_pushes_down_and_validates() {
        let mut s = session_with_higgs(2000);
        s.execute("SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 1, model_name = m")
            .unwrap();
        let served = match s
            .execute("PREDICT m ON higgs WHERE id < 500 WITH batch_rows = 128")
            .unwrap()
        {
            QueryResult::Serve(p) => p,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(served.rows, 500);
        assert_eq!(served.predictions.len(), 500);
        assert_eq!(served.rows_filtered, 1500);
        // EXPLAIN renders the serving plan without executing.
        match s
            .execute("EXPLAIN PREDICT m ON higgs WHERE id < 500")
            .unwrap()
        {
            QueryResult::Plan(lines) => {
                assert!(
                    lines[0].starts_with("Predict (model=m, version=active, batch_rows=256)"),
                    "{lines:?}"
                );
                assert!(
                    lines
                        .iter()
                        .any(|l| l.contains("Fused Pipeline (scan→filter→predict)")),
                    "{lines:?}"
                );
                assert!(lines.iter().any(|l| l.contains("Scan: sequential over")));
                assert!(
                    lines.iter().any(|l| l.trim_start().starts_with("Filter:")),
                    "filter fused into the scan: {lines:?}"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        // EXPLAIN ANALYZE executes and appends the serving summary line.
        match s
            .execute("EXPLAIN ANALYZE PREDICT m ON higgs WITH batch_rows = 512")
            .unwrap()
        {
            QueryResult::Plan(lines) => {
                assert!(
                    lines[0].starts_with("Predict (actual rows=2000"),
                    "{lines:?}"
                );
                assert!(
                    lines.iter().any(|l| l.starts_with("Serving: model=m v1")),
                    "{lines:?}"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        // Unknown model / column are planning errors.
        assert!(matches!(
            s.execute("PREDICT ghost ON higgs"),
            Err(DbError::UnknownModel(_))
        ));
        assert!(matches!(
            s.execute("EXPLAIN PREDICT ghost ON higgs"),
            Err(DbError::UnknownModel(_))
        ));
        assert!(matches!(
            s.execute("PREDICT m ON higgs WHERE f99 > 0"),
            Err(DbError::UnknownColumn(_))
        ));
        assert!(matches!(
            s.execute("PREDICT m ON higgs WITH batch_rows = 0"),
            Err(DbError::BadParam(_))
        ));
        assert!(matches!(
            s.execute("PREDICT m ON higgs WITH bogus = 1"),
            Err(DbError::BadParam(_))
        ));
    }

    #[test]
    fn explain_predict_on_refuses_what_predict_on_refuses_and_leaves_the_cache_alone() {
        let mut s = session_with_higgs(400);
        s.execute("SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 1, model_name = m")
            .unwrap();
        s.execute(
            "SELECT f5, f9, label FROM higgs TRAIN BY svm WITH max_epoch_num = 1, \
             model_name = narrow",
        )
        .unwrap();
        // `raw` exists only in the catalog: the serving layer has not seen it.
        let raw = s.catalog().model("narrow").unwrap();
        s.catalog().store_model("raw", raw);
        let rejected = [
            // Width: a 2-feature model on the 28-feature table, cached or not.
            "PREDICT narrow ON higgs",
            "PREDICT raw ON higgs",
            "PREDICT narrow ON higgs WHERE id < 10 WITH batch_rows = 64",
            // Names, pins, columns, options.
            "PREDICT ghost ON higgs",
            "PREDICT m VERSION 9 ON higgs",
            "PREDICT m ON nowhere",
            "PREDICT m ON higgs WHERE f99 > 0",
            "PREDICT m ON higgs WITH batch_rows = 0",
            "PREDICT m ON higgs WITH bogus = 1",
        ];
        for stmt in rejected {
            // EXPLAIN first, so `raw` is still uncached when it is explained.
            let before = s.database().model_cache().stats();
            let explained = s
                .execute(&format!("EXPLAIN {stmt}"))
                .expect_err(stmt)
                .to_string();
            assert_eq!(s.database().model_cache().stats(), before, "{stmt}");
            assert_eq!(explained, s.execute(stmt).expect_err(stmt).to_string());
        }
        // An EXPLAIN that succeeds counts nothing and publishes nothing
        // either, whether the cache holds the model or only the catalog does.
        s.catalog()
            .store_model("raw_wide", s.catalog().model("m").unwrap());
        let before = s.database().model_cache().stats();
        for stmt in [
            "EXPLAIN PREDICT m ON higgs",
            "EXPLAIN PREDICT raw_wide ON higgs",
        ] {
            assert!(
                matches!(s.execute(stmt), Ok(QueryResult::Plan(_))),
                "{stmt}"
            );
        }
        assert_eq!(s.database().model_cache().stats(), before);
    }

    #[test]
    fn predict_serve_version_pin_survives_hot_reload() {
        let dir = store_dir("serve_pin");
        let mut s = durable_session(1000, &dir);
        let train = |lr: &str| {
            format!(
                "SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 2, \
                 learning_rate = {lr}, model_name = m, durable = 1"
            )
        };
        s.execute(&train("0.05")).unwrap();
        let v1 = match s.execute("PREDICT m ON higgs").unwrap() {
            QueryResult::Serve(p) => p,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(v1.version, 1);
        // Retrain: v2 becomes active, but VERSION 1 stays servable and
        // bit-identical to what v1 served before the reload.
        s.execute(&train("0.9")).unwrap();
        let active = match s.execute("PREDICT m ON higgs").unwrap() {
            QueryResult::Serve(p) => p,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(active.version, 2);
        let pinned = match s.execute("PREDICT m VERSION 1 ON higgs").unwrap() {
            QueryResult::Serve(p) => p,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(pinned.version, 1);
        assert_eq!(pinned.predictions, v1.predictions);
        // An explicit pin does not steal traffic from the active version.
        assert_eq!(s.database().model_cache().active_version("m"), Some(2));
        // Unknown version is a structured error.
        assert!(matches!(
            s.execute("PREDICT m VERSION 9 ON higgs"),
            Err(DbError::UnknownModel(_))
        ));
        // LOAD MODEL … AS ACTIVE is the explicit rollback path.
        match s.execute("LOAD MODEL m VERSION 1 AS ACTIVE").unwrap() {
            QueryResult::Names(names) => {
                assert_eq!(
                    names,
                    vec!["m v1 epoch=2 source=higgs (active)".to_string()]
                )
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s.database().model_cache().active_version("m"), Some(1));
        let rolled_back = match s.execute("PREDICT m ON higgs").unwrap() {
            QueryResult::Serve(p) => p,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(rolled_back.version, 1);
        assert_eq!(rolled_back.predictions, v1.predictions);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn show_models_marks_the_cache_active_version() {
        // Storeless engine: non-durable training still publishes to the
        // cache, so SHOW MODELS marks the served version.
        let mut s = session_with_higgs(300);
        s.execute("SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 1, model_name = m")
            .unwrap();
        match s.execute("SHOW MODELS").unwrap() {
            QueryResult::Names(names) => assert_eq!(names, vec!["m v1*".to_string()]),
            other => panic!("unexpected {other:?}"),
        }
        // Durable engine: the store's latest and the cache's active can
        // diverge (non-durable retrain bumps only the cache).
        let dir = store_dir("show_models");
        let mut s = durable_session(300, &dir);
        s.execute(
            "SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 2, \
             model_name = m, durable = 1",
        )
        .unwrap();
        match s.execute("SHOW MODELS").unwrap() {
            QueryResult::Names(names) => {
                assert_eq!(names, vec!["m v1* epoch=2 source=higgs".to_string()])
            }
            other => panic!("unexpected {other:?}"),
        }
        s.execute("SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 1, model_name = m")
            .unwrap();
        match s.execute("SHOW MODELS").unwrap() {
            QueryResult::Names(names) => {
                assert_eq!(
                    names,
                    vec!["m v1 epoch=2 source=higgs active=v2".to_string()]
                )
            }
            other => panic!("unexpected {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn predict_batch_rejects_a_dimension_mismatch() {
        let mut s = session_with_higgs(300);
        // Train on a 3-column projection, then serve against the full
        // 28-feature table: a clear error, not garbage predictions.
        s.execute(
            "SELECT f0, f1, f2 FROM higgs TRAIN BY svm WITH max_epoch_num = 1, \
             model_name = narrow",
        )
        .unwrap();
        match s.execute("PREDICT narrow ON higgs") {
            Err(DbError::BadParam(msg)) => assert!(msg.contains("features"), "{msg}"),
            other => panic!("expected BadParam, got {other:?}"),
        }
    }

    // --- Cost-based planner, RECLUSTER, and the typed option registry ---

    fn run_train(s: &mut Session, sql: &str) -> DbTrainSummary {
        train_summary(s.execute(sql).unwrap())
    }

    #[test]
    fn planner_prefers_corgi2_on_clustered_data_over_many_epochs() {
        // Adversarially clustered data + enough epochs to amortize the
        // bounded RECLUSTER pass: the chooser must move off plain
        // CorgiPile onto the Corgi²-style strategy.
        let mut s = session_with_higgs(2000);
        let t = run_train(
            &mut s,
            "SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 20, model_name = m",
        );
        assert_eq!(t.strategy, "corgi2", "clustered + 20 epochs");
        assert!(t.setup_seconds > 0.0, "bounded recluster must be charged");
    }

    #[test]
    fn planner_prefers_plain_corgipile_on_preshuffled_data() {
        let table = DatasetSpec::higgs_like(2000)
            .with_order(Order::Shuffled)
            .with_block_bytes(8192)
            .build_table(1)
            .unwrap();
        let db = Database::new(SimDevice::hdd_scaled(1000.0, 0));
        db.register_table("higgs", table);
        let mut s = db.connect();
        let t = run_train(
            &mut s,
            "SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 20, model_name = m",
        );
        assert_eq!(t.strategy, "corgipile", "pre-shuffled data needs no setup");
        assert_eq!(t.setup_seconds, 0.0);
    }

    #[test]
    fn a_named_strategy_skips_the_chooser() {
        // Same query as the corgi2 test above, but the statement names its
        // strategy: plain CorgiPile runs, with no setup pass.
        let mut s = session_with_higgs(2000);
        let t = run_train(
            &mut s,
            "SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 20, \
             strategy = 'corgipile', model_name = m",
        );
        assert_eq!(t.strategy, "corgipile");
        assert_eq!(t.setup_seconds, 0.0);
    }

    #[test]
    fn explain_renders_options_and_planner_evidence() {
        let mut s = session_with_higgs(2000);
        let lines = match s
            .execute("EXPLAIN SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 20")
            .unwrap()
        {
            QueryResult::Plan(lines) => lines,
            other => panic!("expected Plan, got {other:?}"),
        };
        let options = lines
            .iter()
            .find(|l| l.starts_with("Options: "))
            .expect("effective options line");
        assert!(options.contains("max_epoch_num=20"), "{options}");
        assert!(options.contains("fuse=1"), "{options}");
        assert!(
            !options.contains("planner") && !options.contains("pushdown"),
            "{options}"
        );
        let planner = lines
            .iter()
            .find(|l| l.starts_with("Planner: "))
            .expect("planner evidence line");
        assert!(planner.contains("strategy=corgi2"), "{planner}");
        assert!(planner.contains("h_d="), "{planner}");
        assert!(planner.contains("predicted_epoch_io="), "{planner}");

        // An explicit strategy skips the chooser — no Planner line.
        let lines = match s
            .execute(
                "EXPLAIN SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 20, \
                 strategy = 'block_only'",
            )
            .unwrap()
        {
            QueryResult::Plan(lines) => lines,
            other => panic!("expected Plan, got {other:?}"),
        };
        assert!(lines.iter().any(|l| l.starts_with("Options: ")));
        assert!(!lines.iter().any(|l| l.starts_with("Planner: ")));
    }

    #[test]
    fn explain_renders_the_new_strategies() {
        let mut s = session_with_higgs(1000);
        for (strategy, needle) in [
            ("corgi2", "reclustered copy"),
            ("block_reversal", "rotated/reversed near-sequential"),
        ] {
            let lines = match s
                .execute(&format!(
                    "EXPLAIN SELECT * FROM higgs TRAIN BY svm WITH strategy = '{strategy}'"
                ))
                .unwrap()
            {
                QueryResult::Plan(lines) => lines,
                other => panic!("expected Plan, got {other:?}"),
            };
            assert!(
                lines.iter().any(|l| l.contains(needle)),
                "{strategy}: {lines:?}"
            );
        }
    }

    #[test]
    fn unknown_parameter_suggests_the_nearest_key() {
        let mut s = session_with_higgs(100);
        match s.execute("SELECT * FROM higgs TRAIN BY svm WITH buffer_fractoin = 0.2") {
            Err(DbError::BadParam(msg)) => {
                assert!(msg.contains("unknown parameter buffer_fractoin"), "{msg}");
                assert!(msg.contains("did you mean buffer_fraction?"), "{msg}");
            }
            other => panic!("expected BadParam, got {other:?}"),
        }
        // The retired knobs are unknown keys like any other (and too far
        // from every live key to earn a suggestion).
        for key in ["planner", "pushdown"] {
            for value in [0, 1] {
                let sql = format!("SELECT * FROM higgs TRAIN BY svm WITH {key} = {value}");
                match s.execute(&sql) {
                    Err(DbError::BadParam(msg)) => {
                        assert_eq!(msg, format!("unknown parameter {key}"))
                    }
                    other => panic!("expected BadParam, got {other:?}"),
                }
            }
        }
        // Statement-scoped: strategy is a TRAIN option, not a PREDICT one.
        s.execute("SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 1, model_name = m")
            .unwrap();
        match s.execute("PREDICT m ON higgs WITH strategy = 'corgipile'") {
            Err(DbError::BadParam(msg)) => {
                assert!(msg.contains("unknown parameter strategy"), "{msg}")
            }
            other => panic!("expected BadParam, got {other:?}"),
        }
    }

    #[test]
    fn recluster_statement_stays_within_budget_and_replaces_the_table() {
        let mut s = session_with_higgs(3000);
        let (io, budget, full) = match s
            .execute("RECLUSTER higgs WITH io_budget = 0.3, seed = 7")
            .unwrap()
        {
            QueryResult::Recluster {
                table,
                blocks_rewritten,
                blocks_total,
                io_seconds,
                budget_io,
                full_shuffle_io,
            } => {
                assert_eq!(table, "higgs");
                assert!(blocks_rewritten > 0, "budget admits at least one group");
                assert!(blocks_rewritten <= blocks_total);
                (io_seconds, budget_io, full_shuffle_io)
            }
            other => panic!("expected Recluster, got {other:?}"),
        };
        assert!(io > 0.0);
        assert!(io <= budget * 1.000001, "io {io} vs budget {budget}");
        assert!((budget - 0.3 * full).abs() < 1e-12);
        // The re-clustered table replaced the original under its own name
        // and remains fully queryable.
        let t = run_train(
            &mut s,
            "SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 2, model_name = m",
        );
        assert!(t.final_train_metric > 0.5);
    }

    #[test]
    fn recluster_validates_its_options() {
        let mut s = session_with_higgs(200);
        match s.execute("RECLUSTER higgs WITH io_budget = 1.5") {
            Err(DbError::BadParam(msg)) => {
                assert_eq!(msg, "io_budget must be in (0, 1]")
            }
            other => panic!("expected BadParam, got {other:?}"),
        }
        match s.execute("RECLUSTER higgs WITH fuse = 1") {
            Err(DbError::BadParam(msg)) => {
                assert!(msg.contains("unknown parameter fuse"), "{msg}")
            }
            other => panic!("expected BadParam, got {other:?}"),
        }
        assert!(matches!(
            s.execute("RECLUSTER nope"),
            Err(DbError::UnknownTable(_))
        ));
    }

    #[test]
    fn new_strategies_are_bit_reproducible_across_executor_configs() {
        // For a fixed seed, corgi2 and block_reversal must produce
        // bit-identical models across every fuse × double_buffer
        // combination — the same oracle the original strategies are held
        // to.
        for strategy in ["corgi2", "block_reversal"] {
            let mut reference: Option<Vec<f32>> = None;
            for fuse in [0, 1] {
                for double_buffer in [0, 1] {
                    let mut s = session_with_higgs(1000);
                    let sql = format!(
                        "SELECT * FROM higgs TRAIN BY svm WITH strategy = '{strategy}', \
                         max_epoch_num = 3, seed = 7, fuse = {fuse}, \
                         double_buffer = {double_buffer}, model_name = m"
                    );
                    run_train(&mut s, &sql);
                    let params = s.catalog().model("m").unwrap().params.clone();
                    match &reference {
                        None => reference = Some(params),
                        Some(r) => {
                            assert_eq!(r, &params, "{strategy} fuse={fuse} db={double_buffer}")
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn block_variance_is_cached_until_the_table_changes() {
        let mut s = session_with_higgs(1000);
        s.execute("EXPLAIN SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 20")
            .unwrap();
        let table = s.catalog().table("higgs").unwrap();
        let tid = table.config().table_id;
        let hd = s
            .catalog()
            .cached_block_variance("higgs", tid)
            .expect("planner caches its estimate");
        assert!((0.0..=1.0).contains(&hd));
        // RECLUSTER re-registers the table: the stale estimate must go.
        s.execute("RECLUSTER higgs WITH io_budget = 0.5").unwrap();
        assert_eq!(s.catalog().cached_block_variance("higgs", tid), None);
    }

    // --- Appendable tables: INSERT and TRAIN … CONTINUOUS ---

    /// One 29-value SQL row (28 features + label) for the higgs table.
    fn sql_row(seed: usize) -> String {
        let mut vals: Vec<String> = (0..28).map(|i| format!("{}.5", (seed + i) % 7)).collect();
        vals.push("1".into());
        format!("({})", vals.join(", "))
    }

    #[test]
    fn insert_appends_rows_and_bumps_the_snapshot_version() {
        let mut s = session_with_higgs(300);
        assert_eq!(s.catalog().table_version("higgs").unwrap(), 1);
        match s
            .execute(&format!(
                "INSERT INTO higgs VALUES {}, {}",
                sql_row(0),
                sql_row(1)
            ))
            .unwrap()
        {
            QueryResult::Insert {
                table,
                rows,
                version,
                total_tuples,
            } => {
                assert_eq!(table, "higgs");
                assert_eq!(rows, 2);
                assert_eq!(version, 2);
                assert_eq!(total_tuples, 302);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s.catalog().table("higgs").unwrap().num_tuples(), 302);
        // SHOW TABLES reflects the bump.
        match s.execute("SHOW TABLES").unwrap() {
            QueryResult::Names(names) => {
                assert!(names[0].starts_with("higgs v2 "), "{names:?}");
                assert!(names[0].ends_with("tuples=302"), "{names:?}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // A mismatched row width is a clear error before anything lands.
        match s.execute("INSERT INTO higgs VALUES (1, 2, 3)") {
            Err(DbError::BadParam(msg)) => assert!(msg.contains("features"), "{msg}"),
            other => panic!("expected BadParam, got {other:?}"),
        }
        assert!(matches!(
            s.execute(&format!("INSERT INTO ghost VALUES {}", sql_row(0))),
            Err(DbError::UnknownTable(_))
        ));
        // EXPLAIN INSERT renders the statement without executing it.
        match s
            .execute(&format!("EXPLAIN INSERT INTO higgs VALUES {}", sql_row(2)))
            .unwrap()
        {
            QueryResult::Plan(lines) => assert_eq!(
                lines,
                vec!["Insert on higgs (rows=1, current snapshot v2)".to_string()]
            ),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s.catalog().table_version("higgs").unwrap(), 2);
        assert_eq!(s.telemetry().counter("db.insert.rows").get(), 2);
    }

    #[test]
    fn insert_into_an_empty_table_takes_its_width_from_the_first_row() {
        use corgipile_storage::{StorageError, TableConfig};
        let db = Database::new(SimDevice::hdd_scaled(1000.0, 0));
        db.register_table(
            "empty",
            Table::from_tuples(TableConfig::new("empty", 7), Vec::<Tuple>::new()).unwrap(),
        );
        let mut s = db.connect();
        // Nothing to train on yet: a typed error, not a panic in the planner.
        for sql in [
            "SELECT * FROM empty TRAIN BY svm",
            "EXPLAIN SELECT * FROM empty TRAIN BY svm",
            "SELECT * FROM empty TRAIN BY svm CONTINUOUS WITH refresh = 1",
        ] {
            assert!(
                matches!(
                    s.execute(sql),
                    Err(DbError::Storage(StorageError::EmptyTable))
                ),
                "{sql}"
            );
        }
        // Rows of one statement must agree with each other…
        match s.execute("INSERT INTO empty VALUES (1, 2, 1), (3, -1)") {
            Err(DbError::BadParam(msg)) => assert!(msg.contains("features"), "{msg}"),
            other => panic!("expected BadParam, got {other:?}"),
        }
        // …and the first accepted row fixes the width for later statements.
        s.execute("INSERT INTO empty VALUES (1, 2, 1), (3, 4, -1)")
            .unwrap();
        let t = s.catalog().table("empty").unwrap();
        assert_eq!((t.num_tuples(), t.dim()), (2, Ok(2)));
        assert!(matches!(
            s.execute("INSERT INTO empty VALUES (1, 2, 3, 1)"),
            Err(DbError::BadParam(_))
        ));
        // A literal that overflows the stored f32 never reaches the table.
        assert!(matches!(
            s.execute("INSERT INTO empty VALUES (1e39, 2, 1)"),
            Err(DbError::Parse(_))
        ));
        assert_eq!(s.catalog().table("empty").unwrap().num_tuples(), 2);
    }

    #[test]
    fn insert_invalidates_the_cached_block_variance() {
        let mut s = session_with_higgs(1000);
        s.execute("EXPLAIN SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 20")
            .unwrap();
        let tid = s.catalog().table("higgs").unwrap().config().table_id;
        assert!(s.catalog().cached_block_variance("higgs", tid).is_some());
        s.execute(&format!("INSERT INTO higgs VALUES {}", sql_row(0)))
            .unwrap();
        // The publish assigned a fresh table_id and dropped the stale ĥ_D.
        assert_eq!(s.catalog().cached_block_variance("higgs", tid), None);
        let new_tid = s.catalog().table("higgs").unwrap().config().table_id;
        assert_ne!(new_tid, tid);
    }

    #[test]
    fn train_continuous_on_a_static_table_matches_plain_train() {
        let plain = "SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 4, \
                     seed = 7, model_name = m";
        let mut a = session_with_higgs(1000);
        a.execute(plain).unwrap();
        let want = a.catalog().model("m").unwrap().params.clone();
        // One chunk (refresh defaults to max_epoch_num) …
        let mut b = session_with_higgs(1000);
        let t = train_summary(
            b.execute(
                "SELECT * FROM higgs TRAIN BY svm CONTINUOUS WITH max_epoch_num = 4, \
                 seed = 7, model_name = m",
            )
            .unwrap(),
        );
        assert_eq!(t.snapshot_version, 1);
        assert_eq!(t.epochs.len(), 4);
        assert!(!t.halted);
        assert_eq!(b.catalog().model("m").unwrap().params, want);
        // … and epoch-granular chunks (each resuming the last checkpoint)
        // still match the uninterrupted plain run bit-for-bit.
        let mut c = session_with_higgs(1000);
        let t = train_summary(
            c.execute(
                "SELECT * FROM higgs TRAIN BY svm CONTINUOUS WITH max_epoch_num = 4, \
                 refresh = 1, seed = 7, model_name = m",
            )
            .unwrap(),
        );
        assert_eq!(t.epochs.len(), 4);
        assert_eq!(c.catalog().model("m").unwrap().params, want);
        assert_eq!(c.telemetry().counter("db.train.continuous_chunks").get(), 4);
    }

    #[test]
    fn train_continuous_repins_snapshots_and_reruns_bit_identically() {
        let run = || {
            let db = Database::new(SimDevice::hdd_scaled(1000.0, 0));
            db.register_table("higgs", higgs_table(1000));
            let mut s = db.connect();
            let writer = db.clone();
            s.set_refresh_hook(move |chunk| {
                // Deterministic drift: 40 rows per epoch boundary, shaped
                // by the chunk index, appended through the catalog exactly
                // as a concurrent INSERT would be.
                let rows: Vec<Tuple> = (0..40)
                    .map(|i| {
                        let x = (chunk * 40 + i) as f32 * 0.01;
                        Tuple::dense(0, vec![x; 28], (i % 2) as f32)
                    })
                    .collect();
                writer.catalog().append_rows("higgs", rows).unwrap();
            });
            let t = train_summary(
                s.execute(
                    "SELECT * FROM higgs TRAIN BY svm CONTINUOUS WITH max_epoch_num = 6, \
                     refresh = 2, seed = 7, model_name = m",
                )
                .unwrap(),
            );
            (t, s.catalog().model("m").unwrap().params.clone())
        };
        let (t1, params1) = run();
        let (t2, params2) = run();
        assert_eq!(
            params1, params2,
            "the same drift schedule must train a bit-identical model"
        );
        assert_eq!(t1.epochs.len(), 6);
        // Two re-pins over the appended data: versions 1 → 2 → 3.
        assert_eq!(t1.snapshot_version, 3);
        assert_eq!(t2.snapshot_version, 3);
    }

    #[test]
    fn continuous_validates_its_options() {
        let mut s = session_with_higgs(200);
        // refresh without CONTINUOUS is meaningless.
        match s.execute("SELECT * FROM higgs TRAIN BY svm WITH refresh = 2") {
            Err(DbError::BadParam(msg)) => assert!(msg.contains("CONTINUOUS"), "{msg}"),
            other => panic!("expected BadParam, got {other:?}"),
        }
        // EXPLAIN applies the same validation without executing.
        assert!(matches!(
            s.execute("EXPLAIN SELECT * FROM higgs TRAIN BY svm WITH refresh = 2"),
            Err(DbError::BadParam(_))
        ));
        // Restart knobs belong to the single-shot path.
        for knob in ["durable = 1", "halt_after_epoch = 1", "block_size = 8192"] {
            match s.execute(&format!(
                "SELECT * FROM higgs TRAIN BY svm CONTINUOUS WITH {knob}"
            )) {
                Err(DbError::BadParam(msg)) => {
                    assert!(msg.contains("CONTINUOUS"), "{knob}: {msg}")
                }
                other => panic!("{knob}: expected BadParam, got {other:?}"),
            }
        }
        assert!(matches!(
            s.execute("SELECT * FROM higgs TRAIN BY svm CONTINUOUS WITH refresh = 0"),
            Err(DbError::BadParam(_))
        ));
    }

    #[test]
    fn explain_renders_the_pinned_snapshot_and_continuous_lines() {
        let mut s = session_with_higgs(300);
        let lines = match s
            .execute(
                "EXPLAIN SELECT * FROM higgs TRAIN BY svm CONTINUOUS WITH \
                 max_epoch_num = 6, refresh = 2",
            )
            .unwrap()
        {
            QueryResult::Plan(lines) => lines,
            other => panic!("unexpected {other:?}"),
        };
        assert!(
            lines.iter().any(|l| l == "Snapshot: version=1"),
            "{lines:?}"
        );
        assert!(
            lines.iter().any(|l| l.starts_with("Continuous: refresh=2")),
            "{lines:?}"
        );
        // An INSERT bumps the version the next EXPLAIN pins; plain TRAIN
        // renders the snapshot but no Continuous line.
        s.execute(&format!("INSERT INTO higgs VALUES {}", sql_row(3)))
            .unwrap();
        let lines = match s
            .execute("EXPLAIN SELECT * FROM higgs TRAIN BY svm")
            .unwrap()
        {
            QueryResult::Plan(lines) => lines,
            other => panic!("unexpected {other:?}"),
        };
        assert!(
            lines.iter().any(|l| l == "Snapshot: version=2"),
            "{lines:?}"
        );
        assert!(
            !lines.iter().any(|l| l.starts_with("Continuous:")),
            "{lines:?}"
        );
    }
}
