//! `TRAIN`: one prepared statement, one run function.
//!
//! [`Session::prepare_train`] turns a parsed `Query::Train` into a
//! [`PreparedTrain`] — every `WITH` option validated once, the
//! `CONTINUOUS` exclusions applied, the snapshot pinned (and rechunked
//! under `block_size`), the model kind resolved, the strategy chosen (with
//! the planner's evidence kept), and the logical plan built. `EXPLAIN`
//! renders it, plain `TRAIN` runs it as exactly one chunk
//! of epochs, and `TRAIN … CONTINUOUS` runs it as `refresh`-sized chunks
//! that re-pin the latest snapshot in between — all through
//! [`Session::run_train`], the one place that builds the physical plan,
//! wires the `SGD` operator, executes, stores and publishes. What `EXPLAIN`
//! accepts is therefore exactly what `TRAIN` accepts, and what it renders
//! is the plan `TRAIN` would run.

use crate::catalog::StoredModel;
use crate::error::DbError;
use crate::exec::{scan_rows, ExecContext, FaultAction, SgdOperator};
use crate::model_store::{ModelRecord, ModelStore};
use crate::options::{effective_line, QueryOptions, Statement};
use crate::plan::{build_physical_with, LogicalPlan, TrainPlanSpec};
use crate::serving::ServableModel;
use crate::session::{DbTrainSummary, Session};
use crate::sql::{ParamValue, Query};
use corgipile_core::trainer::evaluate;
use corgipile_ml::{build_model, ModelKind, OptimizerKind, TrainCheckpoint, TrainOptions};
use corgipile_shuffle::{block_variance_sampled, CostEstimate, CostModel, StrategyParams};
use corgipile_storage::{RetryPolicy, SimDevice, Table, TableSnapshot};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

/// A `TRAIN` statement with every option resolved and validated, pinned to
/// a table snapshot and planned. See the module docs.
pub(crate) struct PreparedTrain {
    /// Table, model kind, epochs, strategy, projection, filter; its
    /// `buffer_blocks` follows the pinned table.
    spec: TrainPlanSpec,
    stored_name: String,
    continuous: bool,
    // --- resolved `WITH` options ---
    learning_rate: f32,
    decay: f32,
    refresh: usize,
    options: TrainOptions,
    seed: u64,
    double_buffer: bool,
    report_metrics: bool,
    retry: RetryPolicy,
    on_fault: FaultAction,
    halt_after_epoch: Option<usize>,
    /// The engine's model store, iff `durable = 1`.
    durable: Option<Arc<ModelStore>>,
    /// Hash of everything that decides this run's visit order and update
    /// rule (see [`fingerprint`]); a durable record resumes only under an
    /// equal one.
    fingerprint: u64,
    fuse: bool,
    /// The statement's raw `WITH` map, kept for `EXPLAIN`'s `Options:` line.
    params: BTreeMap<String, ParamValue>,
    // --- the pinned snapshot and what was planned over it ---
    snapshot_version: u64,
    table: Arc<Table>,
    kind: ModelKind,
    dim: usize,
    /// The cost model's pick, when the query left the strategy to it.
    planner_pick: Option<CostEstimate>,
    sparams: StrategyParams,
    plan: LogicalPlan,
}

impl PreparedTrain {
    /// Whether the statement journals per-epoch checkpoints to the model
    /// store (`durable = 1`).
    pub(crate) fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// Move to a newer snapshot (`CONTINUOUS` refresh). Model shape,
    /// strategy and the planner's buffer fraction stay as first resolved:
    /// a drifting table must not flip the access path mid-model.
    fn repin(&mut self, snapshot: TableSnapshot) -> Result<(), DbError> {
        self.snapshot_version = snapshot.version();
        self.table = snapshot.into_table();
        self.plan = logical_plan(&mut self.spec, &self.sparams, &self.table)?;
        Ok(())
    }

    /// `EXPLAIN`: the plan as `run_train` would lower it, the pinned
    /// snapshot, the effective options and the planner's evidence.
    pub(crate) fn explain_lines(&self) -> Vec<String> {
        let mut lines = if self.fuse {
            self.plan.explain_lines_fused()
        } else {
            self.plan.explain_lines()
        };
        lines.push(format!("Snapshot: version={}", self.snapshot_version));
        if self.continuous {
            let refresh = self.refresh;
            lines.push(format!(
                "Continuous: refresh={refresh} (re-pin latest snapshot every {refresh} epochs)"
            ));
        }
        lines.push(effective_line(Statement::Train, &self.params));
        if let Some(pick) = &self.planner_pick {
            lines.push(format!(
                "Planner: strategy={} h_d={:.3} buffer_fraction={:.2} \
                 predicted_epoch_io={:.6}s setup_io={:.6}s",
                pick.kind.name(),
                pick.hd,
                pick.buffer_fraction,
                pick.predicted_epoch_io,
                pick.predicted_setup_io,
            ));
        }
        lines
    }
}

/// Logical plan of `spec` over `table`. The buffer is sized in blocks of
/// *this* table, so a rechunked or re-pinned table gets its own count.
fn logical_plan(
    spec: &mut TrainPlanSpec,
    sparams: &StrategyParams,
    table: &Table,
) -> Result<LogicalPlan, DbError> {
    spec.buffer_blocks = sparams.buffer_blocks(table);
    LogicalPlan::build(spec, table)
}

impl Session {
    /// Resolve a `Query::Train` into a [`PreparedTrain`]. Nothing is
    /// executed and no I/O is charged to the session.
    pub(crate) fn prepare_train(&self, query: Query) -> Result<PreparedTrain, DbError> {
        let Query::Train {
            table: table_name,
            model,
            projection,
            filter,
            strategy,
            continuous,
            params,
        } = query
        else {
            unreachable!("prepare_train takes a Query::Train")
        };
        // Pin the snapshot before anything else: every block this query
        // reads comes from exactly this version, no matter what concurrent
        // INSERTs publish while it runs.
        let snapshot = self.catalog().snapshot(&table_name)?;
        let snapshot_version = snapshot.version();
        let mut table = snapshot.into_table();

        // --- Options (validated against the typed registry) --------------
        let opts = QueryOptions::parse(Statement::Train, &params)?;
        if continuous {
            // The restart knobs steer the single-shot path's restart story;
            // CONTINUOUS owns the checkpoint chain itself.
            for knob in ["durable", "halt_after_epoch", "block_size"] {
                if opts.is_set(knob) {
                    return Err(DbError::BadParam(format!(
                        "{knob} is not supported with TRAIN … CONTINUOUS"
                    )));
                }
            }
        } else if opts.is_set("refresh") {
            return Err(DbError::BadParam(
                "refresh requires TRAIN … CONTINUOUS".into(),
            ));
        }
        let learning_rate = opts.float("learning_rate", 0.1)? as f32;
        let decay = opts.float("decay", 0.95)? as f32;
        let epochs = opts.nonneg_int("max_epoch_num", 10)?;
        let refresh = opts.positive_int("refresh", epochs.max(1))?;
        let buffer_fraction = opts.fraction("buffer_fraction", 0.10)?;
        let io_budget = opts.fraction("io_budget", StrategyParams::default().io_budget)?;
        let batch_size = opts.nonneg_int("batch_size", 1)?.max(1);
        let seed = opts.nonneg_int("seed", 42)? as u64;
        let double_buffer = opts.flag("double_buffer", true)?;
        let l2 = opts.float("l2", 0.0)? as f32;
        if l2 < 0.0 {
            return Err(DbError::BadParam("l2 must be non-negative".into()));
        }
        let report_metrics = opts.flag("report_metrics", false)?;
        let max_retries = opts.nonneg_int("max_retries", 4)? as u32;
        let on_fault = match params.get("on_fault") {
            None => FaultAction::Fail,
            Some(v) => match v.as_text() {
                Some("fail") => FaultAction::Fail,
                Some("skip") => FaultAction::SkipBlock,
                _ => {
                    return Err(DbError::BadParam(
                        "on_fault must be 'fail' or 'skip'".into(),
                    ))
                }
            },
        };
        let halt_after_epoch = if opts.is_set("halt_after_epoch") {
            Some(opts.nonneg_int("halt_after_epoch", 0)?)
        } else {
            None
        };
        let durable = if opts.flag("durable", false)? {
            Some(self.db.model_store().cloned().ok_or_else(|| {
                DbError::BadParam(
                    "durable = 1 requires an engine opened with a model store \
                     (Database::with_model_store)"
                        .into(),
                )
            })?)
        } else {
            None
        };
        let fuse = opts.flag("fuse", true)?;
        let block_size = params
            .get("block_size")
            .map(|bs| {
                bs.as_usize()
                    .ok_or_else(|| DbError::BadParam("block_size must be a byte size".into()))
            })
            .transpose()?;
        if let Some(bytes) = block_size {
            table = Arc::new(table.rechunk(bytes)?);
        }

        // --- Model shape --------------------------------------------------
        let kind = resolve_model_kind(&model, &table)?;
        let dim = match projection.feature_indices() {
            Some(cols) => cols.len(),
            None => table.dim()?,
        };
        let stored_name = match opts.text("model_name") {
            Some(name) => name.to_string(),
            None => format!("{table_name}_{}", kind.name()),
        };

        // --- Cost-based strategy planning --------------------------------
        // A query that names a strategy gets exactly that strategy.
        // Otherwise the cost model combines the (cached) block-variance
        // estimate ĥ_D with the device profile and picks both the strategy
        // and its buffer fraction — an explicit `buffer_fraction` parameter
        // stays authoritative.
        let mut sparams = StrategyParams::default()
            .with_buffer_fraction(buffer_fraction)
            .with_seed(seed)
            .with_io_budget(io_budget);
        let mut planner_pick = None;
        let strategy = match strategy {
            Some(kind) => kind,
            None => {
                let hd = self.block_variance(&table_name, &table, seed, block_size.is_none());
                let pick = CostModel::new(epochs).choose(&table, &self.dev.profile(), &sparams, hd);
                if !opts.is_set("buffer_fraction") {
                    sparams = sparams.with_buffer_fraction(pick.buffer_fraction);
                }
                let kind = pick.kind;
                planner_pick = Some(pick);
                kind
            }
        };

        let mut spec = TrainPlanSpec {
            table: table_name,
            model: kind.name().to_string(),
            epochs,
            strategy,
            projection,
            filter,
            buffer_blocks: 0,
        };
        let plan = logical_plan(&mut spec, &sparams, &table)?;
        let fingerprint = fingerprint(format_args!(
            "{}|{kind:?}|{dim}|{seed}|{}|{:x}|{:x}|{block_size:?}|{batch_size}|{:x}|{:x}|{:x}|{:?}|{:?}",
            spec.table,
            spec.strategy.name(),
            sparams.buffer_fraction.to_bits(),
            sparams.io_budget.to_bits(),
            learning_rate.to_bits(),
            decay.to_bits(),
            l2.to_bits(),
            spec.filter,
            spec.projection.feature_indices(),
        ));
        Ok(PreparedTrain {
            spec,
            stored_name,
            continuous,
            learning_rate,
            decay,
            refresh,
            options: TrainOptions {
                batch_size,
                clip_norm: 0.0,
                l2,
            },
            seed,
            double_buffer,
            report_metrics,
            retry: RetryPolicy::with_max_retries(max_retries),
            on_fault,
            halt_after_epoch,
            durable,
            fingerprint,
            fuse,
            params,
            snapshot_version,
            table,
            kind,
            dim,
            planner_pick,
            sparams,
            plan,
        })
    }

    /// Execute a prepared `TRAIN`: one chunk of epochs for a plain
    /// statement, `refresh`-sized chunks for `CONTINUOUS`, each chunk
    /// pinning the latest snapshot, rebuilding the physical plan over it
    /// and resuming the model from the previous chunk's checkpoint (the
    /// same epoch-replay resume the durable store uses). Every scan is thus
    /// bit-reproducible on its pinned version while appended data is picked
    /// up at epoch granularity; over a table that never changes the chunked
    /// run is bit-identical to the plain one.
    pub(crate) fn run_train(&mut self, mut prep: PreparedTrain) -> Result<DbTrainSummary, DbError> {
        // Durable auto-resume: the latest durable version of this name
        // continues where it left off iff it is unfinished and was written
        // by this very statement — same fingerprint, so the same source,
        // seed, model shape, visit order and update rule; anything else
        // (`max_epoch_num` aside, so a run can be extended) trains a fresh
        // version. Durable runs reuse their WAL version number so the
        // cache, store and SHOW MODELS agree.
        let mut resume = None;
        let mut durable_version = None;
        if let Some(store) = &prep.durable {
            let mut version = store.next_version(&prep.stored_name);
            if let Some(rec) = store.latest(&prep.stored_name).filter(|rec| {
                rec.fingerprint == prep.fingerprint && (rec.epoch as usize) < prep.spec.epochs
            }) {
                version = rec.version;
                resume = Some(rec.into_checkpoint());
            }
            durable_version = Some(version);
        }
        let wal_before = prep.durable.as_ref().map(|s| s.stats());

        let mut epochs = Vec::new();
        let mut setup_seconds = 0.0f64;
        let mut rows_filtered = 0u64;
        let mut chunks = 0usize;
        let (model, op_stats, eval, halted) = loop {
            if chunks > 0 {
                // Epoch boundary reached: let a registered harness inject
                // its deterministic drift, then pick up the latest
                // published snapshot for the next chunk of epochs.
                if let Some(hook) = self.refresh_hook.as_mut() {
                    hook(chunks);
                }
                prep.repin(self.catalog().snapshot(&prep.spec.table)?)?;
            }
            chunks += 1;
            let end = if prep.continuous {
                (epochs.len() + prep.refresh).min(prep.spec.epochs)
            } else {
                prep.spec.epochs
            };
            let last = end >= prep.spec.epochs;

            // --- Physical plan (single construction site: plan.rs) ------
            let physical = build_physical_with(
                &prep.plan,
                &prep.table,
                &prep.sparams,
                &mut self.dev,
                self.db.catalog(),
                prep.fuse,
            )?;
            setup_seconds += physical.setup_seconds;
            let mut sgd = SgdOperator::new(
                physical,
                build_model(&prep.kind, prep.dim, prep.seed),
                OptimizerKind::Sgd {
                    lr0: prep.learning_rate,
                    decay: prep.decay,
                }
                .build(),
                prep.options.clone(),
                self.compute,
                prep.spec.epochs,
                prep.double_buffer,
            );
            sgd.driver.seed = prep.seed;
            sgd.driver.resume_from = resume.take();
            sgd.halt_after_epoch = if last {
                prep.halt_after_epoch
            } else {
                Some(end - 1)
            };
            // The pinned table as training sees it — after the `WHERE` filter
            // and the projection — so metrics match what SGD saw.
            let cols = prep.spec.projection.feature_indices();
            let eval = (last || prep.report_metrics)
                .then(|| scan_rows(&prep.table, prep.spec.filter.as_ref(), cols.as_deref()))
                .transpose()?
                .map(Arc::new);
            if prep.report_metrics {
                sgd.eval_each_epoch = eval.clone();
            }
            // A non-final chunk's last checkpoint seeds the next chunk.
            let handoff: Rc<RefCell<Option<TrainCheckpoint>>> = Rc::default();
            if let (Some(store), Some(version)) = (prep.durable.clone(), durable_version) {
                let (name, source) = (prep.stored_name.clone(), prep.spec.table.clone());
                let (kind, dim, fingerprint) = (prep.kind.clone(), prep.dim, prep.fingerprint);
                sgd.checkpoint_sink = Some(Box::new(move |ck, train_loss| {
                    store.append(ModelRecord {
                        name: name.clone(),
                        source: source.clone(),
                        version,
                        epoch: ck.epoch_next as u32,
                        stored: StoredModel {
                            kind: kind.clone(),
                            dim,
                            params: ck.model_params.clone(),
                            train_loss,
                        },
                        seed: ck.seed,
                        sim_clock: ck.sim_clock,
                        optimizer_state: ck.optimizer_state.clone(),
                        fingerprint,
                    })
                }));
            } else if !last {
                let slot = Rc::clone(&handoff);
                sgd.checkpoint_sink = Some(Box::new(move |ck, _| {
                    *slot.borrow_mut() = Some(ck.clone());
                    Ok(())
                }));
            }

            // The engine's buffer pool serves the query whenever the engine
            // has one (`Database::with_shared_buffers`).
            let mut ctx = ExecContext::new(&mut self.dev);
            if self.pool.capacity() > 0 {
                ctx.pool = Some(&mut self.pool);
            }
            ctx.retry = prep.retry;
            ctx.on_fault = prep.on_fault;
            let mut result = sgd.execute(&mut ctx)?;

            resume = handoff.borrow_mut().take();
            rows_filtered += result.op_stats.iter().map(|s| s.rows_filtered).sum::<u64>();
            epochs.append(&mut result.epochs);
            if last {
                let eval = eval.expect("the last chunk builds the eval view");
                break (result.model, result.op_stats, eval, result.halted);
            }
        };

        // Durability cost is observable per session: the WAL work this
        // query caused, mirrored as `storage.wal.*` counters (the same
        // numbers EXPLAIN ANALYZE renders on its WAL line).
        if let (Some(store), Some(before)) = (&prep.durable, wal_before) {
            let s = store.stats();
            let counter = |name, delta| self.telemetry.counter(name).add(delta);
            counter("storage.wal.appends", s.appends - before.appends);
            counter(
                "storage.wal.appended_bytes",
                s.appended_bytes - before.appended_bytes,
            );
            counter("storage.wal.fsyncs", s.fsyncs - before.fsyncs);
            counter(
                "storage.wal.compactions",
                s.compactions - before.compactions,
            );
        }
        if prep.continuous {
            self.telemetry
                .counter("db.train.continuous_chunks")
                .add(chunks as u64);
        }
        // Selectivity is observable even when telemetry consumers never
        // look at op stats: total rows the scan's predicate dropped.
        if rows_filtered > 0 {
            self.telemetry
                .counter("db.scan.rows_filtered")
                .add(rows_filtered);
        }

        // --- Evaluate & store (against the last pinned snapshot) ----------
        let final_train_metric = evaluate(model.as_ref(), eval.rows());
        let stored = StoredModel {
            kind: prep.kind.clone(),
            dim: prep.dim,
            params: model.params().to_vec(),
            train_loss: epochs.last().map(|e| e.train_loss).unwrap_or(0.0),
        };
        self.catalog()
            .store_model(prep.stored_name.clone(), stored.clone());
        // Hot-reload: every completed TRAIN publishes its result to the
        // serving cache as the new active version. In-flight PREDICT
        // batches finish on the version they pinned; the next pin serves
        // this one.
        let cache = self.db.model_cache();
        let version = durable_version.unwrap_or_else(|| cache.next_version(&prep.stored_name));
        cache.publish(ServableModel::new(&prep.stored_name, version, stored), true);
        Ok(DbTrainSummary {
            model_name: prep.stored_name,
            model_kind: prep.kind,
            strategy: prep.spec.strategy.name().to_string(),
            snapshot_version: prep.snapshot_version,
            setup_seconds,
            epochs,
            final_train_metric,
            halted,
            op_stats,
        })
    }

    /// The planner's ĥ_D estimate for a table: catalog cache when valid
    /// for this exact table version, else a bounded block sample.
    ///
    /// Sampling runs on a scratch device so planning charges no I/O to the
    /// session's stats and never trips a session fault plan; the bounded
    /// sample cost is reported inside the estimate itself (EXPLAIN). The
    /// result is cached per (name, table_id) unless the query rechunked
    /// the table — a rechunked copy shares the id but not the block
    /// partition, so its ĥ_D must not overwrite the registered table's.
    fn block_variance(&self, table_name: &str, table: &Table, seed: u64, cacheable: bool) -> f64 {
        let table_id = table.config().table_id;
        if cacheable {
            if let Some(hd) = self.catalog().cached_block_variance(table_name, table_id) {
                return hd;
            }
        }
        let mut scratch = SimDevice::ssd(0);
        let hd = block_variance_sampled(table, 0.25, seed, &mut scratch).hd;
        if cacheable {
            self.catalog()
                .cache_block_variance(table_name, table_id, hd);
        }
        hd
    }
}

/// FNV-1a of a statement's canonical description: source, model shape,
/// seed, the strategy actually run (after the planner), buffer fraction,
/// I/O budget, block size, batch size, learning rate, decay, L2, `WHERE`
/// and column list. `max_epoch_num` stays out, so extending a run resumes it.
/// The description is hashed as it is formatted: every `TRAIN` pays for
/// this, and it allocates nothing.
fn fingerprint(description: std::fmt::Arguments) -> u64 {
    struct Fnv1a(u64);
    impl std::fmt::Write for Fnv1a {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
    std::fmt::write(&mut h, description).expect("Fnv1a::write_str never fails");
    h.0
}

fn resolve_model_kind(name: &str, table: &Table) -> Result<ModelKind, DbError> {
    let classes = || -> usize {
        let max = table.rows().map(|t| t.label as i64).max().unwrap_or(1);
        (max + 1).max(2) as usize
    };
    match name {
        "svm" => Ok(ModelKind::Svm),
        "lr" | "logit" | "logistic" => Ok(ModelKind::LogisticRegression),
        "linreg" | "linear_regression" => Ok(ModelKind::LinearRegression),
        "softmax" => Ok(ModelKind::Softmax { classes: classes() }),
        "mlp" => Ok(ModelKind::Mlp {
            hidden: vec![32],
            classes: classes(),
        }),
        other => Err(DbError::UnknownModelKind(other.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use crate::database::Database;
    use crate::session::{QueryResult, Session};
    use corgipile_data::{DatasetSpec, Order};
    use corgipile_storage::SimDevice;

    fn session(n: usize) -> Session {
        let db = Database::new(SimDevice::hdd_scaled(1000.0, 0));
        db.register_table(
            "higgs",
            DatasetSpec::higgs_like(n)
                .with_order(Order::ClusteredByLabel)
                .with_block_bytes(8192)
                .build_table(1)
                .unwrap(),
        );
        db.connect()
    }

    fn plan_lines(s: &mut Session, sql: &str) -> Vec<String> {
        match s.execute(sql).unwrap() {
            QueryResult::Plan(lines) => lines,
            other => panic!("expected a plan, got {other:?}"),
        }
    }

    #[test]
    fn explain_rejects_exactly_what_train_rejects() {
        // One resolver: every statement TRAIN refuses, EXPLAIN refuses with
        // the same error — EXPLAIN used to wave most of these through.
        let rejected = [
            // Values the typed accessors refuse.
            "TRAIN BY svm WITH l2 = -1",
            "TRAIN BY svm WITH on_fault = 'bogus'",
            "TRAIN BY svm WITH on_fault = 'explode'",
            "TRAIN BY svm WITH double_buffer = 7",
            "TRAIN BY svm WITH max_retries = 'x'",
            "TRAIN BY svm WITH durable = 2",
            "TRAIN BY svm WITH buffer_fraction = 0",
            "TRAIN BY svm WITH bogus_param = 1",
            // Knobs the engine owns now.
            "TRAIN BY svm WITH checkpoint = 'x.ckpt', resume = 1",
            "TRAIN BY svm WITH shared_buffers = 64MB",
            // Options that need each other, or the engine.
            "TRAIN BY svm WITH durable = 1, max_epoch_num = 1",
            "TRAIN BY svm WITH refresh = 2",
            // CONTINUOUS owns the checkpoint chain and the block layout.
            "TRAIN BY svm CONTINUOUS WITH durable = 1",
            "TRAIN BY svm CONTINUOUS WITH halt_after_epoch = 1",
            "TRAIN BY svm CONTINUOUS WITH block_size = 8192",
            "TRAIN BY svm CONTINUOUS WITH refresh = 0",
            // Shape errors caught while planning.
            "TRAIN BY nonsense",
            "WHERE f99 > 0 TRAIN BY svm",
        ];
        let mut s = session(200);
        for tail in rejected {
            let stmt = format!("SELECT * FROM higgs {tail}");
            let train = s.execute(&stmt).expect_err(&stmt);
            let explain = s.execute(&format!("EXPLAIN {stmt}")).expect_err(&stmt);
            assert_eq!(explain.to_string(), train.to_string(), "{stmt}");
            let analyze = s.execute(&format!("EXPLAIN ANALYZE {stmt}"));
            assert_eq!(analyze.expect_err(&stmt).to_string(), train.to_string());
        }
        // …and what TRAIN accepts, EXPLAIN accepts.
        for tail in [
            "TRAIN BY svm WITH durable = 0, max_epoch_num = 1",
            "TRAIN BY svm CONTINUOUS WITH refresh = 2, max_epoch_num = 2",
            "TRAIN BY lr WITH l2 = 0.5, on_fault = 'skip', max_epoch_num = 1",
        ] {
            let stmt = format!("SELECT * FROM higgs {tail}");
            s.execute(&format!("EXPLAIN {stmt}")).expect(&stmt);
            s.execute(&stmt).expect(&stmt);
        }
    }

    #[test]
    fn explain_sizes_the_plan_over_the_rechunked_table() {
        let mut s = session(2000);
        let registered = s.catalog().table("higgs").unwrap();
        let rechunked = registered.rechunk(64 << 10).unwrap();
        assert!(rechunked.num_blocks() < registered.num_blocks());
        let base = "SELECT * FROM higgs TRAIN BY svm WITH strategy = 'corgipile', \
                    buffer_fraction = 0.5";
        let scan_and_buffer = |lines: &[String]| {
            let find = |key: &str| lines.iter().find(|l| l.contains(key)).cloned().unwrap();
            (find("Scan: random order over"), find("Buffer:"))
        };
        let (scan, buffer) = scan_and_buffer(&plan_lines(&mut s, &format!("EXPLAIN {base}")));
        assert!(scan.contains(&format!("over {} blocks", registered.num_blocks())));
        let half = |t: &corgipile_storage::Table| (t.num_blocks() as f64 * 0.5).round() as usize;
        assert!(buffer.contains(&format!("Buffer: {} source", half(&registered))));
        // With block_size the plan TRAIN would scan is the rechunked one.
        let sql = format!("EXPLAIN {base}, block_size = 64KB");
        let (scan, buffer) = scan_and_buffer(&plan_lines(&mut s, &sql));
        assert!(
            scan.contains(&format!("over {} blocks", rechunked.num_blocks())),
            "{scan}"
        );
        assert!(
            buffer.contains(&format!("Buffer: {} source", half(&rechunked))),
            "{buffer}"
        );
        // EXPLAIN ANALYZE of the same statement reads exactly that many
        // blocks per epoch.
        let lines = plan_lines(
            &mut s,
            &format!("EXPLAIN ANALYZE {base}, block_size = 64KB, max_epoch_num = 1"),
        );
        assert!(
            lines
                .iter()
                .any(|l| l.contains(&format!("blocks={}", rechunked.num_blocks()))),
            "{lines:?}"
        );
    }

    #[test]
    fn l2_regularizes_per_tuple_sgd_at_the_default_batch_size() {
        // `l2` used to be dropped whenever batch_size = 1: every per-tuple
        // branch called the bare step.
        let params = |with: &str| {
            let mut s = session(1200);
            s.execute(&format!(
                "SELECT * FROM higgs TRAIN BY lr WITH max_epoch_num = 3, seed = 5, \
                 strategy = 'corgipile', model_name = m{with}"
            ))
            .unwrap();
            s.catalog().model("m").unwrap().params.clone()
        };
        let norm = |w: &[f32]| w.iter().map(|p| p * p).sum::<f32>();
        let (plain, zero, reg) = (params(""), params(", l2 = 0"), params(", l2 = 0.5"));
        assert_eq!(plain, zero, "l2 = 0 skips the decay branch entirely");
        assert_ne!(plain, reg, "l2 must change the model");
        assert!(
            norm(&reg) < norm(&plain),
            "{} !< {}",
            norm(&reg),
            norm(&plain)
        );
        // The interpreted tree and the serial loop apply the same decay.
        assert_eq!(reg, params(", l2 = 0.5, fuse = 0, double_buffer = 0"));
    }
}
