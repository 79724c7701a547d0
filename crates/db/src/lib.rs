//! # corgipile-db
//!
//! The in-database CorgiPile integration (§6), rebuilt as a miniature
//! PostgreSQL-style engine:
//!
//! * [`exec`] — Volcano-style physical operators with
//!   `init`/`next`/`rescan`/`close`: the scan (`BlockShuffle` over its
//!   strategy's block orders — random block reads — and, for a strategy
//!   that ranks its fills, the `TupleShuffle` buffer with the §6.3
//!   double-buffering accounting), and the `SGD` operator that drives
//!   epochs through PostgreSQL's re-scan mechanism.
//! * [`sql`] — the SQL surface:
//!   `SELECT * FROM t TRAIN BY svm WITH learning_rate = 0.1, max_epoch_num
//!   = 20, block_size = 10MB` and `SELECT * FROM t PREDICT BY model`.
//! * [`catalog`] — tables and trained models.
//! * [`model_store`] — the WAL-backed durable model store: epoch-granular
//!   checkpoints under `WITH durable = 1`, compaction snapshots, and
//!   replay-based recovery to bit-identical models after a crash.
//! * [`serving`] — the read-mostly inference subsystem: a versioned
//!   [`ModelCache`] of immutable `Arc<ServableModel>` entries with
//!   epoch/version pinning and mid-traffic hot-reload, behind
//!   `PREDICT <model> [VERSION n] ON <table>` and
//!   [`Session::predict_batch`].
//! * [`database`] — the shared engine object: one device, one buffer pool
//!   (PostgreSQL's `shared_buffers`, sized when the engine is built), one
//!   catalog behind interior-synchronized handles; `Arc<Database>` +
//!   [`Database::connect`] opens concurrent sessions.
//! * [`session`] — a connection: parses, plans, executes, and stores
//!   results. `TRAIN` lives in its own module: one prepared statement
//!   (options, snapshot, strategy, logical plan) that `EXPLAIN`, plain
//!   `TRAIN` and `TRAIN … CONTINUOUS` all consume through one run function.
//! * [`baselines`] — MADlib- and Bismarck-style UDA trainer emulations
//!   (Shuffle-Once / No-Shuffle variants with their measured compute
//!   characteristics), the comparison systems of Figures 1, 11 and 13.

#![forbid(unsafe_code)]

pub mod baselines;
pub mod catalog;
pub mod database;
pub mod error;
pub mod exec;
pub mod model_store;
pub mod options;
pub mod plan;
mod proptests;
pub mod serving;
pub mod session;
pub mod sql;
mod train;

pub use baselines::{system_trainer_config, InDbSystem};
pub use catalog::{AppendOutcome, Catalog, StoredModel};
pub use corgipile_storage::{TableSnapshot, Telemetry, TelemetrySnapshot};
pub use database::Database;
pub use error::DbError;
pub use exec::{
    scan_rows, CheckpointSink, DbEpochRecord, ExecContext, FaultAction, OpStats, PredictOperator,
    PredictRunResult, RowBatch, RowRef, SgdOperator, SgdRunResult,
};
pub use model_store::{ModelRecord, ModelStore, ModelStoreOptions, ModelStoreStats};
pub use options::{
    effective_line, known_keys, OptionSpec, OptionType, QueryOptions, Statement, OPTIONS,
};
pub use plan::{build_physical_with, LogicalPlan, PhysicalPlan, PredictPlanSpec, TrainPlanSpec};
pub use serving::{CacheStats, ModelCache, ServableModel};
pub use session::{DbTrainSummary, PredictSummary, QueryResult, ServeOptions, Session};
pub use sql::{
    parse, parse_strategy_name, CmpOp, ColumnRef, InsertRows, ParamValue, Predicate, Projection,
    Query, ShowTarget, StrategyKind,
};
