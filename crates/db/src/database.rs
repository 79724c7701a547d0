//! The shared database engine.
//!
//! The paper's system is a PostgreSQL extension: one postmaster owns the
//! storage device, `shared_buffers` and the catalog, and every client
//! backend works through handles onto that shared state. [`Database`] is
//! that engine object. It is handed around as an `Arc<Database>`; each
//! [`Database::connect`] call opens a lightweight [`Session`] that holds
//! per-connection [`corgipile_storage::DeviceHandle`] / [`corgipile_storage::PoolHandle`] views, so multiple
//! sessions can run `TRAIN` / `PREDICT` / `EXPLAIN` concurrently from
//! separate threads while sharing cached blocks:
//!
//! ```
//! use corgipile_db::Database;
//! use corgipile_storage::SimDevice;
//!
//! let db = Database::with_shared_buffers(SimDevice::hdd_scaled(1000.0, 0), 64 << 20);
//! let conn_a = db.connect();
//! let conn_b = db.connect();
//! # let _ = (conn_a, conn_b);
//! ```
//!
//! Determinism: a trained model depends only on the tuple stream order
//! (table contents + RNG seeds), never on device timing or cache residency,
//! so a session sharing the engine with others trains models bit-identical
//! to the same queries run serially on a private engine.

use crate::catalog::Catalog;
use crate::error::DbError;
use crate::model_store::{ModelStore, ModelStoreOptions};
use crate::serving::{ModelCache, ServableModel};
use crate::session::Session;
use corgipile_storage::{
    BufferPoolStats, ComputeCostModel, IoStats, SharedBufferPool, SharedDevice, SimDevice, Table,
    Telemetry,
};
use std::path::Path;
use std::sync::Arc;

/// The engine: one simulated device, one `shared_buffers` pool, one
/// catalog, and the engine-wide telemetry registry, all behind
/// interior-synchronized handles so `&Database` is enough for every
/// operation.
pub struct Database {
    device: SharedDevice,
    pool: SharedBufferPool,
    catalog: Catalog,
    telemetry: Telemetry,
    compute: ComputeCostModel,
    model_store: Option<Arc<ModelStore>>,
    model_cache: ModelCache,
}

impl Database {
    /// An engine over `dev` without a buffer pool: every block read goes to
    /// the device (and its OS page cache).
    pub fn new(dev: SimDevice) -> Arc<Self> {
        Database::with_shared_buffers(dev, 0)
    }

    /// An engine over `dev` with a `shared_buffers` pool of
    /// `pool_capacity_bytes`, shared by every connection: blocks one
    /// session faulted in are served to the others at zero device cost.
    /// As in PostgreSQL it is a server setting — no statement brings its
    /// own. Random block reads go through it; sequential scans bypass it.
    pub fn with_shared_buffers(dev: SimDevice, pool_capacity_bytes: usize) -> Arc<Self> {
        Database::assemble(dev, pool_capacity_bytes, None)
    }

    /// An engine with a WAL-backed durable model store at `dir`.
    ///
    /// Opening **is** recovery: the store's snapshot and write-ahead log
    /// are replayed (torn tails truncated, later `(version, epoch)` pairs
    /// winning) and the latest valid version of every model is registered
    /// in the catalog, immediately visible to `PREDICT BY` and resumable
    /// by `WITH durable = 1` training. Recovery facts are published on the
    /// engine telemetry as `storage.wal.recovered_records`,
    /// `storage.wal.torn_tail_bytes` and `storage.wal.snapshot_models`.
    pub fn with_model_store(
        dev: SimDevice,
        pool_capacity_bytes: usize,
        dir: &Path,
    ) -> Result<Arc<Self>, DbError> {
        Database::with_model_store_opts(dev, pool_capacity_bytes, dir, ModelStoreOptions::default())
    }

    /// [`Database::with_model_store`] with explicit store options
    /// (compaction threshold, retry policy, write-fault plan — the crash
    /// matrix opens engines through here).
    pub fn with_model_store_opts(
        dev: SimDevice,
        pool_capacity_bytes: usize,
        dir: &Path,
        opts: ModelStoreOptions,
    ) -> Result<Arc<Self>, DbError> {
        let store = Arc::new(ModelStore::open_with(dir, opts)?);
        let db = Database::assemble(dev, pool_capacity_bytes, Some(store.clone()));
        // Durable engines also journal table appends: each table gets a
        // `CORGIWL1` WAL at `<dir>/tables/<name>.wal`, replayed when the
        // table is re-registered after a restart (see
        // `Catalog::recover_table_wal`).
        db.catalog.set_table_wal_dir(dir.join("tables"));
        // Recovery registration: the latest durable version of every model
        // becomes the catalog object, exactly as if its training query had
        // just stored it — and the serving cache's active version, so
        // `PREDICT` traffic survives an engine restart warm.
        for rec in store.models() {
            db.catalog.store_model(&rec.name, rec.stored.clone());
            db.model_cache
                .publish(ServableModel::new(&rec.name, rec.version, rec.stored), true);
        }
        let s = store.stats();
        let tel = &db.telemetry;
        tel.counter("storage.wal.recovered_records")
            .add(s.recovered_records);
        tel.counter("storage.wal.torn_tail_bytes")
            .add(s.torn_tail_bytes);
        tel.counter("storage.wal.snapshot_models")
            .add(s.snapshot_models);
        Ok(db)
    }

    fn assemble(
        mut dev: SimDevice,
        pool_capacity_bytes: usize,
        model_store: Option<Arc<ModelStore>>,
    ) -> Arc<Self> {
        let telemetry = Telemetry::enabled();
        // The engine registry is the device's *resting* telemetry: it
        // receives mirrors for access made outside any session handle,
        // while handle-scoped access mirrors into the owning session.
        dev.set_telemetry(telemetry.clone());
        let pool = SharedBufferPool::new(pool_capacity_bytes);
        pool.set_telemetry(&telemetry);
        Arc::new(Database {
            device: SharedDevice::new(dev),
            pool,
            catalog: Catalog::new(),
            telemetry,
            compute: ComputeCostModel::in_db_core(),
            model_store,
            model_cache: ModelCache::new(),
        })
    }

    /// Open a connection. Sessions are cheap: a pair of handles plus a
    /// fresh per-session telemetry scope.
    pub fn connect(self: &Arc<Self>) -> Session {
        Session::over(Arc::clone(self))
    }

    /// The shared catalog (interior-synchronized: registration and lookup
    /// take `&self`).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Register a table under `name`, visible to every connection.
    pub fn register_table(&self, name: impl Into<String>, table: Table) {
        self.catalog.register_table(name, table);
    }

    /// The engine-wide telemetry registry (session-scoped emissions land in
    /// each session's own registry instead; see [`Session::telemetry`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Engine-wide device statistics (all connections combined).
    pub fn device_stats(&self) -> IoStats {
        self.device.stats()
    }

    /// Engine-wide `shared_buffers` statistics (all connections combined).
    pub fn pool_stats(&self) -> BufferPoolStats {
        self.pool.stats()
    }

    /// Capacity of the shared buffer pool in bytes (0 = none).
    pub fn shared_buffers(&self) -> usize {
        self.pool.capacity()
    }

    /// The durable model store, when the engine was opened with one
    /// ([`Database::with_model_store`]); `WITH durable = 1` requires it.
    pub fn model_store(&self) -> Option<&Arc<ModelStore>> {
        self.model_store.as_ref()
    }

    /// The serving subsystem's versioned model cache (see
    /// [`crate::serving`]): immutable `Arc<ServableModel>` entries that
    /// `PREDICT` batches pin while training hot-reloads new versions.
    pub fn model_cache(&self) -> &ModelCache {
        &self.model_cache
    }

    /// The engine's compute cost model.
    pub(crate) fn compute(&self) -> ComputeCostModel {
        self.compute
    }

    /// The shared device (for handing out connection handles).
    pub(crate) fn device(&self) -> &SharedDevice {
        &self.device
    }

    /// The shared buffer pool (for handing out connection handles).
    pub(crate) fn pool(&self) -> &SharedBufferPool {
        &self.pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corgipile_data::{DatasetSpec, Order};

    #[test]
    fn engine_state_is_shared_across_connections() {
        let db = Database::new(SimDevice::in_memory());
        let table = DatasetSpec::higgs_like(200).build_table(1).unwrap();
        db.register_table("t", table);
        let mut a = db.connect();
        let mut b = db.connect();
        a.execute("SELECT * FROM t TRAIN BY svm WITH max_epoch_num = 1, model_name = m")
            .unwrap();
        // The model trained on connection A is visible to connection B.
        let r = b.execute("SELECT * FROM t PREDICT BY m").unwrap();
        assert!(matches!(r, crate::QueryResult::Predict { .. }));
        assert!(db.catalog().model("m").is_ok());
    }

    #[test]
    fn engine_device_stats_aggregate_over_sessions() {
        let db = Database::new(SimDevice::hdd_scaled(1000.0, 0));
        let table = DatasetSpec::higgs_like(400)
            .with_order(Order::ClusteredByLabel)
            .with_block_bytes(8192)
            .build_table(1)
            .unwrap();
        db.register_table("t", table);
        let mut a = db.connect();
        let mut b = db.connect();
        a.execute("SELECT * FROM t TRAIN BY svm WITH max_epoch_num = 1")
            .unwrap();
        b.execute("SELECT * FROM t TRAIN BY svm WITH max_epoch_num = 1")
            .unwrap();
        let a_bytes = a.device().stats().device_bytes;
        let b_bytes = b.device().stats().device_bytes;
        assert!(a_bytes > 0 && b_bytes > 0);
        assert_eq!(db.device_stats().device_bytes, a_bytes + b_bytes);
    }
}
