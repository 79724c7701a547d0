//! Catalog: tables, trained models, and the per-table snapshot chain.
//!
//! The paper stores the learned model "as an in-memory object (a C-style
//! struct) with an ID in the PostgreSQL kernel" (§6.1); [`StoredModel`] is
//! that object, addressable by name from `PREDICT BY` queries.
//!
//! Tables are *versioned*: a name maps to a monotonically increasing chain
//! of immutable snapshots. `INSERT` appends rows through a WAL-backed
//! [`AppendableTable`] writer and publishes a new snapshot version (with a
//! fresh `table_id`, so block caches keyed by `(table_id, block)` never
//! alias across versions); scans pin whatever snapshot was current at
//! plan-build time and are therefore bit-reproducible under concurrent
//! writers. Re-registering a name (`RECLUSTER`, test setup) also bumps the
//! version. Both paths invalidate the cached ĥ_D, and appends replace it
//! with the writer's incremental per-block estimate.
//!
//! The catalog is interior-synchronized (every method takes `&self`), so
//! one `Catalog` can be shared by all sessions of a
//! [`crate::database::Database`]: a model stored by one connection is
//! immediately visible to `PREDICT BY` on every other.

use crate::error::DbError;
use corgipile_ml::{build_model, Model, ModelKind};
use corgipile_storage::{
    atomic_write_bytes, put_frame, read_frames, AppendableTable, FaultInjector, FaultPlan,
    FieldReader, StorageError, Table, TableSnapshot, Tuple, TupleView,
};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, RwLock};

fn read<T>(l: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn write<T>(l: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub(crate) fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Saved model file magic: one [`RT_MODEL_BLOB`] frame follows it.
const MODEL_FILE_MAGIC: &[u8; 8] = b"CORGIMF1";
/// A saved model file's one record: the [`StoredModel::to_bytes`] blob.
const RT_MODEL_BLOB: u8 = 1;

/// A trained model registered in the catalog.
#[derive(Debug, Clone)]
pub struct StoredModel {
    /// Model kind.
    pub kind: ModelKind,
    /// Input dimensionality.
    pub dim: usize,
    /// Flat parameters.
    pub params: Vec<f32>,
    /// Final training loss (bookkeeping for reports).
    pub train_loss: f64,
}

impl StoredModel {
    /// Rehydrate the model object.
    pub fn instantiate(&self) -> Box<dyn Model> {
        let mut m = build_model(&self.kind, self.dim, 0);
        m.params_mut().copy_from_slice(&self.params);
        m
    }

    /// Serialize to a compact binary blob (magic-tagged, versioned).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + 4 * self.params.len());
        out.extend_from_slice(b"CORGIMD1");
        // Kind tag + kind-specific shape.
        match &self.kind {
            ModelKind::LogisticRegression => out.push(0),
            ModelKind::Svm => out.push(1),
            ModelKind::LinearRegression => out.push(2),
            ModelKind::Softmax { classes } => {
                out.push(3);
                out.extend_from_slice(&(*classes as u32).to_le_bytes());
            }
            ModelKind::Mlp { hidden, classes } => {
                out.push(4);
                out.extend_from_slice(&(*classes as u32).to_le_bytes());
                out.extend_from_slice(&(hidden.len() as u32).to_le_bytes());
                for h in hidden {
                    out.extend_from_slice(&(*h as u32).to_le_bytes());
                }
            }
        }
        out.extend_from_slice(&(self.dim as u64).to_le_bytes());
        out.extend_from_slice(&self.train_loss.to_le_bytes());
        out.extend_from_slice(&(self.params.len() as u64).to_le_bytes());
        for p in &self.params {
            out.extend_from_slice(&p.to_le_bytes());
        }
        out
    }

    /// Deserialize a blob written by [`StoredModel::to_bytes`]. The
    /// declared shape is checked against the declared parameter count, and
    /// every count against the bytes actually present, before anything is
    /// sized by it. Every decode failure is [`StorageError::Corrupt`],
    /// whichever byte was damaged.
    pub fn from_bytes(bytes: &[u8]) -> Result<StoredModel, DbError> {
        let corrupt = |m: &str| DbError::Storage(StorageError::Corrupt(format!("model blob: {m}")));
        let mut r = FieldReader::new(bytes, "model blob");
        if r.take(8)? != b"CORGIMD1" {
            return Err(corrupt("bad magic"));
        }
        let kind = match r.u8()? {
            0 => ModelKind::LogisticRegression,
            1 => ModelKind::Svm,
            2 => ModelKind::LinearRegression,
            3 => ModelKind::Softmax {
                classes: r.u32()? as usize,
            },
            4 => {
                let classes = r.u32()? as usize;
                let layers = r.u32()? as usize;
                let hidden = (0..layers)
                    .map(|_| Ok(r.u32()? as usize))
                    .collect::<Result<_, DbError>>()?;
                ModelKind::Mlp { hidden, classes }
            }
            other => return Err(corrupt(&format!("unknown kind tag {other}"))),
        };
        let dim = r.u64()? as usize;
        let train_loss = r.f64()?;
        let nparams = r.u64()? as usize;
        // Consistency: the parameter vector must fit the declared shape
        // (instantiate() assumes a matching length).
        if kind.num_params(dim) != Some(nparams) {
            return Err(corrupt("parameter count does not match model shape"));
        }
        let params = r.f32s(nparams)?;
        r.finish()?;
        Ok(StoredModel {
            kind,
            dim,
            params,
            train_loss,
        })
    }

    /// Atomically write the blob, framed, to a model file (temp sibling +
    /// rename — a crash mid-save leaves the previous model intact).
    pub fn save(&self, path: &std::path::Path) -> Result<(), DbError> {
        let mut file = MODEL_FILE_MAGIC.to_vec();
        put_frame(&mut file, RT_MODEL_BLOB, &self.to_bytes());
        atomic_write_bytes(path, &file)
            .map_err(|e| DbError::BadParam(format!("cannot write model: {e}")))
    }

    /// Read a file written by [`StoredModel::save`]: one intact frame.
    pub fn load(path: &std::path::Path) -> Result<StoredModel, DbError> {
        let bytes = std::fs::read(path)
            .map_err(|e| DbError::BadParam(format!("cannot read model: {e}")))?;
        match read_frames(MODEL_FILE_MAGIC, &bytes, "model file")?[..] {
            [f] if f.rtype == RT_MODEL_BLOB => Self::from_bytes(f.payload),
            _ => Err(StorageError::Corrupt("model file: not one model frame".into()).into()),
        }
    }
}

/// A cached block-variance estimate (ĥ_D), valid for one registered
/// version of a table: re-registering the name invalidates it, and a
/// stale `table_id` never matches.
#[derive(Debug, Clone, Copy)]
pub struct CachedBlockVariance {
    /// The table id the estimate was computed for.
    pub table_id: u32,
    /// The normalized block-variance estimate ĥ_D in `[0, 1]`.
    pub hd: f64,
}

/// How many snapshot versions of a table the catalog retains. Pinned
/// [`TableSnapshot`]s stay alive regardless (they hold `Arc<Table>`); the
/// retained chain only powers [`Catalog::snapshot_at`] reach-back.
const RETAINED_VERSIONS: usize = 8;

/// One name's entry in the versioned table chain.
struct TableEntry {
    /// The current snapshot.
    snapshot: Arc<Table>,
    /// Monotonic version, starting at 1 on first registration.
    version: u64,
    /// Recent `(version, snapshot)` pairs, oldest first, current last.
    retained: Vec<(u64, Arc<Table>)>,
}

impl TableEntry {
    /// Install `snapshot` as the next version and return that version.
    fn publish(&mut self, snapshot: Arc<Table>) -> u64 {
        self.version += 1;
        self.snapshot = snapshot.clone();
        self.retained.push((self.version, snapshot));
        if self.retained.len() > RETAINED_VERSIONS {
            let excess = self.retained.len() - RETAINED_VERSIONS;
            self.retained.drain(..excess);
        }
        self.version
    }
}

/// What an `INSERT` (or WAL recovery) did to a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendOutcome {
    /// The snapshot version the append published.
    pub version: u64,
    /// Rows appended by this statement.
    pub rows: u64,
    /// Rows replayed from the table WAL when this statement had to open
    /// the writer (0 once a writer is warm).
    pub recovered: u64,
    /// Total tuples in the published snapshot.
    pub total_tuples: u64,
}

/// The database catalog. Interior-synchronized: shared by every session
/// of an engine through `&self`.
///
/// Lock order (when several are held): `writers` → `tables` → `stats`.
#[derive(Default)]
pub struct Catalog {
    tables: RwLock<HashMap<String, TableEntry>>,
    writers: Mutex<HashMap<String, AppendableTable>>,
    models: RwLock<HashMap<String, StoredModel>>,
    stats: RwLock<HashMap<String, CachedBlockVariance>>,
    next_table_id: AtomicU32,
    table_wal_dir: RwLock<Option<PathBuf>>,
    append_faults: Mutex<Option<FaultInjector>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a table under its config name, returning the shared handle.
    ///
    /// A first registration starts the name's chain at version 1;
    /// re-registering (as `RECLUSTER` does with the shuffled copy) bumps
    /// the version, invalidates any cached statistics, and discards any
    /// buffered append writer — the writer extended the *previous*
    /// physical table and must re-open against the new one.
    pub fn register_table(&self, name: impl Into<String>, table: Table) -> Arc<Table> {
        let name = name.into();
        let handle = Arc::new(table);
        lock(&self.writers).remove(&name);
        let mut tables = write(&self.tables);
        write(&self.stats).remove(&name);
        tables
            .entry(name)
            .or_insert_with(|| TableEntry {
                snapshot: handle.clone(),
                version: 0,
                retained: Vec::new(),
            })
            .publish(handle.clone());
        handle
    }

    /// Look a table up (the current snapshot's handle).
    pub fn table(&self, name: &str) -> Result<Arc<Table>, DbError> {
        read(&self.tables)
            .get(name)
            .map(|e| e.snapshot.clone())
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// The current versioned snapshot of `name` — what a scan pins at
    /// plan-build time.
    pub fn snapshot(&self, name: &str) -> Result<TableSnapshot, DbError> {
        read(&self.tables)
            .get(name)
            .map(|e| TableSnapshot::new(e.version, e.snapshot.clone()))
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// The current version of `name`'s snapshot chain.
    pub fn table_version(&self, name: &str) -> Result<u64, DbError> {
        read(&self.tables)
            .get(name)
            .map(|e| e.version)
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// Reach back to a retained snapshot version (the last
    /// `RETAINED_VERSIONS` are kept). Lets a test or audit re-run a
    /// pinned-snapshot train cold and compare bit-for-bit.
    pub fn snapshot_at(&self, name: &str, version: u64) -> Result<TableSnapshot, DbError> {
        let tables = read(&self.tables);
        let e = tables
            .get(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))?;
        e.retained
            .iter()
            .find(|(v, _)| *v == version)
            .map(|(v, t)| TableSnapshot::new(*v, t.clone()))
            .ok_or_else(|| {
                DbError::BadParam(format!(
                    "table {name} does not retain snapshot v{version} (current is v{})",
                    e.version
                ))
            })
    }

    /// Registered table names.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = read(&self.tables).keys().cloned().collect();
        names.sort();
        names
    }

    /// One status line per table (sorted by name):
    /// `<name> v<version> blocks=<n> tuples=<n>` — the `SHOW TABLES` shape.
    pub fn table_status(&self) -> Vec<String> {
        let tables = read(&self.tables);
        let mut rows: Vec<String> = tables
            .iter()
            .map(|(name, e)| {
                format!(
                    "{name} v{} blocks={} tuples={}",
                    e.version,
                    e.snapshot.num_blocks(),
                    e.snapshot.num_tuples()
                )
            })
            .collect();
        rows.sort();
        rows
    }

    /// Direct table WALs at `<dir>/<name>.wal`. Without a directory the
    /// append path still works, but in memory only (no crash durability).
    pub fn set_table_wal_dir(&self, dir: impl Into<PathBuf>) {
        *write(&self.table_wal_dir) = Some(dir.into());
    }

    /// Arm fault injection for the table append path (crash points, torn
    /// writes, retryable failures at `table.*` and `wal.*` sites).
    pub fn set_append_faults(&self, plan: FaultPlan) {
        *lock(&self.append_faults) = Some(FaultInjector::new(plan));
    }

    /// [`Catalog::append`] over owned tuples (their ids ignored).
    pub fn append_rows(&self, name: &str, rows: Vec<Tuple>) -> Result<AppendOutcome, DbError> {
        self.append(name, rows.iter().map(Tuple::view))
    }

    /// Append `rows` (read in place) to `name`; publish a new snapshot version.
    ///
    /// The statement is journaled as one fsynced WAL frame before any
    /// in-memory state changes, so an acked append survives a crash; on
    /// error the writer is discarded (next append re-opens it from the WAL,
    /// exactly as a crashed backend would). Publishing bumps the version,
    /// assigns a fresh `table_id`, drops the stale cached ĥ_D and installs
    /// the writer's incremental per-block estimate in its place.
    pub fn append<'a>(
        &self,
        name: &str,
        rows: impl ExactSizeIterator<Item = TupleView<'a>> + Clone,
    ) -> Result<AppendOutcome, DbError> {
        let mut writers = lock(&self.writers);
        let recovered = self.ensure_writer(&mut writers, name)?;
        let writer = writers.get_mut(name).expect("writer just ensured");
        let n = rows.len() as u64;
        {
            let mut faults = lock(&self.append_faults);
            if let Err(e) = writer.append(rows, faults.as_mut()) {
                writers.remove(name);
                return Err(e.into());
            }
        }
        let version = self.publish_if_changed(name, writer)?;
        Ok(AppendOutcome {
            version,
            rows: n,
            recovered,
            total_tuples: writer.num_tuples(),
        })
    }

    /// Replay any table WAL for `name` without appending anything: opens
    /// the writer (recovering acked-but-unpublished rows) and publishes a
    /// new snapshot version if recovery found rows the current snapshot
    /// lacks. Returns the number of rows the writer replayed. Idempotent.
    pub fn recover_table_wal(&self, name: &str) -> Result<u64, DbError> {
        let mut writers = lock(&self.writers);
        self.ensure_writer(&mut writers, name)?;
        let writer = writers.get(name).expect("writer just ensured");
        let recovered = writer.replayed_rows();
        self.publish_if_changed(name, writer)?;
        Ok(recovered)
    }

    /// Open the append writer for `name` if it is not already open,
    /// replaying its WAL (if one exists). Returns the rows replayed by a
    /// fresh open, 0 for an already-warm writer.
    fn ensure_writer(
        &self,
        writers: &mut HashMap<String, AppendableTable>,
        name: &str,
    ) -> Result<u64, DbError> {
        if writers.contains_key(name) {
            return Ok(0);
        }
        let base = self.table(name)?;
        let writer = match read(&self.table_wal_dir).as_ref() {
            Some(dir) => AppendableTable::open(&base, &dir.join(format!("{name}.wal")))?,
            None => AppendableTable::open_in_memory(&base),
        };
        let recovered = writer.replayed_rows();
        writers.insert(name.to_string(), writer);
        Ok(recovered)
    }

    /// Publish `writer`'s contents as the next snapshot version of `name`
    /// when it holds rows the current snapshot lacks; otherwise return the
    /// current version unchanged. Fresh `table_id` per publish so block
    /// caches keyed `(table_id, block)` never serve a stale version.
    fn publish_if_changed(&self, name: &str, writer: &AppendableTable) -> Result<u64, DbError> {
        let published = self.table(name)?.num_tuples();
        if writer.num_tuples() <= published {
            return self.table_version(name);
        }
        let new_id = self.fresh_table_id();
        let table = Arc::new(writer.snapshot_table(new_id));
        let hd = writer.hd_estimate();
        let mut tables = write(&self.tables);
        let e = tables
            .get_mut(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))?;
        let version = e.publish(table);
        let mut stats = write(&self.stats);
        stats.remove(name);
        if let Some(hd) = hd {
            stats.insert(
                name.to_string(),
                CachedBlockVariance {
                    table_id: new_id,
                    hd,
                },
            );
        }
        Ok(version)
    }

    /// A fresh table id for derived tables (shuffled copies), unique
    /// across all sessions.
    pub fn fresh_table_id(&self) -> u32 {
        0x4000_0000 + self.next_table_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The cached ĥ_D for `name`, if one was computed for exactly this
    /// `table_id` (the per-table-version validity check).
    pub fn cached_block_variance(&self, name: &str, table_id: u32) -> Option<f64> {
        read(&self.stats)
            .get(name)
            .filter(|c| c.table_id == table_id)
            .map(|c| c.hd)
    }

    /// Cache a freshly computed ĥ_D for this version of `name`.
    pub fn cache_block_variance(&self, name: impl Into<String>, table_id: u32, hd: f64) {
        write(&self.stats).insert(name.into(), CachedBlockVariance { table_id, hd });
    }

    /// Store a trained model under a name.
    pub fn store_model(&self, name: impl Into<String>, model: StoredModel) {
        write(&self.models).insert(name.into(), model);
    }

    /// Look a model up (an owned snapshot; the catalog entry may be
    /// replaced concurrently by another session re-training the name).
    pub fn model(&self, name: &str) -> Result<StoredModel, DbError> {
        read(&self.models)
            .get(name)
            .cloned()
            .ok_or_else(|| DbError::UnknownModel(name.to_string()))
    }

    /// Registered model names.
    pub fn model_names(&self) -> Vec<String> {
        let mut names: Vec<String> = read(&self.models).keys().cloned().collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corgipile_data::DatasetSpec;
    use corgipile_storage::{FeatureVec, StorageError};

    #[test]
    fn register_and_lookup_tables() {
        let c = Catalog::new();
        let t = DatasetSpec::higgs_like(50).build_table(1).unwrap();
        c.register_table("higgs", t);
        assert!(c.table("higgs").is_ok());
        assert!(matches!(c.table("nope"), Err(DbError::UnknownTable(_))));
        assert_eq!(c.table_names(), vec!["higgs"]);
    }

    #[test]
    fn store_and_rehydrate_model() {
        let c = Catalog::new();
        let stored = StoredModel {
            kind: ModelKind::LogisticRegression,
            dim: 2,
            params: vec![1.0, -2.0, 0.5],
            train_loss: 0.3,
        };
        c.store_model("m", stored);
        let m = c.model("m").unwrap().instantiate();
        assert_eq!(m.params(), &[1.0, -2.0, 0.5]);
        // Rehydrated model predicts with the stored weights.
        let x = FeatureVec::Dense(vec![1.0, 0.0]);
        assert_eq!(m.predict_label(x.view()), 1.0);
        assert!(matches!(c.model("missing"), Err(DbError::UnknownModel(_))));
        assert_eq!(c.model_names(), vec!["m"]);
    }

    #[test]
    fn model_blob_roundtrips_all_kinds() {
        let kinds = vec![
            (ModelKind::LogisticRegression, 4usize),
            (ModelKind::Svm, 4),
            (ModelKind::LinearRegression, 4),
            (ModelKind::Softmax { classes: 3 }, 4),
            (
                ModelKind::Mlp {
                    hidden: vec![5, 3],
                    classes: 2,
                },
                4,
            ),
        ];
        for (kind, dim) in kinds {
            let m = build_model(&kind, dim, 1);
            let stored = StoredModel {
                kind: kind.clone(),
                dim,
                params: m.params().to_vec(),
                train_loss: 0.42,
            };
            let back = StoredModel::from_bytes(&stored.to_bytes()).unwrap();
            assert_eq!(back.kind, kind);
            assert_eq!(back.dim, dim);
            assert_eq!(back.params, stored.params);
            assert_eq!(back.train_loss, 0.42);
        }
    }

    #[test]
    fn model_blob_rejects_garbage() {
        // Every decode failure is the same typed error, whichever byte broke.
        let corrupt = |r: Result<StoredModel, DbError>| {
            matches!(r, Err(DbError::Storage(StorageError::Corrupt(_))))
        };
        assert!(corrupt(StoredModel::from_bytes(b"")));
        assert!(corrupt(StoredModel::from_bytes(b"WRONGMAG123")));
        let good = StoredModel {
            kind: ModelKind::Svm,
            dim: 3,
            params: vec![0.0; 4],
            train_loss: 0.0,
        }
        .to_bytes();
        assert!(corrupt(StoredModel::from_bytes(&good[..good.len() - 2])));
        // Shape mismatch: claim Svm(dim 3) but ship 2 params.
        let bad = StoredModel {
            kind: ModelKind::Svm,
            dim: 3,
            params: vec![0.0; 2],
            train_loss: 0.0,
        }
        .to_bytes();
        assert!(corrupt(StoredModel::from_bytes(&bad)));

        // Hostile lengths. Layout of a linear blob: magic 8, tag 1, dim u64
        // at 9, train_loss at 17, nparams u64 at 25, params from 33.
        let with = |dim: u64, nparams: u64| {
            let mut b = good.clone();
            b[9..17].copy_from_slice(&dim.to_le_bytes());
            b[25..33].copy_from_slice(&nparams.to_le_bytes());
            StoredModel::from_bytes(&b)
        };
        // A self-consistent 2^28-parameter shape over 16 bytes of params:
        // refused from the bytes present, nothing reserved for the claim.
        assert!(corrupt(with((1 << 28) - 1, 1 << 28)));
        // `dim` is a length too: the shape check must not build a 2^60-wide
        // model to count its parameters.
        assert!(corrupt(with(1 << 60, 4)));
        assert!(corrupt(with(u64::MAX, 0)));
        // Shapes `build_model` asserts on are errors, not panics.
        let mut softmax0 = b"CORGIMD1\x03".to_vec();
        softmax0.extend_from_slice(&0u32.to_le_bytes());
        softmax0.extend_from_slice(&good[9..33]);
        assert!(corrupt(StoredModel::from_bytes(&softmax0)));
        // An unknown kind tag.
        let mut tag9 = good.clone();
        tag9[8] = 9;
        assert!(corrupt(StoredModel::from_bytes(&tag9)));
    }

    #[test]
    fn model_file_roundtrip() {
        let path = std::env::temp_dir().join(format!("corgi_model_{}.bin", std::process::id()));
        let stored = StoredModel {
            kind: ModelKind::Softmax { classes: 4 },
            dim: 6,
            params: build_model(&ModelKind::Softmax { classes: 4 }, 6, 2)
                .params()
                .to_vec(),
            train_loss: 1.5,
        };
        stored.save(&path).unwrap();
        let back = StoredModel::load(&path).unwrap();
        assert_eq!(back.kind, stored.kind);
        assert_eq!(back.params, stored.params);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn every_single_bit_flip_of_a_saved_model_file_fails_to_load() {
        let path =
            std::env::temp_dir().join(format!("corgi_model_flip_{}.bin", std::process::id()));
        let stored = StoredModel {
            kind: ModelKind::LogisticRegression,
            dim: 4,
            params: vec![0.25, -1.0, 3.5, 0.0, 1.0],
            train_loss: 0.5,
        };
        stored.save(&path).unwrap();
        let good = std::fs::read(&path).unwrap();
        for bit in 0..good.len() * 8 {
            let mut bad = good.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            std::fs::write(&path, &bad).unwrap();
            assert!(StoredModel::load(&path).is_err(), "bit {bit} undetected");
        }
        // A retired bare blob is refused by its magic; so is a file cut at
        // its frame's start or padded past its end.
        for bytes in [
            stored.to_bytes(),
            good[..8].to_vec(),
            [&good[..], &[0]].concat(),
        ] {
            std::fs::write(&path, &bytes).unwrap();
            assert!(matches!(
                StoredModel::load(&path),
                Err(DbError::Storage(StorageError::Corrupt(_)))
            ));
        }
        std::fs::write(&path, stored.to_bytes()).unwrap();
        assert!(
            matches!(StoredModel::load(&path), Err(DbError::Storage(StorageError::Corrupt(m))) if m.contains("CORGIMD1"))
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn block_variance_cache_is_invalidated_by_reregistration() {
        let c = Catalog::new();
        let t = DatasetSpec::higgs_like(50).build_table(1).unwrap();
        let tid = t.config().table_id;
        c.register_table("higgs", t);
        assert_eq!(c.cached_block_variance("higgs", tid), None);
        c.cache_block_variance("higgs", tid, 0.7);
        assert_eq!(c.cached_block_variance("higgs", tid), Some(0.7));
        // A different table id never matches the cached entry.
        assert_eq!(c.cached_block_variance("higgs", tid + 1), None);
        // Re-registering the name drops the entry.
        let t2 = DatasetSpec::higgs_like(60).build_table(1).unwrap();
        c.register_table("higgs", t2);
        assert_eq!(c.cached_block_variance("higgs", tid), None);
    }

    fn probe_rows(n: usize) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                Tuple::dense(
                    0,
                    [i as f32, -(i as f32)].repeat(14),
                    if i % 2 == 0 { 1.0 } else { -1.0 },
                )
            })
            .collect()
    }

    #[test]
    fn append_rows_bumps_versions_and_pins_snapshots() {
        let c = Catalog::new();
        let t = DatasetSpec::higgs_like(50).build_table(1).unwrap();
        c.register_table("t", t);
        assert_eq!(c.table_version("t").unwrap(), 1);
        let pinned = c.snapshot("t").unwrap();
        let out = c.append_rows("t", probe_rows(3)).unwrap();
        assert_eq!(
            out,
            AppendOutcome {
                version: 2,
                rows: 3,
                recovered: 0,
                total_tuples: 53
            }
        );
        // The pinned snapshot is immutable: it still sees the old contents…
        assert_eq!(pinned.version(), 1);
        assert_eq!(pinned.table().num_tuples(), 50);
        // …while the latest snapshot sees the appended rows under a fresh
        // table id (block caches must never alias across versions).
        let latest = c.snapshot("t").unwrap();
        assert_eq!(latest.version(), 2);
        assert_eq!(latest.num_tuples(), 53);
        assert_ne!(
            latest.config().table_id,
            pinned.config().table_id,
            "published snapshot must get a fresh table id"
        );
        // snapshot_at reaches back through the retained chain.
        assert_eq!(c.snapshot_at("t", 1).unwrap().num_tuples(), 50);
        assert_eq!(c.snapshot_at("t", 2).unwrap().num_tuples(), 53);
        assert!(c.snapshot_at("t", 3).is_err());
        assert!(matches!(c.snapshot("nope"), Err(DbError::UnknownTable(_))));
    }

    #[test]
    fn append_invalidates_cached_hd_and_installs_writer_estimate() {
        let c = Catalog::new();
        // One-page blocks: ĥ_D needs at least two blocks to compare.
        let t = DatasetSpec::higgs_like(500)
            .with_block_bytes(8192)
            .build_table(1)
            .unwrap();
        assert!(t.num_blocks() >= 2);
        let tid = t.config().table_id;
        c.register_table("t", t);
        c.cache_block_variance("t", tid, 0.7);
        assert_eq!(c.cached_block_variance("t", tid), Some(0.7));
        c.append_rows("t", probe_rows(4)).unwrap();
        // The sampled estimate for the old version no longer applies…
        assert_eq!(c.cached_block_variance("t", tid), None);
        // …and the writer's incremental estimate is cached for the new id.
        let new_id = c.snapshot("t").unwrap().config().table_id;
        let hd = c.cached_block_variance("t", new_id);
        assert!(hd.is_some(), "writer-fed ĥ_D should be cached on publish");
        assert!((0.0..=1.0).contains(&hd.unwrap()));
    }

    #[test]
    fn reregistration_bumps_version_and_drops_writer() {
        let c = Catalog::new();
        c.register_table("t", DatasetSpec::higgs_like(50).build_table(1).unwrap());
        c.append_rows("t", probe_rows(2)).unwrap();
        assert_eq!(c.table_version("t").unwrap(), 2);
        // RECLUSTER-style re-registration: new physical table, bumped
        // version, buffered writer discarded.
        c.register_table("t", DatasetSpec::higgs_like(60).build_table(1).unwrap());
        assert_eq!(c.table_version("t").unwrap(), 3);
        assert_eq!(c.snapshot("t").unwrap().num_tuples(), 60);
        let out = c.append_rows("t", probe_rows(1)).unwrap();
        assert_eq!(out.version, 4);
        assert_eq!(out.total_tuples, 61);
    }

    #[test]
    fn table_status_reports_version_blocks_tuples() {
        let c = Catalog::new();
        c.register_table("beta", DatasetSpec::higgs_like(50).build_table(1).unwrap());
        c.register_table("alpha", DatasetSpec::higgs_like(30).build_table(2).unwrap());
        c.append_rows("beta", probe_rows(2)).unwrap();
        let blocks_a = c.table("alpha").unwrap().num_blocks();
        let blocks_b = c.table("beta").unwrap().num_blocks();
        assert_eq!(
            c.table_status(),
            vec![
                format!("alpha v1 blocks={blocks_a} tuples=30"),
                format!("beta v2 blocks={blocks_b} tuples=52"),
            ]
        );
        // table_names stays bare — scripts that iterate names keep working.
        assert_eq!(c.table_names(), vec!["alpha", "beta"]);
    }

    #[test]
    fn wal_backed_appends_recover_after_restart() {
        let dir = std::env::temp_dir().join(format!(
            "corgi_catalog_wal_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let base = || DatasetSpec::higgs_like(50).build_table(1).unwrap();
        {
            let c = Catalog::new();
            c.set_table_wal_dir(&dir);
            c.register_table("t", base());
            c.append_rows("t", probe_rows(3)).unwrap();
        }
        // "Restart": a fresh catalog over the same WAL dir and base table.
        let c = Catalog::new();
        c.set_table_wal_dir(&dir);
        c.register_table("t", base());
        assert_eq!(c.recover_table_wal("t").unwrap(), 3);
        assert_eq!(c.snapshot("t").unwrap().num_tuples(), 53);
        assert_eq!(c.table_version("t").unwrap(), 2);
        // Idempotent: replaying again publishes nothing new.
        assert_eq!(c.recover_table_wal("t").unwrap(), 3);
        assert_eq!(c.table_version("t").unwrap(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_during_append_loses_only_the_statement() {
        use corgipile_storage::{sites, StorageError};
        let dir = std::env::temp_dir().join(format!(
            "corgi_catalog_crash_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let c = Catalog::new();
        c.set_table_wal_dir(&dir);
        c.register_table("t", DatasetSpec::higgs_like(50).build_table(1).unwrap());
        c.append_rows("t", probe_rows(2)).unwrap(); // acked
        c.set_append_faults(FaultPlan::new(7).with_crash_point(sites::TABLE_APPEND_ROWS, 1));
        let err = c.append_rows("t", probe_rows(4)).unwrap_err();
        assert!(matches!(
            err,
            DbError::Storage(StorageError::Crashed { .. })
        ));
        c.set_append_faults(FaultPlan::new(7));
        // The acked statement survives (it is already published, so the
        // re-opened writer skips its WAL rows); the crashed one is wholly
        // absent; new appends continue cleanly.
        let out = c.append_rows("t", probe_rows(1)).unwrap();
        assert_eq!(out.rows, 1);
        assert_eq!(out.recovered, 0);
        assert_eq!(out.total_tuples, 53);
        assert_eq!(out.version, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fresh_table_ids_are_unique() {
        let c = Catalog::new();
        let a = c.fresh_table_id();
        let b = c.fresh_table_id();
        assert_ne!(a, b);
    }

    #[test]
    fn fresh_table_ids_are_unique_across_threads() {
        let c = std::sync::Arc::new(Catalog::new());
        let mut ids: Vec<u32> = std::thread::scope(|s| {
            (0..4)
                .map(|_| {
                    let c = c.clone();
                    s.spawn(move || (0..100).map(|_| c.fresh_table_id()).collect::<Vec<_>>())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 400, "concurrent ids must never collide");
    }

    #[test]
    fn catalog_is_shared_across_threads() {
        let c = std::sync::Arc::new(Catalog::new());
        std::thread::scope(|s| {
            let writer = c.clone();
            s.spawn(move || {
                let t = DatasetSpec::higgs_like(50).build_table(7).unwrap();
                writer.register_table("shared", t);
                writer.store_model(
                    "m",
                    StoredModel {
                        kind: ModelKind::Svm,
                        dim: 2,
                        params: vec![0.0; 3],
                        train_loss: 0.0,
                    },
                );
            })
            .join()
            .unwrap();
        });
        assert!(c.table("shared").is_ok());
        assert!(c.model("m").is_ok());
    }
}
