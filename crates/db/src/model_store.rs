//! WAL-backed durable model store.
//!
//! The paper keeps trained models "as an in-memory object … in the
//! PostgreSQL kernel" (§6.1), which dies with the process. This module
//! gives the engine the durability story a real database has: every
//! epoch-granular [`TrainCheckpoint`] produced by a `WITH durable = 1`
//! training query becomes one [`ModelRecord`], appended to an append-only,
//! CRC-framed `CORGIWL1` write-ahead log ([`corgipile_storage::Wal`]) and
//! fsynced before the epoch is acknowledged. When the log grows past a threshold it is
//! *compacted*: every retained version goes, as the log's own [`RT_MODEL`]
//! frames after a count frame, to a `CORGIMS2` snapshot (atomically, parent
//! directory fsynced), and the log is truncated back to its magic.
//!
//! Recovery is replay: [`ModelStore::open_with`] loads the snapshot, then
//! replays the WAL's valid prefix on top of it — later `(version, epoch)`
//! pairs win, so replay is idempotent and a crash *between* the snapshot
//! and the log truncation (the `model_store.post_snapshot` site) merely
//! re-applies records the snapshot already holds. Because a trained model
//! depends only on the tuple stream order and the RNG seeds, resuming
//! from the recovered checkpoint replays the remaining epochs to a final
//! model **bit-identical** to an uninterrupted run — no checkpoint knobs,
//! no partial-epoch loss beyond the epoch in flight.
//!
//! Fault injection: the store threads an optional
//! [`FaultInjector`] through every write ([`Wal::append`] visits the
//! three `wal.*` sites, the snapshot visits `atomic_write.mid_rename`,
//! and compaction visits `model_store.post_snapshot`), so the crash
//! matrix in `tests/crash_recovery.rs` can kill the engine at any named
//! write site and assert recovery. After a [`StorageError::Crashed`]
//! bubbles out, the store models a dead process: drop it and reopen.

use crate::catalog::{lock, StoredModel};
use crate::error::DbError;
use corgipile_ml::TrainCheckpoint;
use corgipile_storage::{
    atomic_write_bytes_faulted, crash_point, io_err, put_bytes, put_frame, read_frames, sites,
    FaultInjector, FaultPlan, FieldReader, RetryPolicy, StorageError, Wal,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// WAL record type: a full versioned model record. Payload, in order:
/// name, source table (length-prefixed), version `u32`, epoch `u32`, the
/// `CORGIMD1` model blob (length-prefixed: the one copy of the parameters),
/// seed `u64`, sim clock `f64`, optimizer state (length-prefixed),
/// fingerprint `u64`. Every byte sits under its frame's CRC, in the log
/// and in the snapshot alike.
pub const RT_MODEL: u8 = 1;

/// Snapshot record: the `u32` count of the [`RT_MODEL`] frames after it.
const RT_SNAPSHOT_COUNT: u8 = 2;
/// Snapshot file magic: a count frame, then that many [`RT_MODEL`] frames.
const SNAPSHOT_MAGIC: &[u8; 8] = b"CORGIMS2";
/// WAL file name inside the store directory.
const WAL_FILE: &str = "models.wal";
/// Snapshot file name inside the store directory.
const SNAPSHOT_FILE: &str = "models.snap";

/// One versioned, durable model record: a [`TrainCheckpoint`] with the
/// model's name, lineage and shape.
///
/// `epoch` counts *completed* epochs (it equals the checkpoint's
/// `epoch_next`), so a record with `epoch == max_epoch_num` is a finished
/// training run and anything smaller is resumable.
#[derive(Debug, Clone)]
pub struct ModelRecord {
    /// Model name (the `PREDICT BY` / catalog key).
    pub name: String,
    /// Source table the model was trained on.
    pub source: String,
    /// Version number, 1-based; retraining a finished name bumps it.
    pub version: u32,
    /// Completed epochs under this version.
    pub epoch: u32,
    /// The model at this epoch (catalog form) — its parameters are the
    /// checkpoint's.
    pub stored: StoredModel,
    /// The run's seed.
    pub seed: u64,
    /// Simulated clock at the end of the record's last epoch.
    pub sim_clock: f64,
    /// Opaque optimizer state (see `Optimizer::state_bytes`).
    pub optimizer_state: Vec<u8>,
    /// Hash of what decided the run's visit order and update rule; only a
    /// statement with the same fingerprint resumes this record.
    pub fingerprint: u64,
}

impl ModelRecord {
    /// The resumable training state this record holds.
    pub fn into_checkpoint(self) -> TrainCheckpoint {
        TrainCheckpoint {
            epoch_next: self.epoch as usize,
            seed: self.seed,
            sim_clock: self.sim_clock,
            model_params: self.stored.params,
            optimizer_state: self.optimizer_state,
        }
    }
}

/// Tuning knobs for [`ModelStore::open_with`].
#[derive(Debug, Clone)]
pub struct ModelStoreOptions {
    /// Compact (snapshot + truncate) once the log exceeds this many bytes.
    pub compact_threshold_bytes: u64,
    /// Retry policy for WAL appends (shared shape with block reads).
    pub retry: RetryPolicy,
    /// Optional write-fault plan, driving the crash-point matrix.
    pub faults: Option<FaultPlan>,
}

impl Default for ModelStoreOptions {
    /// 256 KiB compaction threshold, default retries, no faults.
    fn default() -> Self {
        ModelStoreOptions {
            compact_threshold_bytes: 256 * 1024,
            retry: RetryPolicy::default(),
            faults: None,
        }
    }
}

/// A snapshot of the store's durability counters (cumulative since open).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ModelStoreStats {
    /// Records appended (and fsynced) since open.
    pub appends: u64,
    /// Frame bytes appended since open.
    pub appended_bytes: u64,
    /// Fsyncs issued by the WAL since open.
    pub fsyncs: u64,
    /// Current valid log length in bytes (magic included).
    pub wal_len_bytes: u64,
    /// Compactions (snapshot + truncate) performed since open.
    pub compactions: u64,
    /// WAL records replayed during recovery at open.
    pub recovered_records: u64,
    /// Torn-tail bytes truncated during recovery at open.
    pub torn_tail_bytes: u64,
    /// Models loaded from the snapshot file at open.
    pub snapshot_models: u64,
}

struct StoreInner {
    wal: Wal,
    injector: Option<FaultInjector>,
    /// Per-name version history: every durable version is retained (the
    /// serving layer pins old versions while traffic drains), keyed by
    /// version number so `PREDICT … VERSION n` can load any of them.
    history: BTreeMap<String, BTreeMap<u32, ModelRecord>>,
    appends: u64,
    compactions: u64,
    recovered_records: u64,
    torn_tail_bytes: u64,
    snapshot_models: u64,
}

/// The durable model store: one WAL + one snapshot per directory,
/// interior-synchronized so it can hang off the shared
/// [`crate::Database`] engine.
pub struct ModelStore {
    dir: PathBuf,
    compact_threshold: u64,
    retry: RetryPolicy,
    inner: Mutex<StoreInner>,
}

impl std::fmt::Debug for ModelStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelStore")
            .field("dir", &self.dir)
            .field("compact_threshold", &self.compact_threshold)
            .finish_non_exhaustive()
    }
}

impl ModelStore {
    /// Open (or create) the store at `dir` with default options,
    /// recovering snapshot + WAL.
    pub fn open(dir: &Path) -> Result<ModelStore, DbError> {
        ModelStore::open_with(dir, ModelStoreOptions::default())
    }

    /// Open (or create) the store at `dir`.
    ///
    /// Recovery: load the snapshot (if any), then replay the WAL's valid
    /// prefix over it — the highest `(version, epoch)` per name wins, so
    /// replay is idempotent against records the snapshot already holds.
    pub fn open_with(dir: &Path, opts: ModelStoreOptions) -> Result<ModelStore, DbError> {
        let snapshot = match std::fs::read(dir.join(SNAPSHOT_FILE)) {
            Ok(bytes) => decode_snapshot(&bytes)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io_err("read model snapshot", e).into()),
        };
        let snapshot_models = snapshot.len() as u64;
        // Opening the log creates the store's directory.
        let (wal, records) = Wal::open(&dir.join(WAL_FILE))?;
        let recovered_records = records.len() as u64;
        let torn_tail_bytes = wal.torn_tail_bytes();
        let mut history = BTreeMap::new();
        snapshot
            .into_iter()
            .for_each(|rec| apply(&mut history, rec));
        for r in records.iter().filter(|r| r.rtype == RT_MODEL) {
            apply(&mut history, decode_record(&r.payload)?);
        }
        Ok(ModelStore {
            dir: dir.to_path_buf(),
            compact_threshold: opts.compact_threshold_bytes,
            retry: opts.retry,
            inner: Mutex::new(StoreInner {
                wal,
                injector: opts.faults.map(FaultInjector::new),
                history,
                appends: 0,
                compactions: 0,
                recovered_records,
                torn_tail_bytes,
                snapshot_models,
            }),
        })
    }

    /// Append one versioned model record and fsync it; compacts when the
    /// log passes the threshold.
    ///
    /// A returned [`StorageError::Crashed`] (via [`DbError::Storage`])
    /// models the process dying at an injected crash point: the on-disk
    /// state is exactly what a real kill would leave, and the store must
    /// be dropped and reopened — recovery is [`ModelStore::open_with`].
    pub fn append(&self, rec: ModelRecord) -> Result<(), DbError> {
        let payload = encode_record(&rec);
        let mut inner = lock(&self.inner);
        let StoreInner { wal, injector, .. } = &mut *inner;
        wal.append_retry(RT_MODEL, &payload, injector.as_mut(), &self.retry)?;
        inner.appends += 1;
        apply(&mut inner.history, rec);
        if inner.wal.len_bytes() > self.compact_threshold {
            self.compact_locked(&mut inner)?;
        }
        Ok(())
    }

    /// Force a compaction now (snapshot the latest versions, truncate the
    /// log). Used by tests and by shutdown paths that want a short log.
    pub fn compact(&self) -> Result<(), DbError> {
        let mut inner = lock(&self.inner);
        self.compact_locked(&mut inner)
    }

    fn compact_locked(&self, inner: &mut StoreInner) -> Result<(), DbError> {
        let records: Vec<&ModelRecord> = inner.history.values().flat_map(|v| v.values()).collect();
        let bytes = encode_snapshot(&records);
        atomic_write_bytes_faulted(
            &self.dir.join(SNAPSHOT_FILE),
            &bytes,
            inner.injector.as_mut(),
        )?;
        // The named gap between "snapshot durable" and "log truncated": a
        // crash here leaves the records in both places, which replay
        // handles idempotently.
        crash_point(inner.injector.as_mut(), sites::MODEL_STORE_POST_SNAPSHOT)?;
        inner.wal.reset()?;
        inner.compactions += 1;
        Ok(())
    }

    /// Latest durable record for `name` (highest version), if any.
    pub fn latest(&self, name: &str) -> Option<ModelRecord> {
        lock(&self.inner)
            .history
            .get(name)
            .and_then(|v| v.values().next_back())
            .cloned()
    }

    /// A specific durable version of `name`, if retained.
    pub fn version(&self, name: &str, version: u32) -> Option<ModelRecord> {
        lock(&self.inner)
            .history
            .get(name)
            .and_then(|v| v.get(&version))
            .cloned()
    }

    /// Every retained version number of `name`, ascending.
    pub fn versions(&self, name: &str) -> Vec<u32> {
        lock(&self.inner)
            .history
            .get(name)
            .map(|v| v.keys().copied().collect())
            .unwrap_or_default()
    }

    /// Latest durable record of every model, sorted by name.
    pub fn models(&self) -> Vec<ModelRecord> {
        lock(&self.inner)
            .history
            .values()
            .filter_map(|v| v.values().next_back())
            .cloned()
            .collect()
    }

    /// The version a *fresh* training run of `name` should write:
    /// `latest + 1`, or 1 for an unseen name.
    pub fn next_version(&self, name: &str) -> u32 {
        lock(&self.inner)
            .history
            .get(name)
            .and_then(|v| v.keys().next_back())
            .map(|v| v + 1)
            .unwrap_or(1)
    }

    /// Durability counters (cumulative since open).
    pub fn stats(&self) -> ModelStoreStats {
        let inner = lock(&self.inner);
        ModelStoreStats {
            appends: inner.appends,
            appended_bytes: inner.wal.appended_bytes(),
            fsyncs: inner.wal.fsync_count(),
            wal_len_bytes: inner.wal.len_bytes(),
            compactions: inner.compactions,
            recovered_records: inner.recovered_records,
            torn_tail_bytes: inner.torn_tail_bytes,
            snapshot_models: inner.snapshot_models,
        }
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// Fold a record into the version history. Every version is retained;
/// within one version the higher epoch wins, ties going to the later
/// arrival (replay order is append order, so the last writer's bytes win
/// exactly as they did in the log).
fn apply(history: &mut BTreeMap<String, BTreeMap<u32, ModelRecord>>, rec: ModelRecord) {
    let versions = history.entry(rec.name.clone()).or_default();
    match versions.get(&rec.version) {
        Some(old) if old.epoch > rec.epoch => {}
        _ => {
            versions.insert(rec.version, rec);
        }
    }
}

fn encode_record(rec: &ModelRecord) -> Vec<u8> {
    let mut out = Vec::new();
    put_bytes(&mut out, rec.name.as_bytes());
    put_bytes(&mut out, rec.source.as_bytes());
    out.extend_from_slice(&rec.version.to_le_bytes());
    out.extend_from_slice(&rec.epoch.to_le_bytes());
    put_bytes(&mut out, &rec.stored.to_bytes());
    out.extend_from_slice(&rec.seed.to_le_bytes());
    out.extend_from_slice(&rec.sim_clock.to_le_bytes());
    put_bytes(&mut out, &rec.optimizer_state);
    out.extend_from_slice(&rec.fingerprint.to_le_bytes());
    out
}

fn decode_record(payload: &[u8]) -> Result<ModelRecord, DbError> {
    let mut r = FieldReader::new(payload, "model record");
    let name = r.string()?;
    let source = r.string()?;
    let version = r.u32()?;
    let epoch = r.u32()?;
    let stored = StoredModel::from_bytes(r.bytes()?)?;
    let seed = r.u64()?;
    let sim_clock = r.f64()?;
    let optimizer_state = r.bytes()?.to_vec();
    let fingerprint = r.u64()?;
    r.finish()?;
    Ok(ModelRecord {
        name,
        source,
        version,
        epoch,
        stored,
        seed,
        sim_clock,
        optimizer_state,
        fingerprint,
    })
}

fn encode_snapshot(records: &[&ModelRecord]) -> Vec<u8> {
    let mut out = SNAPSHOT_MAGIC.to_vec();
    let count = (records.len() as u32).to_le_bytes();
    put_frame(&mut out, RT_SNAPSHOT_COUNT, &count);
    for rec in records {
        put_frame(&mut out, RT_MODEL, &encode_record(rec));
    }
    out
}

/// The records of a snapshot whose frames end exactly where its count
/// says: a snapshot cut at a frame boundary, or padded, is refused.
fn decode_snapshot(bytes: &[u8]) -> Result<Vec<ModelRecord>, DbError> {
    match read_frames(SNAPSHOT_MAGIC, bytes, "model snapshot")?.split_first() {
        Some((count, records))
            if count.rtype == RT_SNAPSHOT_COUNT
                && count.payload == (records.len() as u32).to_le_bytes()
                && records.iter().all(|f| f.rtype == RT_MODEL) =>
        {
            records.iter().map(|f| decode_record(f.payload)).collect()
        }
        _ => Err(
            StorageError::Corrupt("model snapshot: frames disagree with its count".into()).into(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corgipile_ml::ModelKind;
    use corgipile_storage::{crc32, splitmix64, WAL_MAGIC};

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("corgi_store_{}_{}", tag, std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn record(name: &str, source: &str, version: u32, epoch: u32, bias: f32) -> ModelRecord {
        ModelRecord {
            name: name.to_string(),
            source: source.to_string(),
            version,
            epoch,
            stored: StoredModel {
                kind: ModelKind::Svm,
                dim: 2,
                params: vec![bias, 0.5, -0.5],
                train_loss: 0.1 * f64::from(epoch),
            },
            seed: 42,
            sim_clock: f64::from(epoch),
            optimizer_state: vec![version as u8],
            fingerprint: 0xF1_9E,
        }
    }

    #[test]
    fn records_survive_reopen() {
        let dir = tmpdir("reopen");
        {
            let store = ModelStore::open(&dir).unwrap();
            for epoch in 1..=3 {
                store.append(record("m", "t", 1, epoch, 1.0)).unwrap();
            }
            store.append(record("other", "u", 1, 1, 2.0)).unwrap();
        }
        let store = ModelStore::open(&dir).unwrap();
        let rec = store.latest("m").unwrap();
        assert_eq!((rec.version, rec.epoch), (1, 3));
        assert_eq!(rec.source, "t");
        assert_eq!(
            (rec.seed, rec.sim_clock, rec.fingerprint),
            (42, 3.0, 0xF1_9E)
        );
        let ck = rec.into_checkpoint();
        assert_eq!(ck.epoch_next, 3);
        assert_eq!(ck.model_params, vec![1.0, 0.5, -0.5]);
        assert_eq!(ck.optimizer_state, vec![1]);
        assert_eq!(store.models().len(), 2);
        assert_eq!(store.stats().recovered_records, 4);
        assert_eq!(store.next_version("m"), 2);
        assert_eq!(store.next_version("new"), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_snapshots_and_truncates() {
        let dir = tmpdir("compact");
        let opts = ModelStoreOptions {
            compact_threshold_bytes: 64, // force a compaction on every append
            ..Default::default()
        };
        {
            let store = ModelStore::open_with(&dir, opts.clone()).unwrap();
            for epoch in 1..=5 {
                store.append(record("m", "t", 1, epoch, 1.0)).unwrap();
            }
            let s = store.stats();
            assert!(s.compactions >= 4, "threshold of 64B must compact eagerly");
            assert!(dir.join(SNAPSHOT_FILE).exists());
            assert_eq!(
                s.wal_len_bytes, 8,
                "log truncated back to its magic after the last compaction"
            );
        }
        let store = ModelStore::open_with(&dir, opts).unwrap();
        let s = store.stats();
        assert_eq!(s.snapshot_models, 1);
        assert_eq!(s.recovered_records, 0, "records live in the snapshot now");
        assert_eq!(store.latest("m").unwrap().epoch, 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_during_append_loses_only_the_record_in_flight() {
        let dir = tmpdir("crash_append");
        let opts = ModelStoreOptions {
            faults: Some(
                FaultPlan::new(7).with_crash_point(sites::WAL_AFTER_APPEND_BEFORE_FSYNC, 2),
            ),
            ..Default::default()
        };
        {
            let store = ModelStore::open_with(&dir, opts).unwrap();
            store.append(record("m", "t", 1, 1, 1.0)).unwrap();
            let err = store.append(record("m", "t", 1, 2, 1.5)).unwrap_err();
            assert!(
                matches!(err, DbError::Storage(StorageError::Crashed { .. })),
                "expected a simulated crash, got {err:?}"
            );
        }
        let store = ModelStore::open(&dir).unwrap();
        assert_eq!(
            store.latest("m").unwrap().epoch,
            1,
            "the unsynced epoch-2 record died with the page cache"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_between_snapshot_and_truncate_replays_idempotently() {
        let dir = tmpdir("crash_post_snapshot");
        let opts = ModelStoreOptions {
            compact_threshold_bytes: 64,
            faults: Some(FaultPlan::new(7).with_crash_point(sites::MODEL_STORE_POST_SNAPSHOT, 1)),
            ..Default::default()
        };
        {
            let store = ModelStore::open_with(&dir, opts).unwrap();
            let err = store.append(record("m", "t", 1, 1, 1.0)).unwrap_err();
            assert!(matches!(
                err,
                DbError::Storage(StorageError::Crashed { .. })
            ));
        }
        // Snapshot written, log NOT truncated: the record exists twice.
        let store = ModelStore::open(&dir).unwrap();
        let s = store.stats();
        assert_eq!(s.snapshot_models, 1);
        assert_eq!(s.recovered_records, 1);
        assert_eq!(
            store.models().len(),
            1,
            "replay deduplicates by (version, epoch)"
        );
        assert_eq!(store.latest("m").unwrap().epoch, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_wal_tail_is_counted_and_discarded() {
        let dir = tmpdir("torn_tail");
        {
            let store = ModelStore::open(&dir).unwrap();
            store.append(record("m", "t", 1, 1, 1.0)).unwrap();
        }
        // Tear the log by hand: append garbage past the valid prefix.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join(WAL_FILE))
            .unwrap();
        f.write_all(&[0xDE, 0xAD, 0xBE]).unwrap();
        drop(f);
        let store = ModelStore::open(&dir).unwrap();
        let s = store.stats();
        assert_eq!(s.torn_tail_bytes, 3);
        assert_eq!(s.recovered_records, 1);
        assert_eq!(store.latest("m").unwrap().epoch, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_corruption_is_detected() {
        let dir = tmpdir("snap_corrupt");
        {
            let store = ModelStore::open(&dir).unwrap();
            store.append(record("m", "t", 1, 1, 1.0)).unwrap();
            store.compact().unwrap();
        }
        let snap = dir.join(SNAPSHOT_FILE);
        let good = std::fs::read(&snap).unwrap();
        let mut bytes = good.clone();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&snap, &bytes).unwrap();
        assert!(
            ModelStore::open(&dir).is_err(),
            "a flipped snapshot byte must fail the CRC"
        );
        // Cut at a frame boundary (after the count, before the record it
        // counts), or with bytes appended: refused, never read short.
        let count_end = SNAPSHOT_MAGIC.len() + 9 + 4;
        let padded = [&good[..], b"\x00\x00\x00\x00\x07\x1d\x1d\x1d\x1d"].concat();
        for bytes in [&good[..count_end], &padded[..]] {
            std::fs::write(&snap, bytes).unwrap();
            assert!(ModelStore::open(&dir).is_err(), "{} bytes", bytes.len());
        }
        // The retired CORGIMS1 snapshot is refused by its magic.
        std::fs::write(&snap, [&b"CORGIMS1"[..], &good[8..]].concat()).unwrap();
        assert!(matches!(
            ModelStore::open(&dir),
            Err(DbError::Storage(StorageError::Corrupt(m))) if m.contains("CORGIMS1")
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_history_is_retained_across_compaction_and_reopen() {
        let dir = tmpdir("history");
        {
            let store = ModelStore::open(&dir).unwrap();
            for (version, epoch) in [(1, 1), (1, 2), (2, 1), (2, 3), (3, 1)] {
                store
                    .append(record("m", "t", version, epoch, version as f32))
                    .unwrap();
            }
            store.compact().unwrap();
        }
        let store = ModelStore::open(&dir).unwrap();
        assert_eq!(store.versions("m"), vec![1, 2, 3]);
        // Each version keeps its own highest epoch through the snapshot.
        assert_eq!(store.version("m", 1).unwrap().epoch, 2);
        assert_eq!(store.version("m", 2).unwrap().epoch, 3);
        assert_eq!(store.version("m", 3).unwrap().epoch, 1);
        assert!(store.version("m", 9).is_none());
        assert!(store.versions("ghost").is_empty());
        // `models()` still reports one latest record per name.
        assert_eq!(store.models().len(), 1);
        assert_eq!(store.latest("m").unwrap().version, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn newer_version_wins_replay() {
        let dir = tmpdir("version_wins");
        {
            let store = ModelStore::open(&dir).unwrap();
            for (version, epoch) in [(1, 1), (1, 2), (2, 1)] {
                store
                    .append(record("m", "t", version, epoch, version as f32))
                    .unwrap();
            }
        }
        let store = ModelStore::open(&dir).unwrap();
        let rec = store.latest("m").unwrap();
        assert_eq!(
            (rec.version, rec.epoch),
            (2, 1),
            "version ranks above epoch in recency"
        );
        assert_eq!(store.next_version("m"), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_record_stores_its_parameters_once() {
        let rec = record("m", "t", 1, 2, 1.0);
        let blob = rec.stored.to_bytes();
        // name, source, version, epoch, model blob, seed, clock, optimizer
        // state, fingerprint: the parameters live in the blob and nowhere else.
        let want = (4 + 1) + (4 + 1) + 4 + 4 + (4 + blob.len()) + 8 + 8 + (4 + 1) + 8;
        let payload = encode_record(&rec);
        assert_eq!(payload.len(), want);
        let back = decode_record(&payload).unwrap();
        assert_eq!(back.stored.params, rec.stored.params);
        assert_eq!(encode_record(&back), payload);
    }

    /// A store at `dir` holding one record of `m`, left in the log or, with
    /// `compact`, in the snapshot; returns that file's path and bytes.
    fn one_record_store(dir: &Path, compact: bool) -> (PathBuf, Vec<u8>) {
        let store = ModelStore::open(dir).unwrap();
        store.append(record("m", "t", 1, 2, 1.0)).unwrap();
        let path = if compact {
            store.compact().unwrap();
            dir.join(SNAPSHOT_FILE)
        } else {
            dir.join(WAL_FILE)
        };
        let bytes = std::fs::read(&path).unwrap();
        (path, bytes)
    }

    #[test]
    fn any_single_byte_corruption_of_a_record_is_detected() {
        // In the log, a flipped byte anywhere in the record's frame fails
        // the frame CRC: recovery drops it as a torn tail.
        let dir = tmpdir("flip_wal");
        let (wal, bytes) = one_record_store(&dir, false);
        for victim in WAL_MAGIC.len()..bytes.len() {
            let mut bad = bytes.clone();
            bad[victim] ^= 0x10;
            std::fs::write(&wal, &bad).unwrap();
            let store = ModelStore::open(&dir).unwrap();
            assert!(
                store.latest("m").is_none(),
                "flip at byte {victim} undetected"
            );
            assert_eq!(
                store.stats().torn_tail_bytes as usize,
                bytes.len() - WAL_MAGIC.len(),
                "flip at byte {victim}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
        // In the snapshot, a frame check refuses it outright.
        let dir = tmpdir("flip_snap");
        let (snap, bytes) = one_record_store(&dir, true);
        for victim in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[victim] ^= 0x10;
            std::fs::write(&snap, &bad).unwrap();
            match ModelStore::open(&dir) {
                Err(DbError::Storage(
                    StorageError::ChecksumMismatch { block: None, .. } | StorageError::Corrupt(_),
                )) => {}
                other => panic!("flip at byte {victim}: {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hostile_lengths_under_a_valid_frame_crc_are_corrupt() {
        let dir = tmpdir("hostile");
        let (wal, bytes) = one_record_store(&dir, false);
        // The frame: len u32, rtype u8, payload, crc u32. Offsets of the
        // lengths a record carries: the model blob's (u32), the blob's
        // `dim` and parameter count (u64), the optimizer state's (u32).
        let blob = WAL_MAGIC.len() + 5 + (4 + 1) + (4 + 1) + 4 + 4;
        let state = bytes.len() - 4 - 8 - 1 - 4;
        for (offset, len) in [
            (blob, &u32::MAX.to_le_bytes()[..]),
            (blob + 4 + 9, &u64::MAX.to_le_bytes()[..]),
            (blob + 4 + 25, &u64::MAX.to_le_bytes()[..]),
            (state, &u32::MAX.to_le_bytes()[..]),
        ] {
            let mut bad = bytes.clone();
            bad[offset..offset + len.len()].copy_from_slice(len);
            let crc_at = bad.len() - 4;
            let crc = crc32(&bad[WAL_MAGIC.len()..crc_at]);
            bad[crc_at..].copy_from_slice(&crc.to_le_bytes());
            std::fs::write(&wal, &bad).unwrap();
            assert!(
                matches!(
                    ModelStore::open(&dir),
                    Err(DbError::Storage(StorageError::Corrupt(_)))
                ),
                "length {len:x?} at byte {offset}"
            );
        }
        // Arbitrary payload bytes under a valid frame CRC, to both decoders
        // a file read reaches: the model record (in the log) and the model
        // blob (in a saved model file).
        let model_file = dir.join("m.model");
        let mut state = 7u64;
        for case in 0..64usize {
            let payload: Vec<u8> = (0..case * 5)
                .map(|_| {
                    state = splitmix64(state);
                    state as u8
                })
                .collect();
            let mut log = WAL_MAGIC.to_vec();
            put_frame(&mut log, RT_MODEL, &payload);
            std::fs::write(&wal, &log).unwrap();
            assert!(ModelStore::open(&dir).is_err(), "record payload {case}");
            let mut file = b"CORGIMF1".to_vec();
            put_frame(&mut file, 1, &payload);
            std::fs::write(&model_file, &file).unwrap();
            assert!(
                StoredModel::load(&model_file).is_err(),
                "blob payload {case}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
