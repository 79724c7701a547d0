//! Versioned, appendable block storage: the write path CorgiPile trains on.
//!
//! The paper's block-level sampling is naturally suited to growing data —
//! freshly appended blocks are just more blocks to sample — but [`Table`]
//! is immutable. This module splits the abstraction:
//!
//! * [`TableSnapshot`] — an immutable table pinned at a monotonically
//!   increasing version. Scans and shuffles hold snapshots; plans pin one at
//!   build time, which is what makes `TRAIN` bit-reproducible under
//!   concurrent writers.
//! * [`AppendableTable`] — the single writer behind a table name. Rows
//!   buffer into the open block of a [`TableBuilder`]; each `INSERT`
//!   statement's rows are journaled as one `CORGIWL1` frame
//!   ([`RT_TABLE_ROWS`]) and fsynced before acknowledgement, and a seal
//!   marker ([`RT_TABLE_SEAL`]) is logged whenever the builder seals a
//!   block. Recovery is [`Wal::open`]'s longest-valid-prefix scan: a crash
//!   at any write site loses at most the unacknowledged statement, never an
//!   acknowledged row, and a torn tail is truncated away.
//!
//! Publishing a version ([`AppendableTable::snapshot_table`]) costs the rows
//! appended since the last one, not the table: sealed blocks are shared by
//! `Arc` and only the open page is ever copied.
//!
//! Every page keeps its **label moments** (count, Σlabel, Σlabel²) and a
//! block's are the merge of its pages', so the blocks the planner shuffles
//! are the blocks [`AppendableTable::hd_estimate`] measures — the
//! between-block share of label variance, the same ĥ_D ∈ [0, 1] the
//! cost-based planner otherwise estimates by sampling — and every append
//! keeps that clusteredness evidence fresh without a scan.
//!
//! Crash injection: appends visit [`sites::TABLE_APPEND_ROWS`] before any
//! byte is written and [`sites::TABLE_SEAL_BLOCK`] before a seal marker, in
//! addition to the three WAL sites every frame append already visits.

use crate::block::between_block_share;
use crate::codec::{decode_rows, encode_rows, FieldReader};
use crate::error::StorageError;
use crate::fault::{crash_point, sites, FaultInjector};
use crate::retry::RetryPolicy;
use crate::table::{Table, TableBuilder};
use crate::tuple::{Tuple, TupleView};
use crate::wal::Wal;
use crate::Result;
use std::ops::Deref;
use std::path::Path;
use std::sync::Arc;

/// Table-WAL record: one `INSERT` statement's row batch
/// (`codec::encode_rows`, ids the rows' sequence numbers). A
/// table file's block frames carry the same record.
pub const RT_TABLE_ROWS: u8 = 1;

/// Table-WAL record: a tail block was sealed
/// (`seq u64 ∥ tuples u64 ∥ Σlabel f64 ∥ Σlabel² f64`). Advisory — recovery
/// re-derives seal boundaries by replaying rows — but validated for shape.
pub const RT_TABLE_SEAL: u8 = 2;

/// An immutable table pinned at a specific catalog version.
///
/// Derefs to [`Table`], so read paths built for immutable tables work on a
/// snapshot unchanged; the version rides along for EXPLAIN, reproducibility
/// proofs, and `TRAIN … CONTINUOUS` re-pinning.
#[derive(Debug, Clone)]
pub struct TableSnapshot {
    version: u64,
    table: Arc<Table>,
}

impl TableSnapshot {
    /// Pin `table` at `version`.
    pub fn new(version: u64, table: Arc<Table>) -> Self {
        TableSnapshot { version, table }
    }

    /// The catalog version this snapshot was pinned at.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The underlying immutable table.
    pub fn table(&self) -> &Arc<Table> {
        &self.table
    }

    /// Unwrap into the shared table handle.
    pub fn into_table(self) -> Arc<Table> {
        self.table
    }
}

impl Deref for TableSnapshot {
    type Target = Table;

    fn deref(&self) -> &Table {
        &self.table
    }
}

/// The append-capable writer behind one table name.
///
/// Exactly one writer exists per name (the catalog serializes appends); it
/// owns the [`TableBuilder`] and the table WAL, and publishes immutable
/// [`Table`]s via [`AppendableTable::snapshot_table`]. Appended tuples get
/// sequence ids continuing the base table's positions, which is also the
/// WAL replay rule: on recovery, a row record is applied only if its
/// sequence is past the seeding table's row count — so replay is idempotent
/// whether the writer is re-created after a crash (base = pre-crash
/// snapshot, rows replay) or after a `RECLUSTER` re-registration (base
/// already holds every row, everything skips).
#[derive(Debug)]
pub struct AppendableTable {
    builder: TableBuilder,
    wal: Option<Wal>,
    retry: RetryPolicy,
    replayed_rows: u64,
    appended_rows: u64,
    /// The last statement's WAL record, its buffer kept for the next.
    payload: Vec<u8>,
}

impl AppendableTable {
    fn seeded(base: &Table, wal: Option<Wal>) -> AppendableTable {
        AppendableTable {
            builder: TableBuilder::from_table(base),
            wal,
            retry: RetryPolicy::default(),
            replayed_rows: 0,
            appended_rows: 0,
            payload: Vec::new(),
        }
    }

    /// A memory-only writer (no WAL, no durability) seeded from `base`.
    pub fn open_in_memory(base: &Table) -> AppendableTable {
        Self::seeded(base, None)
    }

    /// A WAL-backed writer at `wal_path`, seeded from `base`.
    ///
    /// Opening recovers the log's valid prefix (truncating any torn tail)
    /// and replays every row whose sequence lies past `base`'s row count —
    /// the rows acknowledged before a crash that the in-memory catalog lost.
    pub fn open(base: &Table, wal_path: &Path) -> Result<AppendableTable> {
        let (wal, records) = Wal::open(wal_path)?;
        let mut at = Self::seeded(base, Some(wal));
        for rec in records {
            match rec.rtype {
                RT_TABLE_ROWS => {
                    for t in decode_rows(&rec.payload)? {
                        let next = at.builder.tuple_count();
                        if t.id < next {
                            continue; // already contained in the base table
                        }
                        if t.id != next {
                            return Err(StorageError::Corrupt(format!(
                                "table wal: row sequence {} does not continue table at {}",
                                t.id, next
                            )));
                        }
                        // `append` journals only rows of the table's width.
                        if let Some(dim) = at.builder.dim().filter(|&d| d != t.features.dim()) {
                            return Err(StorageError::Corrupt(format!(
                                "table wal: row {} has {} features, table stores {dim}",
                                t.id,
                                t.features.dim()
                            )));
                        }
                        at.builder.append(t.view())?;
                        at.replayed_rows += 1;
                    }
                }
                RT_TABLE_SEAL => {
                    // Advisory marker; recovery re-derives seal boundaries
                    // from the replayed rows. Validate the shape so log
                    // corruption can't hide behind "advisory".
                    let mut r = FieldReader::new(&rec.payload, "table wal seal");
                    r.u64()?;
                    r.u64()?;
                    r.f64()?;
                    r.f64()?;
                    r.finish()?;
                }
                other => {
                    return Err(StorageError::Corrupt(format!(
                        "table wal: unknown record type {other}"
                    )));
                }
            }
        }
        Ok(at)
    }

    /// Total rows in the writer (base + appended).
    pub fn num_tuples(&self) -> u64 {
        self.builder.tuple_count()
    }

    /// Rows recovered from the WAL when this writer was opened.
    pub fn replayed_rows(&self) -> u64 {
        self.replayed_rows
    }

    /// Rows acknowledged through [`AppendableTable::append_rows`] since open.
    pub fn appended_rows(&self) -> u64 {
        self.appended_rows
    }

    /// Blocks sealed so far (the base table's included): every block of the
    /// table but the open one.
    pub fn sealed_blocks(&self) -> usize {
        self.builder.sealed().len()
    }

    /// The table WAL, if this writer is durable.
    pub fn wal(&self) -> Option<&Wal> {
        self.wal.as_ref()
    }

    /// [`AppendableTable::append`] over owned tuples (their ids ignored).
    pub fn append_rows(&mut self, rows: Vec<Tuple>, inj: Option<&mut FaultInjector>) -> Result<()> {
        self.append(rows.iter().map(Tuple::view), inj)
    }

    /// Append one statement's rows: assign sequence ids, journal them as a
    /// single fsynced WAL frame, then apply them to the open block (logging
    /// a seal marker for every block that closes). The rows are read in
    /// place, twice: once into the frame, once onto the page. Every row
    /// must have the table's width (the first row's, in an empty table),
    /// `INSERT`'s rule, which replay checks again. On `Err` the writer must
    /// be discarded and re-opened — exactly the crashed-process contract
    /// [`Wal::append`] has.
    pub fn append<'a>(
        &mut self,
        rows: impl ExactSizeIterator<Item = TupleView<'a>> + Clone,
        mut inj: Option<&mut FaultInjector>,
    ) -> Result<()> {
        if rows.len() == 0 {
            return Ok(());
        }
        let width = rows.clone().next().map_or(0, |t| t.features.dim());
        let width = self.builder.dim().unwrap_or(width);
        if let Some(t) = rows.clone().find(|t| t.features.dim() != width) {
            let got = t.features.dim();
            return Err(StorageError::InvalidConfig(format!(
                "row has {got} features, table stores {width}"
            )));
        }
        let (first, n) = (self.builder.tuple_count(), rows.len() as u64);
        let rows = rows.enumerate().map(move |(i, t)| TupleView {
            id: first + i as u64,
            ..t
        });
        // Nothing has been written yet: a crash here loses the statement.
        crash_point(inj.as_deref_mut(), sites::TABLE_APPEND_ROWS)?;
        if let Some(wal) = self.wal.as_mut() {
            encode_rows(rows.clone(), &mut self.payload);
            wal.append_retry(
                RT_TABLE_ROWS,
                &self.payload,
                inj.as_deref_mut(),
                &self.retry,
            )?;
        }
        for t in rows {
            let sealed = self.sealed_blocks();
            self.builder.append(t)?;
            if self.sealed_blocks() > sealed {
                self.log_seal(inj.as_deref_mut())?;
            }
        }
        self.appended_rows += n;
        Ok(())
    }

    /// Log a seal marker for the block the builder just sealed (durable
    /// writers only; the marker is advisory, the block is sealed either way).
    fn log_seal(&mut self, mut inj: Option<&mut FaultInjector>) -> Result<()> {
        // The sealed rows were fsynced by their own row records; dying
        // here loses nothing acknowledged.
        crash_point(inj.as_deref_mut(), sites::TABLE_SEAL_BLOCK)?;
        if let Some(wal) = self.wal.as_mut() {
            let block = self
                .builder
                .sealed()
                .last()
                .expect("a block was just sealed");
            let mut payload = Vec::with_capacity(32);
            payload.extend_from_slice(&block.meta.tuples.end.to_le_bytes());
            payload.extend_from_slice(&block.labels.tuples.to_le_bytes());
            payload.extend_from_slice(&block.labels.sum.to_le_bytes());
            payload.extend_from_slice(&block.labels.sq_sum.to_le_bytes());
            wal.append_retry(RT_TABLE_SEAL, &payload, inj, &self.retry)?;
        }
        Ok(())
    }

    /// Publish an immutable point-in-time table under a fresh `table_id`
    /// (each version needs its own id so device/pool caches never alias
    /// blocks across versions).
    pub fn snapshot_table(&self, table_id: u32) -> Table {
        self.builder.snapshot().with_table_id(table_id)
    }

    /// Incremental ĥ_D: the between-block share of label variance, from the
    /// label moments every block of the table carries. `None` with fewer
    /// than two non-empty blocks (no between-block structure to speak of).
    ///
    /// This is the same clusteredness measure the cost-based planner
    /// otherwise estimates by sampling blocks: ĥ_D → 1 when blocks are pure
    /// (fully clustered data, where tuple-only shuffles fail), ĥ_D → 0 when
    /// every block looks like the global label mix.
    pub fn hd_estimate(&self) -> Option<f64> {
        between_block_share(self.builder.block_labels())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::table::TableConfig;
    use crate::wal::WAL_MAGIC;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("corgi_append_{}_{name}", std::process::id()))
    }

    fn base_table(n: u64, block_bytes: usize) -> Table {
        let cfg = TableConfig::new("t", 1).with_block_bytes(block_bytes);
        Table::from_tuples(
            cfg,
            (0..n).map(|id| {
                Tuple::dense(
                    id,
                    vec![id as f32, 1.0],
                    if id < n / 2 { 1.0 } else { -1.0 },
                )
            }),
        )
        .unwrap()
    }

    fn row(v: f32, label: f32) -> Tuple {
        Tuple::dense(0, vec![v, v + 1.0], label)
    }

    #[test]
    fn snapshot_pins_while_appends_continue() {
        let base = base_table(100, 4 * crate::page::PAGE_SIZE);
        let mut w = AppendableTable::open_in_memory(&base);
        let snap_v1 = TableSnapshot::new(1, Arc::new(w.snapshot_table(10)));
        w.append_rows(vec![row(1.0, 1.0), row(2.0, -1.0)], None)
            .unwrap();
        let snap_v2 = TableSnapshot::new(2, Arc::new(w.snapshot_table(11)));

        assert_eq!(snap_v1.version(), 1);
        assert_eq!(snap_v1.num_tuples(), 100, "pinned snapshot must not grow");
        assert_eq!(snap_v2.num_tuples(), 102);
        // Appended rows continue the sequence and land in table order.
        assert_eq!(snap_v2.row(100).unwrap().id, 100);
        assert_eq!(snap_v2.row(101).unwrap().id, 101);
        assert_eq!(snap_v2.row(101).unwrap().label, -1.0);
        // Distinct table ids so caches never alias versions.
        assert_ne!(snap_v1.config().table_id, snap_v2.config().table_id);
    }

    #[test]
    fn wal_backed_appends_survive_reopen() {
        let path = tmp("reopen.wal");
        std::fs::remove_file(&path).ok();
        let base = base_table(50, 4 * crate::page::PAGE_SIZE);
        {
            let mut w = AppendableTable::open(&base, &path).unwrap();
            w.append_rows(vec![row(9.0, 1.0), row(8.0, -1.0)], None)
                .unwrap();
            w.append_rows(vec![row(7.0, 1.0)], None).unwrap();
            assert_eq!(w.num_tuples(), 53);
        } // writer dropped without publishing anywhere

        let w2 = AppendableTable::open(&base, &path).unwrap();
        assert_eq!(w2.num_tuples(), 53, "acked rows replay from the WAL");
        assert_eq!(w2.replayed_rows(), 3);
        let t = w2.snapshot_table(99);
        assert_eq!(t.row(52).unwrap().features.get(0), 7.0);
        assert_eq!(t.row(52).unwrap().features.get(1), 8.0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn replay_skips_rows_already_in_base() {
        let path = tmp("skip.wal");
        std::fs::remove_file(&path).ok();
        let base = base_table(50, 4 * crate::page::PAGE_SIZE);
        let grown = {
            let mut w = AppendableTable::open(&base, &path).unwrap();
            w.append_rows(vec![row(1.0, 1.0), row(2.0, -1.0)], None)
                .unwrap();
            w.snapshot_table(42)
        };
        // Re-seed from the *grown* table (what a RECLUSTER re-registration
        // does): every WAL row is already contained, nothing replays.
        let w2 = AppendableTable::open(&grown, &path).unwrap();
        assert_eq!(w2.replayed_rows(), 0);
        assert_eq!(w2.num_tuples(), 52);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn crash_at_append_rows_site_loses_only_the_statement() {
        let path = tmp("crash_stmt.wal");
        std::fs::remove_file(&path).ok();
        let base = base_table(10, 4 * crate::page::PAGE_SIZE);
        let mut w = AppendableTable::open(&base, &path).unwrap();
        w.append_rows(vec![row(1.0, 1.0)], None).unwrap();

        let mut inj =
            FaultInjector::new(FaultPlan::new(1).with_crash_point(sites::TABLE_APPEND_ROWS, 1));
        match w.append_rows(vec![row(2.0, 1.0)], Some(&mut inj)) {
            Err(StorageError::Crashed { site }) => assert_eq!(site, sites::TABLE_APPEND_ROWS),
            other => panic!("expected crash, got {other:?}"),
        }
        drop(w);
        let w2 = AppendableTable::open(&base, &path).unwrap();
        assert_eq!(w2.num_tuples(), 11, "only the acked statement survives");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn crash_after_wal_fsync_keeps_the_statement() {
        let path = tmp("crash_post_fsync.wal");
        std::fs::remove_file(&path).ok();
        let base = base_table(10, 4 * crate::page::PAGE_SIZE);
        let mut w = AppendableTable::open(&base, &path).unwrap();
        let mut inj =
            FaultInjector::new(FaultPlan::new(1).with_crash_point(sites::WAL_AFTER_FSYNC, 1));
        assert!(matches!(
            w.append_rows(vec![row(3.0, 1.0)], Some(&mut inj)),
            Err(StorageError::Crashed { .. })
        ));
        drop(w);
        let w2 = AppendableTable::open(&base, &path).unwrap();
        assert_eq!(w2.num_tuples(), 11, "fsynced statement is durable");
        assert_eq!(w2.replayed_rows(), 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn torn_statement_frame_is_truncated_on_reopen() {
        let path = tmp("torn.wal");
        std::fs::remove_file(&path).ok();
        let base = base_table(10, 4 * crate::page::PAGE_SIZE);
        let mut w = AppendableTable::open(&base, &path).unwrap();
        w.append_rows(vec![row(1.0, 1.0)], None).unwrap();
        let mut inj =
            FaultInjector::new(FaultPlan::new(1).with_torn_write(sites::WAL_BEFORE_APPEND, 7));
        assert!(matches!(
            w.append_rows(vec![row(2.0, 1.0)], Some(&mut inj)),
            Err(StorageError::Crashed { .. })
        ));
        drop(w);
        let w2 = AppendableTable::open(&base, &path).unwrap();
        assert_eq!(w2.num_tuples(), 11);
        assert_eq!(w2.wal().unwrap().torn_tail_bytes(), 7);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn sealing_logs_markers_and_survives_seal_site_crash() {
        let path = tmp("seal.wal");
        std::fs::remove_file(&path).ok();
        // One-page blocks so a few rows seal a block.
        let base = base_table(0, crate::page::PAGE_SIZE);
        let mut w = AppendableTable::open(&base, &path).unwrap();
        let blocks_before = w.sealed_blocks();
        // ~60B encoded per row; a PAGE_SIZE block seals after ~140 rows.
        for i in 0..300 {
            w.append_rows(vec![row(i as f32, 1.0)], None).unwrap();
        }
        assert!(w.sealed_blocks() > blocks_before, "tail must seal");

        let mut inj =
            FaultInjector::new(FaultPlan::new(1).with_crash_point(sites::TABLE_SEAL_BLOCK, 1));
        let mut crashed = false;
        for i in 300..600 {
            match w.append_rows(vec![row(i as f32, 1.0)], Some(&mut inj)) {
                Ok(()) => {}
                Err(StorageError::Crashed { site }) => {
                    assert_eq!(site, sites::TABLE_SEAL_BLOCK);
                    crashed = true;
                    break;
                }
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        assert!(crashed, "seal site must fire within 300 single-row appends");
        let acked = w.appended_rows();
        drop(w);
        let w2 = AppendableTable::open(&base, &path).unwrap();
        // The crashing statement's row record hit the WAL before the seal
        // marker, so it survives along with everything acked.
        assert!(w2.replayed_rows() >= acked, "no acked row may be lost");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn hd_estimate_tracks_clusteredness() {
        let small_blocks = crate::page::PAGE_SIZE;
        let base = base_table(0, small_blocks);

        // Clustered: long runs of one label per block → ĥ_D near 1. (At
        // ~25 B/row a PAGE_SIZE block holds ~320 rows; 8000 rows span
        // enough blocks that the one straddling the flip barely matters.)
        let mut clustered = AppendableTable::open_in_memory(&base);
        for batch in 0..80u32 {
            let rows = (0..100)
                .map(|j| {
                    let i = batch * 100 + j;
                    row(i as f32, if i < 4000 { 1.0 } else { -1.0 })
                })
                .collect();
            clustered.append_rows(rows, None).unwrap();
        }
        // Mixed: alternating labels → every block sees the global mix.
        let mut mixed = AppendableTable::open_in_memory(&base);
        for batch in 0..80u32 {
            let rows = (0..100)
                .map(|j| {
                    let i = batch * 100 + j;
                    row(i as f32, if i % 2 == 0 { 1.0 } else { -1.0 })
                })
                .collect();
            mixed.append_rows(rows, None).unwrap();
        }
        let hd_c = clustered.hd_estimate().unwrap();
        let hd_m = mixed.hd_estimate().unwrap();
        assert!(hd_c > 0.9, "clustered stream should give ĥ_D≈1, got {hd_c}");
        assert!(hd_m < 0.1, "mixed stream should give ĥ_D≈0, got {hd_m}");
    }

    #[test]
    fn hd_estimate_needs_two_blocks_and_handles_constant_labels() {
        let base = base_table(0, 1 << 20);
        let mut w = AppendableTable::open_in_memory(&base);
        assert_eq!(w.hd_estimate(), None);
        w.append_rows(vec![row(1.0, 1.0)], None).unwrap();
        assert_eq!(w.hd_estimate(), None, "single tail block: no estimate");

        // Seed a base with blocks of identical labels everywhere.
        let cfg = TableConfig::new("const", 3).with_block_bytes(crate::page::PAGE_SIZE);
        let base = Table::from_tuples(
            cfg,
            (0..500).map(|id| Tuple::dense(id, vec![1.0, 2.0], 1.0)),
        )
        .unwrap();
        let w = AppendableTable::open_in_memory(&base);
        assert_eq!(w.hd_estimate(), Some(0.0), "zero label variance → ĥ_D=0");
    }

    #[test]
    fn foreign_wal_record_type_is_rejected() {
        let path = tmp("foreign_rtype.wal");
        std::fs::remove_file(&path).ok();
        let base = base_table(5, 1 << 20);
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append(77, b"not a table record", None).unwrap();
        }
        assert!(matches!(
            AppendableTable::open(&base, &path),
            Err(StorageError::Corrupt(m)) if m.contains("unknown record type")
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn replay_refuses_rows_insert_could_not_have_written() {
        let path = tmp("hostile_rows.wal");
        let base = base_table(5, 1 << 20);
        let sparse_past_dim = Tuple {
            id: 5,
            features: crate::FeatureVec::Sparse {
                dim: 4,
                indices: vec![100],
                values: vec![1.0],
            },
            label: 1.0,
        };
        // A valid frame CRC over each: a row whose index the kernels would
        // chase out of bounds, and a row wider than the table.
        for row in [sparse_past_dim, Tuple::dense(5, vec![1.0; 3], 1.0)] {
            std::fs::remove_file(&path).ok();
            let mut payload = Vec::new();
            encode_rows([row.view()], &mut payload);
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append(RT_TABLE_ROWS, &payload, None).unwrap();
            drop(wal);
            assert!(
                matches!(
                    AppendableTable::open(&base, &path),
                    Err(StorageError::Corrupt(_))
                ),
                "{row:?}"
            );
        }
        // The writer refuses to journal the wide row in the first place.
        std::fs::remove_file(&path).ok();
        let mut w = AppendableTable::open(&base, &path).unwrap();
        let wide = vec![Tuple::dense(0, vec![1.0; 3], 1.0)];
        assert!(matches!(
            w.append_rows(wide, None),
            Err(StorageError::InvalidConfig(_))
        ));
        assert_eq!(w.wal().unwrap().len_bytes(), WAL_MAGIC.len() as u64);
        std::fs::remove_file(path).ok();
    }

    /// The frame payload over owned tuples, as it was encoded before rows
    /// were read in place.
    fn encode_tuples(rows: &[Tuple]) -> Vec<u8> {
        let mut payload = (rows.len() as u32).to_le_bytes().to_vec();
        for t in rows {
            payload.extend_from_slice(&(t.encoded_len() as u32).to_le_bytes());
            t.encode(&mut payload);
        }
        payload
    }

    #[test]
    fn frames_of_row_views_equal_tuple_frames_and_replay() {
        let path = tmp("view_frames.wal");
        std::fs::remove_file(&path).ok();
        let base = base_table(10, crate::page::PAGE_SIZE);
        // Two features and a label per row, row-major, as `INSERT` scans them.
        let flat: Vec<f32> = (0..300).map(|i| i as f32 * 0.25 - 7.0).collect();
        let views = || {
            flat.chunks_exact(3).map(|r| TupleView {
                id: 0,
                label: r[2],
                features: crate::FeatureView::Dense(&r[..2]),
            })
        };
        {
            let mut w = AppendableTable::open(&base, &path).unwrap();
            w.append(views().take(60), None).unwrap();
            w.append(views().skip(60), None).unwrap();
            assert_eq!(w.num_tuples(), 110);
        }
        let want: Vec<Tuple> = (10..)
            .zip(views())
            .map(|(id, v)| TupleView { id, ..v }.to_tuple())
            .collect();
        let frames: Vec<Vec<u8>> = Wal::open(&path)
            .unwrap()
            .1
            .into_iter()
            .filter(|r| r.rtype == RT_TABLE_ROWS)
            .map(|r| r.payload)
            .collect();
        assert_eq!(
            frames,
            [encode_tuples(&want[..60]), encode_tuples(&want[60..])]
        );
        let w = AppendableTable::open(&base, &path).unwrap();
        assert_eq!(w.replayed_rows(), 100);
        let t = w.snapshot_table(1);
        for row in &want {
            assert_eq!(t.row(row.id).unwrap(), row.view());
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn row_batch_codec_roundtrips_and_rejects_trailing_bytes() {
        let rows = vec![
            Tuple::dense(5, vec![1.0, 2.0], 1.0),
            Tuple::sparse(6, 100, vec![3, 50], vec![0.5, -0.5], -1.0),
        ];
        let mut payload = vec![9; 3];
        encode_rows(rows.iter().map(Tuple::view), &mut payload);
        assert_eq!(payload, encode_tuples(&rows));
        assert_eq!(decode_rows(&payload).unwrap(), rows);
        let mut padded = payload.clone();
        padded.push(0);
        assert!(decode_rows(&padded).is_err());
        assert!(decode_rows(&payload[..payload.len() - 1]).is_err());
    }
}
