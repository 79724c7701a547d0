//! Table files, and real file-backed block access.
//!
//! [`save_table`] writes a table to a file and [`load_table`] reads it
//! back; [`FileTable`] opens one *without* loading it and serves
//! [`FileTable::read_block`] with one positioned read per block, the
//! real-I/O counterpart of the simulated device.
//!
//! A table file is the magic `CORGITF1`, then [`crate::codec`] frames: a
//! header (name, table id, block bytes, toast threshold and cap, tuple
//! count, block count, then per block its first tuple, row count, frame
//! offset and frame length), then one [`RT_TABLE_ROWS`] frame per block
//! holding its row batch, the record a table-WAL `INSERT` carries. The
//! index must tile the file to its last byte, so a file cut or padded
//! anywhere is refused at open. A damaged block is
//! [`StorageError::ChecksumMismatch`] naming it, which
//! [`FileTable::read_block_retry`] retries; a damaged header is
//! `ChecksumMismatch { block: None }` or `Corrupt`; any other magic, the
//! retired `CORGIPL2` and `CORGIPL3` heap files included, is `Corrupt`
//! naming it. Every file goes through [`atomic_write_bytes_faulted`]'s
//! synced temp sibling, rename and parent fsync.

use crate::append::RT_TABLE_ROWS;
use crate::codec::{
    check_magic, decode_frame, decode_rows, encode_rows, frame_len, put_bytes, put_frame,
    FieldReader, WAL_FRAME_OVERHEAD,
};
use crate::error::{io_err, StorageError};
use crate::fault::{sites, FaultInjector, FaultPlan, ReadOutcome, WriteOutcome};
use crate::retry::{with_retries, RetryPolicy};
use crate::shared::lock;
use crate::table::{Table, TableBuilder, TableConfig};
use crate::tuple::Tuple;
use crate::wal::fsync_parent_dir;
use crate::Result;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

const TABLE_MAGIC: &[u8; 8] = b"CORGITF1";
/// Table-file record: the header (config, tuple count, block index).
const RT_TABLE_HEADER: u8 = 3;
/// One block-index entry: four u64s.
const INDEX_ENTRY_BYTES: usize = 4 * 8;

/// Sibling path used for atomic writes (`<name>.tmp` in the same directory,
/// so the final rename never crosses a filesystem boundary).
fn temp_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|s| s.to_os_string())
        .unwrap_or_else(|| std::ffi::OsString::from("corgipile"));
    name.push(".tmp");
    path.with_file_name(name)
}

/// Atomically replace `path` with `bytes`: write a synced temp sibling,
/// then rename it into place. Used by table files, model snapshots and
/// saved model files; a crash at any point leaves either the old file or
/// the new one, never a torn mix.
///
/// The parent directory is fsynced after the rename — without it the
/// rename lives only in the directory's page-cache entry, and a power loss
/// can resurrect the old file (or no file) even though the rename
/// "succeeded". This is the classic fsync-the-directory bug; the guarantee
/// is pinned by `atomic_write_survives_mid_rename_crash` and documented in
/// DESIGN.md §12.
pub fn atomic_write_bytes(path: &Path, bytes: &[u8]) -> Result<()> {
    atomic_write_bytes_faulted(path, bytes, None)
}

/// [`atomic_write_bytes`] visiting [`sites::ATOMIC_WRITE_MID_RENAME`] on
/// `inj` between the temp-file sync and the rename: an injected crash
/// there leaves the synced temp sibling on disk and the target untouched —
/// exactly what a real kill between the two syscalls leaves.
pub fn atomic_write_bytes_faulted(
    path: &Path,
    bytes: &[u8],
    inj: Option<&mut FaultInjector>,
) -> Result<()> {
    atomic_write_at_site(path, bytes, inj, sites::ATOMIC_WRITE_MID_RENAME)
}

fn atomic_write_at_site(
    path: &Path,
    bytes: &[u8],
    inj: Option<&mut FaultInjector>,
    site: &'static str,
) -> Result<()> {
    let tmp = temp_sibling(path);
    let write = (|| -> Result<()> {
        let mut f = std::fs::File::create(&tmp).map_err(|e| io_err("create temp", e))?;
        f.write_all(bytes).map_err(|e| io_err("write temp", e))?;
        f.sync_all().map_err(|e| io_err("sync temp", e))?;
        Ok(())
    })();
    if let Err(e) = write {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    if let Some(i) = inj {
        match i.on_write(site) {
            WriteOutcome::Ok => {}
            WriteOutcome::Fail(e) => {
                let _ = std::fs::remove_file(&tmp);
                return Err(e);
            }
            WriteOutcome::Torn { valid_bytes } => {
                // The temp file was synced whole, but the crash models dying
                // with only a prefix of it durable.
                let f = std::fs::OpenOptions::new()
                    .write(true)
                    .open(&tmp)
                    .map_err(|e| io_err("open temp", e))?;
                f.set_len(valid_bytes.min(bytes.len()) as u64)
                    .map_err(|e| io_err("truncate temp", e))?;
                f.sync_all().map_err(|e| io_err("sync temp", e))?;
                return Err(StorageError::Crashed { site: site.into() });
            }
            WriteOutcome::Crash => return Err(StorageError::Crashed { site: site.into() }),
        }
    }
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        io_err("rename temp", e)
    })?;
    fsync_parent_dir(path)
}

/// Write `table` to `path` as a `CORGITF1` table file.
///
/// The write is atomic: data goes to a synced temp sibling which is renamed
/// over `path`, so a crash never leaves a torn file; the parent directory
/// is fsynced afterwards so the rename itself is durable.
pub fn save_table(table: &Table, path: &Path) -> Result<()> {
    save_table_faulted(table, path, None)
}

/// [`save_table`] visiting [`sites::SAVE_TABLE_MID_RENAME`] on `inj`
/// between the temp-file sync and the rename.
pub fn save_table_faulted(
    table: &Table,
    path: &Path,
    inj: Option<&mut FaultInjector>,
) -> Result<()> {
    // The block frames first, so the header can index them.
    let (mut blocks, mut index, mut rows) = (Vec::new(), Vec::new(), Vec::new());
    for blk in 0..table.num_blocks() {
        let handle = table.block_handle(blk)?;
        encode_rows(handle.rows(), &mut rows);
        let at = blocks.len();
        put_frame(&mut blocks, RT_TABLE_ROWS, &rows);
        let (first, len) = (table.block(blk)?.tuples.start, blocks.len() - at);
        index.push([first, handle.len() as u64, at as u64, len as u64]);
    }
    let cfg = table.config();
    let mut hdr = Vec::new();
    put_bytes(&mut hdr, cfg.name.as_bytes());
    hdr.extend_from_slice(&cfg.table_id.to_le_bytes());
    let fixed = [
        cfg.block_bytes as u64,
        cfg.toast_threshold as u64,
        cfg.toast_cap.to_bits(),
        table.num_tuples(),
        index.len() as u64,
    ];
    let header_end = TABLE_MAGIC.len() + WAL_FRAME_OVERHEAD + hdr.len() + 8 * fixed.len();
    let header_end = (header_end + index.len() * INDEX_ENTRY_BYTES) as u64;
    let entries = index
        .iter()
        .flat_map(|&[first, n, at, len]| [first, n, header_end + at, len]);
    for field in fixed.into_iter().chain(entries) {
        hdr.extend_from_slice(&field.to_le_bytes());
    }
    let mut file = Vec::with_capacity(header_end as usize + blocks.len());
    file.extend_from_slice(TABLE_MAGIC);
    put_frame(&mut file, RT_TABLE_HEADER, &hdr);
    file.extend_from_slice(&blocks);
    atomic_write_at_site(path, &file, inj, sites::SAVE_TABLE_MID_RENAME)
}

/// Metadata of one block inside a table file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileBlockMeta {
    /// First tuple id in the block.
    pub first_tuple: u64,
    /// Tuples in the block.
    pub tuple_count: u64,
    /// Byte offset of the block's frame.
    pub frame_off: u64,
    /// Byte length of the block's frame.
    pub frame_len: u64,
}

/// Exactly `len` bytes of `f` at `off`.
fn read_at(f: &mut std::fs::File, off: u64, len: usize) -> Result<Vec<u8>> {
    let mut buf = vec![0u8; len];
    f.seek(SeekFrom::Start(off))
        .map_err(|e| io_err("seek", e))?;
    f.read_exact(&mut buf).map_err(|e| io_err("read", e))?;
    Ok(buf)
}

/// Decode the header frame's payload, checking that its index tiles the
/// file from `header_end` to `file_len`.
fn decode_header(
    payload: &[u8],
    header_end: u64,
    file_len: u64,
) -> Result<(TableConfig, u64, Vec<FileBlockMeta>)> {
    let corrupt = |m: String| StorageError::Corrupt(format!("table file header: {m}"));
    let mut r = FieldReader::new(payload, "table file header");
    let name = r.string()?;
    let table_id = r.u32()?;
    let block_bytes = r.u64()? as usize;
    let toast_threshold = r.u64()? as usize;
    let toast_cap = r.f64()?;
    let tuple_count = r.u64()?;
    let n = r.u64()?;
    if n.checked_mul(INDEX_ENTRY_BYTES as u64) != Some(r.remaining() as u64) {
        return Err(corrupt(format!("{n} blocks do not fill the index")));
    }
    let (mut blocks, mut at, mut first) = (Vec::with_capacity(n as usize), header_end, 0u64);
    for b in 0..n {
        let meta = FileBlockMeta {
            first_tuple: r.u64()?,
            tuple_count: r.u64()?,
            frame_off: r.u64()?,
            frame_len: r.u64()?,
        };
        if (meta.first_tuple, meta.frame_off) != (first, at) {
            return Err(corrupt(format!("block {b} does not follow the one before")));
        }
        at = at.saturating_add(meta.frame_len);
        first = first.saturating_add(meta.tuple_count);
        blocks.push(meta);
    }
    if (at, first) != (file_len, tuple_count) {
        return Err(corrupt(format!(
            "frames end at byte {at} of {file_len} holding {first} of {tuple_count} tuples"
        )));
    }
    let mut config = TableConfig::new(name, table_id).with_block_bytes(block_bytes.max(1));
    config.toast_threshold = toast_threshold;
    config.toast_cap = toast_cap;
    Ok((config, tuple_count, blocks))
}

/// Read a whole table previously written by [`save_table`].
pub fn load_table(path: &Path) -> Result<Table> {
    FileTable::open(path)?.to_table()
}

/// A table file opened for block-granular access with real positioned I/O.
///
/// This is the storage path a production deployment would take: the table
/// stays on disk and CorgiPile's block-level shuffle issues one positioned
/// read per sampled block, verifying the block's frame CRC before decoding.
/// Thread-safe (reads serialize on an internal lock, like a single-file
/// buffer manager). An optional [`FaultPlan`] injects deterministic faults
/// into the read path for recovery testing.
pub struct FileTable {
    file: Mutex<std::fs::File>,
    config: TableConfig,
    tuple_count: u64,
    blocks: Vec<FileBlockMeta>,
    injector: Mutex<Option<FaultInjector>>,
}

impl FileTable {
    /// Open a table file written by [`save_table`] without loading its
    /// data: the magic, then the header frame, whose declared length is
    /// checked against the file's before anything is read by it.
    pub fn open(path: &Path) -> Result<FileTable> {
        let mut f = std::fs::File::open(path).map_err(|e| io_err("open", e))?;
        let file_len = f.metadata().map_err(|e| io_err("stat", e))?.len();
        // The magic and the header frame's length field.
        let head = read_at(&mut f, 0, file_len.min(8 + 4) as usize)?;
        check_magic(TABLE_MAGIC, &head, "table file")?;
        let frame_len = frame_len(&head[8..], (file_len - 8) as usize)
            .ok_or_else(|| StorageError::Corrupt("table file header: truncated frame".into()))?;
        let bytes = read_at(&mut f, 8, frame_len)?;
        let frame = decode_frame(&bytes, "table file header", None)?;
        if frame.rtype != RT_TABLE_HEADER {
            return Err(StorageError::Corrupt(
                "table file header: record type".into(),
            ));
        }
        let header_end = 8 + frame_len as u64;
        let (config, tuple_count, blocks) = decode_header(frame.payload, header_end, file_len)?;
        Ok(FileTable {
            file: Mutex::new(f),
            config,
            tuple_count,
            blocks,
            injector: Mutex::new(None),
        })
    }

    /// Table configuration from the file header.
    pub fn config(&self) -> &TableConfig {
        &self.config
    }

    /// Number of tuples.
    pub fn num_tuples(&self) -> u64 {
        self.tuple_count
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Block index entries.
    pub fn blocks(&self) -> &[FileBlockMeta] {
        &self.blocks
    }

    /// Install a deterministic fault plan on the read path.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        *lock(&self.injector) = Some(FaultInjector::new(plan));
    }

    /// Remove and return the fault injector.
    pub fn clear_fault_injector(&self) -> Option<FaultInjector> {
        lock(&self.injector).take()
    }

    /// Read one block: one positioned read of its frame, the frame's CRC
    /// check, then the row decoder.
    pub fn read_block(&self, id: usize) -> Result<Vec<Tuple>> {
        let meta = *self.blocks.get(id).ok_or(StorageError::BlockOutOfRange {
            block: id,
            blocks: self.blocks.len(),
        })?;
        if let Some(inj) = lock(&self.injector).as_mut() {
            match inj.on_read(self.config.table_id, id) {
                ReadOutcome::Ok => {}
                // Real-I/O path: the spike is recorded in the injector's
                // stats; there is no simulated clock to charge.
                ReadOutcome::Delay(_) => {}
                ReadOutcome::Fail(e) => return Err(e),
            }
        }
        let (off, len) = (meta.frame_off, meta.frame_len as usize);
        let bytes = read_at(&mut lock(&self.file), off, len)?;
        let frame = decode_frame(&bytes, "table file block", Some(id))?;
        let corrupt = |m: String| StorageError::Corrupt(format!("table file block {id}: {m}"));
        if frame.rtype != RT_TABLE_ROWS {
            return Err(corrupt(format!("record type {}", frame.rtype)));
        }
        let rows = decode_rows(frame.payload)?;
        let (got, want) = (rows.len() as u64, meta.tuple_count);
        if got != want {
            return Err(corrupt(format!("{got} rows, index says {want}")));
        }
        Ok(rows)
    }

    /// [`FileTable::read_block`] with bounded retries: retryable failures
    /// (transient faults, checksum mismatches, I/O errors) are re-attempted
    /// up to `policy.max_retries` times before a
    /// [`StorageError::ReadFailed`] reports the exhausted attempt count.
    pub fn read_block_retry(&self, id: usize, policy: &RetryPolicy) -> Result<Vec<Tuple>> {
        with_retries(
            policy,
            |_| self.read_block(id),
            |attempts, message| StorageError::ReadFailed {
                block: id,
                attempts,
                message,
            },
        )
    }

    /// Load the whole file into an in-memory [`Table`].
    pub fn to_table(&self) -> Result<Table> {
        let mut builder = TableBuilder::new(self.config.clone())?;
        for id in 0..self.num_blocks() {
            for t in self.read_block(id)? {
                builder.append(t.view())?;
            }
        }
        Ok(builder.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;
    use proptest::prelude::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("corgi_{}_{name}", std::process::id()))
    }

    fn sample_table(n: u64) -> Table {
        let cfg = TableConfig::new("persisted", 7).with_block_bytes(2 * crate::page::PAGE_SIZE);
        Table::from_tuples(
            cfg,
            (0..n).map(|id| {
                if id % 3 == 0 {
                    Tuple::sparse(
                        id,
                        1000,
                        vec![1, id as u32 % 900 + 2],
                        vec![0.5, -1.5],
                        -1.0,
                    )
                } else {
                    Tuple::dense(id, vec![id as f32, 2.0, 3.0], 1.0)
                }
            }),
        )
        .unwrap()
    }

    /// Byte offset of the first block frame (the end of the header frame).
    fn first_block_at(path: &Path) -> usize {
        FileTable::open(path).unwrap().blocks()[0].frame_off as usize
    }

    /// The block whose frame holds byte `at`, if any.
    fn block_at(ft: &FileTable, at: usize) -> Option<usize> {
        ft.blocks().iter().position(|b| {
            (b.frame_off as usize..(b.frame_off + b.frame_len) as usize).contains(&at)
        })
    }

    /// Overwrite the payload of the frame at `off` with `fill` (cycled) and
    /// re-seal its CRC: hostile bytes that pass the frame check.
    fn refill_frame(bytes: &mut [u8], off: usize, fill: &[u8]) {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        for (b, f) in bytes[off + 5..off + 5 + len]
            .iter_mut()
            .zip(fill.iter().cycle())
        {
            *b = *f;
        }
        let crc = crate::crc::crc32(&bytes[off..off + 5 + len]);
        bytes[off + 5 + len..off + 9 + len].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let table = sample_table(500);
        let path = tmp("roundtrip.tbl");
        save_table(&table, &path).unwrap();
        let back = load_table(&path).unwrap();
        assert_eq!(back.num_tuples(), 500);
        assert_eq!(back.config().name, "persisted");
        assert_eq!(back.config().table_id, 7);
        assert_eq!(back.config().block_bytes, table.config().block_bytes);
        assert_eq!(back.all_tuples(), table.all_tuples());
        assert_eq!(back.num_blocks(), table.num_blocks());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn empty_table_roundtrips() {
        let table =
            Table::from_tuples(TableConfig::new("empty", 1), std::iter::empty::<Tuple>()).unwrap();
        let path = tmp("empty.tbl");
        save_table(&table, &path).unwrap();
        let back = load_table(&path).unwrap();
        assert_eq!(back.num_tuples(), 0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_wrong_magic_and_truncation() {
        let path = tmp("garbage.tbl");
        // Any other magic is a typed error naming it — the retired
        // CORGIPL2 and CORGIPL3 heap files included — for both the loader
        // and the opener.
        for magic in [&b"NOTATABL"[..], b"CORGIPL2", b"CORGIPL3"] {
            std::fs::write(&path, magic).unwrap();
            for result in [load_table(&path).err(), FileTable::open(&path).err()] {
                match result {
                    Some(StorageError::Corrupt(msg)) => {
                        assert!(msg.contains(std::str::from_utf8(magic).unwrap()), "{msg}")
                    }
                    other => panic!("expected Corrupt, got {other:?}"),
                }
            }
        }

        // A file cut anywhere — at a frame boundary too — or padded is
        // refused at open: the header's index says where the file ends.
        let table = sample_table(1500);
        save_table(&table, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let ft = FileTable::open(&path).unwrap();
        assert!(ft.num_blocks() >= 2);
        let boundaries = ft.blocks().iter().map(|b| b.frame_off as usize);
        for cut in boundaries.chain([bytes.len() / 2, bytes.len() - 1, 10]) {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(load_table(&path).is_err(), "cut at {cut}");
            assert!(FileTable::open(&path).is_err(), "cut at {cut}");
        }
        let mut padded = bytes.clone();
        padded.extend_from_slice(&[0; 9]);
        std::fs::write(&path, &padded).unwrap();
        assert!(FileTable::open(&path).is_err(), "padded");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_file_is_a_structured_io_error() {
        match load_table(&tmp("never_written.tbl")) {
            Err(StorageError::Io { op, .. }) => assert_eq!(op, "open"),
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn save_is_atomic_and_leaves_no_temp_file() {
        let table = sample_table(100);
        let path = tmp("atomic.tbl");
        // Overwrite an existing file: the old content must never be mixed
        // with the new, and the temp sibling must be gone afterwards.
        save_table(&sample_table(20), &path).unwrap();
        save_table(&table, &path).unwrap();
        assert!(
            !temp_sibling(&path).exists(),
            "temp file must be renamed away"
        );
        let back = load_table(&path).unwrap();
        assert_eq!(back.num_tuples(), 100);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn atomic_write_survives_mid_rename_crash() {
        // Durability contract of `atomic_write_bytes`: the temp sibling is
        // synced, the rename is atomic, and the parent directory is fsynced
        // after the rename — so at *every* crash point either the complete
        // old content or the complete new content is durable, never a mix
        // and never a resurrect-the-old-file window. The mid-rename site is
        // the interesting one: the synced temp exists, the target is
        // untouched.
        let path = tmp("atomic_crash.bin");
        atomic_write_bytes(&path, b"old content").unwrap();
        let mut inj = FaultInjector::new(
            FaultPlan::new(1).with_crash_point(sites::ATOMIC_WRITE_MID_RENAME, 1),
        );
        match atomic_write_bytes_faulted(&path, b"new content", Some(&mut inj)) {
            Err(StorageError::Crashed { site }) => {
                assert_eq!(site, sites::ATOMIC_WRITE_MID_RENAME);
            }
            other => panic!("expected crash, got {other:?}"),
        }
        // Old file intact; the synced temp sibling is the crash residue.
        assert_eq!(std::fs::read(&path).unwrap(), b"old content");
        assert!(temp_sibling(&path).exists());
        // A rerun (the recovered process) completes the replace and cleans
        // the sibling up.
        atomic_write_bytes(&path, b"new content").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new content");
        assert!(!temp_sibling(&path).exists());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn atomic_write_retryable_failure_cleans_up() {
        let path = tmp("atomic_fail.bin");
        atomic_write_bytes(&path, b"old").unwrap();
        let mut inj = FaultInjector::new(
            FaultPlan::new(1).with_write_failed(sites::ATOMIC_WRITE_MID_RENAME, 1),
        );
        match atomic_write_bytes_faulted(&path, b"new", Some(&mut inj)) {
            Err(e) => assert!(e.is_retryable()),
            other => panic!("expected retryable failure, got {other:?}"),
        }
        assert_eq!(std::fs::read(&path).unwrap(), b"old");
        assert!(!temp_sibling(&path).exists(), "failed write must clean up");
        // The retry succeeds (the injected fault was single-shot).
        atomic_write_bytes_faulted(&path, b"new", Some(&mut inj)).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn save_table_survives_mid_rename_crash() {
        let old = sample_table(40);
        let new = sample_table(120);
        let path = tmp("save_crash.tbl");
        save_table(&old, &path).unwrap();
        let mut inj =
            FaultInjector::new(FaultPlan::new(1).with_crash_point(sites::SAVE_TABLE_MID_RENAME, 1));
        assert!(matches!(
            save_table_faulted(&new, &path, Some(&mut inj)),
            Err(StorageError::Crashed { .. })
        ));
        // The old table is fully readable — never a torn mix.
        let back = load_table(&path).unwrap();
        assert_eq!(back.all_tuples(), old.all_tuples());
        // Recovery rerun replaces it cleanly.
        save_table(&new, &path).unwrap();
        assert_eq!(load_table(&path).unwrap().num_tuples(), 120);
        assert!(!temp_sibling(&path).exists());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn corrupted_block_is_rejected_with_checksum_mismatch() {
        let table = sample_table(300);
        let path = tmp("corrupt_block.tbl");
        save_table(&table, &path).unwrap();
        let data_start = first_block_at(&path);
        let mut bytes = std::fs::read(&path).unwrap();
        let victim = data_start + (bytes.len() - data_start) / 2;
        bytes[victim] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let ft = FileTable::open(&path).unwrap();
        let bad_block = block_at(&ft, victim).expect("victim byte lies in some block");
        match ft.read_block(bad_block) {
            Err(StorageError::ChecksumMismatch {
                block,
                expected,
                actual,
            }) => {
                assert_eq!(block, Some(bad_block));
                assert_ne!(expected, actual);
            }
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
        // Unaffected blocks still read fine.
        for id in (0..ft.num_blocks()).filter(|&id| id != bad_block) {
            assert!(ft.read_block(id).is_ok(), "clean block {id} must read");
        }
        // Whole-table load refuses the file too.
        assert!(matches!(
            load_table(&path),
            Err(StorageError::ChecksumMismatch { .. })
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn corrupted_header_is_rejected() {
        let table = sample_table(100);
        let path = tmp("corrupt_header.tbl");
        save_table(&table, &path).unwrap();
        let good = std::fs::read(&path).unwrap();
        // A flipped byte inside the header frame fails its CRC.
        let mut bytes = good.clone();
        bytes[40] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        for result in [load_table(&path).err(), FileTable::open(&path).err()] {
            assert!(
                matches!(
                    result,
                    Some(StorageError::ChecksumMismatch { block: None, .. })
                ),
                "{result:?}"
            );
        }
        // A header length past the end of the file: typed `Corrupt` before
        // anything is sized by it.
        let mut bytes = good.clone();
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            FileTable::open(&path),
            Err(StorageError::Corrupt(m)) if m.contains("truncated")
        ));
        // A hostile block count under a valid frame CRC: `Corrupt`, before
        // any index entry is reserved.
        let mut bytes = good;
        let block_count_at = 8 + 5 + 4 + "persisted".len() + 4 + 4 * 8;
        bytes[block_count_at..block_count_at + 8].copy_from_slice(&(1u64 << 60).to_le_bytes());
        let len = first_block_at_bytes(&bytes);
        let crc = crate::crc::crc32(&bytes[8..len - 4]);
        bytes[len - 4..len].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            FileTable::open(&path),
            Err(StorageError::Corrupt(m)) if m.contains("index")
        ));
        std::fs::remove_file(path).ok();
    }

    /// The end of the header frame, from its length field.
    fn first_block_at_bytes(bytes: &[u8]) -> usize {
        8 + WAL_FRAME_OVERHEAD + u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize
    }

    #[test]
    fn a_sparse_row_past_its_dim_is_corrupt_at_block_read() {
        let cfg = TableConfig::new("sparse", 2);
        let bad = Tuple {
            id: 0,
            features: crate::FeatureVec::Sparse {
                dim: 4,
                indices: vec![100],
                values: vec![1.0],
            },
            label: 1.0,
        };
        let table = Table::from_tuples(cfg, [bad]).unwrap();
        let path = tmp("sparse_past_dim.tbl");
        save_table(&table, &path).unwrap();
        let ft = FileTable::open(&path).unwrap();
        assert!(matches!(
            ft.read_block(0),
            Err(StorageError::Corrupt(m)) if m.contains("sparse")
        ));
        assert!(matches!(load_table(&path), Err(StorageError::Corrupt(_))));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn fault_plan_on_file_table_injects_and_recovers() {
        let table = sample_table(1500);
        assert!(
            table.num_blocks() >= 2,
            "test needs a second block to fault"
        );
        let path = tmp("ft_faults.tbl");
        save_table(&table, &path).unwrap();
        let ft = FileTable::open(&path).unwrap();
        ft.set_fault_plan(
            FaultPlan::new(3)
                .with_transient(7, 0, 2)
                .with_permanent(7, 1),
        );

        // Transient: fails twice, then read_block_retry recovers.
        assert!(ft.read_block(0).is_err());
        let got = ft.read_block_retry(0, &RetryPolicy::default()).unwrap();
        assert_eq!(got, table.block_tuples(0).unwrap());

        // Permanent: exhausts retries with a typed error.
        match ft.read_block_retry(1, &RetryPolicy::with_max_retries(2)) {
            Err(StorageError::ReadFailed {
                block, attempts, ..
            }) => {
                assert_eq!(block, 1);
                assert_eq!(attempts, 3);
            }
            other => panic!("expected exhausted retries, got {other:?}"),
        }
        let spent = ft
            .clear_fault_injector()
            .expect("the injector stays installed");
        assert!(spent.stats().transient_failures + spent.stats().permanent_failures >= 4);
        assert!(ft.read_block(1).is_ok(), "fault cleared");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn file_table_random_block_reads_match_memory() {
        let table = sample_table(400);
        let path = tmp("filetable.tbl");
        save_table(&table, &path).unwrap();
        let ft = FileTable::open(&path).unwrap();
        assert_eq!(ft.num_tuples(), 400);
        assert_eq!(ft.num_blocks(), table.num_blocks());
        assert_eq!(ft.config().name, "persisted");
        // Read blocks in a scrambled order; must match the in-memory table.
        let order: Vec<usize> = (0..ft.num_blocks()).rev().collect();
        for id in order {
            assert_eq!(
                ft.read_block(id).unwrap(),
                table.block_tuples(id).unwrap(),
                "block {id}"
            );
        }
        assert!(ft.read_block(9999).is_err());
        // Full reload through the block reader.
        let back = ft.to_table().unwrap();
        assert_eq!(back.all_tuples(), table.all_tuples());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn file_table_is_shareable_across_threads() {
        let table = sample_table(300);
        let path = tmp("filetable_mt.tbl");
        save_table(&table, &path).unwrap();
        let ft = std::sync::Arc::new(FileTable::open(&path).unwrap());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let ft = ft.clone();
            handles.push(std::thread::spawn(move || {
                let mut count = 0u64;
                for id in 0..ft.num_blocks() {
                    if (id as u64 + t).is_multiple_of(2) {
                        count += ft.read_block(id).unwrap().len() as u64;
                    }
                }
                count
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0);
        std::fs::remove_file(path).ok();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// *Any* single-byte corruption of a saved table file is detected —
        /// never a panic, never silent bad data; in a block frame it is that
        /// block's `ChecksumMismatch`. And the two decoders a read reaches
        /// behind a frame CRC, the header's and the row batch's, refuse
        /// arbitrary payload bytes under a valid one.
        #[test]
        fn prop_single_byte_corruption_always_detected(
            frac in 0.0f64..1.0,
            bit in 0u32..8,
            case in 0u32..1_000_000,
            fill in proptest::collection::vec(any::<u8>(), 1..64),
        ) {
            let table = sample_table(80);
            let path = tmp(&format!("prop_corrupt_{case}.tbl"));
            save_table(&table, &path).unwrap();
            let data_start = first_block_at(&path);
            let good = std::fs::read(&path).unwrap();
            let mut bytes = good.clone();
            let victim = ((frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
            bytes[victim] ^= 1 << bit;
            std::fs::write(&path, &bytes).unwrap();

            // The whole-file load must reject the corruption, whatever got
            // hit (magic, header, index, or a block).
            prop_assert!(load_table(&path).is_err());
            if victim >= data_start {
                // Header intact ⇒ the file opens, and the damaged block's
                // read reports a checksum mismatch naming it.
                let ft = FileTable::open(&path).unwrap();
                let bad = block_at(&ft, victim).unwrap();
                let is_block_crc = matches!(
                    ft.read_block(bad),
                    Err(StorageError::ChecksumMismatch { block: Some(b), .. }) if b == bad
                );
                prop_assert!(is_block_crc);
            }

            let mut hostile = good.clone();
            refill_frame(&mut hostile, 8, &fill);
            std::fs::write(&path, &hostile).unwrap();
            prop_assert!(FileTable::open(&path).is_err());
            let mut hostile = good;
            refill_frame(&mut hostile, data_start, &fill);
            std::fs::write(&path, &hostile).unwrap();
            prop_assert!(FileTable::open(&path).unwrap().read_block(0).is_err());
            std::fs::remove_file(path).ok();
        }
    }
}
