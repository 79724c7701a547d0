//! On-disk persistence for heap tables, and real file-backed block access.
//!
//! Two layers:
//!
//! * [`save_table`] / [`load_table`] — whole-table serialization in a
//!   compact, block-indexed binary format.
//! * [`FileTable`] — opens a saved heap file *without* loading it and
//!   serves [`FileTable::read_block`] with actual positioned reads
//!   (`seek` + `read`), i.e. the real-I/O counterpart of the simulated
//!   block-addressable device: CorgiPile's block-level shuffle can run
//!   against genuine files.
//!
//! Format `CORGIPL3` (all integers little-endian):
//!
//! ```text
//! magic "CORGIPL3"                      8 bytes
//! header_crc u32                        CRC-32 of everything from name_len
//!                                       through the end of the block index
//! name_len u32, name bytes
//! table_id u32, block_bytes u64, toast_threshold u64, toast_cap f64
//! tuple_count u64, block_count u64
//! per block: first_tuple u64, tuple_count u64, data_off u64, data_len u64,
//!            crc u32                    CRC-32 of the block's data region
//! data region: per tuple, len u32 + encoded tuple bytes
//! ```
//!
//! Crash safety: [`save_table`] writes a sibling temp file, syncs it, then
//! renames over the target — a crash mid-save leaves the old file intact,
//! never a torn one. Checksums make any surviving corruption detectable:
//! the header CRC covers the index, and each block CRC is verified before
//! its bytes are decoded, so a flipped bit surfaces as
//! [`StorageError::ChecksumMismatch`] rather than silent bad data. A file
//! that starts with any other magic — the retired, checksum-less `CORGIPL2`
//! included — is rejected as [`StorageError::Corrupt`] naming the magic.

use crate::codec::FieldReader;
use crate::crc::crc32;
use crate::error::StorageError;
use crate::fault::{sites, FaultInjector, FaultPlan, FaultStats, ReadOutcome, WriteOutcome};
use crate::retry::{with_retries, RetryPolicy};
use crate::table::{Table, TableBuilder, TableConfig};
use crate::tuple::Tuple;
use crate::wal::fsync_parent_dir;
use crate::Result;
use parking_lot::Mutex;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const MAGIC_V3: &[u8; 8] = b"CORGIPL3";
/// Header bytes between the name and the block index: table_id u32, then
/// block_bytes, toast_threshold, toast_cap, tuple_count, block_count.
const FIXED_FIELD_BYTES: usize = 4 + 5 * 8;
/// One block-index entry: four u64s and a crc u32.
const INDEX_ENTRY_BYTES: usize = 4 * 8 + 4;

fn io_err(op: &'static str, e: io::Error) -> StorageError {
    StorageError::Io {
        op,
        message: e.to_string(),
    }
}

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
/// then rename it into place. Used by training checkpoints and exported
/// model blobs; a crash at any point leaves either the old file or the new
/// one, never a torn mix.
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
        match i.on_write(sites::ATOMIC_WRITE_MID_RENAME) {
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
                return Err(StorageError::Crashed {
                    site: sites::ATOMIC_WRITE_MID_RENAME.into(),
                });
            }
            WriteOutcome::Crash => {
                return Err(StorageError::Crashed {
                    site: sites::ATOMIC_WRITE_MID_RENAME.into(),
                });
            }
        }
    }
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        io_err("rename temp", e)
    })?;
    fsync_parent_dir(path)
}

/// Serialize every block's tuple data: `(first_tuple, tuple_count, bytes)`.
fn encode_regions(table: &Table) -> Result<Vec<(u64, u64, Vec<u8>)>> {
    let mut regions = Vec::with_capacity(table.num_blocks());
    for blk in 0..table.num_blocks() {
        let meta = table.block(blk)?.clone();
        let mut data = Vec::new();
        for t in table.block_handle(blk)?.rows() {
            data.extend_from_slice(&(t.encoded_len() as u32).to_le_bytes());
            t.encode(&mut data);
        }
        regions.push((meta.tuples.start, meta.tuple_count() as u64, data));
    }
    Ok(regions)
}

/// Write `table` to `path` in the checksummed `CORGIPL3` heap format.
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
    let cfg = table.config();
    let regions = encode_regions(table)?;
    let name = cfg.name.as_bytes();
    // 8 magic + 4 header crc + the header region itself.
    let header_end = 8 + 4 + 4 + name.len() + FIXED_FIELD_BYTES + regions.len() * INDEX_ENTRY_BYTES;

    // Build the checksummed header region in memory.
    let mut hdr = Vec::with_capacity(header_end - 12);
    hdr.extend_from_slice(&(name.len() as u32).to_le_bytes());
    hdr.extend_from_slice(name);
    hdr.extend_from_slice(&cfg.table_id.to_le_bytes());
    hdr.extend_from_slice(&(cfg.block_bytes as u64).to_le_bytes());
    hdr.extend_from_slice(&(cfg.toast_threshold as u64).to_le_bytes());
    hdr.extend_from_slice(&cfg.toast_cap.to_le_bytes());
    hdr.extend_from_slice(&table.num_tuples().to_le_bytes());
    hdr.extend_from_slice(&(table.num_blocks() as u64).to_le_bytes());
    let mut off = header_end as u64;
    for (first, count, data) in &regions {
        hdr.extend_from_slice(&first.to_le_bytes());
        hdr.extend_from_slice(&count.to_le_bytes());
        hdr.extend_from_slice(&off.to_le_bytes());
        hdr.extend_from_slice(&(data.len() as u64).to_le_bytes());
        hdr.extend_from_slice(&crc32(data).to_le_bytes());
        off += data.len() as u64;
    }

    let tmp = temp_sibling(path);
    let write = (|| -> Result<()> {
        let f = std::fs::File::create(&tmp).map_err(|e| io_err("create temp", e))?;
        let mut w = io::BufWriter::new(f);
        w.write_all(MAGIC_V3).map_err(|e| io_err("write", e))?;
        w.write_all(&crc32(&hdr).to_le_bytes())
            .map_err(|e| io_err("write", e))?;
        w.write_all(&hdr).map_err(|e| io_err("write", e))?;
        for (_, _, data) in &regions {
            w.write_all(data).map_err(|e| io_err("write", e))?;
        }
        w.flush().map_err(|e| io_err("flush", e))?;
        w.get_ref().sync_all().map_err(|e| io_err("sync", e))?;
        Ok(())
    })();
    if let Err(e) = write {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    if let Some(i) = inj {
        match i.on_write(sites::SAVE_TABLE_MID_RENAME) {
            WriteOutcome::Ok => {}
            WriteOutcome::Fail(e) => {
                let _ = std::fs::remove_file(&tmp);
                return Err(e);
            }
            // A tear inside save_table's window behaves like a plain crash:
            // the synced temp sibling survives, the target is untouched (the
            // heap format's own CRCs reject any partial temp a weaker sync
            // discipline could leave).
            WriteOutcome::Torn { .. } | WriteOutcome::Crash => {
                return Err(StorageError::Crashed {
                    site: sites::SAVE_TABLE_MID_RENAME.into(),
                });
            }
        }
    }
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        io_err("rename temp", e)
    })?;
    fsync_parent_dir(path)
}

/// Metadata of one block inside a heap file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileBlockMeta {
    /// First tuple id in the block.
    pub first_tuple: u64,
    /// Tuples in the block.
    pub tuple_count: u64,
    /// Byte offset of the block's data region.
    pub data_off: u64,
    /// Byte length of the block's data region.
    pub data_len: u64,
    /// CRC-32 of the data region.
    pub crc: u32,
}

struct FileHeader {
    config: TableConfig,
    tuple_count: u64,
    blocks: Vec<FileBlockMeta>,
}

/// Append exactly `n` more bytes of `f` to `buf`. The buffer grows only as
/// bytes arrive, so a hostile length field costs no more memory than the
/// file holds; running out of file is `Corrupt`, not an I/O failure.
fn read_more<R: Read>(f: &mut R, buf: &mut Vec<u8>, n: usize) -> Result<()> {
    let got = f
        .take(n as u64)
        .read_to_end(buf)
        .map_err(|e| io_err("read header", e))?;
    if got < n {
        return Err(StorageError::Corrupt(format!(
            "heap file header: truncated ({got} of {n} bytes left)"
        )));
    }
    Ok(())
}

fn read_header<R: Read>(f: &mut R) -> Result<FileHeader> {
    let mut magic = [0u8; 8];
    f.read_exact(&mut magic)
        .map_err(|e| io_err("read magic", e))?;
    if &magic != MAGIC_V3 {
        return Err(StorageError::Corrupt(format!(
            "bad magic {:?} (not a CORGIPL3 heap file)",
            String::from_utf8_lossy(&magic)
        )));
    }
    // Stream the checksummed region into memory in three steps, each
    // sized by a field of the previous one: header_crc ∥ name_len, then
    // the name and the fixed-width fields, then the block index. Nothing
    // is decoded, and no index entry is reserved, before the CRC holds.
    let mut hdr = Vec::new();
    read_more(f, &mut hdr, 8)?;
    let expected = u32::from_le_bytes(hdr[..4].try_into().unwrap());
    let name_len = u32::from_le_bytes(hdr[4..8].try_into().unwrap()) as usize;
    if name_len > 1 << 16 {
        return Err(StorageError::Corrupt(format!(
            "implausible name length {name_len}"
        )));
    }
    read_more(f, &mut hdr, name_len + FIXED_FIELD_BYTES)?;
    let block_count = u64::from_le_bytes(hdr[hdr.len() - 8..].try_into().unwrap());
    if block_count > 1 << 24 {
        return Err(StorageError::Corrupt(format!(
            "implausible block count {block_count}"
        )));
    }
    read_more(f, &mut hdr, block_count as usize * INDEX_ENTRY_BYTES)?;
    let actual = crc32(&hdr[4..]);
    if actual != expected {
        return Err(StorageError::ChecksumMismatch {
            block: None,
            expected,
            actual,
        });
    }

    let mut r = FieldReader::new(&hdr[4..], "heap file header");
    let name = r.string()?;
    let table_id = r.u32()?;
    let block_bytes = r.u64()? as usize;
    let toast_threshold = r.u64()? as usize;
    let toast_cap = r.f64()?;
    let tuple_count = r.u64()?;
    let blocks = (0..r.u64()?)
        .map(|_| {
            Ok(FileBlockMeta {
                first_tuple: r.u64()?,
                tuple_count: r.u64()?,
                data_off: r.u64()?,
                data_len: r.u64()?,
                crc: r.u32()?,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    r.finish()?;
    let mut config = TableConfig::new(name, table_id).with_block_bytes(block_bytes.max(1));
    config.toast_threshold = toast_threshold;
    config.toast_cap = toast_cap;
    Ok(FileHeader {
        config,
        tuple_count,
        blocks,
    })
}

/// Verify a block's data region against its stored checksum.
fn verify_block_crc(block: usize, meta: &FileBlockMeta, data: &[u8]) -> Result<()> {
    let actual = crc32(data);
    if actual != meta.crc {
        return Err(StorageError::ChecksumMismatch {
            block: Some(block),
            expected: meta.crc,
            actual,
        });
    }
    Ok(())
}

fn decode_block(data: &[u8], expected: u64) -> Result<Vec<Tuple>> {
    let mut tuples = Vec::with_capacity(expected as usize);
    let mut pos = 0usize;
    while pos < data.len() {
        if pos + 4 > data.len() {
            return Err(StorageError::Corrupt("truncated tuple length".into()));
        }
        let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4;
        if pos + len > data.len() {
            return Err(StorageError::Corrupt("truncated tuple body".into()));
        }
        let (t, used) = Tuple::decode(&data[pos..pos + len])?;
        if used != len {
            return Err(StorageError::Corrupt("tuple length mismatch".into()));
        }
        tuples.push(t);
        pos += len;
    }
    if tuples.len() as u64 != expected {
        return Err(StorageError::Corrupt(format!(
            "block holds {} tuples, index says {expected}",
            tuples.len()
        )));
    }
    Ok(tuples)
}

/// Read a whole table previously written by [`save_table`].
pub fn load_table(path: &Path) -> Result<Table> {
    let mut f = io::BufReader::new(std::fs::File::open(path).map_err(|e| io_err("open", e))?);
    let header = read_header(&mut f)?;
    let mut builder = TableBuilder::new(header.config)?;
    let mut seen = 0u64;
    for (blk, meta) in header.blocks.iter().enumerate() {
        let mut data = vec![0u8; meta.data_len as usize];
        f.read_exact(&mut data)
            .map_err(|e| io_err("read block", e))?;
        verify_block_crc(blk, meta, &data)?;
        for t in decode_block(&data, meta.tuple_count)? {
            builder.append(t.view())?;
            seen += 1;
        }
    }
    if seen != header.tuple_count {
        return Err(StorageError::Corrupt(format!(
            "file declares {} tuples, found {seen}",
            header.tuple_count
        )));
    }
    Ok(builder.finish())
}

/// A heap file opened for block-granular access with real positioned I/O.
///
/// This is the storage path a production deployment would take: the table
/// stays on disk and CorgiPile's block-level shuffle issues one positioned
/// read per sampled block, verifying the block checksum before decoding.
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
    /// Open a heap file written by [`save_table`] without loading its data.
    pub fn open(path: &Path) -> Result<FileTable> {
        let mut f = std::fs::File::open(path).map_err(|e| io_err("open", e))?;
        let header = {
            let mut r = io::BufReader::new(&mut f);
            read_header(&mut r)?
        };
        Ok(FileTable {
            file: Mutex::new(f),
            config: header.config,
            tuple_count: header.tuple_count,
            blocks: header.blocks,
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
        *self.injector.lock() = Some(FaultInjector::new(plan));
    }

    /// Remove and return the fault injector.
    pub fn clear_fault_injector(&self) -> Option<FaultInjector> {
        self.injector.lock().take()
    }

    /// Counters of injected faults, if an injector is installed.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.injector.lock().as_ref().map(|i| i.stats().clone())
    }

    /// Read one block with a real positioned read, verifying its checksum.
    pub fn read_block(&self, id: usize) -> Result<Vec<Tuple>> {
        let meta = *self.blocks.get(id).ok_or(StorageError::BlockOutOfRange {
            block: id,
            blocks: self.blocks.len(),
        })?;
        if let Some(inj) = self.injector.lock().as_mut() {
            match inj.on_read(self.config.table_id, id) {
                ReadOutcome::Ok => {}
                // Real-I/O path: the spike is recorded in the injector's
                // stats; there is no simulated clock to charge.
                ReadOutcome::Delay(_) => {}
                ReadOutcome::Fail(e) => return Err(e),
            }
        }
        let mut data = vec![0u8; meta.data_len as usize];
        {
            let mut f = self.file.lock();
            f.seek(SeekFrom::Start(meta.data_off))
                .map_err(|e| io_err("seek", e))?;
            f.read_exact(&mut data)
                .map_err(|e| io_err("read block", e))?;
        }
        verify_block_crc(id, &meta, &data)?;
        decode_block(&data, meta.tuple_count)
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

    /// Byte offset where the data region starts in a v3 file.
    fn v3_data_start(path: &Path) -> u64 {
        let ft = FileTable::open(path).unwrap();
        ft.blocks().iter().map(|b| b.data_off).min().unwrap()
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
        let table = Table::from_tuples(TableConfig::new("empty", 1), std::iter::empty()).unwrap();
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
        // CORGIPL2 format included — for both the loader and the opener.
        for magic in [&b"NOTATABL"[..], b"CORGIPL2"] {
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

        let table = sample_table(50);
        save_table(&table, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(
            load_table(&path).is_err(),
            "truncated file must fail cleanly"
        );
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
        let data_start = v3_data_start(&path) as usize;
        let mut bytes = std::fs::read(&path).unwrap();
        let victim = data_start + (bytes.len() - data_start) / 2;
        bytes[victim] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let ft = FileTable::open(&path).unwrap();
        let bad_block = ft
            .blocks()
            .iter()
            .position(|b| {
                (b.data_off as usize..(b.data_off + b.data_len) as usize).contains(&victim)
            })
            .expect("victim byte lies in some block");
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
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the block index (after magic + crc + name).
        bytes[40] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            load_table(&path).is_err(),
            "header corruption must be detected"
        );
        // A hostile block count — the largest the sanity bound admits — in
        // a file that does not hold the index it promises: typed `Corrupt`
        // from the bytes actually there, before any index entry is reserved.
        bytes[40] ^= 0x01;
        let block_count_at = 16 + "persisted".len() + FIXED_FIELD_BYTES - 8;
        bytes[block_count_at..block_count_at + 8].copy_from_slice(&(1u64 << 24).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        for result in [load_table(&path).err(), FileTable::open(&path).err()] {
            match result {
                Some(StorageError::Corrupt(msg)) => assert!(msg.contains("truncated"), "{msg}"),
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
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
        assert!(ft.fault_stats().unwrap().total_failures() >= 4);
        assert!(ft.clear_fault_injector().is_some());
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

        /// Satellite requirement: *any* single-byte corruption of a saved
        /// `CORGIPL3` file is detected — never a panic, never silent bad
        /// data. Corruption in the data region is specifically surfaced as
        /// `ChecksumMismatch` by the block read.
        #[test]
        fn prop_single_byte_corruption_always_detected(
            frac in 0.0f64..1.0,
            bit in 0u32..8,
            case in 0u32..1_000_000,
        ) {
            let table = sample_table(80);
            let path = tmp(&format!("prop_corrupt_{case}.tbl"));
            save_table(&table, &path).unwrap();
            let data_start = v3_data_start(&path) as usize;
            let mut bytes = std::fs::read(&path).unwrap();
            let victim = ((frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
            bytes[victim] ^= 1 << bit;
            std::fs::write(&path, &bytes).unwrap();

            // The whole-file load must reject the corruption, whatever got
            // hit (magic, header, index, or data).
            prop_assert!(load_table(&path).is_err());

            if victim >= data_start {
                // Header intact ⇒ the file opens, and the damaged block's
                // read reports a checksum mismatch.
                let ft = FileTable::open(&path).unwrap();
                let bad = ft.blocks().iter().position(|b| {
                    (b.data_off as usize..(b.data_off + b.data_len) as usize).contains(&victim)
                });
                if let Some(bad) = bad {
                    prop_assert!(matches!(
                        ft.read_block(bad),
                        Err(StorageError::ChecksumMismatch { .. })
                    ));
                }
            }
            std::fs::remove_file(path).ok();
        }
    }
}
