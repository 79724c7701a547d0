//! Append-only, CRC-framed write-ahead log (`CORGIWL1`).
//!
//! The durable model store journals every model version through this log
//! before acknowledging it, so a crash at any point loses at most the
//! record being appended — never a previously-fsynced one, and never the
//! log's integrity.
//!
//! Format: the magic `CORGIWL1`, then one frame per record
//! ([`crate::codec`]: `len u32 ∥ rtype u8 ∥ payload ∥ crc32`).
//!
//! Append protocol: frame the record, write it at the end of the file,
//! `fsync`, acknowledge. Recovery ([`Wal::open`]) scans the longest valid
//! prefix — a record counts only if its full frame is present *and* its CRC
//! verifies — and truncates everything after it (the torn tail a crash
//! between write and fsync can leave). Truncation-at-any-offset safety is
//! proven by a property test: for every byte offset at which the file can
//! be cut, recovery yields exactly the records whose frames lie wholly
//! inside the cut, never an error and never a phantom record.
//!
//! Crash injection: every append visits the named write sites
//! [`sites::WAL_BEFORE_APPEND`], [`sites::WAL_AFTER_APPEND_BEFORE_FSYNC`]
//! and [`sites::WAL_AFTER_FSYNC`] on an optional [`FaultInjector`]. A crash
//! before the fsync loses the record (the file is wound back, modelling
//! page-cache loss); a torn write persists only a prefix of the frame; a
//! crash after the fsync loses nothing. All three are exercised by the
//! crash-matrix harness in `corgipile-db`.

use crate::error::{io_err, StorageError};
use crate::fault::{crash_point, sites, FaultInjector, WriteOutcome};
use crate::retry::{with_retries, RetryPolicy};
use crate::Result;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

// The frame format lives in the shared codec; re-exported here so existing
// `wal::…` paths keep working.
use crate::codec::{check_magic, put_frame};
pub use crate::codec::{
    scan_valid_prefix, WalRecord, WAL_FRAME_OVERHEAD, WAL_MAGIC, WAL_MAX_PAYLOAD,
};

/// Fsync the directory containing `path`, making a completed rename or
/// create durable. On filesystems where directories cannot be fsynced the
/// error is surfaced, not swallowed — durability claims should fail loudly.
pub fn fsync_parent_dir(path: &Path) -> Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let dir = std::fs::File::open(parent).map_err(|e| io_err("open parent dir", e))?;
    dir.sync_all().map_err(|e| io_err("fsync parent dir", e))
}

/// An open `CORGIWL1` write-ahead log.
///
/// [`Wal::open`] performs recovery (longest-valid-prefix scan + torn-tail
/// truncation) and returns the surviving records; [`Wal::append`] fsyncs
/// each record before acknowledging it.
#[derive(Debug)]
pub struct Wal {
    file: std::fs::File,
    path: PathBuf,
    /// Valid length of the log, in bytes (magic included). Bytes past this
    /// are never acknowledged.
    len: u64,
    records: u64,
    torn_tail_bytes: u64,
    fsyncs: u64,
    appended_bytes: u64,
}

impl Wal {
    /// Open (or create, with its directory) the log at `path`, recovering
    /// its valid prefix.
    ///
    /// Returns the recovered records in append order. A torn tail — bytes
    /// past the last fully-valid record — is truncated away and counted in
    /// [`Wal::torn_tail_bytes`]. A file that does not start with a prefix
    /// of the magic is rejected as [`StorageError::Corrupt`].
    pub fn open(path: &Path) -> Result<(Wal, Vec<WalRecord>)> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| io_err("create wal dir", e))?;
        }
        let existing = match std::fs::read(path) {
            Ok(bytes) => Some(bytes),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(io_err("read wal", e)),
        };
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| io_err("open wal", e))?;

        let (records, valid_len, torn) = match &existing {
            None => (Vec::new(), 0, 0),
            // A crash could tear even the magic write: a strict prefix of
            // the magic is a torn header, anything else is foreign.
            Some(bytes) if bytes.len() < WAL_MAGIC.len() && WAL_MAGIC.starts_with(bytes) => {
                (Vec::new(), 0, bytes.len())
            }
            Some(bytes) => {
                check_magic(WAL_MAGIC, bytes, "wal")?;
                let (records, valid) = scan_valid_prefix(bytes);
                (records, valid, bytes.len() - valid)
            }
        };

        if valid_len == 0 {
            // Fresh or torn-header log: (re)write the magic from scratch.
            file.set_len(0).map_err(|e| io_err("truncate wal", e))?;
            file.seek(SeekFrom::Start(0))
                .map_err(|e| io_err("seek wal", e))?;
            file.write_all(WAL_MAGIC)
                .map_err(|e| io_err("write wal magic", e))?;
        } else {
            file.set_len(valid_len as u64)
                .map_err(|e| io_err("truncate wal", e))?;
            file.seek(SeekFrom::End(0))
                .map_err(|e| io_err("seek wal", e))?;
        }
        file.sync_all().map_err(|e| io_err("fsync wal", e))?;
        if existing.is_none() {
            fsync_parent_dir(path)?;
        }

        let wal = Wal {
            file,
            path: path.to_path_buf(),
            len: valid_len.max(WAL_MAGIC.len()) as u64,
            records: records.len() as u64,
            torn_tail_bytes: torn as u64,
            fsyncs: 1,
            appended_bytes: 0,
        };
        Ok((wal, records))
    }

    /// Append one record and fsync it, visiting the WAL write sites on
    /// `inj` if given.
    ///
    /// On an injected crash the on-disk file is left exactly as the dead
    /// process would have: nothing at `wal.before_append`, the unsynced
    /// frame wound back (or a torn prefix of it persisted) at
    /// `wal.after_append_before_fsync`, and the full durable record at
    /// `wal.after_fsync`. The in-memory `Wal` must be dropped after a
    /// [`StorageError::Crashed`] — recovery is a fresh [`Wal::open`].
    pub fn append(
        &mut self,
        rtype: u8,
        payload: &[u8],
        mut inj: Option<&mut FaultInjector>,
    ) -> Result<()> {
        if payload.len() > WAL_MAX_PAYLOAD {
            return Err(StorageError::InvalidConfig(format!(
                "WAL payload of {} bytes exceeds the {} cap",
                payload.len(),
                WAL_MAX_PAYLOAD
            )));
        }
        let mut frame = Vec::with_capacity(WAL_FRAME_OVERHEAD + payload.len());
        put_frame(&mut frame, rtype, payload);

        if let Some(i) = inj.as_deref_mut() {
            match i.on_write(sites::WAL_BEFORE_APPEND) {
                WriteOutcome::Ok => {}
                WriteOutcome::Fail(e) => return Err(e),
                WriteOutcome::Torn { valid_bytes } => {
                    // The append itself tears: a prefix of the frame reaches
                    // the medium, then the process dies.
                    let keep = valid_bytes.min(frame.len());
                    self.file
                        .write_all(&frame[..keep])
                        .map_err(|e| io_err("write wal", e))?;
                    self.file.sync_all().map_err(|e| io_err("fsync wal", e))?;
                    return Err(StorageError::Crashed {
                        site: sites::WAL_BEFORE_APPEND.into(),
                    });
                }
                WriteOutcome::Crash => {
                    return Err(StorageError::Crashed {
                        site: sites::WAL_BEFORE_APPEND.into(),
                    });
                }
            }
        }

        self.file
            .write_all(&frame)
            .map_err(|e| io_err("write wal", e))?;

        if let Some(i) = inj.as_deref_mut() {
            match i.on_write(sites::WAL_AFTER_APPEND_BEFORE_FSYNC) {
                WriteOutcome::Ok => {}
                WriteOutcome::Fail(e) => {
                    // Transient failure before the fsync: wind the file back
                    // so a retry starts from a clean end-of-log.
                    self.rewind_to_valid()?;
                    return Err(e);
                }
                WriteOutcome::Torn { valid_bytes } => {
                    // The crash catches the frame half-flushed: only a
                    // prefix survives in the file.
                    let keep = valid_bytes.min(frame.len());
                    self.file
                        .set_len(self.len + keep as u64)
                        .map_err(|e| io_err("truncate wal", e))?;
                    self.file.sync_all().map_err(|e| io_err("fsync wal", e))?;
                    return Err(StorageError::Crashed {
                        site: sites::WAL_AFTER_APPEND_BEFORE_FSYNC.into(),
                    });
                }
                WriteOutcome::Crash => {
                    // The unsynced frame dies with the page cache.
                    self.rewind_to_valid()?;
                    return Err(StorageError::Crashed {
                        site: sites::WAL_AFTER_APPEND_BEFORE_FSYNC.into(),
                    });
                }
            }
        }

        self.file.sync_data().map_err(|e| io_err("fsync wal", e))?;
        self.fsyncs += 1;
        self.len += frame.len() as u64;
        self.records += 1;
        self.appended_bytes += frame.len() as u64;

        // The record is already durable; a crash here loses nothing.
        crash_point(inj, sites::WAL_AFTER_FSYNC)
    }

    /// [`Wal::append`] with bounded retries, mirroring
    /// [`FileTable::read_block_retry`](crate::FileTable::read_block_retry):
    /// retryable failures are re-attempted up to `policy.max_retries` times
    /// before a [`StorageError::WriteFailed`] reports the exhausted attempt
    /// count. A [`StorageError::Crashed`] is never retried.
    pub fn append_retry(
        &mut self,
        rtype: u8,
        payload: &[u8],
        mut inj: Option<&mut FaultInjector>,
        policy: &RetryPolicy,
    ) -> Result<()> {
        with_retries(
            policy,
            |_| self.append(rtype, payload, inj.as_deref_mut()),
            |attempts, message| StorageError::WriteFailed {
                site: sites::WAL_BEFORE_APPEND.into(),
                attempts,
                message,
            },
        )
    }

    /// Truncate the log back to just its magic (after a compaction snapshot
    /// has made the records redundant). Fsyncs before returning.
    pub fn reset(&mut self) -> Result<()> {
        self.file
            .set_len(WAL_MAGIC.len() as u64)
            .map_err(|e| io_err("truncate wal", e))?;
        self.file
            .seek(SeekFrom::End(0))
            .map_err(|e| io_err("seek wal", e))?;
        self.file.sync_all().map_err(|e| io_err("fsync wal", e))?;
        self.fsyncs += 1;
        self.len = WAL_MAGIC.len() as u64;
        self.records = 0;
        Ok(())
    }

    /// Wind the file back to the last acknowledged byte.
    fn rewind_to_valid(&mut self) -> Result<()> {
        self.file
            .set_len(self.len)
            .map_err(|e| io_err("truncate wal", e))?;
        self.file
            .seek(SeekFrom::End(0))
            .map_err(|e| io_err("seek wal", e))?;
        Ok(())
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Valid log length in bytes (magic included).
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Torn-tail bytes truncated during recovery at open.
    pub fn torn_tail_bytes(&self) -> u64 {
        self.torn_tail_bytes
    }

    /// Fsyncs issued since open (recovery's sync included).
    pub fn fsync_count(&self) -> u64 {
        self.fsyncs
    }

    /// Frame bytes appended (and acknowledged) since open.
    pub fn appended_bytes(&self) -> u64 {
        self.appended_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use proptest::prelude::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("corgi_wal_{}_{name}", std::process::id()))
    }

    fn payload(i: u64) -> Vec<u8> {
        // Variable-length payloads so frame boundaries are irregular.
        let mut p = i.to_le_bytes().to_vec();
        p.extend(std::iter::repeat_n(i as u8, (i % 13) as usize));
        p
    }

    #[test]
    fn append_and_reopen_roundtrips() {
        let path = tmp("roundtrip.wal");
        std::fs::remove_file(&path).ok();
        {
            let (mut wal, recovered) = Wal::open(&path).unwrap();
            assert!(recovered.is_empty());
            for i in 0..20u64 {
                wal.append((i % 3) as u8, &payload(i), None).unwrap();
            }
            assert_eq!(wal.records, 20);
            assert!(wal.fsync_count() >= 21);
        }
        let (wal, recovered) = Wal::open(&path).unwrap();
        assert_eq!(recovered.len(), 20);
        assert_eq!(wal.torn_tail_bytes(), 0);
        for (i, r) in recovered.iter().enumerate() {
            assert_eq!(r.rtype, (i % 3) as u8);
            assert_eq!(r.payload, payload(i as u64));
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn reset_empties_the_log() {
        let path = tmp("reset.wal");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(1, b"abc", None).unwrap();
        wal.reset().unwrap();
        assert_eq!(wal.records, 0);
        wal.append(2, b"def", None).unwrap();
        drop(wal);
        let (_, recovered) = Wal::open(&path).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].payload, b"def");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn foreign_file_is_rejected() {
        let path = tmp("foreign.wal");
        std::fs::write(&path, b"DEFINITELY NOT A WAL").unwrap();
        assert!(matches!(Wal::open(&path), Err(StorageError::Corrupt(_))));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn torn_magic_recovers_to_empty_log() {
        let path = tmp("torn_magic.wal");
        std::fs::write(&path, &WAL_MAGIC[..3]).unwrap();
        let (wal, recovered) = Wal::open(&path).unwrap();
        assert!(recovered.is_empty());
        assert_eq!(wal.torn_tail_bytes(), 3);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn scan_stops_at_forged_length() {
        let mut bytes = WAL_MAGIC.to_vec();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&[0u8; 64]);
        let (records, valid) = scan_valid_prefix(&bytes);
        assert!(records.is_empty());
        assert_eq!(valid, WAL_MAGIC.len());
    }

    #[test]
    fn scan_stops_at_corrupt_crc() {
        let path = tmp("badcrc.wal");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(1, b"first", None).unwrap();
        wal.append(2, b"second", None).unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a bit inside the second record's payload.
        let idx = bytes.len() - 3;
        bytes[idx] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let (wal, recovered) = Wal::open(&path).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].payload, b"first");
        assert!(wal.torn_tail_bytes() > 0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn crash_before_append_loses_the_record_only() {
        let path = tmp("crash_pre.wal");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(1, b"kept", None).unwrap();
        let mut inj =
            FaultInjector::new(FaultPlan::new(1).with_crash_point(sites::WAL_BEFORE_APPEND, 1));
        match wal.append(2, b"lost", Some(&mut inj)) {
            Err(StorageError::Crashed { site }) => {
                assert_eq!(site, sites::WAL_BEFORE_APPEND);
            }
            other => panic!("expected crash, got {other:?}"),
        }
        drop(wal);
        let (_, recovered) = Wal::open(&path).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].payload, b"kept");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn crash_between_append_and_fsync_loses_the_unsynced_record() {
        let path = tmp("crash_mid.wal");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(1, b"durable", None).unwrap();
        let mut inj = FaultInjector::new(
            FaultPlan::new(1).with_crash_point(sites::WAL_AFTER_APPEND_BEFORE_FSYNC, 1),
        );
        assert!(matches!(
            wal.append(2, b"in page cache", Some(&mut inj)),
            Err(StorageError::Crashed { .. })
        ));
        drop(wal);
        let (wal, recovered) = Wal::open(&path).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].payload, b"durable");
        assert_eq!(wal.torn_tail_bytes(), 0, "file was wound back cleanly");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn crash_after_fsync_loses_nothing() {
        let path = tmp("crash_post.wal");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = Wal::open(&path).unwrap();
        let mut inj =
            FaultInjector::new(FaultPlan::new(1).with_crash_point(sites::WAL_AFTER_FSYNC, 1));
        assert!(matches!(
            wal.append(1, b"durable anyway", Some(&mut inj)),
            Err(StorageError::Crashed { .. })
        ));
        drop(wal);
        let (_, recovered) = Wal::open(&path).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].payload, b"durable anyway");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn torn_append_leaves_recoverable_prefix() {
        let path = tmp("torn_tail.wal");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(1, b"whole", None).unwrap();
        let mut inj = FaultInjector::new(
            FaultPlan::new(1).with_torn_write(sites::WAL_AFTER_APPEND_BEFORE_FSYNC, 6),
        );
        assert!(matches!(
            wal.append(2, b"half flushed", Some(&mut inj)),
            Err(StorageError::Crashed { .. })
        ));
        drop(wal);
        let (wal, recovered) = Wal::open(&path).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].payload, b"whole");
        assert_eq!(wal.torn_tail_bytes(), 6, "the torn frame prefix is cut");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn retryable_write_faults_are_absorbed_by_append_retry() {
        let path = tmp("retry.wal");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = Wal::open(&path).unwrap();
        let mut inj =
            FaultInjector::new(FaultPlan::new(1).with_write_failed(sites::WAL_BEFORE_APPEND, 2));
        wal.append_retry(1, b"persists", Some(&mut inj), &RetryPolicy::default())
            .unwrap();
        assert_eq!(inj.stats().write_failures, 2);
        drop(wal);
        let (_, recovered) = Wal::open(&path).unwrap();
        assert_eq!(recovered.len(), 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn exhausted_write_retries_mirror_read_retries() {
        let path = tmp("retry_exhausted.wal");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = Wal::open(&path).unwrap();
        let mut inj =
            FaultInjector::new(FaultPlan::new(1).with_write_failed(sites::WAL_BEFORE_APPEND, 100));
        match wal.append_retry(
            1,
            b"never lands",
            Some(&mut inj),
            &RetryPolicy::with_max_retries(2),
        ) {
            Err(StorageError::WriteFailed { site, attempts, .. }) => {
                assert_eq!(site, sites::WAL_BEFORE_APPEND);
                assert_eq!(attempts, 3);
            }
            other => panic!("expected exhausted retries, got {other:?}"),
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn crash_is_not_retried() {
        let path = tmp("crash_no_retry.wal");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = Wal::open(&path).unwrap();
        let mut inj =
            FaultInjector::new(FaultPlan::new(1).with_crash_point(sites::WAL_BEFORE_APPEND, 1));
        assert!(matches!(
            wal.append_retry(1, b"x", Some(&mut inj), &RetryPolicy::default()),
            Err(StorageError::Crashed { .. })
        ));
        assert_eq!(
            inj.write_visits(sites::WAL_BEFORE_APPEND),
            1,
            "a crash must not be retried"
        );
        std::fs::remove_file(path).ok();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Satellite requirement: recovery of a log truncated at *any* byte
        /// offset yields exactly the records whose frames lie wholly inside
        /// the cut — never an error, never a phantom record.
        #[test]
        fn prop_truncation_at_any_offset_recovers_valid_prefix(
            n_records in 0usize..8,
            frac in 0.0f64..=1.0,
            case in 0u32..1_000_000,
        ) {
            // Build a reference image in memory.
            let mut image = WAL_MAGIC.to_vec();
            let mut boundaries = vec![image.len()];
            for i in 0..n_records {
                put_frame(&mut image, (i % 5) as u8, &payload(i as u64));
                boundaries.push(image.len());
            }
            let cut = ((frac * image.len() as f64) as usize).min(image.len());
            let truncated = &image[..cut];

            // Expected: records whose frames end at or before the cut.
            let expected = boundaries.iter().filter(|&&b| b > WAL_MAGIC.len() && b <= cut).count();

            // Pure scan agrees.
            let (records, valid) = scan_valid_prefix(truncated);
            prop_assert_eq!(records.len(), expected);
            prop_assert!(valid <= cut);
            for (i, r) in records.iter().enumerate() {
                prop_assert_eq!(r.rtype, (i % 5) as u8);
                prop_assert_eq!(&r.payload, &payload(i as u64));
            }

            // Filesystem recovery agrees and never errors.
            let path = tmp(&format!("prop_trunc_{case}.wal"));
            std::fs::write(&path, truncated).unwrap();
            let (wal, recovered) = Wal::open(&path).unwrap();
            prop_assert_eq!(recovered.len(), expected);
            prop_assert_eq!(recovered, records);
            prop_assert_eq!(wal.torn_tail_bytes() as usize, cut - valid);
            // Recovery is stable: a second open finds the same records and
            // no further torn tail.
            drop(wal);
            let (wal2, again) = Wal::open(&path).unwrap();
            prop_assert_eq!(again.len(), expected);
            prop_assert_eq!(wal2.torn_tail_bytes(), 0);
            std::fs::remove_file(path).ok();
        }
    }
}
