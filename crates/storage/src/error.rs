//! Error types for the storage substrate.

use std::fmt;

/// Errors raised by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StorageError {
    /// A tuple could not be decoded from its binary representation.
    Corrupt(String),
    /// A page has no room for the requested tuple and the tuple is not
    /// eligible for a jumbo page.
    PageFull { needed: usize, free: usize },
    /// A block id was out of range for the table.
    BlockOutOfRange { block: usize, blocks: usize },
    /// A page id was out of range for the table.
    PageOutOfRange { page: usize, pages: usize },
    /// The table is empty where data was required.
    EmptyTable,
    /// Invalid configuration (e.g. zero block size).
    InvalidConfig(String),
    /// An operating-system I/O error, tagged with the operation that failed.
    Io { op: &'static str, message: String },
    /// Stored bytes failed checksum verification. `block` is `None` when the
    /// mismatch is in a file header rather than a data block.
    ChecksumMismatch {
        block: Option<usize>,
        expected: u32,
        actual: u32,
    },
    /// A block read failed after `attempts` attempts (faults, exhausted
    /// retries).
    ReadFailed {
        block: usize,
        attempts: u32,
        message: String,
    },
    /// A write at a named write site failed after `attempts` attempts
    /// (transient media faults, exhausted retries). The write-path mirror of
    /// [`StorageError::ReadFailed`].
    WriteFailed {
        site: String,
        attempts: u32,
        message: String,
    },
    /// A deterministic injected crash fired at a named write site: the
    /// simulated process died mid-write. Never retryable — the only way
    /// forward is recovery from durable state.
    Crashed { site: String },
}

impl StorageError {
    /// Whether a retry of the failed operation could plausibly succeed.
    ///
    /// Transient I/O errors, checksum mismatches (a torn transfer may read
    /// clean the second time), and fault-injected read/write failures are
    /// retryable; structural errors (out-of-range ids, bad configuration,
    /// undecodable tuples) are not, and neither is an injected crash — a
    /// dead process cannot retry anything.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            StorageError::Io { .. }
                | StorageError::ChecksumMismatch { .. }
                | StorageError::ReadFailed { .. }
                | StorageError::WriteFailed { .. }
        )
    }
}

/// A [`StorageError::Io`] for the failed operation `op`.
pub fn io_err(op: &'static str, e: std::io::Error) -> StorageError {
    StorageError::Io {
        op,
        message: e.to_string(),
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Corrupt(msg) => write!(f, "corrupt tuple data: {msg}"),
            StorageError::PageFull { needed, free } => {
                write!(f, "page full: needed {needed} bytes, {free} free")
            }
            StorageError::BlockOutOfRange { block, blocks } => {
                write!(f, "block {block} out of range (table has {blocks} blocks)")
            }
            StorageError::PageOutOfRange { page, pages } => {
                write!(f, "page {page} out of range (table has {pages} pages)")
            }
            StorageError::EmptyTable => write!(f, "operation requires a non-empty table"),
            StorageError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            StorageError::Io { op, message } => write!(f, "io error during {op}: {message}"),
            StorageError::ChecksumMismatch {
                block,
                expected,
                actual,
            } => match block {
                Some(b) => write!(
                    f,
                    "checksum mismatch in block {b}: expected {expected:#010x}, got {actual:#010x}"
                ),
                None => write!(
                    f,
                    "header checksum mismatch: expected {expected:#010x}, got {actual:#010x}"
                ),
            },
            StorageError::ReadFailed {
                block,
                attempts,
                message,
            } => {
                write!(
                    f,
                    "read of block {block} failed after {attempts} attempt(s): {message}"
                )
            }
            StorageError::WriteFailed {
                site,
                attempts,
                message,
            } => {
                write!(
                    f,
                    "write at {site} failed after {attempts} attempt(s): {message}"
                )
            }
            StorageError::Crashed { site } => {
                write!(f, "simulated crash at write site {site}")
            }
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = StorageError::PageFull {
            needed: 100,
            free: 10,
        };
        assert!(e.to_string().contains("needed 100"));
        let e = StorageError::BlockOutOfRange {
            block: 7,
            blocks: 3,
        };
        assert!(e.to_string().contains("block 7"));
        assert!(e.to_string().contains("3 blocks"));
    }

    #[test]
    fn retryable_classification() {
        assert!(StorageError::Io {
            op: "read",
            message: "eio".into()
        }
        .is_retryable());
        assert!(StorageError::ChecksumMismatch {
            block: Some(1),
            expected: 1,
            actual: 2
        }
        .is_retryable());
        assert!(StorageError::ReadFailed {
            block: 0,
            attempts: 3,
            message: "x".into()
        }
        .is_retryable());
        assert!(!StorageError::EmptyTable.is_retryable());
        assert!(!StorageError::BlockOutOfRange {
            block: 1,
            blocks: 1
        }
        .is_retryable());
        assert!(!StorageError::Corrupt("bad".into()).is_retryable());
        assert!(!StorageError::InvalidConfig("bad".into()).is_retryable());
    }

    #[test]
    fn write_path_retryable_classification() {
        // WriteFailed mirrors ReadFailed: a transient media fault may clear on
        // the next attempt.
        assert!(StorageError::WriteFailed {
            site: "wal.append".into(),
            attempts: 3,
            message: "enospc".into()
        }
        .is_retryable());
        // An injected crash is terminal: the simulated process is gone.
        assert!(!StorageError::Crashed {
            site: "wal.after_append_before_fsync".into()
        }
        .is_retryable());
    }

    #[test]
    fn write_path_messages_are_informative() {
        let e = StorageError::WriteFailed {
            site: "atomic_write.mid_rename".into(),
            attempts: 4,
            message: "eio".into(),
        };
        assert!(e.to_string().contains("atomic_write.mid_rename"));
        assert!(e.to_string().contains("4 attempt"));
        assert!(e.to_string().contains("eio"));
        let e = StorageError::Crashed {
            site: "wal.after_fsync".into(),
        };
        assert!(e.to_string().contains("crash"));
        assert!(e.to_string().contains("wal.after_fsync"));
    }

    #[test]
    fn new_variant_messages_are_informative() {
        let e = StorageError::ChecksumMismatch {
            block: Some(4),
            expected: 0xAB,
            actual: 0xCD,
        };
        assert!(e.to_string().contains("block 4"));
        let e = StorageError::ChecksumMismatch {
            block: None,
            expected: 1,
            actual: 2,
        };
        assert!(e.to_string().contains("header"));
        let e = StorageError::ReadFailed {
            block: 9,
            attempts: 5,
            message: "dead".into(),
        };
        assert!(e.to_string().contains("block 9"));
        assert!(e.to_string().contains("5 attempt"));
        let e = StorageError::Io {
            op: "rename",
            message: "denied".into(),
        };
        assert!(e.to_string().contains("rename"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(StorageError::EmptyTable, StorageError::EmptyTable);
        assert_ne!(
            StorageError::EmptyTable,
            StorageError::Corrupt("x".to_string())
        );
    }
}
