//! Database errors.

use corgipile_storage::StorageError;
use std::fmt;

/// Errors from the SQL surface and executor.
///
/// Marked `#[non_exhaustive]`: downstream matches must include a wildcard
/// arm so new error variants can be added without a breaking release.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DbError {
    /// Query text could not be parsed.
    Parse(String),
    /// Referenced table does not exist.
    UnknownTable(String),
    /// Referenced model does not exist.
    UnknownModel(String),
    /// Unknown model kind in `TRAIN BY <kind>`.
    UnknownModelKind(String),
    /// Unknown strategy name.
    UnknownStrategy(String),
    /// Unknown or out-of-range column in a projection or predicate
    /// (detected at parse or logical-planning time, never at execution).
    UnknownColumn(String),
    /// Parameter error (bad name, type or value).
    BadParam(String),
    /// Checkpoint/resume failure (mismatched seed, shape, or optimizer).
    Checkpoint(String),
    /// Storage-layer failure.
    Storage(StorageError),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Parse(m) => write!(f, "parse error: {m}"),
            DbError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            DbError::UnknownModel(m) => write!(f, "unknown model: {m}"),
            DbError::UnknownModelKind(m) => write!(f, "unknown model kind: {m}"),
            DbError::UnknownStrategy(s) => write!(f, "unknown strategy: {s}"),
            DbError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            DbError::BadParam(m) => write!(f, "bad parameter: {m}"),
            DbError::Checkpoint(m) => write!(f, "checkpoint error: {m}"),
            DbError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<StorageError> for DbError {
    fn from(e: StorageError) -> Self {
        DbError::Storage(e)
    }
}

impl From<corgipile_core::CheckpointMismatch> for DbError {
    fn from(e: corgipile_core::CheckpointMismatch) -> Self {
        DbError::Checkpoint(e.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(DbError::UnknownTable("foo".into())
            .to_string()
            .contains("foo"));
        assert!(DbError::Parse("x".into()).to_string().contains("parse"));
    }

    #[test]
    fn storage_errors_convert() {
        let e: DbError = StorageError::EmptyTable.into();
        assert!(matches!(e, DbError::Storage(_)));
    }
}
