//! Bounded exponential-backoff retry: one policy, one loop.
//!
//! [`with_retries`] is the only retry loop in the engine: a retryable
//! failure is re-attempted at most `max_retries` times, and exhaustion is
//! reported through the caller's own error. Its three callers differ only
//! in what a retry costs and what exhaustion is called:
//!
//! * [`Table::read`](crate::Table::read) — the simulated device: each
//!   retry first waits its [`RetryPolicy::backoff`] on the simulated clock
//!   and counts in `IoStats::retries`; exhaustion is
//!   [`StorageError::ReadFailed`].
//! * [`FileTable::read_block_retry`](crate::FileTable::read_block_retry) —
//!   real positioned reads: a retry costs nothing but the read itself;
//!   exhaustion is [`StorageError::ReadFailed`].
//! * [`Wal::append_retry`](crate::Wal::append_retry) — real appends:
//!   likewise; exhaustion is [`StorageError::WriteFailed`].

use crate::clock;
use crate::error::StorageError;
use crate::Result;

/// Retry policy with bounded exponential backoff.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum retries after the first attempt (0 = fail fast).
    pub max_retries: u32,
    /// Backoff before the first retry, in seconds.
    pub base_backoff_s: f64,
    /// Multiplier applied per further retry.
    pub multiplier: f64,
    /// Upper bound on a single backoff interval, in seconds.
    pub max_backoff_s: f64,
}

impl Default for RetryPolicy {
    /// 4 retries, backing off as [`clock::RETRY_BACKOFF`] prices it:
    /// 1 ms → 2 ms → 4 ms → 8 ms, capped at 100 ms.
    fn default() -> Self {
        let (base_backoff_s, multiplier, max_backoff_s) = clock::RETRY_BACKOFF;
        RetryPolicy {
            max_retries: 4,
            base_backoff_s,
            multiplier,
            max_backoff_s,
        }
    }
}

impl RetryPolicy {
    /// No retries: the first failure is final.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            ..Default::default()
        }
    }

    /// A policy with `max_retries` retries and default backoff shape.
    pub fn with_max_retries(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            ..Default::default()
        }
    }

    /// Backoff before retry number `attempt` (0-based). Monotone
    /// non-decreasing in `attempt` and never negative.
    pub fn backoff(&self, attempt: u32) -> f64 {
        let raw = self.base_backoff_s * self.multiplier.powi(attempt.min(1_000) as i32);
        raw.clamp(0.0, self.max_backoff_s.max(0.0))
    }

    /// Total backoff charged by `attempts` consecutive retries.
    pub fn total_backoff(&self, attempts: u32) -> f64 {
        (0..attempts).map(|a| self.backoff(a)).sum()
    }
}

/// Run `op` under `policy`. `op` is handed the 0-based attempt number, so
/// a caller with a per-retry cost pays it at the head of every attempt but
/// the first. A retryable error ([`StorageError::is_retryable`]) is
/// re-attempted up to `policy.max_retries` times; after that `exhausted`
/// turns the attempt count and the last error's text into the error to
/// report. Any other error surfaces at once.
pub fn with_retries<T>(
    policy: &RetryPolicy,
    mut op: impl FnMut(u32) -> Result<T>,
    exhausted: impl FnOnce(u32, String) -> StorageError,
) -> Result<T> {
    let mut attempt = 0u32;
    loop {
        match op(attempt) {
            Err(e) if e.is_retryable() && attempt < policy.max_retries => attempt += 1,
            Err(e) if e.is_retryable() => return Err(exhausted(attempt + 1, e.to_string())),
            other => return other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn default_doubles_until_cap() {
        let p = RetryPolicy::default();
        assert!((p.backoff(0) - 1e-3).abs() < 1e-12);
        assert!((p.backoff(1) - 2e-3).abs() < 1e-12);
        assert!((p.backoff(2) - 4e-3).abs() < 1e-12);
        assert!(
            (p.backoff(20) - 0.1).abs() < 1e-12,
            "capped at max_backoff_s"
        );
    }

    #[test]
    fn none_disables_retries() {
        assert_eq!(RetryPolicy::none().max_retries, 0);
    }

    #[test]
    fn one_policy_drives_read_and_write_retries() {
        // The policy is error-agnostic: retry loops gate on
        // `StorageError::is_retryable`, so the same policy instance governs
        // block reads and WAL appends symmetrically.
        use crate::error::StorageError;
        let read = StorageError::ReadFailed {
            block: 0,
            attempts: 1,
            message: "x".into(),
        };
        let write = StorageError::WriteFailed {
            site: "wal.before_append".into(),
            attempts: 1,
            message: "x".into(),
        };
        assert_eq!(read.is_retryable(), write.is_retryable());
        let crash = StorageError::Crashed {
            site: "wal.after_fsync".into(),
        };
        assert!(!crash.is_retryable(), "no policy may retry a crash");
    }

    proptest! {
        /// Satellite requirement: backoff cost is monotone in attempt count
        /// and never negative, for any policy shape.
        #[test]
        fn prop_backoff_monotone_and_non_negative(
            base in 0.0f64..1.0,
            multiplier in 1.0f64..4.0,
            cap in 0.0f64..10.0,
            attempt in 0u32..64,
        ) {
            let p = RetryPolicy {
                max_retries: 8,
                base_backoff_s: base,
                multiplier,
                max_backoff_s: cap,
            };
            let now = p.backoff(attempt);
            let next = p.backoff(attempt + 1);
            prop_assert!(now >= 0.0);
            prop_assert!(next >= now, "backoff must not shrink: {now} -> {next}");
            prop_assert!(now <= p.max_backoff_s + 1e-12, "backoff must respect the cap");
        }

        #[test]
        fn prop_total_backoff_monotone_in_attempts(
            attempts in 0u32..32,
        ) {
            let p = RetryPolicy::default();
            prop_assert!(p.total_backoff(attempts) >= 0.0);
            prop_assert!(p.total_backoff(attempts + 1) >= p.total_backoff(attempts));
        }
    }
}
