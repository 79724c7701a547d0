//! Deterministic fault injection for storage reads.
//!
//! A production in-DB training system sees storage that fails: transient
//! read errors (cabling, firmware retries), permanently dead blocks,
//! checksum corruption, and latency spikes. [`FaultPlan`] describes a
//! seeded, fully deterministic schedule of such faults; [`FaultInjector`]
//! executes it against [`SimDevice`](crate::SimDevice) and
//! [`FileTable`](crate::FileTable) reads. Determinism means every test and
//! experiment that injects faults reproduces bit-for-bit.
//!
//! Faults are keyed by `(table_id, block)` — the same extent identity the
//! device cache uses — so a plan written for a table follows its blocks
//! through any reader (executor, loader, buffer pool).
//!
//! Write-path faults are keyed by **named write sites** (see [`sites`])
//! instead of blocks: a write site is a specific point in a write protocol
//! (before a WAL append, between append and fsync, mid-rename in an atomic
//! replace) where a real process can die. [`FaultInjector::on_write`]
//! decides, deterministically, whether a given visit to a site proceeds,
//! fails retryably ([`WriteFault::Failed`]), lands only a prefix of its
//! bytes ([`WriteFault::Torn`]), or kills the simulated process outright
//! ([`WriteFault::Crash`]).

use crate::error::StorageError;
use std::collections::{BTreeMap, HashMap};

/// One kind of injected fault, attached to a specific block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The next `failures` reads of the block fail with a retryable
    /// [`StorageError::ReadFailed`]; reads after that succeed.
    Transient {
        /// How many consecutive reads fail before the block recovers.
        failures: u32,
    },
    /// Every read of the block fails — the block is dead media.
    Permanent,
    /// Every read of the block returns a checksum mismatch (bit rot).
    Corruption,
    /// Reads succeed but cost `seconds` extra simulated time each.
    LatencySpike {
        /// Extra latency charged per read.
        seconds: f64,
    },
}

/// Well-known write-site names used by the storage write paths.
///
/// Each constant names a point in a write protocol where a crash leaves
/// observably different on-disk state. The crash-matrix harness iterates
/// [`sites::crash_sites`] to prove recovery from every one of them.
pub mod sites {
    /// Before a WAL record's bytes are appended: nothing of the record lands.
    pub const WAL_BEFORE_APPEND: &str = "wal.before_append";
    /// After the append but before fsync: the record's bytes are in the OS
    /// page cache only and are lost with the process.
    pub const WAL_AFTER_APPEND_BEFORE_FSYNC: &str = "wal.after_append_before_fsync";
    /// After the fsync: the record is durable; the crash loses nothing.
    pub const WAL_AFTER_FSYNC: &str = "wal.after_fsync";
    /// Between writing the temp sibling and renaming it over the target in
    /// [`atomic_write_bytes`](crate::persist::atomic_write_bytes): the old
    /// file survives intact.
    pub const ATOMIC_WRITE_MID_RENAME: &str = "atomic_write.mid_rename";
    /// Same window inside [`save_table`](crate::persist::save_table).
    pub const SAVE_TABLE_MID_RENAME: &str = "save_table.mid_rename";
    /// After a model-store snapshot is renamed in but before the WAL is
    /// truncated: both snapshot and full WAL exist (replay must be
    /// idempotent).
    pub const MODEL_STORE_POST_SNAPSHOT: &str = "model_store.post_snapshot";
    /// At the head of an `INSERT` statement's append, before any of its rows
    /// reach the table WAL: the whole unacknowledged statement is lost,
    /// previously-acked rows survive.
    pub const TABLE_APPEND_ROWS: &str = "table.append_rows";
    /// When the appendable table seals a full tail block (the seal marker's
    /// WAL append): the sealed rows were already fsynced by their own row
    /// records, so the crash loses nothing acknowledged.
    pub const TABLE_SEAL_BLOCK: &str = "table.seal_block";

    /// Every registered crash site, in deterministic order — the rows of the
    /// crash matrix.
    pub fn crash_sites() -> &'static [&'static str] {
        &[
            WAL_BEFORE_APPEND,
            WAL_AFTER_APPEND_BEFORE_FSYNC,
            WAL_AFTER_FSYNC,
            ATOMIC_WRITE_MID_RENAME,
            SAVE_TABLE_MID_RENAME,
            MODEL_STORE_POST_SNAPSHOT,
            TABLE_APPEND_ROWS,
            TABLE_SEAL_BLOCK,
        ]
    }
}

/// One kind of injected write fault, attached to a named write site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WriteFault {
    /// The next `failures` visits to the site fail with a retryable
    /// [`StorageError::WriteFailed`]; visits after that succeed. The
    /// write-path mirror of [`FaultKind::Transient`].
    Failed {
        /// How many consecutive writes fail before the site recovers.
        failures: u32,
    },
    /// The first visit to the site lands only `valid_bytes` of its payload
    /// and then the simulated process dies (a torn write *is* a crash — the
    /// partial bytes are only observable because nothing ran afterwards).
    Torn {
        /// How many payload bytes reach the medium before the tear.
        valid_bytes: usize,
    },
    /// The `hit`-th visit (1-based) to the site kills the simulated process
    /// with [`StorageError::Crashed`]. Earlier and later visits proceed.
    Crash {
        /// Which visit dies.
        hit: u64,
    },
}

/// A seeded, deterministic description of which reads fail and how.
///
/// Two layers compose:
///
/// * **Targeted faults** — explicit `(table_id, block) → FaultKind` entries,
///   for tests that need a specific failure in a specific place.
/// * **Random transient faults** — each device read independently fails
///   with probability `transient_rate`, derived from a hash of
///   `(seed, table_id, block, attempt)`. A `max_consecutive` cap bounds the
///   failure streak per block, so any retry policy allowing more attempts
///   than the cap is guaranteed to make progress.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    seed: u64,
    transient_rate: f64,
    max_consecutive: u32,
    targeted: BTreeMap<(u32, usize), FaultKind>,
    writes: BTreeMap<String, WriteFault>,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            transient_rate: 0.0,
            max_consecutive: 0,
            targeted: BTreeMap::new(),
            writes: BTreeMap::new(),
        }
    }

    /// Fail the next `failures` reads of `(table_id, block)`, then recover.
    pub fn with_transient(mut self, table_id: u32, block: usize, failures: u32) -> Self {
        self.targeted
            .insert((table_id, block), FaultKind::Transient { failures });
        self
    }

    /// Make `(table_id, block)` permanently unreadable.
    pub fn with_permanent(mut self, table_id: u32, block: usize) -> Self {
        self.targeted
            .insert((table_id, block), FaultKind::Permanent);
        self
    }

    /// Make every read of `(table_id, block)` report checksum corruption.
    pub fn with_corruption(mut self, table_id: u32, block: usize) -> Self {
        self.targeted
            .insert((table_id, block), FaultKind::Corruption);
        self
    }

    /// Charge `seconds` of extra latency on every read of `(table_id, block)`.
    pub fn with_latency_spike(mut self, table_id: u32, block: usize, seconds: f64) -> Self {
        assert!(seconds >= 0.0, "latency spike must be non-negative");
        self.targeted
            .insert((table_id, block), FaultKind::LatencySpike { seconds });
        self
    }

    /// Fail each read independently with probability `rate`, never more than
    /// `max_consecutive` times in a row for the same block.
    pub fn with_random_transient(mut self, rate: f64, max_consecutive: u32) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        self.transient_rate = rate;
        self.max_consecutive = max_consecutive;
        self
    }

    /// Fail the next `failures` writes at `site` with a retryable
    /// [`StorageError::WriteFailed`], then recover.
    pub fn with_write_failed(mut self, site: &str, failures: u32) -> Self {
        self.writes
            .insert(site.to_string(), WriteFault::Failed { failures });
        self
    }

    /// Tear the first write at `site`: `valid_bytes` of the payload land,
    /// then the simulated process dies.
    pub fn with_torn_write(mut self, site: &str, valid_bytes: usize) -> Self {
        self.writes
            .insert(site.to_string(), WriteFault::Torn { valid_bytes });
        self
    }

    /// Kill the simulated process on the `hit`-th (1-based) visit to `site`.
    pub fn with_crash_point(mut self, site: &str, hit: u64) -> Self {
        assert!(hit >= 1, "crash-point hits are 1-based");
        self.writes
            .insert(site.to_string(), WriteFault::Crash { hit });
        self
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.targeted.is_empty() && self.transient_rate == 0.0 && self.writes.is_empty()
    }
}

/// Counters of what a [`FaultInjector`] actually injected.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultStats {
    /// Transient read failures injected (targeted + random).
    pub transient_failures: u64,
    /// Permanent-fault read failures injected.
    pub permanent_failures: u64,
    /// Checksum-corruption errors injected.
    pub corruption_failures: u64,
    /// Latency spikes injected.
    pub latency_spikes: u64,
    /// Total extra seconds injected by latency spikes.
    pub injected_latency_seconds: f64,
    /// Retryable write failures injected.
    pub write_failures: u64,
    /// Torn writes injected.
    pub torn_writes: u64,
    /// Crash points fired.
    pub crash_points: u64,
}

/// What the injector decided for one read attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum ReadOutcome {
    /// The read proceeds normally.
    Ok,
    /// The read proceeds, but costs `0` extra seconds (latency spike).
    Delay(f64),
    /// The read fails with the given error.
    Fail(StorageError),
}

/// What the injector decided for one visit to a write site.
#[derive(Debug, Clone, PartialEq)]
pub enum WriteOutcome {
    /// The write proceeds normally.
    Ok,
    /// The write fails with the given (retryable) error.
    Fail(StorageError),
    /// Only `valid_bytes` of the payload land, then the process dies. The
    /// write path must truncate its output accordingly and surface
    /// [`StorageError::Crashed`].
    Torn {
        /// Payload bytes that reach the medium before the tear.
        valid_bytes: usize,
    },
    /// The simulated process dies at the site with nothing extra written.
    Crash,
}

/// Visit `site` where nothing is half-written: a tear there is a plain
/// crash, so only [`WriteOutcome::Ok`] lets the write go on.
pub fn crash_point(inj: Option<&mut FaultInjector>, site: &str) -> Result<(), StorageError> {
    match inj.map_or(WriteOutcome::Ok, |i| i.on_write(site)) {
        WriteOutcome::Ok => Ok(()),
        WriteOutcome::Fail(e) => Err(e),
        WriteOutcome::Torn { .. } | WriteOutcome::Crash => {
            Err(StorageError::Crashed { site: site.into() })
        }
    }
}

/// Stateful executor of a [`FaultPlan`].
///
/// Attach one to a [`SimDevice`](crate::SimDevice) via
/// `set_fault_injector`, or to a [`FileTable`](crate::FileTable) via
/// `set_fault_plan`; block readers consult it once per read attempt.
/// Write paths consult [`FaultInjector::on_write`] once per visit to a
/// named write site.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Remaining failures for targeted transient faults.
    remaining: HashMap<(u32, usize), u32>,
    /// Current random-failure streak per block.
    streak: HashMap<(u32, usize), u32>,
    /// Read-attempt counter per block (drives the random hash).
    attempts: HashMap<(u32, usize), u64>,
    /// Visit counter per write site (drives crash-point hit matching).
    write_hits: HashMap<String, u64>,
    /// Remaining failures for transient write faults.
    write_remaining: HashMap<String, u32>,
    stats: FaultStats,
}

/// SplitMix64 finalizer: a bijective avalanche mix on `u64` — distinct
/// inputs give distinct outputs.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultInjector {
    /// Build an injector executing `plan` from its initial state.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            remaining: HashMap::new(),
            streak: HashMap::new(),
            attempts: HashMap::new(),
            write_hits: HashMap::new(),
            write_remaining: HashMap::new(),
            stats: FaultStats::default(),
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Counters of injected faults so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Uniform in [0, 1) derived from (seed, block key, attempt).
    fn hash01(&self, key: (u32, usize), attempt: u64) -> f64 {
        let mixed = splitmix64(
            self.plan
                .seed
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(((key.0 as u64) << 32) | key.1 as u64)
                .wrapping_add(attempt.wrapping_mul(0xA24B_AED4_963E_E407)),
        );
        (mixed >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Decide the fate of one read attempt against `(table_id, block)`.
    pub fn on_read(&mut self, table_id: u32, block: usize) -> ReadOutcome {
        let key = (table_id, block);
        let attempt = self.attempts.entry(key).or_insert(0);
        *attempt += 1;
        let attempt = *attempt;

        if let Some(&kind) = self.plan.targeted.get(&key) {
            match kind {
                FaultKind::Transient { failures } => {
                    let left = self.remaining.entry(key).or_insert(failures);
                    if *left > 0 {
                        *left -= 1;
                        self.stats.transient_failures += 1;
                        return ReadOutcome::Fail(StorageError::ReadFailed {
                            block,
                            attempts: 1,
                            message: "injected transient read fault".into(),
                        });
                    }
                }
                FaultKind::Permanent => {
                    self.stats.permanent_failures += 1;
                    return ReadOutcome::Fail(StorageError::ReadFailed {
                        block,
                        attempts: 1,
                        message: "injected permanent media fault".into(),
                    });
                }
                FaultKind::Corruption => {
                    self.stats.corruption_failures += 1;
                    let expected = splitmix64(self.plan.seed ^ block as u64) as u32;
                    return ReadOutcome::Fail(StorageError::ChecksumMismatch {
                        block: Some(block),
                        expected,
                        actual: !expected,
                    });
                }
                FaultKind::LatencySpike { seconds } => {
                    self.stats.latency_spikes += 1;
                    self.stats.injected_latency_seconds += seconds;
                    return ReadOutcome::Delay(seconds);
                }
            }
        }

        if self.plan.transient_rate > 0.0 {
            let roll = self.hash01(key, attempt);
            let streak = self.streak.entry(key).or_insert(0);
            if *streak < self.plan.max_consecutive && roll < self.plan.transient_rate {
                *streak += 1;
                self.stats.transient_failures += 1;
                return ReadOutcome::Fail(StorageError::ReadFailed {
                    block,
                    attempts: 1,
                    message: "injected random transient fault".into(),
                });
            }
            *streak = 0;
        }
        ReadOutcome::Ok
    }

    /// Decide the fate of one visit to the named write `site`.
    ///
    /// Visits are counted per site, so a [`WriteFault::Crash`] can target
    /// "the third append" while letting the first two land — the lever the
    /// crash matrix uses to kill runs mid-training rather than only at the
    /// first write.
    pub fn on_write(&mut self, site: &str) -> WriteOutcome {
        let hits = self.write_hits.entry(site.to_string()).or_insert(0);
        *hits += 1;
        let visit = *hits;

        match self.plan.writes.get(site) {
            Some(&WriteFault::Failed { failures }) => {
                let left = self
                    .write_remaining
                    .entry(site.to_string())
                    .or_insert(failures);
                if *left > 0 {
                    *left -= 1;
                    self.stats.write_failures += 1;
                    return WriteOutcome::Fail(StorageError::WriteFailed {
                        site: site.to_string(),
                        attempts: 1,
                        message: "injected transient write fault".into(),
                    });
                }
            }
            Some(&WriteFault::Torn { valid_bytes }) if visit == 1 => {
                self.stats.torn_writes += 1;
                self.stats.crash_points += 1;
                return WriteOutcome::Torn { valid_bytes };
            }
            Some(&WriteFault::Crash { hit }) if visit == hit => {
                self.stats.crash_points += 1;
                return WriteOutcome::Crash;
            }
            _ => {}
        }
        WriteOutcome::Ok
    }

    /// How many times `site` has been visited so far.
    pub fn write_visits(&self, site: &str) -> u64 {
        self.write_hits.get(site).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fails() {
        let mut inj = FaultInjector::new(FaultPlan::new(1));
        for b in 0..100 {
            assert_eq!(inj.on_read(1, b), ReadOutcome::Ok);
        }
        assert_eq!(inj.stats(), &FaultStats::default());
    }

    #[test]
    fn targeted_transient_fails_then_recovers() {
        let mut inj = FaultInjector::new(FaultPlan::new(1).with_transient(7, 3, 2));
        assert!(matches!(inj.on_read(7, 3), ReadOutcome::Fail(_)));
        assert!(matches!(inj.on_read(7, 3), ReadOutcome::Fail(_)));
        assert_eq!(inj.on_read(7, 3), ReadOutcome::Ok);
        assert_eq!(inj.on_read(7, 3), ReadOutcome::Ok);
        // Other blocks and tables untouched.
        assert_eq!(inj.on_read(7, 4), ReadOutcome::Ok);
        assert_eq!(inj.on_read(8, 3), ReadOutcome::Ok);
        assert_eq!(inj.stats().transient_failures, 2);
    }

    #[test]
    fn permanent_fault_never_recovers() {
        let mut inj = FaultInjector::new(FaultPlan::new(1).with_permanent(1, 0));
        for _ in 0..20 {
            match inj.on_read(1, 0) {
                ReadOutcome::Fail(e) => assert!(e.is_retryable()),
                other => panic!("expected failure, got {other:?}"),
            }
        }
        assert_eq!(inj.stats().permanent_failures, 20);
    }

    #[test]
    fn corruption_reports_checksum_mismatch() {
        let mut inj = FaultInjector::new(FaultPlan::new(1).with_corruption(1, 5));
        match inj.on_read(1, 5) {
            ReadOutcome::Fail(StorageError::ChecksumMismatch {
                block,
                expected,
                actual,
            }) => {
                assert_eq!(block, Some(5));
                assert_ne!(expected, actual);
            }
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn latency_spike_delays_but_succeeds() {
        let mut inj = FaultInjector::new(FaultPlan::new(1).with_latency_spike(1, 2, 0.25));
        assert_eq!(inj.on_read(1, 2), ReadOutcome::Delay(0.25));
        assert_eq!(inj.stats().latency_spikes, 1);
        assert!((inj.stats().injected_latency_seconds - 0.25).abs() < 1e-12);
    }

    #[test]
    fn random_transient_is_seed_deterministic() {
        let plan = FaultPlan::new(42).with_random_transient(0.3, 2);
        let mut a = FaultInjector::new(plan.clone());
        let mut b = FaultInjector::new(plan);
        for block in 0..50 {
            for _ in 0..4 {
                assert_eq!(a.on_read(1, block), b.on_read(1, block));
            }
        }
        assert!(
            a.stats().transient_failures > 0,
            "rate 0.3 should fire in 200 reads"
        );
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn random_transient_streak_is_bounded() {
        let mut inj = FaultInjector::new(FaultPlan::new(9).with_random_transient(1.0, 3));
        // Even at rate 1.0 the streak cap forces a success every 4th attempt.
        let mut consecutive = 0u32;
        for _ in 0..40 {
            match inj.on_read(1, 0) {
                ReadOutcome::Fail(_) => {
                    consecutive += 1;
                    assert!(consecutive <= 3, "streak exceeded the cap");
                }
                ReadOutcome::Ok => consecutive = 0,
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let mut a = FaultInjector::new(FaultPlan::new(1).with_random_transient(0.5, 1));
        let mut b = FaultInjector::new(FaultPlan::new(2).with_random_transient(0.5, 1));
        let fa: Vec<bool> = (0..64)
            .map(|i| matches!(a.on_read(1, i), ReadOutcome::Fail(_)))
            .collect();
        let fb: Vec<bool> = (0..64)
            .map(|i| matches!(b.on_read(1, i), ReadOutcome::Fail(_)))
            .collect();
        assert_ne!(fa, fb);
    }

    #[test]
    fn plan_is_empty_reporting() {
        assert!(FaultPlan::new(3).is_empty());
        assert!(!FaultPlan::new(3).with_permanent(1, 0).is_empty());
        assert!(!FaultPlan::new(3).with_random_transient(0.1, 1).is_empty());
        assert!(!FaultPlan::new(3)
            .with_crash_point(sites::WAL_AFTER_FSYNC, 1)
            .is_empty());
    }

    #[test]
    fn write_failed_fails_then_recovers() {
        let mut inj =
            FaultInjector::new(FaultPlan::new(1).with_write_failed(sites::WAL_BEFORE_APPEND, 2));
        for _ in 0..2 {
            match inj.on_write(sites::WAL_BEFORE_APPEND) {
                WriteOutcome::Fail(e) => {
                    assert!(e.is_retryable(), "WriteFailed must be retryable");
                    assert!(e.to_string().contains(sites::WAL_BEFORE_APPEND));
                }
                other => panic!("expected failure, got {other:?}"),
            }
        }
        assert_eq!(inj.on_write(sites::WAL_BEFORE_APPEND), WriteOutcome::Ok);
        // Other sites untouched.
        assert_eq!(inj.on_write(sites::WAL_AFTER_FSYNC), WriteOutcome::Ok);
        assert_eq!(inj.stats().write_failures, 2);
        assert_eq!((inj.stats().torn_writes, inj.stats().crash_points), (0, 0));
    }

    #[test]
    fn torn_write_fires_once() {
        let mut inj =
            FaultInjector::new(FaultPlan::new(1).with_torn_write(sites::SAVE_TABLE_MID_RENAME, 17));
        assert_eq!(
            inj.on_write(sites::SAVE_TABLE_MID_RENAME),
            WriteOutcome::Torn { valid_bytes: 17 }
        );
        // After the tear the "process" restarts; subsequent visits succeed.
        assert_eq!(inj.on_write(sites::SAVE_TABLE_MID_RENAME), WriteOutcome::Ok);
        assert_eq!(inj.stats().torn_writes, 1);
    }

    #[test]
    fn crash_point_targets_nth_visit() {
        let mut inj = FaultInjector::new(
            FaultPlan::new(1).with_crash_point(sites::WAL_AFTER_APPEND_BEFORE_FSYNC, 3),
        );
        assert_eq!(
            inj.on_write(sites::WAL_AFTER_APPEND_BEFORE_FSYNC),
            WriteOutcome::Ok
        );
        assert_eq!(
            inj.on_write(sites::WAL_AFTER_APPEND_BEFORE_FSYNC),
            WriteOutcome::Ok
        );
        assert_eq!(
            inj.on_write(sites::WAL_AFTER_APPEND_BEFORE_FSYNC),
            WriteOutcome::Crash
        );
        assert_eq!(
            inj.on_write(sites::WAL_AFTER_APPEND_BEFORE_FSYNC),
            WriteOutcome::Ok
        );
        assert_eq!(inj.stats().crash_points, 1);
        assert_eq!(inj.write_visits(sites::WAL_AFTER_APPEND_BEFORE_FSYNC), 4);
    }

    #[test]
    fn crash_sites_registry_is_stable() {
        let s = sites::crash_sites();
        assert!(s.contains(&sites::WAL_BEFORE_APPEND));
        assert!(s.contains(&sites::WAL_AFTER_APPEND_BEFORE_FSYNC));
        assert!(s.contains(&sites::WAL_AFTER_FSYNC));
        assert!(s.contains(&sites::ATOMIC_WRITE_MID_RENAME));
        assert!(s.contains(&sites::SAVE_TABLE_MID_RENAME));
        assert!(s.contains(&sites::MODEL_STORE_POST_SNAPSHOT));
        assert!(s.contains(&sites::TABLE_APPEND_ROWS));
        assert!(s.contains(&sites::TABLE_SEAL_BLOCK));
        // Names are unique.
        let mut dedup = s.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), s.len());
    }
}
