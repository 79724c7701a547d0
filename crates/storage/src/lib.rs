//! # corgipile-storage
//!
//! Block-addressable heap storage substrate for the CorgiPile reproduction.
//!
//! The SIGMOD 2022 CorgiPile paper integrates its shuffle strategy into
//! PostgreSQL at the *physical* level: tuples live in slotted heap pages,
//! contiguous runs of pages form *blocks* (the unit of random access), and
//! all I/O goes through a buffer manager over HDD/SSD. This crate rebuilds
//! that substrate from scratch:
//!
//! * [`mod@tuple`] — the training-tuple format (`⟨id, features, label⟩`, dense or
//!   sparse), with a compact binary encoding;
//! * [`page`] — fixed-size slotted pages, PostgreSQL-style;
//! * [`block`] — block metadata (a block is a batch of contiguous pages, the
//!   granularity of CorgiPile's block-level shuffle);
//! * [`device`] — I/O cost models for HDD, SSD and memory, with an OS page
//!   cache model, driving a deterministic simulated clock (substitutes for
//!   the paper's physical Alibaba Cloud disks);
//! * [`table`] — append-only heap tables assembled from pages and carved
//!   into blocks, read one block at a time through [`Table::read`]
//!   (random or as part of a scan, fault-guarded and retried);
//! * [`clock`] — the simulated clock's one price list: the device read
//!   rule, compute profiles, buffering, retry backoff and the single- and
//!   double-buffer epoch formulas of §6.3;
//! * [`fault`] — seeded, deterministic fault injection (transient and
//!   permanent read failures, checksum corruption, latency spikes, and
//!   write-path faults: retryable write failures, torn writes, and named
//!   crash points);
//! * [`codec`] — the one on-disk codec: every file the engine writes (logs,
//!   table files, model snapshots, saved models) is a magic followed by
//!   `CORGIWL1` frames, plus the field and row-batch payload codecs;
//! * [`wal`] — append-only, CRC-framed `CORGIWL1` write-ahead log with
//!   longest-valid-prefix recovery, backing the durable model store and the
//!   per-table append log;
//! * [`append`] — versioned [`TableSnapshot`]s plus the WAL-backed
//!   [`AppendableTable`] writer powering `INSERT` and `TRAIN … CONTINUOUS`;
//! * [`retry`] — the bounded exponential-backoff policy and the one retry
//!   loop under [`Table::read`], [`FileTable::read_block_retry`] and
//!   [`Wal::append_retry`];
//! * [`shared`] — interior-synchronized [`SharedDevice`]/[`SharedBufferPool`]
//!   engine objects handing out per-connection [`DeviceHandle`]s and
//!   [`PoolHandle`]s with local stats, fault plans and telemetry scopes;
//! * telemetry — [`SimDevice`] and [`BufferPool`] mirror their counters
//!   into a shared [`Telemetry`] handle (re-exported from
//!   `corgipile-telemetry`) when one is attached via `set_telemetry`;
//! * [`crc`] — dependency-free CRC-32 behind every frame on disk.
//!
//! Everything is deterministic: "time" is the simulated clock advanced by
//! the device cost model, so experiments reproduce bit-for-bit across runs.

#![forbid(unsafe_code)]

pub mod append;
pub mod block;
pub mod bufmgr;
pub mod clock;
pub mod codec;
pub mod crc;
pub mod device;
pub mod error;
pub mod fault;
pub mod page;
pub mod persist;
pub mod pipeline;
pub mod retry;
pub mod shared;
pub mod table;
pub mod tuple;
pub mod wal;

pub use append::{AppendableTable, TableSnapshot, RT_TABLE_ROWS, RT_TABLE_SEAL};
pub use block::{BlockHandle, BlockId, BlockMeta};
pub use bufmgr::{BufferPool, BufferPoolStats};
pub use clock::{ComputeCostModel, DeviceProfile};
pub use codec::{put_bytes, put_frame, read_frames, FieldReader, WAL_FRAME_OVERHEAD};
pub use crc::crc32;
pub use device::{Access, CacheConfig, IoStats, SimDevice};
pub use error::{io_err, StorageError};
pub use fault::{
    crash_point, sites, splitmix64, FaultInjector, FaultKind, FaultPlan, FaultStats, ReadOutcome,
    WriteFault, WriteOutcome,
};
pub use page::{Page, PAGE_SIZE};
pub use persist::{
    atomic_write_bytes, atomic_write_bytes_faulted, load_table, save_table, save_table_faulted,
    FileBlockMeta, FileTable,
};
pub use pipeline::{run_epoch_pipeline, PipelineError, PipelineReport, PipelineSender};
pub use retry::RetryPolicy;
pub use shared::{DeviceHandle, PoolHandle, SharedBufferPool, SharedDevice};
pub use table::{Table, TableBuilder, TableConfig};
pub use tuple::{
    dense_axpy, dense_axpy_scalar, dense_dot, dense_dot_scalar, FeatureVec, FeatureView, Tuple,
    TupleId, TupleView, DENSE_LANES,
};
pub use wal::{scan_valid_prefix, Wal, WalRecord, WAL_MAGIC, WAL_MAX_PAYLOAD};

// Telemetry types appear in storage APIs (`SimDevice::set_telemetry`);
// re-export them so downstream crates need not depend on the telemetry
// crate directly for the common cases.
pub use corgipile_telemetry::{Counter, Span, SpanSite, Telemetry, TelemetrySnapshot};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StorageError>;
