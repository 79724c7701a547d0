//! # corgipile-core
//!
//! The CorgiPile system layer: everything between the shuffle strategies
//! and the applications.
//!
//! * [`config`] — [`CorgiPileConfig`]: buffer fraction, block sampling
//!   mode, double buffering.
//! * [`dataset`] — [`CorgiPileDataset`]: the PyTorch-style
//!   `Dataset`/`DataLoader` API of §5 (block index + per-epoch shuffled
//!   iterator).
//! * [`loader`] — a real threaded double-buffered loader (§6.3's
//!   optimization, with actual threads and crossbeam channels).
//! * [`parallel`] — multi-process CorgiPile (§5.1): per-worker block
//!   partitions, per-worker buffers, and AllReduce-style gradient
//!   averaging; plus the data-order equivalence tooling behind Figure 5
//!   and the work-stealing executor that runs block-granular fill tasks
//!   and gradient chunks on one persistent thread pool.
//! * [`driver`] — the one epoch loop ([`EpochDriver`]): resume → per epoch
//!   {fills → kernel stage → simulated clock → hook → checkpoint}, shared
//!   by the [`Trainer`] and the SQL `SGD` operator.
//! * [`trainer`] — the end-to-end [`Trainer`]: strategy × model × optimizer
//!   × device, producing per-epoch convergence/time records (the raw
//!   material of every figure).
//! * [`theory`] — the §4.2 convergence analysis: the block-variance factor
//!   `h_D`, the α/β/γ factors, and the Theorem 1/2 bounds.
//!
//! [`CorgiPileConfig`]: config::CorgiPileConfig
//! [`CorgiPileDataset`]: dataset::CorgiPileDataset
//! [`EpochDriver`]: driver::EpochDriver
//! [`Trainer`]: trainer::Trainer

pub mod config;
pub mod dataset;
pub mod driver;
pub mod loader;
pub mod parallel;
mod proptests;
pub mod theory;
pub mod trainer;

pub use config::CorgiPileConfig;
pub use dataset::CorgiPileDataset;
pub use driver::{
    CheckpointMismatch, DriverRun, EpochDriver, EpochIo, EpochOutcome, EpochSink, EpochSource,
    Fill, TupleSeq,
};
pub use loader::{LoaderError, ThreadedLoader};
pub use parallel::{
    parallel_epoch_plan, parallel_epoch_stealing, train_parallel, train_parallel_stealing,
    ParallelConfig, StealScope, StealingExecutor,
};
pub use theory::{block_variance_factor, CorgiFactors, Theorem1Bound};
pub use trainer::{EpochRecord, TrainReport, Trainer, TrainerConfig};
