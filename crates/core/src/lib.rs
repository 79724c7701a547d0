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
//! * [`parallel`] — multi-process CorgiPile (§5.1) as a data order
//!   ([`ParallelConfig`]): the CorgiPile generator's fills dealt to the
//!   workers and interleaved `batch/PN` rows per worker per round by the one
//!   fill, on the one loop's one producer; no thread or channel of its own.
//!   [`parallel_epoch_plan`] collects the same stream as the order reference
//!   behind Figure 5.
//! * [`driver`] — the one epoch loop ([`EpochDriver`]): resume → per epoch
//!   {fills → kernel stage → simulated clock → hook → checkpoint sink}, shared
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

#![forbid(unsafe_code)]

pub mod config;
pub mod dataset;
pub mod driver;
pub mod parallel;
mod proptests;
pub mod theory;
pub mod trainer;

pub use config::CorgiPileConfig;
pub use dataset::CorgiPileDataset;
pub use driver::{
    CheckpointMismatch, DriverRun, EpochDriver, EpochHook, EpochOutcome, EpochSink, EpochSource,
    Fill, StrategySource,
};
pub use parallel::{parallel_epoch_plan, ParallelConfig, ParallelEpoch};
pub use theory::{block_variance_factor, CorgiFactors, Theorem1Bound};
pub use trainer::{EpochRecord, TrainReport, Trainer, TrainerConfig};
