//! # corgipile-shuffle
//!
//! The data-shuffling strategies studied by the CorgiPile paper (§3–§4),
//! implemented as per-epoch tuple-stream producers over heap tables with
//! full I/O cost accounting:
//!
//! | Strategy | Paper § | I/O pattern | Randomness |
//! |---|---|---|---|
//! | [`NoShuffle`] | §3.2 | sequential scan | none |
//! | [`ShuffleOnce`] | §3.1 | offline full shuffle (2× storage), then sequential | full (fixed across epochs) |
//! | [`EpochShuffle`] | §3.1 | full shuffle before *every* epoch | full |
//! | [`SlidingWindowShuffle`] | §3.3 | sequential scan | local window (TensorFlow) |
//! | [`MrsShuffle`] | §3.4 | sequential scan + looping buffer | reservoir (Bismarck) |
//! | [`BlockOnlyShuffle`] | §7.3 | random block reads | block order only |
//! | [`CorgiPile`] | §4 | random block reads + buffered tuple shuffle | two-level hierarchical |
//! | [`BlockReversalShuffle`] | related work | near-sequential rotated/reversed scans | epoch-indexed order |
//! | [`Corgi2`] | Corgi² (Livne et al.) | bounded-I/O offline recluster, then CorgiPile | partial offline + two-level |
//!
//! Every strategy streams an epoch as a sequence of [`Segment`]s (one per
//! buffer fill / block read; collected, an [`EpochPlan`]) carrying the
//! tuples in SGD consumption order together with the simulated I/O seconds
//! spent producing them, so the trainer can apply the paper's single- vs
//! double-buffer pipeline model (§6.3). A block that stays unreadable ends
//! the stream with an error ([`ShuffleStrategy::stream_epoch`]).
//!
//! [`NoShuffle`]: no_shuffle::NoShuffle
//! [`ShuffleOnce`]: shuffle_once::ShuffleOnce
//! [`EpochShuffle`]: epoch_shuffle::EpochShuffle
//! [`SlidingWindowShuffle`]: sliding_window::SlidingWindowShuffle
//! [`MrsShuffle`]: mrs::MrsShuffle
//! [`BlockOnlyShuffle`]: block_only::BlockOnlyShuffle
//! [`CorgiPile`]: corgipile::CorgiPile
//! [`BlockReversalShuffle`]: block_reversal::BlockReversalShuffle
//! [`Corgi2`]: corgi2::Corgi2
//! [`EpochPlan`]: plan::EpochPlan
//! [`Segment`]: plan::Segment

#![forbid(unsafe_code)]

pub mod block_only;
pub mod block_reversal;
pub mod corgi2;
pub mod corgipile;
pub mod cost;
pub mod diagnostics;
pub mod epoch_shuffle;
pub mod mrs;
pub mod no_shuffle;
pub mod plan;
pub mod shuffle_once;
pub mod sliding_window;
pub mod strategy;
pub mod tuple_only;

pub use block_only::BlockOnlyShuffle;
pub use block_reversal::BlockReversalShuffle;
pub use corgi2::{full_shuffle_io, recluster_table, Corgi2, ReclusterOutcome};
pub use corgipile::{BlockSampleMode, CorgiPile};
pub use cost::{CostEstimate, CostModel};
pub use diagnostics::{
    block_variance_exact, block_variance_sampled, label_distribution, label_uniformity_score,
    order_displacement, tuple_id_trace, BlockVariance, LabelWindow,
};
pub use epoch_shuffle::EpochShuffle;
pub use mrs::MrsShuffle;
pub use no_shuffle::NoShuffle;
pub use plan::{EpochPlan, Segment};
pub use shuffle_once::ShuffleOnce;
pub use sliding_window::SlidingWindowShuffle;
pub use strategy::{build_strategy, ShuffleStrategy, StrategyKind, StrategyParams};
pub use tuple_only::TupleOnlyShuffle;
