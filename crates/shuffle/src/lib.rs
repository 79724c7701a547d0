//! # corgipile-shuffle
//!
//! The data-shuffling strategies studied by the CorgiPile paper (§3–§4),
//! as per-epoch *order generators* over heap tables, and the one fill that
//! moves rows in those orders:
//!
//! | Strategy ([`StrategyKind`]) | Paper § | Setup | Fills | Rank |
//! |---|---|---|---|---|
//! | No Shuffle | §3.2 | — | each block, in a sequential scan | stored |
//! | Shuffle Once | §3.1 | offline full shuffle (2× storage), once | each block of the copy, in a scan | stored |
//! | Epoch Shuffle | §3.1 | offline full shuffle, every epoch | each block of the copy, in a scan | stored |
//! | Sliding-Window | §3.3 | — | each block, in a scan; then the drain | picks (window) |
//! | MRS | §3.4 | — | each block, in a scan; then the top-up | picks (reservoir) |
//! | Block-Only | §7.3 | — | each block, in a random order | stored |
//! | Tuple-Only | ablation | — | `n` blocks, in a sequential scan | key |
//! | CorgiPile | §4 | — | `n` blocks, in a random order | key |
//! | Block-Reversal | related work | — | each block, rotated (reversed on odd epochs) | stored |
//! | Corgi² | Livne et al. | bounded-I/O recluster, once | `n` blocks of the copy, in a random order | key |
//!
//! Per epoch a strategy runs its setup and generates an [`EpochOrder`]:
//! block ids, the access each read is charged as, the fill boundaries and a
//! [`Rank`] rule. The orders are the SQL engine's — the block permutation
//! is `StdRng(seed ⊕ 0xB50F)` advanced once per epoch, the key rank
//! `splitmix64(salt ⊕ id)` with a per-epoch salt — and generating one does
//! no I/O. Every strategy but two is a [`BlockStrategy`], multi-process
//! CorgiPile included (its fills dealt to the workers, a [`Deal`]); MRS
//! ([`MrsShuffle`]) and Sliding-Window ([`SlidingWindowShuffle`]) generate
//! the scan positions their reservoir and window emit, from counts alone.
//! [`fill`] reads the blocks and moves the rows: `Trainer`, one process or
//! many, and the SQL scan operator all go through it.
//! [`ShuffleStrategy::next_epoch`] runs one epoch and copies it out as
//! [`Segment`]s (an [`EpochPlan`]), each with the simulated I/O seconds
//! spent producing it.
//!
//! [`BlockStrategy`]: blocks::BlockStrategy
//! [`Deal`]: plan::Deal
//! [`MrsShuffle`]: mrs::MrsShuffle
//! [`SlidingWindowShuffle`]: sliding_window::SlidingWindowShuffle
//! [`EpochOrder`]: plan::EpochOrder
//! [`EpochPlan`]: plan::EpochPlan
//! [`Rank`]: plan::Rank
//! [`Segment`]: plan::Segment
//! [`Filler::fill`]: fill::Filler::fill

#![forbid(unsafe_code)]

pub mod blocks;
pub mod corgi2;
pub mod cost;
pub mod diagnostics;
pub mod fill;
pub mod mrs;
pub mod plan;
pub mod sliding_window;
pub mod strategy;

pub use blocks::{BlockSampleMode, BlockStrategy};
pub use corgi2::{recluster_table, ReclusterOutcome};
pub use cost::{CostEstimate, CostModel};
pub use diagnostics::{
    block_variance_exact, block_variance_sampled, label_distribution, label_uniformity_score,
    order_displacement, tuple_id_trace, BlockVariance, LabelWindow,
};
pub use fill::{EpochStream, Fill, Filler, Placed, RowBatch, RowRef, ScanStep, SLAB_ROW_BYTES};
pub use mrs::MrsShuffle;
pub use plan::{Deal, EpochOrder, EpochPlan, Rank, Segment};
pub use sliding_window::SlidingWindowShuffle;
pub use strategy::{build_strategy, ShuffleStrategy, StrategyKind, StrategyParams};
