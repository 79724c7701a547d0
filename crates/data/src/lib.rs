//! # corgipile-data
//!
//! Synthetic dataset generators standing in for the paper's workloads.
//!
//! The paper evaluates on higgs, susy, epsilon, criteo, yfcc (generalized
//! linear models), cifar-10, ImageNet, yelp-review-full (deep models),
//! YearPredictionMSD (regression) and mini8m (multi-class) — tens of
//! gigabytes of proprietary or large public data we cannot ship. The
//! shuffle-strategy phenomena under study depend only on *data order*
//! (clustered vs shuffled vs feature-ordered) and tuple geometry
//! (dense/sparse, dimensionality, width), so each dataset is replaced by a
//! seeded synthetic generator with the same schema and a controllable
//! storage order (see DESIGN.md §2).
//!
//! * [`spec`] — [`DatasetSpec`]: what to generate, at what size, in what
//!   [`Order`]; [`Dataset`]: the materialized train/test split.
//! * [`generator`] — the Gaussian-mixture / sparse / regression generators.
//! * [`catalog`] — named specs mirroring Table 2, with scaled-down sizes.
//! * [`libsvm`] — LIBSVM-format text I/O (the format of four of the paper's
//!   datasets), so real data can be dropped in when available.
//! * [`rng`] — seeded normal/uniform sampling helpers (Box–Muller; avoids a
//!   `rand_distr` dependency).

#![forbid(unsafe_code)]

pub mod catalog;
pub mod generator;
pub mod libsvm;
pub mod rng;
pub mod spec;

pub use catalog::{paper_catalog, CatalogEntry};
pub use spec::{DataKind, Dataset, DatasetSpec, Order};
