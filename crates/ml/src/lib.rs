//! # corgipile-ml
//!
//! The machine-learning substrate of the CorgiPile reproduction:
//! generalized linear models (logistic regression, SVM, linear regression),
//! softmax regression, and small multi-layer perceptrons (the non-convex
//! stand-ins for the paper's deep-learning workloads), trained with SGD or
//! Adam over tuple streams.
//!
//! * [`model`] — the [`Model`] trait: flat parameter vector, per-example
//!   loss/gradient, fast sparse SGD step, and the FLOPs per example that the
//!   simulated clock's compute profiles price (`corgipile_storage::clock`).
//! * [`linear`] — LR / SVM / linear regression over dense or sparse tuples.
//! * [`softmax`] — multinomial logistic regression (§7.4.2).
//! * [`mlp`] — feed-forward ReLU networks (the VGG/ResNet/HAN/TextCNN
//!   stand-ins of §7.2; see DESIGN.md §2 for the substitution argument).
//! * [`optimizer`] — SGD with exponential decay (§7.1.3) and Adam (§7.2.3).
//! * [`sgd`] — the training loop: per-tuple or mini-batch updates over an
//!   epoch stream, gradient clipping.
//! * [`metrics`] — accuracy, mean loss, and R² (linear regression, §7.4.2).
//!
//! [`Model`]: model::Model

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod linear;
pub mod metrics;
pub mod mlp;
pub mod model;
pub mod optimizer;
pub mod sgd;
pub mod softmax;

pub use checkpoint::TrainCheckpoint;
pub use linear::{LinearModel, LinearTask};
pub use metrics::{accuracy, auc, auc_of, log_loss, mean_loss, r_squared};
pub use mlp::Mlp;
pub use model::{build_model, Model, ModelKind};
pub use optimizer::{Adam, Optimizer, OptimizerKind, Sgd};
pub use sgd::{
    train_minibatch, train_per_tuple, EpochStats, MinibatchTrainer, PerTupleTrainer, TrainOptions,
};
pub use softmax::SoftmaxRegression;

#[cfg(test)]
mod proptests;
