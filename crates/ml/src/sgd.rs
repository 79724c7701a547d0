//! Training loops over tuple streams.
//!
//! The paper's systems update the model per tuple (standard SGD, §7.3) or
//! per mini-batch (§7.4, PyTorch's default §7.2). Both loops live here and
//! are shared by the trainer, the in-DB `SGD` operator, and the
//! multi-worker harness.

use crate::model::Model;
use crate::optimizer::Optimizer;
use corgipile_storage::TupleView;

/// Options for one training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainOptions {
    /// Mini-batch size; 1 = standard per-tuple SGD.
    pub batch_size: usize,
    /// Gradient-norm clip (0 disables). Keeps MLP training stable on
    /// clustered streams where the early gradient is one-sided.
    pub clip_norm: f32,
    /// L2 regularization strength λ (0 disables): weight decay
    /// `w ← (1 − η·λ)·w` applied alongside each update.
    pub l2: f32,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            batch_size: 1,
            clip_norm: 0.0,
            l2: 0.0,
        }
    }
}

impl TrainOptions {
    /// Mini-batch options.
    pub fn minibatch(batch_size: usize) -> Self {
        assert!(batch_size >= 1);
        TrainOptions {
            batch_size,
            clip_norm: 0.0,
            l2: 0.0,
        }
    }

    /// Add L2 regularization.
    pub fn with_l2(mut self, l2: f32) -> Self {
        assert!(l2 >= 0.0);
        self.l2 = l2;
        self
    }
}

/// Per-tuple SGD applies weight decay lazily every `L2_STRIDE` tuples
/// (compounded), keeping the sparse fast path O(nnz) per update.
const L2_STRIDE: usize = 16;

/// Result of training over one epoch stream.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EpochStats {
    /// Mean per-example loss *before* each update (running training loss).
    pub mean_loss: f64,
    /// Number of examples consumed.
    pub examples: usize,
    /// Number of optimizer updates applied.
    pub updates: usize,
}

/// Per-tuple SGD over a stream: `x_{k} = x_{k-1} − η ∇f(x_{k-1})`.
///
/// Uses the model's fused (sparse-aware) step; the optimizer provides the
/// current learning rate. One [`PerTupleTrainer`] pass without L2.
pub fn train_per_tuple<'a, I>(model: &mut dyn Model, opt: &dyn Optimizer, tuples: I) -> EpochStats
where
    I: IntoIterator,
    I::Item: Into<TupleView<'a>>,
{
    let mut pt = PerTupleTrainer::new(opt.lr(), &TrainOptions::default());
    for t in tuples {
        pt.feed(model, t.into());
    }
    pt.finish()
}

/// Incremental per-tuple SGD: the per-tuple twin of [`MinibatchTrainer`].
///
/// Feed an epoch's stream a tuple at a time, across any number of buffer
/// fills; the loss accumulator and the lazy weight-decay stride carry
/// across them, so any segmentation of the same sequence yields
/// bit-identical models and stats. L2 is a lazy weight decay; with
/// `l2 = 0` the decay branch is never taken.
#[derive(Debug)]
pub struct PerTupleTrainer {
    lr: f32,
    l2: f32,
    decay_stride: f32,
    loss_sum: f64,
    n: usize,
}

impl PerTupleTrainer {
    /// Start an epoch at learning rate `lr`.
    pub fn new(lr: f32, options: &TrainOptions) -> Self {
        PerTupleTrainer {
            lr,
            l2: options.l2,
            decay_stride: (1.0 - lr * options.l2).powi(L2_STRIDE as i32),
            loss_sum: 0.0,
            n: 0,
        }
    }

    /// Train on one tuple: one fused step, whose pre-update loss joins the
    /// running sum.
    pub fn feed(&mut self, model: &mut dyn Model, t: TupleView<'_>) {
        self.loss_sum += model.sgd_step(t.features, t.label, self.lr);
        self.n += 1;
        if self.l2 > 0.0 && self.n.is_multiple_of(L2_STRIDE) {
            for p in model.params_mut() {
                *p *= self.decay_stride;
            }
        }
    }

    /// The epoch stats so far.
    pub fn finish(self) -> EpochStats {
        EpochStats {
            mean_loss: if self.n > 0 {
                self.loss_sum / self.n as f64
            } else {
                0.0
            },
            examples: self.n,
            updates: self.n,
        }
    }
}

/// Incremental mini-batch accumulator: feed tuples in any grouping (e.g.
/// one pipelined buffer fill at a time), with batches spanning group
/// boundaries exactly as they span buffer fills in [`train_minibatch`].
///
/// Feeding the same tuple sequence through any segmentation produces
/// bit-identical models and stats to one [`train_minibatch`] call — the
/// property the double-buffered executor relies on.
#[derive(Debug)]
pub struct MinibatchTrainer {
    grad: Vec<f32>,
    in_batch: usize,
    loss_sum: f64,
    n: usize,
    updates: usize,
    options: TrainOptions,
}

impl MinibatchTrainer {
    /// Start an epoch-long accumulation for a model of `num_params`.
    pub fn new(num_params: usize, options: TrainOptions) -> Self {
        assert!(options.batch_size >= 1);
        MinibatchTrainer {
            grad: vec![0.0f32; num_params],
            in_batch: 0,
            loss_sum: 0.0,
            n: 0,
            updates: 0,
            options,
        }
    }

    /// Accumulate one tuple, stepping the optimizer on batch boundaries.
    pub fn feed(&mut self, model: &mut dyn Model, opt: &mut dyn Optimizer, t: TupleView<'_>) {
        self.loss_sum += model.grad(t.features, t.label, &mut self.grad);
        self.in_batch += 1;
        self.n += 1;
        if self.in_batch == self.options.batch_size {
            self.flush(model, opt);
        }
    }

    /// Examples fed so far.
    pub fn examples(&self) -> usize {
        self.n
    }

    fn flush(&mut self, model: &mut dyn Model, opt: &mut dyn Optimizer) {
        if self.in_batch == 0 {
            return;
        }
        let scale = 1.0 / self.in_batch as f32;
        for g in self.grad.iter_mut() {
            *g *= scale;
        }
        if self.options.clip_norm > 0.0 {
            let norm: f32 = self.grad.iter().map(|g| g * g).sum::<f32>().sqrt();
            if norm > self.options.clip_norm {
                let s = self.options.clip_norm / norm;
                for g in self.grad.iter_mut() {
                    *g *= s;
                }
            }
        }
        if self.options.l2 > 0.0 {
            for (g, p) in self.grad.iter_mut().zip(model.params()) {
                *g += self.options.l2 * p;
            }
        }
        opt.step(model.params_mut(), &self.grad);
        self.grad.iter_mut().for_each(|g| *g = 0.0);
        self.in_batch = 0;
        self.updates += 1;
    }

    /// Flush any trailing partial batch and return the epoch stats.
    pub fn finish(mut self, model: &mut dyn Model, opt: &mut dyn Optimizer) -> EpochStats {
        self.flush(model, opt);
        EpochStats {
            mean_loss: if self.n > 0 {
                self.loss_sum / self.n as f64
            } else {
                0.0
            },
            examples: self.n,
            updates: self.updates,
        }
    }
}

/// Mini-batch SGD over a stream: gradients averaged over each batch, one
/// optimizer step per batch (works with SGD and Adam).
pub fn train_minibatch<'a, I>(
    model: &mut dyn Model,
    opt: &mut dyn Optimizer,
    tuples: I,
    options: &TrainOptions,
) -> EpochStats
where
    I: IntoIterator,
    I::Item: Into<TupleView<'a>>,
{
    let mut mb = MinibatchTrainer::new(model.num_params(), options.clone());
    for t in tuples {
        mb.feed(model, opt, t.into());
    }
    mb.finish(model, opt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::{LinearModel, LinearTask};
    use crate::optimizer::{Adam, Sgd};
    use corgipile_storage::Tuple;

    fn stream() -> Vec<Tuple> {
        // Separable binary set.
        (0..100)
            .map(|i| {
                let y = if i % 2 == 0 { 1.0f32 } else { -1.0 };
                Tuple::dense(i, vec![y * 2.0, y], y)
            })
            .collect()
    }

    #[test]
    fn per_tuple_training_reduces_loss() {
        let data = stream();
        let mut m = LinearModel::new(2, LinearTask::Logistic);
        let mut opt = Sgd::new(0.1, 0.95);
        let e0 = train_per_tuple(&mut m, &opt, &data);
        opt.set_epoch(1);
        let e1 = train_per_tuple(&mut m, &opt, &data);
        assert_eq!(e0.examples, 100);
        assert_eq!(e0.updates, 100);
        assert!(
            e1.mean_loss < e0.mean_loss,
            "{} !< {}",
            e1.mean_loss,
            e0.mean_loss
        );
    }

    #[test]
    fn minibatch_training_counts_updates() {
        let data = stream();
        let mut m = LinearModel::new(2, LinearTask::Hinge);
        let mut opt = Sgd::new(0.1, 0.95);
        let stats = train_minibatch(&mut m, &mut opt, &data, &TrainOptions::minibatch(32));
        assert_eq!(stats.examples, 100);
        assert_eq!(stats.updates, 4); // 32+32+32+4
    }

    #[test]
    fn minibatch_of_one_equals_per_tuple_for_sgd() {
        let data = stream();
        let mut a = LinearModel::new(2, LinearTask::Logistic);
        let mut b = LinearModel::new(2, LinearTask::Logistic);
        let opt_a = Sgd::new(0.05, 1.0);
        let mut opt_b = Sgd::new(0.05, 1.0);
        train_per_tuple(&mut a, &opt_a, &data);
        train_minibatch(&mut b, &mut opt_b, &data, &TrainOptions::minibatch(1));
        for (pa, pb) in a.params().iter().zip(b.params()) {
            assert!((pa - pb).abs() < 1e-5, "{pa} vs {pb}");
        }
    }

    #[test]
    fn adam_minibatch_converges() {
        let data = stream();
        let mut m = LinearModel::new(2, LinearTask::Logistic);
        let mut opt = Adam::new(0.05, 0.9, 0.999, 1e-8);
        let mut last = f64::INFINITY;
        for e in 0..5 {
            opt.set_epoch(e);
            last = train_minibatch(&mut m, &mut opt, &data, &TrainOptions::minibatch(16)).mean_loss;
        }
        assert!(
            last < 0.2,
            "adam should learn the separable set, loss {last}"
        );
    }

    #[test]
    fn l2_shrinks_weights_in_both_paths() {
        let data: Vec<Tuple> = (0..64)
            .map(|i| Tuple::dense(i, vec![1.0, 1.0], 1.0))
            .collect();
        // Per-tuple: regularized weights must be strictly smaller.
        let mut plain = LinearModel::new(2, LinearTask::Logistic);
        let mut reg = LinearModel::new(2, LinearTask::Logistic);
        let opt = Sgd::new(0.1, 1.0);
        train_per_tuple(&mut plain, &opt, &data);
        let mut pt = PerTupleTrainer::new(opt.lr(), &TrainOptions::default().with_l2(0.5));
        for t in &data {
            pt.feed(&mut reg, t.view());
        }
        let norm = |m: &LinearModel| m.params().iter().map(|p| p * p).sum::<f32>();
        assert!(
            norm(&reg) < norm(&plain),
            "{} !< {}",
            norm(&reg),
            norm(&plain)
        );

        // Mini-batch: same property.
        let mut plain_mb = LinearModel::new(2, LinearTask::Logistic);
        let mut reg_mb = LinearModel::new(2, LinearTask::Logistic);
        let mut o1 = Sgd::new(0.1, 1.0);
        let mut o2 = Sgd::new(0.1, 1.0);
        train_minibatch(&mut plain_mb, &mut o1, &data, &TrainOptions::minibatch(8));
        train_minibatch(
            &mut reg_mb,
            &mut o2,
            &data,
            &TrainOptions::minibatch(8).with_l2(0.5),
        );
        assert!(norm(&reg_mb) < norm(&plain_mb));
    }

    #[test]
    fn per_tuple_trainer_is_invariant_to_how_the_stream_is_segmented() {
        // Buffer fills cut the epoch stream at arbitrary points; the loss
        // sum and the lazy-decay stride must carry across the cuts.
        let data = stream();
        let opts = TrainOptions::default().with_l2(0.3);
        let opt = Sgd::new(0.05, 1.0);
        let mut whole = LinearModel::new(2, LinearTask::Logistic);
        let mut pt = PerTupleTrainer::new(opt.lr(), &opts);
        for t in &data {
            pt.feed(&mut whole, t.view());
        }
        let want = pt.finish();
        for cut in [1usize, 7, 16, 33] {
            let mut m = LinearModel::new(2, LinearTask::Logistic);
            let mut pt = PerTupleTrainer::new(opt.lr(), &opts);
            for fill in data.chunks(cut) {
                for t in fill {
                    pt.feed(&mut m, t.view());
                }
            }
            let got = pt.finish();
            assert_eq!(m.params(), whole.params(), "cut {cut}");
            assert_eq!(got.mean_loss.to_bits(), want.mean_loss.to_bits());
            assert_eq!(got.examples, 100);
        }
    }

    #[test]
    fn clipping_limits_update_magnitude() {
        let data = vec![Tuple::dense(0, vec![1000.0, 1000.0], 1.0)];
        let mut m = LinearModel::new(2, LinearTask::Squared);
        let mut opt = Sgd::new(1.0, 1.0);
        let opts = TrainOptions {
            batch_size: 1,
            clip_norm: 1.0,
            l2: 0.0,
        };
        train_minibatch(&mut m, &mut opt, &data, &opts);
        let norm: f32 = m.params().iter().map(|p| p * p).sum::<f32>().sqrt();
        assert!(norm <= 1.0 + 1e-4, "clipped update norm {norm}");
    }

    #[test]
    fn empty_stream_is_a_noop() {
        let mut m = LinearModel::new(2, LinearTask::Logistic);
        let opt = Sgd::new(0.1, 1.0);
        let stats = train_per_tuple(&mut m, &opt, &[] as &[Tuple]);
        assert_eq!(stats, EpochStats::default());
    }
}
