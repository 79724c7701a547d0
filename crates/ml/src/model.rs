//! The [`Model`] trait and the model factory.

use crate::linear::{LinearModel, LinearTask};
use crate::mlp::Mlp;
use crate::softmax::SoftmaxRegression;
use corgipile_storage::{FeatureVec, FeatureView};

/// A trainable model with a flat parameter vector.
///
/// All models expose
/// * per-example loss and dense gradient (generic path, used by mini-batch
///   and Adam);
/// * a fast fused SGD step ([`Model::sgd_step`]) that linear models override
///   with a sparse-aware update (one `axpy` per tuple — the path the paper's
///   per-tuple UDA/operator implementations take);
/// * a FLOP estimate for the simulated compute clock.
///
/// The gradient and the step return the loss of the forward pass they
/// already ran, so a trainer pays one forward pass per row; it is
/// bit-identical to [`Model::loss`] called just before.
pub trait Model: Send + Sync {
    /// Number of parameters.
    fn num_params(&self) -> usize;

    /// Borrow the flat parameter vector.
    fn params(&self) -> &[f32];

    /// Mutably borrow the flat parameter vector.
    fn params_mut(&mut self) -> &mut [f32];

    /// Per-example loss.
    fn loss(&self, x: FeatureView<'_>, y: f32) -> f64;

    /// Accumulate the per-example gradient into `grad` (length
    /// [`Model::num_params`]) and return the loss. Does **not** zero `grad`
    /// first.
    fn grad(&self, x: FeatureView<'_>, y: f32, grad: &mut [f32]) -> f64;

    /// Fused single-example SGD step: `params -= lr * ∇loss`; returns the
    /// loss before the update.
    ///
    /// The default materializes a dense gradient; linear models override it
    /// with a sparse update.
    fn sgd_step(&mut self, x: FeatureView<'_>, y: f32, lr: f32) -> f64 {
        let mut g = vec![0.0f32; self.num_params()];
        let loss = self.grad(x, y, &mut g);
        for (p, gi) in self.params_mut().iter_mut().zip(&g) {
            *p -= lr * gi;
        }
        loss
    }

    /// Predicted label: sign (±1) for binary classifiers, class index for
    /// multi-class, real value for regression.
    fn predict_label(&self, x: FeatureView<'_>) -> f32;

    /// Batched inference: the predicted label of every feature vector of
    /// `xs`, appended to `out` in order (the serving path's unit of work).
    ///
    /// The default loops [`Model::predict_label`]; linear and softmax
    /// models override it to hoist the weight slices out of the per-tuple
    /// path so the loop runs straight over the unrolled `dense_dot`
    /// kernel. Overrides must stay bit-identical to the default.
    fn predict_rows_into(&self, xs: &[FeatureView<'_>], out: &mut Vec<f32>) {
        out.extend(xs.iter().map(|&x| self.predict_label(x)));
    }

    /// [`Model::predict_rows_into`] over owned feature vectors.
    fn predict_batch_into(&self, xs: &[&FeatureVec], out: &mut Vec<f32>) {
        let views: Vec<FeatureView<'_>> = xs.iter().map(|x| x.view()).collect();
        self.predict_rows_into(&views, out)
    }

    /// FLOPs per example for inference (forward pass only), for the
    /// serving path's simulated compute clock. Defaults to half the
    /// training estimate (which covers forward + backward).
    fn inference_flops_per_example(&self, nnz: usize) -> f64 {
        self.flops_per_example(nnz) / 2.0
    }

    /// True for classifiers (accuracy applies), false for regression.
    fn is_classifier(&self) -> bool {
        true
    }

    /// FLOPs per example with `nnz` materialized features (forward +
    /// backward), for the simulated compute clock. Affine in `nnz`, as is
    /// the inference estimate: the clock prices a fill from its rows' and
    /// stored features' counts (`ComputeCostModel::price`).
    fn flops_per_example(&self, nnz: usize) -> f64;
}

/// Model identifiers used by configs, the SQL surface, and reports.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Logistic regression (binary, labels ±1).
    LogisticRegression,
    /// Linear SVM with hinge loss (binary, labels ±1).
    Svm,
    /// Ordinary least squares via SGD.
    LinearRegression,
    /// Multinomial logistic regression.
    Softmax {
        /// Number of classes.
        classes: usize,
    },
    /// Feed-forward ReLU network ending in softmax.
    Mlp {
        /// Hidden layer widths.
        hidden: Vec<usize>,
        /// Number of classes.
        classes: usize,
    },
}

impl ModelKind {
    /// Short machine name ("lr", "svm", …), also accepted by the SQL parser.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::LogisticRegression => "lr",
            ModelKind::Svm => "svm",
            ModelKind::LinearRegression => "linreg",
            ModelKind::Softmax { .. } => "softmax",
            ModelKind::Mlp { .. } => "mlp",
        }
    }

    /// Whether this kind is convex (GLM) — used by reports and theory.
    pub fn is_convex(&self) -> bool {
        !matches!(self, ModelKind::Mlp { .. })
    }

    /// Length of the parameter vector [`build_model`] allocates for this
    /// kind at `dim` input features, computed without allocating; `None`
    /// for a shape `build_model` refuses (< 2 classes, no hidden layer) or
    /// one whose size overflows. Decoders check a stored shape against this
    /// before building anything from it.
    pub fn num_params(&self, dim: usize) -> Option<usize> {
        match self {
            ModelKind::LogisticRegression | ModelKind::Svm | ModelKind::LinearRegression => {
                dim.checked_add(1)
            }
            ModelKind::Softmax { classes } if *classes >= 2 => {
                classes.checked_mul(dim)?.checked_add(*classes)
            }
            ModelKind::Mlp { hidden, classes } if *classes >= 2 && !hidden.is_empty() => {
                let mut fan_in = dim;
                let mut total = 0usize;
                for &fan_out in hidden.iter().chain([classes]) {
                    total =
                        total.checked_add(fan_in.checked_mul(fan_out)?.checked_add(fan_out)?)?;
                    fan_in = fan_out;
                }
                Some(total)
            }
            _ => None,
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelKind::Softmax { classes } => write!(f, "softmax({classes})"),
            ModelKind::Mlp { hidden, classes } => write!(f, "mlp({hidden:?}→{classes})"),
            other => f.write_str(other.name()),
        }
    }
}

/// Build a model of the given kind for `dim` input features.
///
/// `seed` initializes MLP weights; linear models start at zero like the
/// paper's systems.
pub fn build_model(kind: &ModelKind, dim: usize, seed: u64) -> Box<dyn Model> {
    match kind {
        ModelKind::LogisticRegression => Box::new(LinearModel::new(dim, LinearTask::Logistic)),
        ModelKind::Svm => Box::new(LinearModel::new(dim, LinearTask::Hinge)),
        ModelKind::LinearRegression => Box::new(LinearModel::new(dim, LinearTask::Squared)),
        ModelKind::Softmax { classes } => Box::new(SoftmaxRegression::new(dim, *classes)),
        ModelKind::Mlp { hidden, classes } => Box::new(Mlp::new(dim, hidden, *classes, seed)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_each_kind() {
        let kinds = [
            ModelKind::LogisticRegression,
            ModelKind::Svm,
            ModelKind::LinearRegression,
            ModelKind::Softmax { classes: 3 },
            ModelKind::Mlp {
                hidden: vec![8],
                classes: 3,
            },
            ModelKind::Mlp {
                hidden: vec![8, 5],
                classes: 4,
            },
        ];
        for k in kinds {
            let m = build_model(&k, 10, 1);
            assert!(m.num_params() > 0, "{k}: no params");
            assert_eq!(m.params().len(), m.num_params());
            assert_eq!(k.num_params(10), Some(m.num_params()), "{k}");
        }
    }

    #[test]
    fn names_and_convexity() {
        assert_eq!(ModelKind::LogisticRegression.name(), "lr");
        assert_eq!(ModelKind::Svm.name(), "svm");
        assert!(ModelKind::Svm.is_convex());
        assert!(!ModelKind::Mlp {
            hidden: vec![4],
            classes: 2
        }
        .is_convex());
        assert_eq!(ModelKind::Softmax { classes: 5 }.to_string(), "softmax(5)");
    }

    #[test]
    fn batched_prediction_is_bit_identical_to_per_tuple() {
        // The serving path leans on predict_batch_into overrides; any
        // divergence from predict_label would break the hot-reload
        // bit-identity guarantee.
        let kinds = [
            ModelKind::LogisticRegression,
            ModelKind::Svm,
            ModelKind::LinearRegression,
            ModelKind::Softmax { classes: 4 },
            ModelKind::Mlp {
                hidden: vec![6],
                classes: 3,
            },
        ];
        let xs: Vec<FeatureVec> = (0..40)
            .map(|i| {
                FeatureVec::Dense(
                    (0..5)
                        .map(|j| ((i * 7 + j * 3) % 11) as f32 / 3.0 - 1.5)
                        .collect(),
                )
            })
            .collect();
        let refs: Vec<&FeatureVec> = xs.iter().collect();
        for k in kinds {
            let mut m = build_model(&k, 5, 9);
            // Non-trivial parameters so argmax/sign branches are exercised.
            for (i, p) in m.params_mut().iter_mut().enumerate() {
                *p = 0.05 * (i as f32 + 1.0) * if i % 3 == 0 { -1.0 } else { 1.0 };
            }
            let mut batched = Vec::new();
            m.predict_batch_into(&refs, &mut batched);
            let scalar: Vec<f32> = xs.iter().map(|x| m.predict_label(x.view())).collect();
            assert_eq!(batched, scalar, "{k}");
            assert!(m.inference_flops_per_example(5) <= m.flops_per_example(5));
            // Affine in nnz, which the clock's counted pricing relies on.
            let (f0, f1) = (m.flops_per_example(0), m.flops_per_example(1));
            for nnz in [2, 7, 28, 2000] {
                assert_eq!(m.flops_per_example(nnz), f0 + nnz as f64 * (f1 - f0), "{k}");
            }
        }
    }

    #[test]
    fn default_sgd_step_matches_manual_gradient_descent() {
        let mut m = build_model(&ModelKind::LogisticRegression, 3, 0);
        let x = FeatureVec::Dense(vec![1.0, -1.0, 0.5]);
        let mut g = vec![0.0; m.num_params()];
        m.grad(x.view(), 1.0, &mut g);
        let expect: Vec<f32> = m
            .params()
            .iter()
            .zip(&g)
            .map(|(p, gi)| p - 0.1 * gi)
            .collect();
        m.sgd_step(x.view(), 1.0, 0.1);
        for (a, b) in m.params().iter().zip(&expect) {
            assert!((a - b).abs() < 1e-6);
        }
    }
}
