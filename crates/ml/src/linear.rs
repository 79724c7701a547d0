//! Generalized linear models: logistic regression, linear SVM, and linear
//! regression, with a sparse-aware fused SGD step.
//!
//! These are the workloads of the paper's in-DB evaluation (§7.3–§7.4):
//! `svm_train` / `logit_train` in MADlib and Bismarck reduce to exactly the
//! per-tuple updates implemented here.

use crate::model::Model;
use corgipile_storage::FeatureView;

/// The loss attached to the linear score `s = w·x + b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinearTask {
    /// Logistic loss `ln(1 + exp(−y·s))`, labels ±1.
    Logistic,
    /// Hinge loss `max(0, 1 − y·s)`, labels ±1 (linear SVM).
    Hinge,
    /// Squared loss `½(s − y)²` (linear regression).
    Squared,
}

/// A linear model `s(x) = w·x + b`.
///
/// Parameters are laid out flat as `[w₀ … w_{d−1}, b]`.
#[derive(Debug, Clone)]
pub struct LinearModel {
    params: Vec<f32>,
    dim: usize,
    task: LinearTask,
}

impl LinearModel {
    /// A zero-initialized model for `dim` features.
    pub fn new(dim: usize, task: LinearTask) -> Self {
        LinearModel {
            params: vec![0.0; dim + 1],
            dim,
            task,
        }
    }

    /// The learning task.
    pub fn task(&self) -> LinearTask {
        self.task
    }

    /// The raw score `w·x + b`.
    pub fn score(&self, x: FeatureView<'_>) -> f32 {
        x.dot(&self.params[..self.dim]) + self.params[self.dim]
    }

    /// The loss and dLoss/dScore at score `s`, label `y`: the one place
    /// either formula lives.
    fn loss_and_slope(&self, s: f32, y: f32) -> (f64, f32) {
        let (s64, y64) = (s as f64, y as f64);
        match self.task {
            LinearTask::Logistic => {
                // ln(1 + e^{−ys}) and −y·σ(−y·s), both stable for large |s|.
                let z = -y64 * s64;
                let loss = if z > 30.0 { z } else { z.exp().ln_1p() };
                (loss, (-y64 / (1.0 + ((y * s) as f64).exp())) as f32)
            }
            LinearTask::Hinge => {
                let slope = if y * s < 1.0 { -y } else { 0.0 };
                ((1.0 - y64 * s64).max(0.0), slope)
            }
            LinearTask::Squared => (0.5 * (s64 - y64) * (s64 - y64), s - y),
        }
    }
}

impl Model for LinearModel {
    fn num_params(&self) -> usize {
        self.params.len()
    }

    fn params(&self) -> &[f32] {
        &self.params
    }

    fn params_mut(&mut self) -> &mut [f32] {
        &mut self.params
    }

    fn loss(&self, x: FeatureView<'_>, y: f32) -> f64 {
        self.loss_and_slope(self.score(x), y).0
    }

    fn grad(&self, x: FeatureView<'_>, y: f32, grad: &mut [f32]) -> f64 {
        let (loss, g) = self.loss_and_slope(self.score(x), y);
        if g != 0.0 {
            x.axpy_into(g, &mut grad[..self.dim]);
            grad[self.dim] += g;
        }
        loss
    }

    fn sgd_step(&mut self, x: FeatureView<'_>, y: f32, lr: f32) -> f64 {
        // Sparse fast path: touch only the non-zero coordinates.
        let (loss, g) = self.loss_and_slope(self.score(x), y);
        if g != 0.0 {
            x.axpy_into(-lr * g, &mut self.params[..self.dim]);
            self.params[self.dim] -= lr * g;
        }
        loss
    }

    fn predict_label(&self, x: FeatureView<'_>) -> f32 {
        let s = self.score(x);
        match self.task {
            LinearTask::Squared => s,
            _ => {
                if s >= 0.0 {
                    1.0
                } else {
                    -1.0
                }
            }
        }
    }

    fn predict_rows_into(&self, xs: &[FeatureView<'_>], out: &mut Vec<f32>) {
        // Serving fast path: the weight slice and bias are hoisted once, so
        // the batch loop is a bare `dense_dot` per tuple.
        let (w, b) = (&self.params[..self.dim], self.params[self.dim]);
        match self.task {
            LinearTask::Squared => out.extend(xs.iter().map(|x| x.dot(w) + b)),
            _ => out.extend(
                xs.iter()
                    .map(|x| if x.dot(w) + b >= 0.0 { 1.0 } else { -1.0 }),
            ),
        }
    }

    fn is_classifier(&self) -> bool {
        !matches!(self.task, LinearTask::Squared)
    }

    fn flops_per_example(&self, nnz: usize) -> f64 {
        // score: 2·nnz; gradient axpy: 2·nnz; loss bookkeeping ~ 8.
        (4 * nnz + 8) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn dense(v: &[f32]) -> FeatureView<'_> {
        FeatureView::Dense(v)
    }

    /// Numeric gradient check via central differences on the flat params.
    fn check_grad(task: LinearTask, x: FeatureView<'_>, y: f32) {
        let mut m = LinearModel::new(x.dim(), task);
        // Non-trivial params so hinge margins are active.
        for (i, p) in m.params_mut().iter_mut().enumerate() {
            *p = 0.1 * (i as f32 + 1.0) * if i % 2 == 0 { 1.0 } else { -1.0 };
        }
        let mut g = vec![0.0f32; m.num_params()];
        m.grad(x, y, &mut g);
        let eps = 1e-3f32;
        for (i, gi) in g.iter().enumerate() {
            let orig = m.params()[i];
            m.params_mut()[i] = orig + eps;
            let lp = m.loss(x, y);
            m.params_mut()[i] = orig - eps;
            let lm = m.loss(x, y);
            m.params_mut()[i] = orig;
            let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (num - gi).abs() < 2e-2,
                "{task:?} param {i}: numeric {num} vs analytic {gi}"
            );
        }
    }

    #[test]
    fn gradient_matches_numeric_logistic() {
        check_grad(LinearTask::Logistic, dense(&[0.5, -1.0, 2.0]), 1.0);
        check_grad(LinearTask::Logistic, dense(&[0.5, -1.0, 2.0]), -1.0);
    }

    #[test]
    fn gradient_matches_numeric_squared() {
        check_grad(LinearTask::Squared, dense(&[1.0, 2.0, -0.5]), 3.0);
    }

    #[test]
    fn gradient_matches_numeric_hinge_active_margin() {
        // Pick a point with an active margin (y·s < 1) away from the kink.
        check_grad(LinearTask::Hinge, dense(&[0.2, 0.1, -0.3]), 1.0);
    }

    #[test]
    fn hinge_gradient_zero_outside_margin() {
        let mut m = LinearModel::new(2, LinearTask::Hinge);
        m.params_mut()[0] = 10.0;
        let x = dense(&[1.0, 0.0]);
        let mut g = vec![0.0; 3];
        m.grad(x, 1.0, &mut g); // s = 10, y·s = 10 > 1
        assert_eq!(g, vec![0.0; 3]);
        assert_eq!(m.loss(x, 1.0), 0.0);
    }

    #[test]
    fn logistic_loss_stable_for_extreme_scores() {
        let mut m = LinearModel::new(1, LinearTask::Logistic);
        m.params_mut()[0] = 1000.0;
        let x = dense(&[1.0]);
        assert!(m.loss(x, -1.0).is_finite());
        assert!(m.loss(x, 1.0).is_finite());
        assert!(m.loss(x, 1.0) < 1e-6);
        let mut g = vec![0.0; 2];
        m.grad(x, -1.0, &mut g);
        assert!(g.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn sparse_sgd_step_matches_dense_step() {
        let sparse = corgipile_storage::FeatureVec::sparse(6, vec![1, 4], vec![2.0, -1.0]);
        let densified = dense(&[0.0, 2.0, 0.0, 0.0, -1.0, 0.0]);
        for task in [LinearTask::Logistic, LinearTask::Hinge, LinearTask::Squared] {
            let mut a = LinearModel::new(6, task);
            let mut b = LinearModel::new(6, task);
            a.sgd_step(sparse.view(), 1.0, 0.3);
            b.sgd_step(densified, 1.0, 0.3);
            for (pa, pb) in a.params().iter().zip(b.params()) {
                assert!((pa - pb).abs() < 1e-6, "{task:?}");
            }
        }
    }

    #[test]
    fn sgd_learns_a_separable_problem() {
        // x ∈ {(1,1): +1, (-1,-1): −1} — trivially separable.
        let mut m = LinearModel::new(2, LinearTask::Logistic);
        for _ in 0..200 {
            m.sgd_step(dense(&[1.0, 1.0]), 1.0, 0.1);
            m.sgd_step(dense(&[-1.0, -1.0]), -1.0, 0.1);
        }
        assert_eq!(m.predict_label(dense(&[1.0, 1.0])), 1.0);
        assert_eq!(m.predict_label(dense(&[-1.0, -1.0])), -1.0);
        assert!(m.loss(dense(&[1.0, 1.0]), 1.0) < 0.2);
    }

    #[test]
    fn svm_learns_with_margin() {
        let mut m = LinearModel::new(2, LinearTask::Hinge);
        for _ in 0..300 {
            m.sgd_step(dense(&[2.0, 0.5]), 1.0, 0.05);
            m.sgd_step(dense(&[-2.0, -0.5]), -1.0, 0.05);
        }
        assert!(m.score(dense(&[2.0, 0.5])) >= 1.0, "margin not reached");
        assert!(m.score(dense(&[-2.0, -0.5])) <= -1.0);
    }

    #[test]
    fn linear_regression_recovers_line() {
        let mut m = LinearModel::new(1, LinearTask::Squared);
        // y = 3x + 1
        for _ in 0..500 {
            for x in [-2.0f32, -1.0, 0.0, 1.0, 2.0] {
                m.sgd_step(dense(&[x]), 3.0 * x + 1.0, 0.05);
            }
        }
        assert!((m.params()[0] - 3.0).abs() < 0.05, "w = {}", m.params()[0]);
        assert!((m.params()[1] - 1.0).abs() < 0.05, "b = {}", m.params()[1]);
        assert!(!m.is_classifier());
        let pred = m.predict_label(dense(&[2.0]));
        assert!((pred - 7.0).abs() < 0.2);
    }

    #[test]
    fn flops_scale_with_nnz() {
        let m = LinearModel::new(100, LinearTask::Logistic);
        assert!(m.flops_per_example(100) > m.flops_per_example(5));
    }

    proptest! {
        #[test]
        fn prop_logistic_grad_norm_bounded_by_feature_norm(
            vals in proptest::collection::vec(-5.0f32..5.0, 1..8),
            y in prop_oneof![Just(1.0f32), Just(-1.0f32)],
        ) {
            // |dL/ds| ≤ 1 for logistic ⇒ ‖grad_w‖ ≤ ‖x‖.
            let dim = vals.len();
            let x = FeatureView::Dense(&vals);
            let m = LinearModel::new(dim, LinearTask::Logistic);
            let mut g = vec![0.0f32; dim + 1];
            m.grad(x, y, &mut g);
            let gn: f32 = g[..dim].iter().map(|v| v * v).sum::<f32>().sqrt();
            let xn: f32 = x.norm_sq().sqrt();
            prop_assert!(gn <= xn + 1e-4);
        }

        #[test]
        fn prop_losses_are_nonnegative(
            vals in proptest::collection::vec(-10.0f32..10.0, 1..6),
            y in prop_oneof![Just(1.0f32), Just(-1.0f32)],
            w in -3.0f32..3.0,
        ) {
            let dim = vals.len();
            let x = FeatureView::Dense(&vals);
            for task in [LinearTask::Logistic, LinearTask::Hinge, LinearTask::Squared] {
                let mut m = LinearModel::new(dim, task);
                m.params_mut().iter_mut().for_each(|p| *p = w);
                prop_assert!(m.loss(x, y) >= 0.0, "{task:?}");
            }
        }
    }
}
