//! Multinomial logistic (softmax) regression, the paper's §7.4.2 workload
//! for multi-class datasets (mini8m) and the final layer of our MLPs.

use crate::model::Model;
use corgipile_storage::FeatureView;

/// Softmax regression over `k` classes.
///
/// Parameters are flat: `[W(row-major k×d), b(k)]`. Labels are class
/// indices `0.0, 1.0, …, k−1.0` stored in the tuple's `label` field.
#[derive(Debug, Clone)]
pub struct SoftmaxRegression {
    params: Vec<f32>,
    dim: usize,
    classes: usize,
}

impl SoftmaxRegression {
    /// A zero-initialized model.
    pub fn new(dim: usize, classes: usize) -> Self {
        assert!(classes >= 2, "softmax needs ≥ 2 classes");
        SoftmaxRegression {
            params: vec![0.0; classes * dim + classes],
            dim,
            classes,
        }
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Per-class scores `Wx + b`.
    pub fn logits(&self, x: FeatureView<'_>) -> Vec<f32> {
        let (w, b) = self.params.split_at(self.classes * self.dim);
        (0..self.classes)
            .map(|c| x.dot(&w[c * self.dim..(c + 1) * self.dim]) + b[c])
            .collect()
    }

    /// Softmax probabilities (numerically stabilized).
    pub fn probabilities(&self, x: FeatureView<'_>) -> Vec<f32> {
        softmax(&self.logits(x))
    }
}

/// Numerically stable softmax.
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f64> = logits.iter().map(|&l| ((l - max) as f64).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| (e / sum) as f32).collect()
}

/// Cross-entropy of probabilities `p` at class label `y`.
pub(crate) fn cross_entropy(p: &[f32], y: f32) -> f64 {
    -(p[y as usize].max(1e-12) as f64).ln()
}

impl Model for SoftmaxRegression {
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
        debug_assert!((y as usize) < self.classes, "label {y} out of range");
        cross_entropy(&self.probabilities(x), y)
    }

    fn grad(&self, x: FeatureView<'_>, y: f32, grad: &mut [f32]) -> f64 {
        let p = self.probabilities(x);
        let target = y as usize;
        let (gw, gb) = grad.split_at_mut(self.classes * self.dim);
        for c in 0..self.classes {
            let coeff = p[c] - if c == target { 1.0 } else { 0.0 };
            if coeff != 0.0 {
                x.axpy_into(coeff, &mut gw[c * self.dim..(c + 1) * self.dim]);
                gb[c] += coeff;
            }
        }
        cross_entropy(&p, y)
    }

    fn sgd_step(&mut self, x: FeatureView<'_>, y: f32, lr: f32) -> f64 {
        let p = self.probabilities(x);
        let target = y as usize;
        let dim = self.dim;
        let (w, b) = self.params.split_at_mut(self.classes * dim);
        for c in 0..self.classes {
            let coeff = p[c] - if c == target { 1.0 } else { 0.0 };
            if coeff != 0.0 {
                x.axpy_into(-lr * coeff, &mut w[c * dim..(c + 1) * dim]);
                b[c] -= lr * coeff;
            }
        }
        cross_entropy(&p, y)
    }

    fn predict_label(&self, x: FeatureView<'_>) -> f32 {
        let logits = self.logits(x);
        logits
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap())
            .map(|(i, _)| i as f32)
            .unwrap_or(0.0)
    }

    fn predict_rows_into(&self, xs: &[FeatureView<'_>], out: &mut Vec<f32>) {
        // Argmax over logits only — the softmax normalization is monotone,
        // so serving skips it. Ties keep the *last* maximum class, exactly
        // like `predict_label`'s `max_by`.
        let (w, b) = self.params.split_at(self.classes * self.dim);
        for x in xs {
            let mut best = 0usize;
            let mut best_score = f32::NEG_INFINITY;
            for c in 0..self.classes {
                let s = x.dot(&w[c * self.dim..(c + 1) * self.dim]) + b[c];
                if s >= best_score {
                    best_score = s;
                    best = c;
                }
            }
            out.push(best as f32);
        }
    }

    fn flops_per_example(&self, nnz: usize) -> f64 {
        // k dot products + k axpys + softmax.
        (self.classes * (4 * nnz + 8)) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(v: &[f32]) -> FeatureView<'_> {
        FeatureView::Dense(v)
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let p = softmax(&[1000.0, 999.0, -1000.0]);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(p[0] > p[1] && p[1] > p[2]);
        assert!(p.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn uniform_probabilities_at_init() {
        let m = SoftmaxRegression::new(4, 3);
        let p = m.probabilities(dense(&[1.0, 2.0, 3.0, 4.0]));
        for v in p {
            assert!((v - 1.0 / 3.0).abs() < 1e-6);
        }
        assert!((m.loss(dense(&[0.0; 4]), 1.0) - (3.0f64).ln()).abs() < 1e-6);
    }

    #[test]
    fn gradient_matches_numeric() {
        let mut m = SoftmaxRegression::new(3, 3);
        for (i, p) in m.params_mut().iter_mut().enumerate() {
            *p = (i as f32 * 0.13).sin() * 0.5;
        }
        let x = dense(&[0.7, -0.4, 1.2]);
        let y = 2.0;
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
            assert!((num - gi).abs() < 1e-2, "param {i}: {num} vs {gi}");
        }
    }

    #[test]
    fn sgd_learns_three_clusters() {
        let mut m = SoftmaxRegression::new(2, 3);
        let centers = [[2.0f32, 0.0], [-1.0, 1.5], [-1.0, -1.5]];
        for _ in 0..300 {
            for (c, ctr) in centers.iter().enumerate() {
                m.sgd_step(dense(ctr), c as f32, 0.1);
            }
        }
        for (c, ctr) in centers.iter().enumerate() {
            assert_eq!(m.predict_label(dense(ctr)), c as f32, "class {c}");
        }
    }

    #[test]
    fn sgd_step_matches_grad_descent() {
        let x = dense(&[1.0, -2.0]);
        let mut a = SoftmaxRegression::new(2, 3);
        let mut b = SoftmaxRegression::new(2, 3);
        // Warm both up identically.
        for m in [&mut a, &mut b] {
            for (i, p) in m.params_mut().iter_mut().enumerate() {
                *p = i as f32 * 0.01;
            }
        }
        a.sgd_step(x, 1.0, 0.2);
        let mut g = vec![0.0f32; b.num_params()];
        b.grad(x, 1.0, &mut g);
        for (p, gi) in b.params_mut().iter_mut().zip(&g) {
            *p -= 0.2 * gi;
        }
        for (pa, pb) in a.params().iter().zip(b.params()) {
            assert!((pa - pb).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "classes")]
    fn one_class_rejected() {
        SoftmaxRegression::new(3, 1);
    }
}
