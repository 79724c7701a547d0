//! Feed-forward ReLU networks with a softmax head.
//!
//! The non-convex stand-in for the paper's deep-learning workloads (VGG19,
//! ResNet18/50, HAN, TextCNN — §7.2). The phenomena under study —
//! sensitivity of SGD convergence to data order on clustered data, and
//! CorgiPile's parity with Shuffle Once on non-convex objectives (Theorem
//! 2) — depend on the loss landscape being non-convex and the optimizer
//! being (mini-batch) SGD/Adam, not on convolutional structure, so a small
//! MLP preserves the experiment while keeping runs laptop-sized.

use crate::model::Model;
use crate::softmax::{cross_entropy, softmax};
use corgipile_storage::{dense_axpy, dense_dot, FeatureView};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One dense layer's parameter layout within the flat vector.
#[derive(Debug, Clone, Copy)]
struct LayerShape {
    w_off: usize,
    b_off: usize,
    fan_in: usize,
    fan_out: usize,
}

/// A multi-layer perceptron: `dim → hidden… → classes`, ReLU activations,
/// cross-entropy loss.
#[derive(Debug, Clone)]
pub struct Mlp {
    params: Vec<f32>,
    shapes: Vec<LayerShape>,
    dim: usize,
    classes: usize,
}

impl Mlp {
    /// Build with He-style random initialization.
    pub fn new(dim: usize, hidden: &[usize], classes: usize, seed: u64) -> Self {
        assert!(classes >= 2, "mlp needs ≥ 2 classes");
        assert!(
            !hidden.is_empty(),
            "mlp needs ≥ 1 hidden layer (use SoftmaxRegression otherwise)"
        );
        let mut widths = vec![dim];
        widths.extend_from_slice(hidden);
        widths.push(classes);
        let mut shapes = Vec::with_capacity(widths.len() - 1);
        let mut off = 0;
        for i in 0..widths.len() - 1 {
            let (fan_in, fan_out) = (widths[i], widths[i + 1]);
            shapes.push(LayerShape {
                w_off: off,
                b_off: off + fan_in * fan_out,
                fan_in,
                fan_out,
            });
            off += fan_in * fan_out + fan_out;
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x3319);
        let mut params = vec![0.0f32; off];
        for s in &shapes {
            let scale = (2.0 / s.fan_in as f32).sqrt();
            for w in &mut params[s.w_off..s.w_off + s.fan_in * s.fan_out] {
                *w = (rng.gen::<f32>() * 2.0 - 1.0) * scale;
            }
        }
        Mlp {
            params,
            shapes,
            dim,
            classes,
        }
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Forward pass; returns per-layer pre-activation inputs (activations)
    /// and the final logits.
    fn forward(&self, x: FeatureView<'_>) -> (Vec<Vec<f32>>, Vec<f32>) {
        let mut acts: Vec<Vec<f32>> = Vec::with_capacity(self.shapes.len());
        let mut a: Vec<f32> = (0..self.dim).map(|i| x.get(i)).collect();
        for (li, s) in self.shapes.iter().enumerate() {
            acts.push(a.clone());
            let w = &self.params[s.w_off..s.w_off + s.fan_in * s.fan_out];
            let b = &self.params[s.b_off..s.b_off + s.fan_out];
            let mut z = vec![0.0f32; s.fan_out];
            for o in 0..s.fan_out {
                let row = &w[o * s.fan_in..(o + 1) * s.fan_in];
                z[o] = dense_dot(row, &a) + b[o];
            }
            if li + 1 < self.shapes.len() {
                for v in &mut z {
                    *v = v.max(0.0); // ReLU
                }
            }
            a = z;
        }
        (acts, a)
    }

    /// Logits for an input.
    pub fn logits(&self, x: FeatureView<'_>) -> Vec<f32> {
        self.forward(x).1
    }
}

impl Model for Mlp {
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
        cross_entropy(&softmax(&self.logits(x)), y)
    }

    fn grad(&self, x: FeatureView<'_>, y: f32, grad: &mut [f32]) -> f64 {
        let (acts, logits) = self.forward(x);
        let p = softmax(&logits);
        let loss = cross_entropy(&p, y);
        // dL/dz for the output layer.
        let mut delta: Vec<f32> = p;
        delta[y as usize] -= 1.0;

        for (li, s) in self.shapes.iter().enumerate().rev() {
            let a = &acts[li];
            let w = &self.params[s.w_off..s.w_off + s.fan_in * s.fan_out];
            // Parameter gradients.
            for o in 0..s.fan_out {
                let d = delta[o];
                if d != 0.0 {
                    let grow = &mut grad[s.w_off + o * s.fan_in..s.w_off + (o + 1) * s.fan_in];
                    dense_axpy(d, a, grow);
                    grad[s.b_off + o] += d;
                }
            }
            // Propagate to previous layer (skip below input).
            if li > 0 {
                let mut prev = vec![0.0f32; s.fan_in];
                for o in 0..s.fan_out {
                    let d = delta[o];
                    if d != 0.0 {
                        let row = &w[o * s.fan_in..(o + 1) * s.fan_in];
                        dense_axpy(d, row, &mut prev);
                    }
                }
                // ReLU mask: activation a == pre-activation after ReLU, so
                // gradient flows only where a > 0.
                for (pv, ai) in prev.iter_mut().zip(a) {
                    if *ai <= 0.0 {
                        *pv = 0.0;
                    }
                }
                delta = prev;
            }
        }
        loss
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

    fn flops_per_example(&self, _nnz: usize) -> f64 {
        // Forward + backward ≈ 6 × Σ fan_in·fan_out.
        6.0 * self
            .shapes
            .iter()
            .map(|s| (s.fan_in * s.fan_out) as f64)
            .sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(v: &[f32]) -> FeatureView<'_> {
        FeatureView::Dense(v)
    }

    #[test]
    fn shapes_and_param_count() {
        let m = Mlp::new(4, &[8, 6], 3, 1);
        // (4·8+8) + (8·6+6) + (6·3+3) = 40 + 54 + 21 = 115
        assert_eq!(m.num_params(), 115);
        assert_eq!(m.classes(), 3);
    }

    #[test]
    fn gradient_matches_numeric() {
        let m0 = Mlp::new(3, &[5], 3, 7);
        let x = dense(&[0.9, -0.6, 0.3]);
        let y = 1.0;
        let mut g = vec![0.0f32; m0.num_params()];
        m0.grad(x, y, &mut g);
        let mut m = m0.clone();
        let eps = 1e-3f32;
        let mut checked = 0;
        for i in (0..m.num_params()).step_by(3) {
            let orig = m.params()[i];
            m.params_mut()[i] = orig + eps;
            let lp = m.loss(x, y);
            m.params_mut()[i] = orig - eps;
            let lm = m.loss(x, y);
            m.params_mut()[i] = orig;
            let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (num - g[i]).abs() < 2e-2,
                "param {i}: numeric {num} vs analytic {}",
                g[i]
            );
            checked += 1;
        }
        assert!(checked > 10);
    }

    #[test]
    fn learns_xor_a_nonconvex_task() {
        // XOR is the classic not-linearly-separable problem: a linear model
        // cannot exceed 75%, an MLP should nail it.
        let mut m = Mlp::new(2, &[8], 2, 3);
        let data = [
            ([0.0f32, 0.0], 0.0f32),
            ([0.0, 1.0], 1.0),
            ([1.0, 0.0], 1.0),
            ([1.0, 1.0], 0.0),
        ];
        for _ in 0..2000 {
            for (x, y) in &data {
                m.sgd_step(dense(x), *y, 0.1);
            }
        }
        for (x, y) in &data {
            assert_eq!(m.predict_label(dense(x)), *y, "input {x:?}");
        }
    }

    #[test]
    fn initialization_is_seed_deterministic_and_nonzero() {
        let a = Mlp::new(4, &[6], 2, 9);
        let b = Mlp::new(4, &[6], 2, 9);
        let c = Mlp::new(4, &[6], 2, 10);
        assert_eq!(a.params(), b.params());
        assert_ne!(a.params(), c.params());
        assert!(a.params().iter().any(|&p| p != 0.0));
    }

    #[test]
    fn loss_decreases_under_training() {
        let mut m = Mlp::new(3, &[10], 3, 5);
        let xs = [
            (dense(&[3.0, 0.0, 0.0]), 0.0),
            (dense(&[0.0, 3.0, 0.0]), 1.0),
            (dense(&[0.0, 0.0, 3.0]), 2.0),
        ];
        let before: f64 = xs.iter().map(|(x, y)| m.loss(*x, *y)).sum();
        for _ in 0..200 {
            for (x, y) in &xs {
                m.sgd_step(*x, *y, 0.05);
            }
        }
        let after: f64 = xs.iter().map(|(x, y)| m.loss(*x, *y)).sum();
        assert!(after < before / 5.0, "loss {before} → {after}");
    }

    #[test]
    #[should_panic(expected = "hidden")]
    fn empty_hidden_rejected() {
        Mlp::new(4, &[], 2, 1);
    }

    #[test]
    fn flops_positive() {
        let m = Mlp::new(10, &[20], 5, 1);
        assert!(m.flops_per_example(10) > 1000.0);
    }
}
