//! Property tests across the model families: the loss that `sgd_step` and
//! `grad` return is the one `loss` reports just before, and the update
//! they make is the one the separate `loss` + step sequence made.

use crate::model::{build_model, Model, ModelKind};
use crate::softmax::softmax;
use corgipile_storage::{FeatureVec, FeatureView};
use proptest::prelude::*;

const DIM: usize = 6;

fn kinds() -> [ModelKind; 5] {
    [
        ModelKind::LogisticRegression,
        ModelKind::Svm,
        ModelKind::LinearRegression,
        ModelKind::Softmax { classes: 3 },
        ModelKind::Mlp {
            hidden: vec![4],
            classes: 3,
        },
    ]
}

/// A model of `kind` with parameters cycled from `params`, times `scale`.
fn model(kind: &ModelKind, params: &[f32], scale: f32) -> Box<dyn Model> {
    let mut m = build_model(kind, DIM, 7);
    for (i, p) in m.params_mut().iter_mut().enumerate() {
        *p = params[i % params.len()] * scale;
    }
    m
}

/// A label valid for `kind`: ±1, a real target, or a class index.
fn label(kind: &ModelKind, raw: f32) -> f32 {
    match kind {
        ModelKind::LinearRegression => 3.0 * raw,
        ModelKind::Softmax { .. } | ModelKind::Mlp { .. } => {
            ((raw.abs() * 10.0) as usize % 3) as f32
        }
        _ if raw >= 0.0 => 1.0,
        _ => -1.0,
    }
}

/// The gradient and the stepped parameters as the two-call sequence made
/// them: the slope and coefficient formulas written out separately from
/// the models' own. The MLP's backward pass only gained a return value, so
/// its reference gradient is its own and its step is the trait default.
fn reference(
    kind: &ModelKind,
    m: &dyn Model,
    x: FeatureView<'_>,
    y: f32,
    lr: f32,
) -> [Vec<f32>; 2] {
    let p = m.params();
    let mut grad = vec![0.0f32; p.len()];
    let mut stepped = p.to_vec();
    // (coefficient, weight range, bias index) per output of a linear layer.
    let mut coeffs: Vec<(f32, usize, usize)> = Vec::new();
    match kind {
        ModelKind::Mlp { .. } => {
            m.grad(x, y, &mut grad);
            for (s, g) in stepped.iter_mut().zip(&grad) {
                *s -= lr * g;
            }
            return [grad, stepped];
        }
        ModelKind::Softmax { classes } => {
            let logits: Vec<f32> = (0..*classes)
                .map(|c| x.dot(&p[c * DIM..(c + 1) * DIM]) + p[classes * DIM + c])
                .collect();
            for (c, pc) in softmax(&logits).into_iter().enumerate() {
                let coeff = pc - if c == y as usize { 1.0 } else { 0.0 };
                coeffs.push((coeff, c * DIM, classes * DIM + c));
            }
        }
        _ => {
            let s = x.dot(&p[..DIM]) + p[DIM];
            let g = match kind {
                ModelKind::LogisticRegression => {
                    let z = (y * s) as f64;
                    (-(y as f64) / (1.0 + z.exp())) as f32
                }
                ModelKind::Svm if y * s < 1.0 => -y,
                ModelKind::Svm => 0.0,
                _ => s - y,
            };
            coeffs.push((g, 0, DIM));
        }
    }
    for (coeff, w, b) in coeffs {
        if coeff != 0.0 {
            x.axpy_into(coeff, &mut grad[w..w + DIM]);
            grad[b] += coeff;
            x.axpy_into(-lr * coeff, &mut stepped[w..w + DIM]);
            stepped[b] -= lr * coeff;
        }
    }
    [grad, stepped]
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

/// One row through `grad` and `sgd_step` on two copies of one model.
fn check(kind: &ModelKind, params: &[f32], scale: f32, x: FeatureView<'_>, y: f32, lr: f32) {
    let m = model(kind, params, scale);
    let before = m.loss(x, y);
    let mut grad = vec![0.0f32; m.num_params()];
    let from_grad = m.grad(x, y, &mut grad);
    let mut stepped = model(kind, params, scale);
    let from_step = stepped.sgd_step(x, y, lr);
    assert_eq!(from_grad.to_bits(), before.to_bits(), "{kind} grad loss");
    assert_eq!(
        from_step.to_bits(),
        before.to_bits(),
        "{kind} sgd_step loss"
    );
    let [want_grad, want_params] = reference(kind, m.as_ref(), x, y, lr);
    assert_eq!(bits(&grad), bits(&want_grad), "{kind} gradient");
    assert_eq!(
        bits(stepped.params()),
        bits(&want_params),
        "{kind} parameters"
    );
}

#[test]
fn returned_loss_at_the_branch_edges() {
    // Hinge: y·s = 2 (outside the margin, zero slope) and 0.5 (inside).
    // Logistic: w·x = ±50, so z = −y·s is 50 (> 30, the linear branch) and
    // −50.
    let mut w = vec![0.0f32; DIM + 1];
    w[0] = 1.0;
    for x0 in [2.0f32, 0.5] {
        let x = [x0, 0.0, 0.0, 0.0, 0.0, 0.0];
        check(&ModelKind::Svm, &w, 1.0, FeatureView::Dense(&x), 1.0, 0.1);
    }
    let x = [1.0f32, 0.0, 0.0, 0.0, 0.0, 0.0];
    for y in [1.0, -1.0] {
        check(
            &ModelKind::LogisticRegression,
            &w,
            50.0,
            FeatureView::Dense(&x),
            y,
            0.1,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every family, dense and sparse views of one random row.
    #[test]
    fn prop_returned_loss_is_the_pre_update_loss(
        vals in proptest::collection::vec(-3.0f32..3.0, DIM),
        params in proptest::collection::vec(-1.0f32..1.0, 1..12),
        scale in prop_oneof![Just(0.01f32), Just(1.0), Just(40.0)],
        mask in any::<u64>(),
        raw_label in -1.0f32..1.0,
        lr in 0.001f32..0.5,
    ) {
        let idx: Vec<u32> = (0..DIM as u32).filter(|i| mask >> i & 1 == 1).collect();
        let sparse = FeatureVec::sparse(
            DIM as u32,
            idx.clone(),
            idx.iter().map(|&i| vals[i as usize]).collect(),
        );
        for kind in kinds() {
            let y = label(&kind, raw_label);
            check(&kind, &params, scale, FeatureView::Dense(&vals), y, lr);
            check(&kind, &params, scale, sparse.view(), y, lr);
        }
    }
}
