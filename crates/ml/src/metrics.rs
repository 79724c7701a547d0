//! Evaluation metrics: accuracy, mean loss, and R².
//!
//! The paper reports training/testing accuracy for classifiers (Table 3,
//! Figures 1–12) and the coefficient of determination R² for linear
//! regression (§7.4.2).

use crate::linear::LinearModel;
use crate::model::Model;
use corgipile_storage::TupleView;

/// Classification accuracy of `model` over `tuples` (exact label match:
/// ±1 for binary models, class index for multi-class).
pub fn accuracy<'a, I>(model: &dyn Model, tuples: I) -> f64
where
    I: IntoIterator,
    I::Item: Into<TupleView<'a>>,
{
    let mut correct = 0usize;
    let mut total = 0usize;
    for t in tuples.into_iter().map(Into::into) {
        if model.predict_label(t.features) == t.label {
            correct += 1;
        }
        total += 1;
    }
    if total == 0 {
        0.0
    } else {
        correct as f64 / total as f64
    }
}

/// Mean per-example loss of `model` over `tuples`.
pub fn mean_loss<'a, I>(model: &dyn Model, tuples: I) -> f64
where
    I: IntoIterator,
    I::Item: Into<TupleView<'a>>,
{
    let mut sum = 0.0f64;
    let mut total = 0usize;
    for t in tuples.into_iter().map(Into::into) {
        sum += model.loss(t.features, t.label);
        total += 1;
    }
    if total == 0 {
        0.0
    } else {
        sum / total as f64
    }
}

/// Coefficient of determination R² = 1 − SS_res / SS_tot. Two passes over
/// `tuples`: the label mean, then the residuals.
pub fn r_squared<'a, I>(model: &dyn Model, tuples: I) -> f64
where
    I: IntoIterator,
    I::IntoIter: Clone,
    I::Item: Into<TupleView<'a>>,
{
    let tuples = tuples.into_iter().map(Into::into);
    let (n, sum_y) = tuples
        .clone()
        .fold((0usize, 0.0f64), |(n, s), t| (n + 1, s + t.label as f64));
    if n == 0 {
        return 0.0;
    }
    let mean_y = sum_y / n as f64;
    let mut ss_res = 0.0f64;
    let mut ss_tot = 0.0f64;
    for t in tuples {
        let pred = model.predict_label(t.features) as f64;
        let y = t.label as f64;
        ss_res += (y - pred) * (y - pred);
        ss_tot += (y - mean_y) * (y - mean_y);
    }
    if ss_tot == 0.0 {
        if ss_res == 0.0 {
            1.0
        } else {
            0.0
        }
    } else {
        1.0 - ss_res / ss_tot
    }
}

/// Area under the ROC curve for a binary scorer.
///
/// `scores[i]` is the model score of example `i`; `labels[i]` is ±1.
/// Computed via the rank-sum (Mann-Whitney) formulation with midrank tie
/// handling; 0.5 = chance, 1.0 = perfect ranking.
pub fn auc(scores: &[f32], labels: &[f32]) -> f64 {
    assert_eq!(scores.len(), labels.len());
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| scores[a].partial_cmp(&scores[b]).unwrap());
    let n = scores.len();
    let mut ranks = vec![0.0f64; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && scores[idx[j + 1]] == scores[idx[i]] {
            j += 1;
        }
        let midrank = (i + j) as f64 / 2.0 + 1.0;
        for k in i..=j {
            ranks[idx[k]] = midrank;
        }
        i = j + 1;
    }
    let pos = labels.iter().filter(|&&l| l > 0.0).count() as f64;
    let neg = n as f64 - pos;
    if pos == 0.0 || neg == 0.0 {
        return 0.5;
    }
    let rank_sum_pos: f64 = ranks
        .iter()
        .zip(labels)
        .filter(|(_, &l)| l > 0.0)
        .map(|(r, _)| *r)
        .sum();
    (rank_sum_pos - pos * (pos + 1.0) / 2.0) / (pos * neg)
}

/// AUC of a binary linear model over a tuple set (uses the raw score).
pub fn auc_of<'a, I>(model: &LinearModel, tuples: I) -> f64
where
    I: IntoIterator,
    I::Item: Into<TupleView<'a>>,
{
    let mut scores = Vec::new();
    let mut labels = Vec::new();
    for t in tuples.into_iter().map(Into::into) {
        scores.push(model.score(t.features));
        labels.push(t.label);
    }
    auc(&scores, &labels)
}

/// Mean binary log-loss of a logistic scorer: `mean ln(1 + e^{−y·s})`.
pub fn log_loss<'a, I>(model: &LinearModel, tuples: I) -> f64
where
    I: IntoIterator,
    I::Item: Into<TupleView<'a>>,
{
    let mut sum = 0.0f64;
    let mut n = 0usize;
    for t in tuples.into_iter().map(Into::into) {
        let z = -(t.label as f64) * model.score(t.features) as f64;
        sum += if z > 30.0 { z } else { z.exp().ln_1p() };
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::{LinearModel, LinearTask};
    use crate::model::Model;
    use corgipile_storage::Tuple;

    #[test]
    fn accuracy_of_perfect_and_inverted_models() {
        let data: Vec<Tuple> = (0..10)
            .map(|i| {
                let y = if i % 2 == 0 { 1.0 } else { -1.0 };
                Tuple::dense(i, vec![y], y)
            })
            .collect();
        let mut good = LinearModel::new(1, LinearTask::Logistic);
        good.params_mut()[0] = 5.0;
        assert_eq!(accuracy(&good, &data), 1.0);
        let mut bad = LinearModel::new(1, LinearTask::Logistic);
        bad.params_mut()[0] = -5.0;
        assert_eq!(accuracy(&bad, &data), 0.0);
    }

    #[test]
    fn empty_inputs_are_zero() {
        let m = LinearModel::new(1, LinearTask::Logistic);
        assert_eq!(accuracy(&m, &[]), 0.0);
        assert_eq!(mean_loss(&m, &[]), 0.0);
        assert_eq!(r_squared(&m, &[]), 0.0);
    }

    #[test]
    fn r2_is_one_for_exact_fit_and_zero_for_mean_predictor() {
        let data: Vec<Tuple> = (0..20)
            .map(|i| Tuple::dense(i, vec![i as f32], 2.0 * i as f32))
            .collect();
        let mut exact = LinearModel::new(1, LinearTask::Squared);
        exact.params_mut()[0] = 2.0;
        assert!((r_squared(&exact, &data) - 1.0).abs() < 1e-9);

        // A constant predictor at the mean: R² ≈ 0.
        let mean_y: f32 = data.iter().map(|t| t.label).sum::<f32>() / data.len() as f32;
        let mut mean_model = LinearModel::new(1, LinearTask::Squared);
        mean_model.params_mut()[1] = mean_y;
        let r2 = r_squared(&mean_model, &data);
        assert!(r2.abs() < 1e-6, "mean predictor r2 {r2}");
    }

    #[test]
    fn auc_perfect_chance_and_inverted() {
        let labels = vec![-1.0f32, -1.0, 1.0, 1.0];
        assert_eq!(auc(&[0.1, 0.2, 0.8, 0.9], &labels), 1.0);
        assert_eq!(auc(&[0.9, 0.8, 0.2, 0.1], &labels), 0.0);
        // All-tied scores → 0.5 via midranks.
        assert_eq!(auc(&[0.5, 0.5, 0.5, 0.5], &labels), 0.5);
        // Degenerate single-class input.
        assert_eq!(auc(&[0.1, 0.2], &[1.0, 1.0]), 0.5);
    }

    #[test]
    fn auc_handles_partial_overlap() {
        // One inversion among 2x2 pairs → AUC 3/4.
        let labels = vec![-1.0f32, 1.0, -1.0, 1.0];
        let scores = vec![0.1f32, 0.2, 0.3, 0.4];
        assert!((auc(&scores, &labels) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn auc_of_model_beats_chance_on_separable_data() {
        let data: Vec<Tuple> = (0..100)
            .map(|i| {
                let y = if i % 2 == 0 { 1.0 } else { -1.0 };
                Tuple::dense(i, vec![y + 0.1 * (i as f32 % 7.0 - 3.0)], y)
            })
            .collect();
        let mut m = LinearModel::new(1, LinearTask::Logistic);
        m.params_mut()[0] = 1.0;
        assert!(auc_of(&m, &data) > 0.9);
    }

    #[test]
    fn log_loss_is_ln2_at_zero_and_shrinks_with_fit() {
        let data: Vec<Tuple> = vec![
            Tuple::dense(0, vec![1.0], 1.0),
            Tuple::dense(1, vec![-1.0], -1.0),
        ];
        let zero = LinearModel::new(1, LinearTask::Logistic);
        assert!((log_loss(&zero, &data) - (2.0f64).ln()).abs() < 1e-9);
        let mut fit = LinearModel::new(1, LinearTask::Logistic);
        fit.params_mut()[0] = 5.0;
        assert!(log_loss(&fit, &data) < 0.01);
        assert_eq!(log_loss(&zero, &[]), 0.0);
    }

    #[test]
    fn mean_loss_matches_manual_average() {
        let data: Vec<Tuple> = vec![
            Tuple::dense(0, vec![1.0], 1.0),
            Tuple::dense(1, vec![-1.0], -1.0),
        ];
        let m = LinearModel::new(1, LinearTask::Logistic);
        let manual: f64 = data
            .iter()
            .map(|t| m.loss(t.features.view(), t.label))
            .sum::<f64>()
            / 2.0;
        assert!((mean_loss(&m, &data) - manual).abs() < 1e-12);
    }
}
