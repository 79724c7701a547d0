//! The §4.2 convergence analysis, made executable.
//!
//! * [`block_variance_factor`] estimates the paper's `h_D` — the
//!   block-wise gradient-variance inflation factor. `h_D ≈ 1` for fully
//!   shuffled storage (each block looks like the whole data set) and
//!   `h_D ≈ b` for perfectly clustered storage (each block is homogeneous).
//! * [`CorgiFactors`] computes α = (n−1)/(N−1), β, γ from Theorem 1.
//! * [`Theorem1Bound`] evaluates the strongly-convex rate
//!   `(1−α)·h_D·σ²/T + β/T² + γ·m³/T³` (up to the paper's absorbed
//!   constants) and [`Theorem2Bound`] the non-convex analogue.

use corgipile_ml::Model;
use corgipile_storage::Table;

/// Per-tuple and per-block gradient statistics at a model state.
#[derive(Debug, Clone, PartialEq)]
pub struct GradientStats {
    /// σ²: mean squared deviation of per-tuple gradients from the full
    /// gradient (Assumption 1.5).
    pub sigma_sq: f64,
    /// h_D: block-variance inflation factor.
    pub h_d: f64,
    /// Mean tuples per block (`b`).
    pub b: f64,
    /// Number of blocks (`N`).
    pub big_n: usize,
    /// Number of tuples (`m`).
    pub m: usize,
}

/// Estimate `h_D` and σ² for `table` at the current state of `model`.
///
/// Definitions (§4.2):
/// `σ² = (1/m) Σ_i ‖∇f_i − ∇F‖²` and
/// `(1/N) Σ_l ‖∇f_{B_l} − ∇F‖² ≤ h_D σ²/b`, where `∇f_{B_l}` averages the
/// gradients of block `l`'s tuples. We return the tight value of `h_D`
/// (the left side divided by `σ²/b`).
pub fn block_variance_factor(table: &Table, model: &dyn Model) -> GradientStats {
    let p = model.num_params();
    let m = table.num_tuples() as usize;
    let big_n = table.num_blocks();
    assert!(m > 0 && big_n > 0, "need a non-empty table");

    // Full gradient.
    let mut full = vec![0.0f64; p];
    let mut per_block_means: Vec<Vec<f64>> = Vec::with_capacity(big_n);
    let mut per_tuple_sq_dev_accum = Vec::new(); // gradient snapshots deferred below

    // First pass: block sums and full sum.
    for blk in 0..big_n {
        let block = table.block_handle(blk).expect("in range");
        let mut bsum = vec![0.0f64; p];
        for t in block.rows() {
            let mut g = vec![0.0f32; p];
            model.grad(t.features, t.label, &mut g);
            for (acc, gi) in bsum.iter_mut().zip(&g) {
                *acc += *gi as f64;
            }
            per_tuple_sq_dev_accum.push(g);
        }
        for (f, bi) in full.iter_mut().zip(&bsum) {
            *f += bi;
        }
        let cnt = block.len().max(1) as f64;
        per_block_means.push(bsum.into_iter().map(|v| v / cnt).collect());
    }
    for f in full.iter_mut() {
        *f /= m as f64;
    }

    // σ²: mean squared deviation of tuple gradients.
    let mut sigma_sq = 0.0f64;
    for g in &per_tuple_sq_dev_accum {
        let mut d = 0.0f64;
        for (gi, fi) in g.iter().zip(&full) {
            let diff = *gi as f64 - fi;
            d += diff * diff;
        }
        sigma_sq += d;
    }
    sigma_sq /= m as f64;

    // Block-level variance.
    let mut block_var = 0.0f64;
    for bm in &per_block_means {
        let mut d = 0.0f64;
        for (bi, fi) in bm.iter().zip(&full) {
            let diff = bi - fi;
            d += diff * diff;
        }
        block_var += d;
    }
    block_var /= big_n as f64;

    let b = m as f64 / big_n as f64;
    let h_d = if sigma_sq > 1e-18 {
        block_var * b / sigma_sq
    } else {
        1.0
    };
    GradientStats {
        sigma_sq,
        h_d,
        b,
        big_n,
        m,
    }
}

/// The α/β/γ factors of Theorem 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorgiFactors {
    /// α = (n−1)/(N−1): buffer coverage of the block population.
    pub alpha: f64,
    /// β = α² + (1−α)²(b−1)².
    pub beta: f64,
    /// γ = n³/N³.
    pub gamma: f64,
}

impl CorgiFactors {
    /// Compute the factors for buffer size `n` of `big_n` blocks of `b`
    /// tuples each.
    pub fn new(n: usize, big_n: usize, b: f64) -> Self {
        assert!(big_n >= 2, "Theorem 1 assumes N ≥ 2");
        assert!(n >= 1 && n <= big_n, "need 1 ≤ n ≤ N");
        let alpha = (n as f64 - 1.0) / (big_n as f64 - 1.0);
        let beta = alpha * alpha + (1.0 - alpha) * (1.0 - alpha) * (b - 1.0) * (b - 1.0);
        let gamma = (n as f64 / big_n as f64).powi(3);
        CorgiFactors { alpha, beta, gamma }
    }
}

/// The strongly-convex convergence bound of Theorem 1 (constants absorbed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Theorem1Bound {
    /// α/β/γ.
    pub factors: CorgiFactors,
    /// Block variance factor.
    pub h_d: f64,
    /// Tuple gradient variance.
    pub sigma_sq: f64,
    /// Total tuples.
    pub m: usize,
}

impl Theorem1Bound {
    /// Assemble a bound from measured statistics.
    pub fn new(stats: &GradientStats, n: usize) -> Self {
        Theorem1Bound {
            factors: CorgiFactors::new(n, stats.big_n, stats.b),
            h_d: stats.h_d,
            sigma_sq: stats.sigma_sq,
            m: stats.m,
        }
    }

    /// Evaluate the bound at `t` total samples:
    /// `(1−α)·h_D·σ²/T + β/T² + γ·m³/T³`.
    pub fn at(&self, t: f64) -> f64 {
        assert!(t > 0.0);
        let CorgiFactors { alpha, beta, gamma } = self.factors;
        (1.0 - alpha) * self.h_d * self.sigma_sq / t
            + beta / (t * t)
            + gamma * (self.m as f64).powi(3) / (t * t * t)
    }

    /// The leading (1/T) coefficient — what buffer growth shrinks.
    pub fn leading_coefficient(&self) -> f64 {
        (1.0 - self.factors.alpha) * self.h_d * self.sigma_sq
    }
}

/// The non-convex rate of Theorem 2 (case α ≤ (N−2)/(N−1); constants
/// absorbed): `√((1−α)·h_D)·σ/√T + β′/T + γ′·m³/T^{3/2}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Theorem2Bound {
    /// α/β/γ as defined in Theorem 2 (β/γ recomputed internally).
    pub factors: CorgiFactors,
    /// Block variance factor.
    pub h_d: f64,
    /// Tuple gradient variance.
    pub sigma_sq: f64,
    /// Tuples per block.
    pub b: f64,
    /// Blocks.
    pub big_n: usize,
    /// Total tuples.
    pub m: usize,
}

impl Theorem2Bound {
    /// Assemble from measured statistics.
    pub fn new(stats: &GradientStats, n: usize) -> Self {
        Theorem2Bound {
            factors: CorgiFactors::new(n, stats.big_n, stats.b),
            h_d: stats.h_d,
            sigma_sq: stats.sigma_sq,
            b: stats.b,
            big_n: stats.big_n,
            m: stats.m,
        }
    }

    /// Evaluate the gradient-norm bound at `t` total samples.
    pub fn at(&self, t: f64) -> f64 {
        assert!(t > 0.0);
        let alpha = self.factors.alpha;
        let hs = self.h_d * self.sigma_sq;
        if hs <= 1e-18 {
            return 0.0;
        }
        let beta = alpha * alpha / ((1.0 - alpha).max(1e-12) * hs)
            + (1.0 - alpha) * (self.b - 1.0) * (self.b - 1.0) / hs;
        let gamma = (self.factors.gamma / (1.0 - alpha).max(1e-12)) * (self.m as f64).powi(3);
        ((1.0 - alpha) * hs).sqrt() / t.sqrt() + beta / t + gamma / t.powf(1.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corgipile_data::{DatasetSpec, Order};
    use corgipile_ml::{build_model, ModelKind};
    use proptest::prelude::*;

    fn table(order: Order, n: usize) -> Table {
        DatasetSpec::higgs_like(n)
            .with_order(order)
            .with_block_bytes(2 * 8192)
            .build_table(3)
            .unwrap()
    }

    #[test]
    fn h_d_large_for_clustered_small_for_shuffled() {
        // Evaluate gradients at a non-trivial model state (at w = 0 the
        // logistic feature-gradient means coincide across labels and only
        // the bias separates the blocks).
        let mut model = build_model(&ModelKind::LogisticRegression, 28, 1);
        for (i, p) in model.params_mut().iter_mut().enumerate() {
            *p = 0.2 * ((i as f32 * 0.37).sin());
        }
        let clustered =
            block_variance_factor(&table(Order::ClusteredByLabel, 1200), model.as_ref());
        let shuffled = block_variance_factor(&table(Order::Shuffled, 1200), model.as_ref());
        assert!(
            clustered.h_d > 5.0 * shuffled.h_d,
            "clustered h_D {} should dwarf shuffled h_D {}",
            clustered.h_d,
            shuffled.h_d
        );
        // Shuffled h_D hovers near 1 (sampling noise allows some slack).
        assert!(shuffled.h_d < 3.0, "shuffled h_D {}", shuffled.h_d);
        // h_D can never exceed b by definition... (it is bounded by b when
        // gradients are bounded; allow slack for the empirical estimate).
        assert!(
            clustered.h_d <= clustered.b * 1.5,
            "h_D {} vs b {}",
            clustered.h_d,
            clustered.b
        );
        assert!(clustered.sigma_sq > 0.0);
    }

    #[test]
    fn alpha_spans_zero_to_one() {
        let f0 = CorgiFactors::new(1, 10, 5.0);
        assert_eq!(f0.alpha, 0.0);
        let f1 = CorgiFactors::new(10, 10, 5.0);
        assert_eq!(f1.alpha, 1.0);
        assert!(f1.beta <= 1.0 + 1e-12, "β = α² at full buffer");
        assert_eq!(f1.gamma, 1.0);
    }

    #[test]
    fn full_buffer_kills_the_leading_term() {
        // α = 1 ⇒ the 1/T term vanishes: CorgiPile degenerates to
        // full-shuffle SGD's O(1/T² + m³/T³) (the paper's tightness remark).
        let stats = GradientStats {
            sigma_sq: 2.0,
            h_d: 40.0,
            b: 50.0,
            big_n: 20,
            m: 1000,
        };
        let bound = Theorem1Bound::new(&stats, 20);
        assert_eq!(bound.leading_coefficient(), 0.0);
        let b_small = Theorem1Bound::new(&stats, 2);
        assert!(b_small.leading_coefficient() > 0.0);
    }

    #[test]
    fn bound_decreases_with_buffer_size_and_iterations() {
        let stats = GradientStats {
            sigma_sq: 1.0,
            h_d: 30.0,
            b: 50.0,
            big_n: 40,
            m: 2000,
        };
        let t = 1e6;
        let mut last = f64::INFINITY;
        for n in [2usize, 4, 8, 16, 32, 40] {
            let v = Theorem1Bound::new(&stats, n).at(t);
            assert!(
                v <= last + 1e-15,
                "bound not monotone in n at n={n}: {v} > {last}"
            );
            last = v;
        }
        let b = Theorem1Bound::new(&stats, 4);
        assert!(b.at(1e7) < b.at(1e5), "bound must shrink with T");
    }

    #[test]
    fn theorem2_bound_behaves() {
        let stats = GradientStats {
            sigma_sq: 1.0,
            h_d: 30.0,
            b: 50.0,
            big_n: 40,
            m: 2000,
        };
        let b = Theorem2Bound::new(&stats, 4);
        assert!(b.at(1e8) < b.at(1e4));
        let bigger_buffer = Theorem2Bound::new(&stats, 32);
        // Leading √((1−α) h_D σ²) term shrinks with n.
        assert!(bigger_buffer.at(1e10) < b.at(1e10));
    }

    #[test]
    #[should_panic(expected = "N ≥ 2")]
    fn single_block_rejected() {
        CorgiFactors::new(1, 1, 5.0);
    }

    proptest! {
        #[test]
        fn prop_factors_in_valid_ranges(n in 1usize..50, extra in 1usize..50, b in 1.0f64..200.0) {
            let big_n = n + extra; // ensures n < N and N ≥ 2
            let f = CorgiFactors::new(n, big_n, b);
            prop_assert!((0.0..=1.0).contains(&f.alpha));
            prop_assert!(f.beta >= 0.0);
            prop_assert!((0.0..=1.0).contains(&f.gamma));
        }

        #[test]
        fn prop_bound_nonnegative(n in 2usize..20, t in 1.0f64..1e9) {
            let stats = GradientStats { sigma_sq: 0.5, h_d: 10.0, b: 20.0, big_n: 20, m: 400 };
            prop_assert!(Theorem1Bound::new(&stats, n).at(t) >= 0.0);
            prop_assert!(Theorem2Bound::new(&stats, n).at(t) >= 0.0);
        }
    }
}
