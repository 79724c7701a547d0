//! Low-level example generators.
//!
//! Each generator produces `(features, label)` pairs from a fixed ground
//! truth, so every dataset has a learnable signal and a known Bayes-optimal
//! accuracy ceiling:
//!
//! * **Dense binary** — a two-component Gaussian mixture `x = y·s·u + ε`
//!   with unit vector `u` and separation `s`; learnable by LR/SVM, Bayes
//!   accuracy `Φ(s)`.
//! * **Sparse binary** — criteo-like: `nnz` active features out of `dim`,
//!   values correlated with the label through a hidden dense weight vector.
//! * **Multi-class** — class centroids on random unit directions plus
//!   Gaussian noise; learnable by softmax regression and MLPs.
//! * **Regression** — `y = w*·x + ε`.

use crate::rng::{rand_unit_vec, randn, randn_vec, sample_distinct_sorted};
use corgipile_storage::FeatureVec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generator for one labelled example family.
#[derive(Debug, Clone)]
pub enum Generator {
    /// Two-class Gaussian mixture; labels in {-1, +1}.
    DenseBinary {
        /// Feature dimensionality.
        dim: usize,
        /// Class separation in units of noise σ.
        separation: f32,
        /// Hidden direction of separation (unit vector of length `dim`).
        direction: Vec<f32>,
        /// Common offset shared by both classes (unit vector). Real data
        /// sets are not mirror-symmetric around the origin; without this
        /// the per-class mean *gradients* coincide and the paper's
        /// block-variance factor `h_D` would be artificially deflated.
        offset: Vec<f32>,
        /// Low-rank noise basis (empty = isotropic noise). Real wide
        /// datasets (epsilon's learned features, yfcc's CNN embeddings)
        /// have strongly correlated coordinates; with isotropic noise in
        /// thousands of dimensions, per-example gradients are nearly
        /// orthogonal and sequential SGD never "forgets" — which would
        /// erase the paper's No-Shuffle pathology on wide data. A rank-k
        /// basis confines examples to a shared subspace and restores the
        /// interference.
        noise_basis: Vec<Vec<f32>>,
    },
    /// Sparse binary; labels in {-1, +1}.
    SparseBinary {
        /// Logical dimensionality (e.g. 10⁶ for criteo-like).
        dim: usize,
        /// Non-zeros per example.
        nnz: usize,
        /// Hidden dense weights over a smaller "informative" prefix.
        informative: Vec<f32>,
        /// Signal scale.
        separation: f32,
    },
    /// k-class Gaussian mixture; labels are class indices 0..k.
    MultiClass {
        /// Feature dimensionality.
        dim: usize,
        /// Per-class centroid.
        centroids: Vec<Vec<f32>>,
        /// Noise σ.
        noise: f32,
    },
    /// Linear regression; labels are real.
    Regression {
        /// Feature dimensionality.
        dim: usize,
        /// Ground-truth weights.
        weights: Vec<f32>,
        /// Intercept.
        bias: f32,
        /// Label noise σ.
        noise: f32,
    },
}

impl Generator {
    /// Dense binary family with the given dimension and separation.
    pub fn dense_binary(dim: usize, separation: f32, seed: u64) -> Self {
        Self::dense_binary_with_rank(dim, separation, 0, seed)
    }

    /// Dense binary family with rank-`rank` correlated noise (0 = isotropic).
    pub fn dense_binary_with_rank(dim: usize, separation: f32, rank: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1CE);
        let mut direction = rand_unit_vec(&mut rng, dim);
        // Real tabular datasets have a few engineered features carrying a
        // disproportionate share of the signal (the higgs "high-level"
        // features). Concentrate ~60% of the direction's mass on one
        // coordinate so feature-ordered storage (§7.4.3) can actually
        // cluster the labels; the total signal ‖u‖ = 1 (and hence the
        // Bayes ceiling) is unchanged.
        let star = rng.gen_range(0..dim);
        direction[star] = 1.33 * direction[star].signum();
        let norm: f32 = direction.iter().map(|v| v * v).sum::<f32>().sqrt();
        for v in &mut direction {
            *v /= norm;
        }
        let offset = rand_unit_vec(&mut rng, dim);
        // Basis vectors scaled so per-coordinate variance stays ≈ 1:
        // residual isotropic noise contributes 0.09, the k basis directions
        // the remaining 0.91.
        let scale = if rank > 0 {
            (0.91 * dim as f32 / rank as f32).sqrt()
        } else {
            0.0
        };
        let noise_basis = (0..rank)
            .map(|_| {
                rand_unit_vec(&mut rng, dim)
                    .into_iter()
                    .map(|v| v * scale)
                    .collect()
            })
            .collect();
        Generator::DenseBinary {
            dim,
            separation,
            direction,
            offset,
            noise_basis,
        }
    }

    /// Sparse binary family; the first `dim/10` (≥ `nnz`) dimensions carry
    /// signal.
    pub fn sparse_binary(dim: usize, nnz: usize, separation: f32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5BA2);
        let informative_len = (dim / 10).max(nnz).min(dim);
        let informative = randn_vec(&mut rng, informative_len);
        Generator::SparseBinary {
            dim,
            nnz,
            informative,
            separation,
        }
    }

    /// Multi-class family with `classes` centroids at distance `separation`.
    pub fn multi_class(dim: usize, classes: usize, separation: f32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC1A5);
        let centroids = (0..classes)
            .map(|_| {
                rand_unit_vec(&mut rng, dim)
                    .into_iter()
                    .map(|x| x * separation)
                    .collect()
            })
            .collect();
        Generator::MultiClass {
            dim,
            centroids,
            noise: 1.0,
        }
    }

    /// Regression family.
    pub fn regression(dim: usize, noise: f32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4E64);
        let weights = randn_vec(&mut rng, dim);
        let bias = randn(&mut rng);
        Generator::Regression {
            dim,
            weights,
            bias,
            noise,
        }
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        match self {
            Generator::DenseBinary { dim, .. }
            | Generator::SparseBinary { dim, .. }
            | Generator::MultiClass { dim, .. }
            | Generator::Regression { dim, .. } => *dim,
        }
    }

    /// Number of classes (2 for binary, k for multi-class, 0 for regression).
    pub fn num_classes(&self) -> usize {
        match self {
            Generator::DenseBinary { .. } | Generator::SparseBinary { .. } => 2,
            Generator::MultiClass { centroids, .. } => centroids.len(),
            Generator::Regression { .. } => 0,
        }
    }

    /// Draw one `(features, label)` example.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> (FeatureVec, f32) {
        match self {
            Generator::DenseBinary {
                dim,
                separation,
                direction,
                offset,
                noise_basis,
            } => {
                let y: f32 = if rng.gen::<bool>() { 1.0 } else { -1.0 };
                // Full-strength isotropic noise keeps the Bayes ceiling at
                // Φ(separation); the low-rank component rides on top and
                // gives examples a shared subspace.
                let mut x = randn_vec(rng, *dim);
                for basis in noise_basis {
                    let z = randn(rng);
                    for (xi, bi) in x.iter_mut().zip(basis) {
                        *xi += z * bi;
                    }
                }
                for ((xi, ui), ci) in x.iter_mut().zip(direction).zip(offset) {
                    *xi += y * separation * ui + ci;
                }
                if !noise_basis.is_empty() {
                    // Embedding-style datasets (epsilon, yfcc) ship with
                    // unit-normalized rows. Normalization is what makes a
                    // clustered scan hurt wide data: with raw Gaussian rows
                    // the per-example self-term lr·‖x‖² dwarfs the one-sided
                    // drift and No Shuffle would (unrealistically) converge.
                    let norm: f32 = x.iter().map(|v| v * v).sum::<f32>().sqrt();
                    if norm > 1e-12 {
                        for v in x.iter_mut() {
                            *v /= norm;
                        }
                    }
                }
                (FeatureVec::Dense(x), y)
            }
            Generator::SparseBinary {
                dim,
                nnz,
                informative,
                separation,
            } => {
                let y: f32 = if rng.gen::<bool>() { 1.0 } else { -1.0 };
                // Half the non-zeros come from the informative prefix and
                // carry signal; the rest are uniform noise features.
                let k_info = (*nnz).div_ceil(2);
                let k_noise = *nnz - k_info;
                let mut idx = sample_distinct_sorted(rng, informative.len(), k_info);
                if k_noise > 0 && *dim > informative.len() {
                    let noise_idx = sample_distinct_sorted(rng, *dim - informative.len(), k_noise);
                    idx.extend(noise_idx.into_iter().map(|i| i + informative.len()));
                }
                idx.sort_unstable();
                idx.dedup();
                let values: Vec<f32> = idx
                    .iter()
                    .map(|&i| {
                        if i < informative.len() {
                            y * separation * informative[i] + randn(rng)
                        } else {
                            randn(rng)
                        }
                    })
                    .collect();
                let indices: Vec<u32> = idx.into_iter().map(|i| i as u32).collect();
                (FeatureVec::sparse(*dim as u32, indices, values), y)
            }
            Generator::MultiClass {
                dim,
                centroids,
                noise,
            } => {
                let c = rng.gen_range(0..centroids.len());
                let mut x = randn_vec(rng, *dim);
                for (xi, mi) in x.iter_mut().zip(&centroids[c]) {
                    *xi = *xi * noise + mi;
                }
                (FeatureVec::Dense(x), c as f32)
            }
            Generator::Regression {
                dim,
                weights,
                bias,
                noise,
            } => {
                let x = randn_vec(rng, *dim);
                let y: f32 = x.iter().zip(weights).map(|(a, b)| a * b).sum::<f32>()
                    + bias
                    + noise * randn(rng);
                (FeatureVec::Dense(x), y)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_binary_is_linearly_separable_by_direction() {
        let g = Generator::dense_binary(20, 3.0, 1);
        let dir = match &g {
            Generator::DenseBinary { direction, .. } => direction.clone(),
            _ => unreachable!(),
        };
        let mut rng = StdRng::seed_from_u64(2);
        let mut correct = 0;
        let n = 2000;
        for _ in 0..n {
            let (x, y) = g.sample(&mut rng);
            let score = x.view().dot(&dir);
            if (score > 0.0) == (y > 0.0) {
                correct += 1;
            }
        }
        let acc = correct as f64 / n as f64;
        assert!(
            acc > 0.97,
            "separation 3 should give ~99.9% oracle accuracy, got {acc}"
        );
    }

    #[test]
    fn dense_binary_labels_balanced() {
        let g = Generator::dense_binary(4, 1.0, 1);
        let mut rng = StdRng::seed_from_u64(3);
        let n = 4000;
        let pos = (0..n).filter(|_| g.sample(&mut rng).1 > 0.0).count();
        let frac = pos as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.05, "label fraction {frac}");
    }

    #[test]
    fn sparse_binary_has_requested_nnz_and_dim() {
        let g = Generator::sparse_binary(100_000, 39, 1.5, 7);
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..50 {
            let (x, y) = g.sample(&mut rng);
            assert_eq!(x.dim(), 100_000);
            assert!(x.nnz() <= 39 && x.nnz() >= 20, "nnz {}", x.nnz());
            assert!(y == 1.0 || y == -1.0);
        }
    }

    #[test]
    fn sparse_binary_signal_correlates_with_label() {
        let g = Generator::sparse_binary(1000, 20, 2.0, 9);
        let informative = match &g {
            Generator::SparseBinary { informative, .. } => informative.clone(),
            _ => unreachable!(),
        };
        let mut w = vec![0.0f32; 1000];
        w[..informative.len()].copy_from_slice(&informative);
        let mut rng = StdRng::seed_from_u64(10);
        let n = 1000;
        let correct = (0..n)
            .filter(|_| {
                let (x, y) = g.sample(&mut rng);
                (x.view().dot(&w) > 0.0) == (y > 0.0)
            })
            .count();
        assert!(
            correct as f64 / n as f64 > 0.9,
            "oracle accuracy {correct}/{n}"
        );
    }

    #[test]
    fn multi_class_labels_cover_all_classes() {
        let g = Generator::multi_class(16, 10, 3.0, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let mut seen = [false; 10];
        for _ in 0..500 {
            let (_, y) = g.sample(&mut rng);
            seen[y as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 10 classes should appear");
        assert_eq!(g.num_classes(), 10);
    }

    #[test]
    fn multi_class_nearest_centroid_is_accurate() {
        let g = Generator::multi_class(32, 5, 4.0, 6);
        let centroids = match &g {
            Generator::MultiClass { centroids, .. } => centroids.clone(),
            _ => unreachable!(),
        };
        let mut rng = StdRng::seed_from_u64(7);
        let n = 1000;
        let correct = (0..n)
            .filter(|_| {
                let (x, y) = g.sample(&mut rng);
                let xd: Vec<f32> = (0..x.dim()).map(|i| x.get(i)).collect();
                let best = centroids
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| {
                        let da: f32 = xd.iter().zip(*a).map(|(p, q)| (p - q) * (p - q)).sum();
                        let db: f32 = xd.iter().zip(*b).map(|(p, q)| (p - q) * (p - q)).sum();
                        da.partial_cmp(&db).unwrap()
                    })
                    .map(|(i, _)| i)
                    .unwrap();
                best as f32 == y
            })
            .count();
        assert!(
            correct as f64 / n as f64 > 0.9,
            "oracle accuracy {correct}/{n}"
        );
    }

    #[test]
    fn regression_labels_follow_linear_model() {
        let g = Generator::regression(8, 0.01, 11);
        let (w, b) = match &g {
            Generator::Regression { weights, bias, .. } => (weights.clone(), *bias),
            _ => unreachable!(),
        };
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..100 {
            let (x, y) = g.sample(&mut rng);
            let pred = x.view().dot(&w) + b;
            assert!((pred - y).abs() < 0.1, "pred {pred} vs y {y}");
        }
        assert_eq!(g.num_classes(), 0);
    }

    #[test]
    fn generators_are_seed_deterministic() {
        let g = Generator::dense_binary(8, 2.0, 42);
        let a: Vec<(FeatureVec, f32)> = (0..10)
            .map(|_| g.sample(&mut StdRng::seed_from_u64(1)))
            .collect();
        let b: Vec<(FeatureVec, f32)> = (0..10)
            .map(|_| g.sample(&mut StdRng::seed_from_u64(1)))
            .collect();
        assert_eq!(a, b);
    }
}
