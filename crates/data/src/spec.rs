//! Dataset specifications and materialized datasets.
//!
//! A [`DatasetSpec`] describes what to generate (family, sizes, storage
//! [`Order`], block size); [`DatasetSpec::build`] materializes a seeded
//! [`Dataset`] (train + test tuples) and [`Dataset::to_table`] lays the
//! train split out as a heap [`Table`].
//!
//! The storage order is the paper's central experimental variable:
//! `Shuffled` (i.i.d. on disk), `ClusteredByLabel` (all −1 tuples before
//! all +1 tuples — the worst case of §3), and `OrderedByFeature(j)` (§7.4.3).

use crate::generator::Generator;
use crate::rng::shuffle_in_place;
use corgipile_storage::{Table, TableConfig, Tuple};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The example family a spec generates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DataKind {
    /// Dense binary classification (higgs/susy/epsilon/yfcc analogues).
    DenseBinary {
        /// Feature dimensionality.
        dim: usize,
        /// Class separation.
        separation: f32,
        /// Rank of the correlated-noise subspace (0 = isotropic noise);
        /// wide embedding-style datasets use a low rank.
        noise_rank: usize,
    },
    /// Sparse binary classification (criteo analogue).
    SparseBinary {
        /// Logical dimensionality.
        dim: usize,
        /// Non-zeros per tuple.
        nnz: usize,
        /// Signal scale.
        separation: f32,
    },
    /// Multi-class classification (cifar/ImageNet/yelp/mini8m analogues).
    MultiClass {
        /// Feature dimensionality.
        dim: usize,
        /// Number of classes.
        classes: usize,
        /// Centroid separation.
        separation: f32,
    },
    /// Regression (YearPredictionMSD analogue).
    Regression {
        /// Feature dimensionality.
        dim: usize,
        /// Label noise σ.
        noise: f32,
    },
}

/// Physical storage order of the train split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// Random order — the "shuffled version" of §3.
    Shuffled,
    /// All tuples sorted by label — the "clustered version" of §3
    /// (negatives before positives; multi-class sorted by class id).
    ClusteredByLabel,
    /// Sorted by the value of one feature (§7.4.3).
    OrderedByFeature(usize),
}

/// A full dataset description.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Dataset name (for catalogs and reports).
    pub name: String,
    /// Example family.
    pub kind: DataKind,
    /// Train split size.
    pub train: usize,
    /// Test split size.
    pub test: usize,
    /// Physical order of the train split.
    pub order: Order,
    /// Heap-table block size in bytes.
    pub block_bytes: usize,
}

impl DatasetSpec {
    /// A new spec with a 10:1 train/test split, shuffled order, 10 MB blocks.
    pub fn new(name: impl Into<String>, kind: DataKind, train: usize) -> Self {
        DatasetSpec {
            name: name.into(),
            kind,
            train,
            test: (train / 10).max(1),
            order: Order::Shuffled,
            block_bytes: 10 << 20,
        }
    }

    /// higgs-like: 28 dense features (paper Table 2), moderate separation
    /// tuned so converged accuracy lands in the 60–70 % band like higgs.
    pub fn higgs_like(train: usize) -> Self {
        Self::new(
            "higgs",
            DataKind::DenseBinary {
                dim: 28,
                separation: 0.5,
                noise_rank: 0,
            },
            train,
        )
    }

    /// susy-like: 18 dense features, ~79 % converged accuracy band.
    pub fn susy_like(train: usize) -> Self {
        Self::new(
            "susy",
            DataKind::DenseBinary {
                dim: 18,
                separation: 0.85,
                noise_rank: 0,
            },
            train,
        )
    }

    /// epsilon-like: 2 000 dense features (wide, TOASTed in storage).
    pub fn epsilon_like(train: usize) -> Self {
        Self::new(
            "epsilon",
            DataKind::DenseBinary {
                dim: 2000,
                separation: 1.75,
                noise_rank: 24,
            },
            train,
        )
    }

    /// criteo-like: sparse, 1 M logical dims scaled to 100 k, 39 nnz.
    pub fn criteo_like(train: usize) -> Self {
        Self::new(
            "criteo",
            DataKind::SparseBinary {
                dim: 100_000,
                nnz: 39,
                separation: 0.27,
            },
            train,
        )
    }

    /// yfcc-like: 4 096 dense features (very wide, TOASTed), ~96 % band.
    pub fn yfcc_like(train: usize) -> Self {
        Self::new(
            "yfcc",
            DataKind::DenseBinary {
                dim: 4096,
                separation: 2.45,
                noise_rank: 24,
            },
            train,
        )
    }

    /// cifar-10-like: 10 classes on 128 dense features.
    pub fn cifar_like(train: usize) -> Self {
        Self::new(
            "cifar10",
            DataKind::MultiClass {
                dim: 128,
                classes: 10,
                separation: 2.5,
            },
            train,
        )
    }

    /// ImageNet-like: many classes, wider features.
    pub fn imagenet_like(train: usize) -> Self {
        Self::new(
            "imagenet",
            DataKind::MultiClass {
                dim: 256,
                classes: 100,
                separation: 4.0,
            },
            train,
        )
    }

    /// yelp-review-like: 5 classes.
    pub fn yelp_like(train: usize) -> Self {
        Self::new(
            "yelp",
            DataKind::MultiClass {
                dim: 96,
                classes: 5,
                separation: 2.2,
            },
            train,
        )
    }

    /// YearPredictionMSD-like: regression on 90 dense features.
    pub fn msd_like(train: usize) -> Self {
        Self::new(
            "year_msd",
            DataKind::Regression {
                dim: 90,
                noise: 0.5,
            },
            train,
        )
    }

    /// mini8m-like: 10 classes on 784 dense features.
    pub fn mini8m_like(train: usize) -> Self {
        Self::new(
            "mini8m",
            DataKind::MultiClass {
                dim: 784,
                classes: 10,
                separation: 3.0,
            },
            train,
        )
    }

    /// Override the storage order.
    pub fn with_order(mut self, order: Order) -> Self {
        self.order = order;
        self
    }

    /// Override the block size.
    pub fn with_block_bytes(mut self, bytes: usize) -> Self {
        self.block_bytes = bytes;
        self
    }

    /// Override the test size.
    pub fn with_test(mut self, test: usize) -> Self {
        self.test = test;
        self
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        match self.kind {
            DataKind::DenseBinary { dim, .. }
            | DataKind::SparseBinary { dim, .. }
            | DataKind::MultiClass { dim, .. }
            | DataKind::Regression { dim, .. } => dim,
        }
    }

    /// Number of classes (0 for regression).
    pub fn num_classes(&self) -> usize {
        match self.kind {
            DataKind::DenseBinary { .. } | DataKind::SparseBinary { .. } => 2,
            DataKind::MultiClass { classes, .. } => classes,
            DataKind::Regression { .. } => 0,
        }
    }

    fn generator(&self, seed: u64) -> Generator {
        match self.kind {
            DataKind::DenseBinary {
                dim,
                separation,
                noise_rank,
            } => Generator::dense_binary_with_rank(dim, separation, noise_rank, seed),
            DataKind::SparseBinary {
                dim,
                nnz,
                separation,
            } => Generator::sparse_binary(dim, nnz, separation, seed),
            DataKind::MultiClass {
                dim,
                classes,
                separation,
            } => Generator::multi_class(dim, classes, separation, seed),
            DataKind::Regression { dim, noise } => Generator::regression(dim, noise, seed),
        }
    }

    /// Materialize the dataset with the given seed.
    pub fn build(&self, seed: u64) -> Dataset {
        let gen = self.generator(seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut train: Vec<(corgipile_storage::FeatureVec, f32)> =
            (0..self.train).map(|_| gen.sample(&mut rng)).collect();
        let test: Vec<Tuple> = (0..self.test)
            .map(|i| {
                let (f, y) = gen.sample(&mut rng);
                Tuple {
                    id: i as u64,
                    features: f,
                    label: y,
                }
            })
            .collect();

        match self.order {
            Order::Shuffled => {
                shuffle_in_place(&mut rng, &mut train);
            }
            Order::ClusteredByLabel => {
                train.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
            }
            Order::OrderedByFeature(j) => {
                train.sort_by(|a, b| a.0.get(j).partial_cmp(&b.0.get(j)).unwrap());
            }
        }
        let train: Vec<Tuple> = train
            .into_iter()
            .enumerate()
            .map(|(i, (f, y))| Tuple {
                id: i as u64,
                features: f,
                label: y,
            })
            .collect();
        Dataset {
            spec: self.clone(),
            train,
            test,
        }
    }

    /// Convenience: build and lay out the train split as a heap table.
    pub fn build_table(&self, seed: u64) -> corgipile_storage::Result<Table> {
        self.build(seed).to_table(0)
    }
}

/// A materialized dataset: ordered train split plus i.i.d. test split.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The generating spec.
    pub spec: DatasetSpec,
    /// Train tuples, in storage order, ids = storage positions.
    pub train: Vec<Tuple>,
    /// Test tuples (always i.i.d. order).
    pub test: Vec<Tuple>,
}

impl Dataset {
    /// Lay the train split out as a heap table.
    pub fn to_table(&self, table_id: u32) -> corgipile_storage::Result<Table> {
        let cfg = TableConfig::new(self.spec.name.clone(), table_id)
            .with_block_bytes(self.spec.block_bytes);
        Table::from_tuples(cfg, &self.train)
    }

    /// Fraction of positive labels in the train split (binary data only).
    pub fn positive_fraction(&self) -> f64 {
        let pos = self.train.iter().filter(|t| t.label > 0.0).count();
        pos as f64 / self.train.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clustered_order_sorts_negatives_first() {
        let ds = DatasetSpec::higgs_like(500)
            .with_order(Order::ClusteredByLabel)
            .build(1);
        let first_pos = ds.train.iter().position(|t| t.label > 0.0).unwrap();
        assert!(ds.train[..first_pos].iter().all(|t| t.label < 0.0));
        assert!(ds.train[first_pos..].iter().all(|t| t.label > 0.0));
        // ids are storage positions
        for (i, t) in ds.train.iter().enumerate() {
            assert_eq!(t.id, i as u64);
        }
    }

    #[test]
    fn shuffled_order_mixes_labels() {
        let ds = DatasetSpec::higgs_like(500).build(1);
        // In a shuffled layout the first 50 tuples should contain both labels.
        let head = &ds.train[..50];
        assert!(head.iter().any(|t| t.label > 0.0));
        assert!(head.iter().any(|t| t.label < 0.0));
    }

    #[test]
    fn feature_order_sorts_by_feature() {
        let ds = DatasetSpec::susy_like(300)
            .with_order(Order::OrderedByFeature(3))
            .build(2);
        let vals: Vec<f32> = ds.train.iter().map(|t| t.features.get(3)).collect();
        assert!(vals.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn build_is_seed_deterministic() {
        let spec = DatasetSpec::criteo_like(100);
        let a = spec.build(7);
        let b = spec.build(7);
        assert_eq!(a.train, b.train);
        assert_eq!(a.test, b.test);
        let c = spec.build(8);
        assert_ne!(a.train, c.train);
    }

    #[test]
    fn to_table_roundtrips() {
        let ds = DatasetSpec::higgs_like(200)
            .with_order(Order::ClusteredByLabel)
            .build(3);
        let t = ds.to_table(5).unwrap();
        assert_eq!(t.num_tuples(), 200);
        let back = t.all_tuples();
        assert_eq!(back, ds.train);
    }

    #[test]
    fn test_split_is_iid_and_sized() {
        let ds = DatasetSpec::higgs_like(1000).with_test(100).build(4);
        assert_eq!(ds.test.len(), 100);
        assert!(ds.test.iter().any(|t| t.label > 0.0));
        assert!(ds.test.iter().any(|t| t.label < 0.0));
    }

    #[test]
    fn positive_fraction_near_half() {
        let ds = DatasetSpec::susy_like(2000).build(5);
        let f = ds.positive_fraction();
        assert!((f - 0.5).abs() < 0.05, "positive fraction {f}");
    }

    #[test]
    fn spec_accessors() {
        let s = DatasetSpec::cifar_like(10);
        assert_eq!(s.dim(), 128);
        assert_eq!(s.num_classes(), 10);
        let r = DatasetSpec::msd_like(10);
        assert_eq!(r.num_classes(), 0);
        assert_eq!(DatasetSpec::criteo_like(10).num_classes(), 2);
    }

    #[test]
    fn epsilon_like_is_toasted_in_storage() {
        let t = DatasetSpec::epsilon_like(30).build_table(6).unwrap();
        assert!(
            t.is_toasted(),
            "2000-dim dense tuples exceed the TOAST threshold"
        );
    }

    #[test]
    fn multiclass_clustered_sorts_by_class() {
        let ds = DatasetSpec::cifar_like(300)
            .with_order(Order::ClusteredByLabel)
            .build(9);
        let labels: Vec<f32> = ds.train.iter().map(|t| t.label).collect();
        assert!(labels.windows(2).all(|w| w[0] <= w[1]));
    }
}
