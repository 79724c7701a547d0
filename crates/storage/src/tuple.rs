//! Training tuples: `⟨id, features, label⟩`, owned and borrowed.
//!
//! The paper stores training data in PostgreSQL with the schema
//! `⟨id, features_k[], features_v[], label⟩` (§6.1): sparse datasets carry
//! index/value arrays, dense datasets only the value array. [`FeatureVec`]
//! mirrors exactly that: [`FeatureVec::Dense`] holds only values,
//! [`FeatureVec::Sparse`] `(index, value)` pairs plus the logical dimension.
//!
//! A [`Tuple`] owns its arrays; it exists where a row is built or kept on
//! its own (loaders, `INSERT`, the row batches of table WALs and files). Rows
//! resident in a [`Page`](crate::Page) are read in place as [`TupleView`]s,
//! `Copy` borrows of the page's columns, and the feature arithmetic (`dot`,
//! `axpy_into`, …) lives once, on [`FeatureView`].

use crate::error::StorageError;
use crate::Result;

/// Identifier of a tuple within a table (its insertion position).
pub type TupleId = u64;

/// Number of lanes the dense kernels process per unrolled iteration.
///
/// The workspace sets no `target-cpu`, so it builds for baseline x86-64:
/// SSE2, where the autovectorizer turns eight lanes into two 4-lane
/// accumulators with a separate multiply and add (no AVX2, no FMA).
pub const DENSE_LANES: usize = 8;

/// Unrolled dense dot product over `min(x.len(), w.len())` components.
///
/// Eight accumulators break the naive `fold`'s dependency chain and sum in
/// another order than [`dense_dot_scalar`]; both are deterministic.
/// More accumulators or a fused multiply-add would reorder it again: that
/// moves every trained bit, so it is a deliberate change of its own.
#[inline]
pub fn dense_dot(x: &[f32], w: &[f32]) -> f32 {
    let n = x.len().min(w.len());
    let (x, w) = (&x[..n], &w[..n]);
    let mut acc = [0.0f32; DENSE_LANES];
    let mut xc = x.chunks_exact(DENSE_LANES);
    let mut wc = w.chunks_exact(DENSE_LANES);
    for (xo, wo) in (&mut xc).zip(&mut wc) {
        for k in 0..DENSE_LANES {
            acc[k] += xo[k] * wo[k];
        }
    }
    let tail: f32 = xc
        .remainder()
        .iter()
        .zip(wc.remainder())
        .map(|(a, b)| a * b)
        .sum();
    let lo = (acc[0] + acc[4]) + (acc[1] + acc[5]);
    let hi = (acc[2] + acc[6]) + (acc[3] + acc[7]);
    (lo + hi) + tail
}

/// Reference scalar dot product (the pre-unrolling implementation).
///
/// Kept for equivalence tests and the `dense_kernels` micro-benchmark.
#[inline]
pub fn dense_dot_scalar(x: &[f32], w: &[f32]) -> f32 {
    x.iter().zip(w).map(|(a, b)| a * b).sum()
}

/// Unrolled dense `w[i] += scale * x[i]` over `min(x.len(), w.len())`
/// components. Same unrolling rationale as [`dense_dot`]; unlike the dot
/// product there is no reassociation, so results are bit-identical to
/// [`dense_axpy_scalar`].
#[inline]
pub fn dense_axpy(scale: f32, x: &[f32], w: &mut [f32]) {
    let n = x.len().min(w.len());
    let (x, w) = (&x[..n], &mut w[..n]);
    let mut xc = x.chunks_exact(DENSE_LANES);
    let mut wc = w.chunks_exact_mut(DENSE_LANES);
    for (xo, wo) in (&mut xc).zip(&mut wc) {
        for k in 0..DENSE_LANES {
            wo[k] += scale * xo[k];
        }
    }
    for (xi, wi) in xc.remainder().iter().zip(wc.into_remainder()) {
        *wi += scale * xi;
    }
}

/// Reference scalar axpy (the pre-unrolling implementation).
#[inline]
pub fn dense_axpy_scalar(scale: f32, x: &[f32], w: &mut [f32]) {
    for (wi, &xi) in w.iter_mut().zip(x) {
        *wi += scale * xi;
    }
}

/// A feature vector, dense or sparse, with `f32` components.
#[derive(Debug, Clone, PartialEq)]
pub enum FeatureVec {
    /// Dense layout: `values[i]` is the value of feature `i`.
    Dense(Vec<f32>),
    /// Sparse layout: only non-zero features are materialized.
    Sparse {
        /// Logical dimensionality of the vector.
        dim: u32,
        /// Indices of the non-zero features, strictly increasing.
        indices: Vec<u32>,
        /// Values of the non-zero features (same length as `indices`).
        values: Vec<f32>,
    },
}

impl FeatureVec {
    /// Build a sparse vector, validating the index/value invariants.
    pub fn sparse(dim: u32, indices: Vec<u32>, values: Vec<f32>) -> Self {
        assert_eq!(
            indices.len(),
            values.len(),
            "sparse indices/values length mismatch"
        );
        debug_assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "sparse indices must be strictly increasing"
        );
        debug_assert!(indices.iter().all(|&i| i < dim), "index out of dimension");
        FeatureVec::Sparse {
            dim,
            indices,
            values,
        }
    }

    /// Borrow the vector: the form every kernel and operator consumes.
    #[inline]
    pub fn view(&self) -> FeatureView<'_> {
        match self {
            FeatureVec::Dense(v) => FeatureView::Dense(v),
            FeatureVec::Sparse {
                dim,
                indices,
                values,
            } => FeatureView::Sparse {
                dim: *dim,
                indices,
                values,
            },
        }
    }

    /// Logical dimensionality of the vector.
    pub fn dim(&self) -> usize {
        self.view().dim()
    }

    /// Number of materialized (stored) components.
    pub fn nnz(&self) -> usize {
        self.view().nnz()
    }

    /// Value of feature `i` (zero for absent sparse entries).
    pub fn get(&self, i: usize) -> f32 {
        self.view().get(i)
    }

    /// Iterate `(index, value)` over materialized components.
    pub fn iter(&self) -> Box<dyn Iterator<Item = (usize, f32)> + '_> {
        match self {
            FeatureVec::Dense(v) => Box::new(v.iter().copied().enumerate()),
            FeatureVec::Sparse {
                indices, values, ..
            } => Box::new(indices.iter().zip(values).map(|(&i, &v)| (i as usize, v))),
        }
    }
}

/// A borrowed feature vector: the arrays of a [`FeatureVec`], or a row's
/// slices of a [`Page`](crate::Page)'s value and index columns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FeatureView<'a> {
    /// Dense layout: `values[i]` is the value of feature `i`.
    Dense(&'a [f32]),
    /// Sparse layout: `(indices[k], values[k])` pairs, indices increasing.
    Sparse {
        /// Logical dimensionality of the vector.
        dim: u32,
        /// Indices of the non-zero features.
        indices: &'a [u32],
        /// Values of the non-zero features (same length as `indices`).
        values: &'a [f32],
    },
}

impl FeatureView<'_> {
    /// Logical dimensionality of the vector.
    #[inline]
    pub fn dim(&self) -> usize {
        match self {
            FeatureView::Dense(v) => v.len(),
            FeatureView::Sparse { dim, .. } => *dim as usize,
        }
    }

    /// Number of materialized (stored) components.
    #[inline]
    pub fn nnz(&self) -> usize {
        match self {
            FeatureView::Dense(v) | FeatureView::Sparse { values: v, .. } => v.len(),
        }
    }

    /// Value of feature `i` (zero for absent sparse entries).
    #[inline]
    pub fn get(&self, i: usize) -> f32 {
        match self {
            FeatureView::Dense(v) => v.get(i).copied().unwrap_or(0.0),
            FeatureView::Sparse {
                indices, values, ..
            } => indices
                .binary_search(&(i as u32))
                .map(|pos| values[pos])
                .unwrap_or(0.0),
        }
    }

    /// Dot product with a dense weight slice.
    ///
    /// The weight slice must be at least as long as the vector's dimension.
    #[inline]
    pub fn dot(&self, w: &[f32]) -> f32 {
        match self {
            FeatureView::Dense(v) => dense_dot(v, w),
            FeatureView::Sparse {
                indices, values, ..
            } => indices
                .iter()
                .zip(*values)
                .map(|(&i, &v)| v * w[i as usize])
                .sum(),
        }
    }

    /// `w += scale * self`, the sparse-aware axpy used by gradient updates.
    #[inline]
    pub fn axpy_into(&self, scale: f32, w: &mut [f32]) {
        match self {
            FeatureView::Dense(v) => dense_axpy(scale, v, w),
            FeatureView::Sparse {
                indices, values, ..
            } => {
                for (&i, &v) in indices.iter().zip(*values) {
                    w[i as usize] += scale * v;
                }
            }
        }
    }

    /// Squared Euclidean norm.
    pub fn norm_sq(&self) -> f32 {
        match self {
            FeatureView::Dense(v) | FeatureView::Sparse { values: v, .. } => {
                v.iter().map(|x| x * x).sum()
            }
        }
    }

    /// An owned copy.
    pub fn to_vec(&self) -> FeatureVec {
        match *self {
            FeatureView::Dense(v) => FeatureVec::Dense(v.to_vec()),
            FeatureView::Sparse {
                dim,
                indices,
                values,
            } => FeatureVec::Sparse {
                dim,
                indices: indices.to_vec(),
                values: values.to_vec(),
            },
        }
    }
}

/// One training example, owned.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuple {
    /// Position of the tuple in the original table order (`tuple_id` in the
    /// paper's Figure 3/4 diagnostics).
    pub id: TupleId,
    /// Feature vector.
    pub features: FeatureVec,
    /// Label: ±1 for binary classification, class index for multi-class,
    /// real value for regression.
    pub label: f32,
}

/// One training example, borrowed: what [`Page::row`](crate::Page::row)
/// hands out and what every operator and kernel reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TupleView<'a> {
    /// Position of the tuple in the original table order.
    pub id: TupleId,
    /// Label.
    pub label: f32,
    /// Feature vector.
    pub features: FeatureView<'a>,
}

impl<'a> From<&'a Tuple> for TupleView<'a> {
    #[inline]
    fn from(t: &'a Tuple) -> Self {
        t.view()
    }
}

/// Encoding tags for the on-page representation.
const TAG_DENSE: u8 = 0;
const TAG_SPARSE: u8 = 1;

impl TupleView<'_> {
    /// An owned copy.
    pub fn to_tuple(&self) -> Tuple {
        Tuple {
            id: self.id,
            features: self.features.to_vec(),
            label: self.label,
        }
    }

    /// Size in bytes of the binary encoding produced by [`TupleView::encode`]
    /// — also what the row is accounted as on a page.
    #[inline]
    pub fn encoded_len(&self) -> usize {
        // id(8) + label(4) + tag(1) + dim(4) + nnz(4)
        let header = 8 + 4 + 1 + 4 + 4;
        match self.features {
            FeatureView::Dense(v) => header + 4 * v.len(),
            FeatureView::Sparse { values, .. } => header + 8 * values.len(),
        }
    }

    /// Append the binary encoding of the tuple to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.id.to_le_bytes());
        out.extend_from_slice(&self.label.to_le_bytes());
        let (tag, dim, indices, values) = match self.features {
            FeatureView::Dense(v) => (TAG_DENSE, v.len() as u32, &[][..], v),
            FeatureView::Sparse {
                dim,
                indices,
                values,
            } => (TAG_SPARSE, dim, indices, values),
        };
        out.push(tag);
        out.extend_from_slice(&dim.to_le_bytes());
        out.extend_from_slice(&(values.len() as u32).to_le_bytes());
        for i in indices {
            out.extend_from_slice(&i.to_le_bytes());
        }
        for v in values {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

impl Tuple {
    /// Create a dense tuple.
    pub fn dense(id: TupleId, values: Vec<f32>, label: f32) -> Self {
        Tuple {
            id,
            features: FeatureVec::Dense(values),
            label,
        }
    }

    /// Create a sparse tuple.
    pub fn sparse(id: TupleId, dim: u32, indices: Vec<u32>, values: Vec<f32>, label: f32) -> Self {
        Tuple {
            id,
            features: FeatureVec::sparse(dim, indices, values),
            label,
        }
    }

    /// Borrow the tuple.
    #[inline]
    pub fn view(&self) -> TupleView<'_> {
        TupleView {
            id: self.id,
            label: self.label,
            features: self.features.view(),
        }
    }

    /// Size in bytes of the binary encoding produced by [`Tuple::encode`].
    pub fn encoded_len(&self) -> usize {
        self.view().encoded_len()
    }

    /// Append the binary encoding of the tuple to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.view().encode(out)
    }

    /// Decode one tuple from the front of `buf`, returning it and the number
    /// of bytes consumed.
    pub fn decode(buf: &[u8]) -> Result<(Tuple, usize)> {
        let need = |n: usize| -> Result<()> {
            if buf.len() < n {
                Err(StorageError::Corrupt(format!(
                    "need {n} bytes, have {}",
                    buf.len()
                )))
            } else {
                Ok(())
            }
        };
        need(8 + 4 + 1 + 4 + 4)?;
        let id = u64::from_le_bytes(buf[0..8].try_into().unwrap());
        let label = f32::from_le_bytes(buf[8..12].try_into().unwrap());
        let tag = buf[12];
        let dim = u32::from_le_bytes(buf[13..17].try_into().unwrap());
        let nnz = u32::from_le_bytes(buf[17..21].try_into().unwrap()) as usize;
        // One 4-byte word per dense component, two per sparse one; bounded
        // against the buffer before anything is allocated for them.
        let words = match tag {
            TAG_DENSE => nnz,
            TAG_SPARSE => 2 * nnz,
            other => {
                return Err(StorageError::Corrupt(format!(
                    "unknown feature tag {other}"
                )))
            }
        };
        let end = 21 + 4 * words;
        need(end)?;
        let mut word = buf[21..end]
            .chunks_exact(4)
            .map(|w| <[u8; 4]>::try_from(w).expect("chunks of four"));
        let features = if tag == TAG_DENSE {
            FeatureVec::Dense(word.map(f32::from_le_bytes).collect())
        } else {
            let indices: Vec<u32> = word.by_ref().take(nnz).map(u32::from_le_bytes).collect();
            // [`FeatureVec::sparse`]'s invariants: the kernels index by them.
            let ordered = indices.windows(2).all(|w| w[0] < w[1]);
            if !ordered || indices.last().is_some_and(|&i| i >= dim) {
                return Err(StorageError::Corrupt("sparse indices out of order".into()));
            }
            FeatureVec::Sparse {
                dim,
                indices,
                values: word.map(f32::from_le_bytes).collect(),
            }
        };
        let tuple = Tuple {
            id,
            features,
            label,
        };
        Ok((tuple, end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dense_roundtrip() {
        let t = Tuple::dense(42, vec![1.0, -2.5, 3.25], 1.0);
        let mut buf = Vec::new();
        t.encode(&mut buf);
        assert_eq!(buf.len(), t.encoded_len());
        let (back, used) = Tuple::decode(&buf).unwrap();
        assert_eq!(back, t);
        assert_eq!(used, buf.len());
    }

    #[test]
    fn sparse_roundtrip() {
        let t = Tuple::sparse(7, 1_000_000, vec![3, 99, 4321], vec![0.5, -1.0, 2.0], -1.0);
        let mut buf = Vec::new();
        t.encode(&mut buf);
        let (back, used) = Tuple::decode(&buf).unwrap();
        assert_eq!(back, t);
        assert_eq!(used, buf.len());
    }

    #[test]
    fn decode_rejects_truncated_input() {
        let t = Tuple::dense(1, vec![1.0; 8], 1.0);
        let mut buf = Vec::new();
        t.encode(&mut buf);
        for cut in [0, 5, 20, buf.len() - 1] {
            assert!(
                Tuple::decode(&buf[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn decode_rejects_sparse_indices_the_kernels_cannot_index() {
        for (dim, indices) in [
            (4, vec![100]),
            (4, vec![4]),
            (9, vec![3, 3]),
            (9, vec![5, 2]),
        ] {
            let t = Tuple {
                id: 1,
                features: FeatureVec::Sparse {
                    dim,
                    values: vec![1.0; indices.len()],
                    indices,
                },
                label: 1.0,
            };
            let mut buf = Vec::new();
            t.encode(&mut buf);
            assert!(
                matches!(Tuple::decode(&buf), Err(StorageError::Corrupt(m)) if m.contains("sparse")),
                "{t:?}"
            );
        }
    }

    #[test]
    fn decode_rejects_unknown_tag() {
        let t = Tuple::dense(1, vec![1.0], 1.0);
        let mut buf = Vec::new();
        t.encode(&mut buf);
        buf[12] = 99;
        assert!(Tuple::decode(&buf).is_err());
    }

    #[test]
    fn sparse_get_and_dot() {
        let f = FeatureVec::sparse(10, vec![1, 4, 7], vec![2.0, 3.0, -1.0]);
        assert_eq!(f.get(1), 2.0);
        assert_eq!(f.get(0), 0.0);
        assert_eq!(f.get(7), -1.0);
        let w = vec![1.0; 10];
        assert_eq!(f.view().dot(&w), 4.0);
        assert_eq!(f.dim(), 10);
        assert_eq!(f.nnz(), 3);
    }

    #[test]
    fn dense_dot_and_axpy() {
        let f = FeatureVec::Dense(vec![1.0, 2.0, 3.0]);
        let mut w = vec![0.5, 0.5, 0.5];
        assert_eq!(f.view().dot(&w), 3.0);
        f.view().axpy_into(2.0, &mut w);
        assert_eq!(w, vec![2.5, 4.5, 6.5]);
        assert_eq!(f.view().norm_sq(), 14.0);
    }

    #[test]
    fn sparse_axpy_touches_only_nnz() {
        let f = FeatureVec::sparse(5, vec![0, 3], vec![1.0, 1.0]);
        let mut w = vec![0.0; 5];
        f.view().axpy_into(3.0, &mut w);
        assert_eq!(w, vec![3.0, 0.0, 0.0, 3.0, 0.0]);
    }

    #[test]
    fn views_agree_with_the_owned_forms() {
        for t in [
            Tuple::dense(3, vec![1.0, -2.0, 0.5], -1.0),
            Tuple::sparse(4, 10, vec![1, 4, 7], vec![2.0, 3.0, -1.0], 1.0),
            Tuple::sparse(5, 10, vec![], vec![], 1.0),
        ] {
            let v = t.view();
            assert_eq!(TupleView::from(&t), v);
            assert_eq!(v.to_tuple(), t);
            assert_eq!(v.encoded_len(), t.encoded_len());
            let f = v.features;
            assert_eq!((f.dim(), f.nnz()), (t.features.dim(), t.features.nnz()));
            assert!((0..12).all(|i| f.get(i) == t.features.get(i)));
        }
    }

    #[test]
    fn unrolled_kernels_match_scalar_reference() {
        for n in [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 64, 100] {
            let x: Vec<f32> = (0..n).map(|i| (i as f32) * 0.25 - 3.0).collect();
            let w: Vec<f32> = (0..n).map(|i| 1.0 - (i as f32) * 0.125).collect();
            let fast = dense_dot(&x, &w);
            let slow = dense_dot_scalar(&x, &w);
            assert!(
                (fast - slow).abs() <= 1e-3 * (1.0 + slow.abs()),
                "dot mismatch at n={n}: {fast} vs {slow}"
            );
            let mut wa = w.clone();
            let mut wb = w.clone();
            dense_axpy(0.5, &x, &mut wa);
            dense_axpy_scalar(0.5, &x, &mut wb);
            assert_eq!(wa, wb, "axpy mismatch at n={n}");
        }
    }

    #[test]
    fn kernels_respect_shorter_weight_slices() {
        // `dot`/`axpy_into` historically zip to the shorter slice; the
        // unrolled kernels must preserve that.
        let x = vec![1.0f32; 20];
        let w = vec![2.0f32; 12];
        assert_eq!(dense_dot(&x, &w), 24.0);
        let mut w2 = w.clone();
        dense_axpy(1.0, &x, &mut w2);
        assert_eq!(w2, vec![3.0f32; 12]);
    }

    #[test]
    fn iter_yields_pairs() {
        let d = FeatureVec::Dense(vec![5.0, 6.0]);
        let got: Vec<_> = d.iter().collect();
        assert_eq!(got, vec![(0, 5.0), (1, 6.0)]);
        let s = FeatureVec::sparse(9, vec![2, 8], vec![1.5, 2.5]);
        let got: Vec<_> = s.iter().collect();
        assert_eq!(got, vec![(2, 1.5), (8, 2.5)]);
    }

    proptest! {
        #[test]
        fn prop_dense_roundtrip(id in any::<u64>(), label in -1e6f32..1e6,
                                vals in proptest::collection::vec(-1e6f32..1e6, 0..64)) {
            let t = Tuple::dense(id, vals, label);
            let mut buf = Vec::new();
            t.encode(&mut buf);
            prop_assert_eq!(buf.len(), t.encoded_len());
            let (back, used) = Tuple::decode(&buf).unwrap();
            prop_assert_eq!(back, t);
            prop_assert_eq!(used, buf.len());
        }

        #[test]
        fn prop_sparse_roundtrip(id in any::<u64>(), label in -10f32..10.0,
                                 nnz in 0usize..32) {
            let indices: Vec<u32> = (0..nnz as u32).map(|i| i * 3 + 1).collect();
            let values: Vec<f32> = (0..nnz).map(|i| i as f32 * 0.5 - 1.0).collect();
            let dim = 3 * nnz as u32 + 2;
            let t = Tuple::sparse(id, dim, indices, values, label);
            let mut buf = Vec::new();
            t.encode(&mut buf);
            prop_assert_eq!(buf.len(), t.encoded_len());
            let (back, used) = Tuple::decode(&buf).unwrap();
            prop_assert_eq!(back, t);
            prop_assert_eq!(used, buf.len());
        }

        #[test]
        fn prop_decode_arbitrary_bytes_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = Tuple::decode(&bytes); // must not panic
        }

        #[test]
        fn prop_sparse_dot_matches_densified(nnz in 0usize..16) {
            let indices: Vec<u32> = (0..nnz as u32).map(|i| i * 2).collect();
            let values: Vec<f32> = (0..nnz).map(|i| (i as f32) - 3.0).collect();
            let dim = (2 * nnz.max(1)) as u32;
            let s = FeatureVec::sparse(dim, indices, values);
            let dense: Vec<f32> = (0..dim as usize).map(|i| s.get(i)).collect();
            let d = FeatureVec::Dense(dense);
            let w: Vec<f32> = (0..dim as usize).map(|i| (i as f32) * 0.1 + 1.0).collect();
            prop_assert!((s.view().dot(&w) - d.view().dot(&w)).abs() < 1e-4);
        }
    }
}
