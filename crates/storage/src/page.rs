//! Heap pages, kept columnar.
//!
//! PostgreSQL stores tuples in fixed-size (8 KB) slotted pages, and a
//! [`Page`] is *accounted* exactly like one: each row takes its
//! [`TupleView::encoded_len`] bytes of payload plus a 4-byte line pointer,
//! so pagination, block boundaries and every simulated I/O charge are those
//! of the slotted layout. In memory the page is the slab the executor reads:
//! ids, labels, feature values and sparse indices are typed columns, a
//! per-row extent says which slice of them is row `slot`, and [`Page::row`]
//! hands that slice out as a borrowed [`TupleView`] — no decode, no copy, no
//! allocation. Tables hold pages behind `Arc` and never change a shared one,
//! so a view lives as long as its page is pinned.
//!
//! The same columns serve as the executor's fill buffer: a page nobody else
//! holds is laid out in place by [`Page::refill`] for any number of rows in
//! SGD order, the previous fill's allocations reused, [`Page::gather`] copies
//! them in a run at a time, and they read back through the same [`Page::row`].
//!
//! Tuples wider than a page (epsilon/yfcc-like rows with thousands of dense
//! features, which PostgreSQL would TOAST, §7.1.5) get a dedicated *jumbo*
//! page whose byte size equals the tuple size; the table layer accounts for
//! the extra decompression cost when TOAST emulation is enabled.

use crate::error::StorageError;
use crate::tuple::{FeatureView, TupleId, TupleView};
use crate::Result;

/// Standard page size in bytes (PostgreSQL default: 8 KB).
pub const PAGE_SIZE: usize = 8192;

/// Label moments (count, Σlabel, Σlabel²) of a run of tuples: enough to
/// compute block means and the pooled variance decomposition behind ĥ_D
/// without revisiting tuples. Every [`Page`] keeps its own as tuples are
/// pushed; a block's moments are the merge of its pages'.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct LabelMoments {
    pub(crate) tuples: u64,
    pub(crate) sum: f64,
    pub(crate) sq_sum: f64,
}

impl LabelMoments {
    fn add(&mut self, label: f32) {
        self.tuples += 1;
        self.sum += label as f64;
        self.sq_sum += (label as f64) * (label as f64);
    }

    pub(crate) fn merge(&mut self, other: LabelMoments) {
        self.tuples += other.tuples;
        self.sum += other.sum;
        self.sq_sum += other.sq_sum;
    }

    pub(crate) fn mean(&self) -> f64 {
        if self.tuples == 0 {
            0.0
        } else {
            self.sum / self.tuples as f64
        }
    }
}

/// Which slices of a page's columns make up one row: `nnz` components from
/// `values[values..]`, their indices from `indices[indices..]` ([`DENSE`]
/// for a dense row), `dim` logical dimensions.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Extent {
    values: u32,
    nnz: u32,
    indices: u32,
    dim: u32,
}

const DENSE: u32 = u32::MAX;

/// `Vec::resize` that grows to fit, not by doubling: a fill buffer that met a
/// slightly larger fill must not end up twice the size.
fn resize_exact<T: Clone>(column: &mut Vec<T>, len: usize, value: T) {
    column.reserve_exact(len.saturating_sub(column.len()));
    column.resize(len, value);
}

/// `(dim, sparse indices, stored values)` of a row's features.
fn columns(features: FeatureView<'_>) -> (u32, Option<&[u32]>, &[f32]) {
    match features {
        FeatureView::Dense(v) => (v.len() as u32, None, v),
        FeatureView::Sparse {
            dim,
            indices,
            values,
        } => (dim, Some(indices), values),
    }
}

/// A heap page: slotted-page byte accounting over columnar storage.
#[derive(Debug, Clone, PartialEq)]
pub struct Page {
    /// Capacity in bytes. `PAGE_SIZE` for regular pages; larger for jumbo
    /// pages holding a single oversized tuple.
    capacity: usize,
    /// Sum of the stored rows' encoded lengths.
    used: usize,
    ids: Vec<TupleId>,
    labels: Vec<f32>,
    /// Stored feature components of every row, back to back.
    values: Vec<f32>,
    /// Indices of the sparse rows' components; empty on an all-dense page.
    indices: Vec<u32>,
    extents: Vec<Extent>,
    /// `Some(w)` when every row is known to be dense with `w` features: set
    /// by `push`, and by `refill` from its sources'.
    dense: Option<u32>,
    /// Label moments of the stored tuples.
    moments: LabelMoments,
}

impl Page {
    /// Create an empty page of standard size.
    pub fn new() -> Self {
        Self::new_jumbo(PAGE_SIZE)
    }

    /// Create a jumbo page sized to hold exactly one tuple of `bytes` bytes.
    pub fn new_jumbo(bytes: usize) -> Self {
        Page {
            capacity: bytes.max(PAGE_SIZE),
            used: 0,
            ids: Vec::new(),
            labels: Vec::new(),
            values: Vec::new(),
            indices: Vec::new(),
            extents: Vec::new(),
            dense: None,
            moments: LabelMoments::default(),
        }
    }

    /// Number of tuples on the page.
    pub fn tuple_count(&self) -> usize {
        self.extents.len()
    }

    /// The id column, one per slot.
    pub fn ids(&self) -> &[TupleId] {
        &self.ids
    }

    /// `Some(w)` when every row is known to be dense with `w` features.
    pub fn dense_width(&self) -> Option<usize> {
        self.dense.map(|w| w as usize)
    }

    /// Bytes currently used by tuple payloads (excluding the slot directory).
    pub fn used_bytes(&self) -> usize {
        self.used
    }

    /// Free payload bytes remaining, accounting 4 bytes of slot overhead per
    /// stored tuple (mimicking PostgreSQL's line pointers).
    pub fn free_bytes(&self) -> usize {
        let overhead = 4 * (self.extents.len() + 1);
        self.capacity.saturating_sub(self.used + overhead)
    }

    /// On-disk footprint of the page in bytes (its full capacity — heap
    /// pages are written whole regardless of fill factor).
    pub fn disk_bytes(&self) -> usize {
        self.capacity
    }

    /// Whether a tuple of `encoded_len` bytes fits in the remaining space.
    pub fn fits(&self, encoded_len: usize) -> bool {
        encoded_len <= self.free_bytes()
    }

    /// Append a row. Fails with [`StorageError::PageFull`] if it does not fit.
    pub fn push(&mut self, row: TupleView<'_>) -> Result<()> {
        let len = row.encoded_len();
        if !self.fits(len) {
            return Err(StorageError::PageFull {
                needed: len,
                free: self.free_bytes(),
            });
        }
        let (dim, indices, values) = columns(row.features);
        if self.extents.is_empty() {
            // Allocate the page whole, like the fixed-size heap page it
            // models, with room for a page of rows this size: a page is
            // written until it is full, and growing it by doubling leaves a
            // trail of freed buffers between pages that outlive them.
            let rows = self.capacity / (len + 4);
            self.ids.reserve_exact(rows);
            self.labels.reserve_exact(rows);
            self.extents.reserve_exact(rows);
            self.values.reserve_exact(rows * values.len());
            if indices.is_some() {
                self.indices.reserve_exact(rows * values.len());
            }
        }
        let same = self.extents.is_empty() || self.dense == Some(dim);
        self.dense = (same && indices.is_none()).then_some(dim);
        self.extents.push(Extent {
            values: self.values.len() as u32,
            nnz: values.len() as u32,
            indices: indices.map_or(DENSE, |_| self.indices.len() as u32),
            dim,
        });
        self.ids.push(row.id);
        self.labels.push(row.label);
        self.values.extend_from_slice(values);
        self.indices.extend_from_slice(indices.unwrap_or_default());
        self.used += len;
        self.moments.add(row.label);
        Ok(())
    }

    /// Lay the page out as a fill buffer for `rows` of `sources` (a page and
    /// slot each, `used` stored bytes in all) for [`Page::gather`]: no byte
    /// bound, the last fill's allocations kept, dense when all sources are.
    pub fn refill<'a>(
        &mut self,
        sources: impl IntoIterator<Item = &'a Page>,
        rows: impl ExactSizeIterator<Item = (&'a Page, usize)>,
        used: usize,
    ) {
        let n = rows.len();
        (self.capacity, self.used, self.moments) = (usize::MAX, used, LabelMoments::default());
        let mut widths = sources.into_iter().map(|page| page.dense);
        let first = widths.next().flatten();
        self.dense = first.filter(|_| widths.all(|w| w == first));
        self.extents.clear();
        self.extents.reserve_exact(n);
        let (mut values, mut indices) = (0, 0);
        for (page, s) in rows {
            // A page dense of one width has every row in its first one's shape.
            let mut e = page.extents[if self.dense.is_some() { 0 } else { s }];
            (e.values, values) = (values, values + e.nnz);
            if e.indices != DENSE {
                (e.indices, indices) = (indices, indices + e.nnz);
            }
            self.extents.push(e);
        }
        resize_exact(&mut self.ids, n, 0);
        resize_exact(&mut self.labels, n, 0.0);
        resize_exact(&mut self.values, values as usize, 0.0);
        resize_exact(&mut self.indices, indices as usize, 0);
    }

    /// Copy `rows` (a page and slot each, as [`Page::refill`] laid them out)
    /// into slots `at..`, labels into the moments too. Rows dense of one width
    /// are read off their pages' value columns at `slot · w`, not their extents.
    pub fn gather<'a>(&mut self, at: usize, rows: impl Iterator<Item = (&'a Page, usize)>) {
        if let Some(w) = self.dense.map(|w| w as usize) {
            for (to, (page, s)) in (at..).zip(rows) {
                (self.ids[to], self.labels[to]) = (page.ids[s], page.labels[s]);
                self.moments.add(page.labels[s]);
                self.values[to * w..][..w].copy_from_slice(&page.values[s * w..][..w]);
            }
            return;
        }
        for (to, (page, s)) in (at..).zip(rows) {
            let (row, e) = (page.row(s), self.extents[to]);
            (self.ids[to], self.labels[to]) = (row.id, row.label);
            self.moments.add(row.label);
            let (_, indices, values) = columns(row.features);
            self.values[e.values as usize..][..values.len()].copy_from_slice(values);
            if let Some(indices) = indices {
                self.indices[e.indices as usize..][..indices.len()].copy_from_slice(indices);
            }
        }
    }

    /// Label moments of the tuples on the page.
    pub(crate) fn label_moments(&self) -> LabelMoments {
        self.moments
    }

    /// The row in slot `slot`, borrowed from the page's columns. Panics when
    /// `slot >= self.tuple_count()`, like a slice index.
    #[inline(always)]
    pub fn row(&self, slot: usize) -> TupleView<'_> {
        let e = self.extents[slot];
        let values = &self.values[e.values as usize..][..e.nnz as usize];
        let features = if e.indices == DENSE {
            FeatureView::Dense(values)
        } else {
            FeatureView::Sparse {
                dim: e.dim,
                indices: &self.indices[e.indices as usize..][..e.nnz as usize],
                values,
            }
        };
        TupleView {
            id: self.ids[slot],
            label: self.labels[slot],
            features,
        }
    }

    /// Iterate all rows on the page in slot order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = TupleView<'_>> + Clone {
        (0..self.tuple_count()).map(|slot| self.row(slot))
    }
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;
    use proptest::prelude::*;

    fn tiny(id: u64) -> Tuple {
        Tuple::dense(
            id,
            vec![id as f32, -1.0],
            if id.is_multiple_of(2) { 1.0 } else { -1.0 },
        )
    }

    #[test]
    fn push_and_read_back() {
        let mut p = Page::new();
        for id in 0..10 {
            p.push(tiny(id).view()).unwrap();
        }
        assert_eq!(p.tuple_count(), 10);
        for id in 0..10 {
            assert_eq!(p.row(id as usize), tiny(id).view());
            assert_eq!(p.row(id as usize).to_tuple(), tiny(id));
        }
        let all: Vec<_> = p.rows().collect();
        assert_eq!(all.len(), 10);
        assert_eq!(all[3].to_tuple(), tiny(3));
    }

    #[test]
    fn page_fills_up_and_rejects() {
        let mut p = Page::new();
        let t = Tuple::dense(0, vec![0.0; 64], 1.0); // 277 bytes encoded
        let mut n = 0;
        while p.fits(t.encoded_len()) {
            p.push(t.view()).unwrap();
            n += 1;
        }
        assert!(n > 10, "expected a few dozen tuples per page, got {n}");
        let err = p.push(t.view()).unwrap_err();
        assert!(matches!(err, StorageError::PageFull { .. }));
    }

    #[test]
    fn jumbo_page_holds_oversized_tuple() {
        let t = Tuple::dense(0, vec![1.0; 4000], 1.0); // ~16 KB > PAGE_SIZE
        assert!(t.encoded_len() > PAGE_SIZE);
        let mut p = Page::new_jumbo(t.encoded_len() + 8);
        assert!(p.disk_bytes() > PAGE_SIZE);
        p.push(t.view()).unwrap();
        assert_eq!(p.row(0).to_tuple(), t);
    }

    #[test]
    fn disk_bytes_is_capacity() {
        let p = Page::new();
        assert_eq!(p.disk_bytes(), PAGE_SIZE);
        let j = Page::new_jumbo(50_000);
        assert_eq!(j.disk_bytes(), 50_000);
    }

    #[test]
    #[should_panic]
    fn out_of_range_slot_panics_like_an_index() {
        Page::new().row(0);
    }

    #[test]
    fn a_full_page_never_outgrows_its_first_reservation() {
        // One reservation per column when the first row arrives; an
        // all-dense page has no index column at all.
        let mut p = Page::new();
        p.push(tiny(0).view()).unwrap();
        let caps = (p.ids.capacity(), p.values.capacity(), p.extents.capacity());
        let mut id = 1;
        while p.fits(tiny(id).encoded_len()) {
            p.push(tiny(id).view()).unwrap();
            id += 1;
        }
        assert_eq!(
            caps,
            (p.ids.capacity(), p.values.capacity(), p.extents.capacity())
        );
        assert_eq!(p.rows().len(), id as usize);
        assert_eq!(p.indices.capacity(), 0);
    }

    /// A dense tuple of `width` features or a sparse one of `width` stored
    /// components, by `sparse`.
    fn arb_tuple(id: u64, width: usize, sparse: bool) -> Tuple {
        let values: Vec<f32> = (0..width).map(|k| (id + k as u64) as f32 * 0.5).collect();
        let label = (id % 3) as f32 - 1.0;
        if sparse {
            let indices = (0..width as u32).map(|k| 3 * k + 1).collect();
            Tuple::sparse(id, 3 * width as u32 + 2, indices, values, label)
        } else {
            Tuple::dense(id, values, label)
        }
    }

    #[test]
    fn gather_places_each_row_in_order_and_recycles_the_columns() {
        let mixed = |n: u64| -> Vec<Tuple> {
            (0..n)
                .map(|id| arb_tuple(id, (id % 7) as usize, id % 3 == 0))
                .collect()
        };
        // Lay `rows` out on heap pages, as a table does, and fill `p` from
        // every slot but each fifth, as a scan's filter leaves its runs, in a
        // permuted order, gathered in runs of a seed-dependent length.
        // Returns the rows filled and which path they took.
        let check = |p: &mut Page, rows: &[Tuple], seed: u64| {
            let mut pages = vec![Page::new()];
            for t in rows {
                if !pages.last().unwrap().fits(t.encoded_len()) {
                    pages.push(Page::new());
                }
                pages.last_mut().unwrap().push(t.view()).unwrap();
            }
            let kept: Vec<(&Page, usize)> = pages
                .iter()
                .flat_map(|page| (0..page.tuple_count()).map(move |s| (page, s)))
                .filter(|&(_, s)| s % 5 != 4)
                .collect();
            let mut order = kept.clone();
            order
                .sort_by_key(|&(page, s)| (page.ids[s] ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let n = order.len();
            let bytes: usize = kept
                .iter()
                .map(|&(page, s)| page.row(s).encoded_len())
                .sum();
            p.refill(&pages, order.iter().copied(), bytes);
            let runs = order.chunks(1 + seed as usize * 13);
            for (k, run) in runs.enumerate() {
                p.gather(k * (1 + seed as usize * 13), run.iter().copied());
            }
            assert_eq!(p.tuple_count(), n);
            for (slot, &(page, s)) in order.iter().enumerate() {
                assert_eq!(p.row(slot), page.row(s));
            }
            assert_eq!(p.used_bytes(), bytes);
            assert_eq!(p.label_moments().tuples, n as u64);
            (n, p.dense)
        };
        // Far more than 8 KB of rows: a fill buffer has no byte bound.
        let mut p = Page::new();
        let (n, dense) = check(&mut p, &mixed(1000), 7);
        assert_eq!(dense, None, "sparse and mixed rows go row by row");
        let caps = (p.ids.capacity(), p.values.capacity(), p.indices.capacity());
        assert_eq!(caps.0, n, "sized to fit");
        // A smaller fill overwrites in place; one a row larger grows to fit
        // rather than doubling.
        check(&mut p, &mixed(331), 5);
        assert_eq!(
            caps,
            (p.ids.capacity(), p.values.capacity(), p.indices.capacity())
        );
        let (n, _) = check(&mut p, &mixed(1002), 3);
        assert_eq!(p.ids.capacity(), n);
        check(&mut p, &[], 1);
        // Dense rows of one width — 28 features, or 3 as a projection leaves
        // them — take the column-at-a-time path; one sparse row, or one dense
        // row of another width, among them sends the fill down the general
        // one. Either way every row reads back at its rank and the columns
        // grow to fit.
        let dense = |n: u64, width: usize| -> Vec<Tuple> {
            (0..n).map(|id| arb_tuple(id, width, false)).collect()
        };
        let mut p = Page::new();
        let (n, path) = check(&mut p, &dense(2000, 28), 11);
        assert_eq!(path, Some(28));
        assert_eq!((p.ids.capacity(), p.values.capacity()), (n, 28 * n));
        assert_eq!(check(&mut p, &dense(700, 3), 13).1, Some(3));
        let mut one_sparse = dense(2000, 28);
        one_sparse[1234] = arb_tuple(1234, 28, true);
        assert_eq!(check(&mut p, &one_sparse, 17).1, None);
        let mut one_wider = dense(2000, 28);
        one_wider[77] = arb_tuple(77, 29, false);
        let (n, path) = check(&mut p, &one_wider, 19);
        assert_eq!(path, None);
        assert_eq!((p.ids.capacity(), p.values.capacity()), (n, 28 * n + 1));
    }

    proptest! {
        /// The layout is invisible: any interleaving of dense rows of
        /// varying width and sparse rows reads back as pushed, and the byte
        /// accounting is the slotted page's — payload = Σ encoded_len, free =
        /// capacity − payload − 4·(rows + 1) — after every push.
        #[test]
        fn prop_layout_is_invisible(
            jumbo in prop_oneof![Just(0usize), Just(20_000)],
            rows in proptest::collection::vec((0usize..40, any::<bool>()), 1..120),
        ) {
            let mut p = if jumbo == 0 { Page::new() } else { Page::new_jumbo(jumbo) };
            let capacity = jumbo.max(PAGE_SIZE);
            let mut stored: Vec<Tuple> = Vec::new();
            let mut payload = 0usize;
            for (id, (width, sparse)) in rows.into_iter().enumerate() {
                let t = arb_tuple(id as u64, width, sparse);
                let len = t.encoded_len();
                let free = capacity.saturating_sub(payload + 4 * (stored.len() + 1));
                prop_assert_eq!(p.fits(len), len <= free);
                match p.push(t.view()) {
                    Ok(()) => {
                        prop_assert!(len <= free);
                        payload += len;
                        stored.push(t);
                    }
                    Err(e) => {
                        prop_assert!(len > free);
                        let full = matches!(e, StorageError::PageFull { needed, free: f } if needed == len && f == free);
                        prop_assert!(full, "{:?}", e);
                    }
                }
                prop_assert_eq!(p.used_bytes(), payload);
                prop_assert_eq!(p.free_bytes(), capacity.saturating_sub(payload + 4 * (stored.len() + 1)));
                prop_assert_eq!(p.disk_bytes(), capacity);
                prop_assert_eq!(p.tuple_count(), stored.len());
            }
            for (slot, t) in stored.iter().enumerate() {
                prop_assert_eq!(p.row(slot), t.view());
            }
            let got: Vec<Tuple> = p.rows().map(|r| r.to_tuple()).collect();
            prop_assert_eq!(got, stored);
        }

        #[test]
        fn prop_free_bytes_decreases_monotonically(count in 1usize..30) {
            let mut p = Page::new();
            let mut last = p.free_bytes();
            for id in 0..count as u64 {
                let t = tiny(id);
                if !p.fits(t.encoded_len()) { break; }
                p.push(t.view()).unwrap();
                let now = p.free_bytes();
                prop_assert!(now < last);
                last = now;
            }
        }
    }
}
