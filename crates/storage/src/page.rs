//! Slotted heap pages.
//!
//! PostgreSQL stores tuples in fixed-size (8 KB) slotted pages. We mirror
//! that: a [`Page`] holds a byte payload plus a slot directory mapping slot
//! number → byte offset. Tuples wider than a page (e.g. epsilon/yfcc-like
//! rows with thousands of dense features — which PostgreSQL would TOAST,
//! §7.1.5) are stored in a dedicated *jumbo* page whose byte size equals the
//! tuple size; the table layer accounts for the extra decompression cost
//! when TOAST emulation is enabled.

use crate::error::StorageError;
use crate::tuple::Tuple;
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

/// A slotted page of encoded tuples.
#[derive(Debug, Clone, PartialEq)]
pub struct Page {
    /// Capacity in bytes. `PAGE_SIZE` for regular pages; larger for jumbo
    /// pages holding a single oversized tuple.
    capacity: usize,
    /// Concatenated tuple encodings.
    data: Vec<u8>,
    /// Byte offset of each tuple within `data`.
    slots: Vec<u32>,
    /// Label moments of the stored tuples.
    labels: LabelMoments,
}

impl Page {
    /// Create an empty page of standard size.
    pub fn new() -> Self {
        Page {
            capacity: PAGE_SIZE,
            data: Vec::new(),
            slots: Vec::new(),
            labels: LabelMoments::default(),
        }
    }

    /// Create a jumbo page sized to hold exactly one tuple of `bytes` bytes.
    pub fn new_jumbo(bytes: usize) -> Self {
        Page {
            capacity: bytes.max(PAGE_SIZE),
            data: Vec::new(),
            slots: Vec::new(),
            labels: LabelMoments::default(),
        }
    }

    /// True if this page was allocated as a jumbo page.
    pub fn is_jumbo(&self) -> bool {
        self.capacity > PAGE_SIZE
    }

    /// Number of tuples on the page.
    pub fn tuple_count(&self) -> usize {
        self.slots.len()
    }

    /// Bytes currently used by tuple payloads (excluding the slot directory).
    pub fn used_bytes(&self) -> usize {
        self.data.len()
    }

    /// Free payload bytes remaining, accounting 4 bytes of slot overhead per
    /// stored tuple (mimicking PostgreSQL's line pointers).
    pub fn free_bytes(&self) -> usize {
        let overhead = 4 * (self.slots.len() + 1);
        self.capacity.saturating_sub(self.data.len() + overhead)
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

    /// Append a tuple. Fails with [`StorageError::PageFull`] if it does not fit.
    pub fn push(&mut self, tuple: &Tuple) -> Result<()> {
        let len = tuple.encoded_len();
        if !self.fits(len) {
            return Err(StorageError::PageFull {
                needed: len,
                free: self.free_bytes(),
            });
        }
        if self.slots.is_empty() {
            // Allocate the page whole, like the fixed-size heap page it
            // models, with slots for a page of tuples this size: a page is
            // written until it is full, and growing it by doubling leaves a
            // trail of freed buffers between pages that outlive them.
            self.data.reserve_exact(self.capacity);
            self.slots.reserve_exact(self.capacity / (len + 4));
        }
        self.slots.push(self.data.len() as u32);
        tuple.encode(&mut self.data);
        self.labels.add(tuple.label);
        Ok(())
    }

    /// Label moments of the tuples on the page.
    pub(crate) fn label_moments(&self) -> LabelMoments {
        self.labels
    }

    /// Decode the tuple in slot `slot`.
    pub fn tuple(&self, slot: usize) -> Result<Tuple> {
        let off = *self
            .slots
            .get(slot)
            .ok_or_else(|| StorageError::Corrupt(format!("slot {slot} out of range")))?
            as usize;
        Tuple::decode(&self.data[off..]).map(|(t, _)| t)
    }

    /// Iterate all tuples on the page in slot order.
    pub fn tuples(&self) -> PageTuples<'_> {
        PageTuples {
            page: self,
            next: 0,
        }
    }
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

/// Iterator over the tuples of a [`Page`].
pub struct PageTuples<'a> {
    page: &'a Page,
    next: usize,
}

impl Iterator for PageTuples<'_> {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        if self.next >= self.page.tuple_count() {
            return None;
        }
        let t = self.page.tuple(self.next).expect("page self-consistency");
        self.next += 1;
        Some(t)
    }
}

impl ExactSizeIterator for PageTuples<'_> {
    fn len(&self) -> usize {
        self.page.tuple_count() - self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            p.push(&tiny(id)).unwrap();
        }
        assert_eq!(p.tuple_count(), 10);
        for id in 0..10 {
            assert_eq!(p.tuple(id as usize).unwrap(), tiny(id));
        }
        let all: Vec<_> = p.tuples().collect();
        assert_eq!(all.len(), 10);
        assert_eq!(all[3], tiny(3));
    }

    #[test]
    fn page_fills_up_and_rejects() {
        let mut p = Page::new();
        let t = Tuple::dense(0, vec![0.0; 64], 1.0); // 277 bytes encoded
        let mut n = 0;
        while p.fits(t.encoded_len()) {
            p.push(&t).unwrap();
            n += 1;
        }
        assert!(n > 10, "expected a few dozen tuples per page, got {n}");
        let err = p.push(&t).unwrap_err();
        assert!(matches!(err, StorageError::PageFull { .. }));
    }

    #[test]
    fn jumbo_page_holds_oversized_tuple() {
        let t = Tuple::dense(0, vec![1.0; 4000], 1.0); // ~16 KB > PAGE_SIZE
        assert!(t.encoded_len() > PAGE_SIZE);
        let mut p = Page::new_jumbo(t.encoded_len() + 8);
        assert!(p.is_jumbo());
        p.push(&t).unwrap();
        assert_eq!(p.tuple(0).unwrap(), t);
    }

    #[test]
    fn disk_bytes_is_capacity() {
        let p = Page::new();
        assert_eq!(p.disk_bytes(), PAGE_SIZE);
        let j = Page::new_jumbo(50_000);
        assert_eq!(j.disk_bytes(), 50_000);
    }

    #[test]
    fn out_of_range_slot_errors() {
        let p = Page::new();
        assert!(p.tuple(0).is_err());
    }

    #[test]
    fn exact_size_iterator_len() {
        let mut p = Page::new();
        for id in 0..5 {
            p.push(&tiny(id)).unwrap();
        }
        let mut it = p.tuples();
        assert_eq!(it.len(), 5);
        it.next();
        assert_eq!(it.len(), 4);
    }

    proptest! {
        #[test]
        fn prop_page_roundtrips_many_tuples(count in 1usize..40, width in 1usize..16) {
            let mut p = Page::new();
            let mut stored = Vec::new();
            for id in 0..count as u64 {
                let t = Tuple::dense(id, vec![id as f32; width], 1.0);
                if p.fits(t.encoded_len()) {
                    p.push(&t).unwrap();
                    stored.push(t);
                }
            }
            let got: Vec<_> = p.tuples().collect();
            prop_assert_eq!(got, stored);
        }

        #[test]
        fn prop_free_bytes_decreases_monotonically(count in 1usize..30) {
            let mut p = Page::new();
            let mut last = p.free_bytes();
            for id in 0..count as u64 {
                let t = tiny(id);
                if !p.fits(t.encoded_len()) { break; }
                p.push(&t).unwrap();
                let now = p.free_bytes();
                prop_assert!(now < last);
                last = now;
            }
        }
    }
}
