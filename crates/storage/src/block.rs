//! Blocks: the unit of CorgiPile's block-level shuffle.
//!
//! A block is a batch of contiguous heap pages (§6.2: `BN = page_num ×
//! page_size / block_size`). Random access at block granularity is nearly as
//! fast as a sequential scan once blocks reach ~10 MB (Appendix A), which is
//! the hardware-efficiency half of CorgiPile's argument.

use crate::page::{LabelMoments, Page};
use crate::tuple::{Tuple, TupleView};
use std::ops::Range;
use std::sync::Arc;

/// Index of a block within a table.
pub type BlockId = usize;

/// Metadata describing one block of a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMeta {
    /// Block index within the table.
    pub id: BlockId,
    /// Pages covered by the block (`[start, end)` into the table's page list).
    pub pages: Range<usize>,
    /// Tuple ids covered by the block (`[start, end)` in table order).
    pub tuples: Range<u64>,
    /// On-disk bytes of the block (sum of page capacities).
    pub bytes: usize,
}

impl BlockMeta {
    /// Number of tuples in the block.
    pub fn tuple_count(&self) -> usize {
        (self.tuples.end - self.tuples.start) as usize
    }
}

/// One block of a table: its pages, its placement and its label moments.
///
/// Immutable once built and held behind `Arc`, a block is the unit every
/// version of a table shares: publishing a new version after an append
/// re-uses each block that was already closed and rebuilds only the last.
#[derive(Debug)]
pub(crate) struct Block {
    pub(crate) meta: BlockMeta,
    pub(crate) pages: Vec<Arc<Page>>,
    pub(crate) labels: LabelMoments,
}

impl Block {
    /// The block made of `pages`, placed after `prev` (the block before it
    /// in table order, if any).
    pub(crate) fn after(prev: Option<&Block>, pages: Vec<Arc<Page>>) -> Block {
        let (id, first_page, first_tuple) = match prev {
            Some(b) => (b.meta.id + 1, b.meta.pages.end, b.meta.tuples.end),
            None => (0, 0, 0),
        };
        let mut labels = LabelMoments::default();
        let mut bytes = 0;
        for p in &pages {
            labels.merge(p.label_moments());
            bytes += p.disk_bytes();
        }
        Block {
            meta: BlockMeta {
                id,
                pages: first_page..first_page + pages.len(),
                tuples: first_tuple..first_tuple + labels.tuples,
                bytes,
            },
            pages,
            labels,
        }
    }
}

/// What a block read hands out: the block's pages, shared with the table
/// (one `Arc` bump per read, nothing copied).
#[derive(Debug, Clone)]
pub struct BlockHandle(pub(crate) Arc<Block>);

impl BlockHandle {
    /// Number of tuples in the block.
    pub fn len(&self) -> usize {
        self.0.meta.tuple_count()
    }

    /// Whether the block holds no tuple.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The block's pages, in table order.
    pub fn pages(&self) -> &[Arc<Page>] {
        &self.0.pages
    }

    /// The block's rows in table order, borrowed from its pages.
    pub fn rows(&self) -> impl Iterator<Item = TupleView<'_>> + Clone {
        self.0.pages.iter().flat_map(|p| p.rows())
    }

    /// Owned copies of the block's rows.
    pub fn to_tuples(&self) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(self.len());
        out.extend(self.rows().map(|r| r.to_tuple()));
        out
    }
}

/// The one definition of a block boundary: a page of `page_bytes` starts a
/// new block when the open block already holds `open_bytes` and the page
/// would push it past `block_bytes`. [`plan_blocks`], the table builder's
/// seal and therefore the per-block label moments all follow it.
pub(crate) fn closes_block(open_bytes: usize, page_bytes: usize, block_bytes: usize) -> bool {
    open_bytes > 0 && open_bytes + page_bytes > block_bytes
}

/// The between-block share of label variance over `blocks` — ĥ_D ∈ [0, 1].
/// `None` with fewer than two non-empty blocks (no between-block structure
/// to speak of); `Some(0.0)` when the labels do not vary at all.
pub(crate) fn between_block_share(
    blocks: impl Iterator<Item = LabelMoments> + Clone,
) -> Option<f64> {
    let blocks = blocks.filter(|b| b.tuples > 0);
    if blocks.clone().take(2).count() < 2 {
        return None;
    }
    let mut all = LabelMoments::default();
    blocks.clone().for_each(|b| all.merge(b));
    let n = all.tuples as f64;
    let grand_mean = all.mean();
    let total_var = (all.sq_sum / n - grand_mean * grand_mean).max(0.0);
    if total_var <= 1e-12 {
        return Some(0.0);
    }
    let between = blocks
        .map(|b| b.tuples as f64 * (b.mean() - grand_mean).powi(2))
        .sum::<f64>()
        / n;
    Some((between / total_var).clamp(0.0, 1.0))
}

/// Plan the block boundaries for a sequence of page sizes.
///
/// Greedily packs pages into blocks of at most `block_bytes` each; a single
/// page larger than `block_bytes` (a jumbo page) gets its own block. Every
/// page lands in exactly one block and page order is preserved. The plan is
/// prefix-stable — appending pages never moves an earlier boundary — which
/// is what lets the table builder keep it incrementally.
pub fn plan_blocks(
    page_bytes: &[usize],
    page_tuples: &[usize],
    block_bytes: usize,
) -> Vec<BlockMeta> {
    assert_eq!(page_bytes.len(), page_tuples.len());
    assert!(block_bytes > 0, "block size must be positive");
    let mut blocks = Vec::new();
    let mut start_page = 0usize;
    let mut start_tuple = 0u64;
    let mut cur_bytes = 0usize;
    let mut cur_tuples = 0u64;
    for (i, (&b, &t)) in page_bytes.iter().zip(page_tuples).enumerate() {
        if closes_block(cur_bytes, b, block_bytes) {
            blocks.push(BlockMeta {
                id: blocks.len(),
                pages: start_page..i,
                tuples: start_tuple..start_tuple + cur_tuples,
                bytes: cur_bytes,
            });
            start_page = i;
            start_tuple += cur_tuples;
            cur_bytes = 0;
            cur_tuples = 0;
        }
        cur_bytes += b;
        cur_tuples += t as u64;
    }
    if cur_bytes > 0 {
        blocks.push(BlockMeta {
            id: blocks.len(),
            pages: start_page..page_bytes.len(),
            tuples: start_tuple..start_tuple + cur_tuples,
            bytes: cur_bytes,
        });
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn uniform_pages_pack_evenly() {
        let pages = vec![8192usize; 10];
        let tuples = vec![5usize; 10];
        let blocks = plan_blocks(&pages, &tuples, 8192 * 4);
        assert_eq!(blocks.len(), 3); // 4 + 4 + 2 pages
        assert_eq!(blocks[0].pages, 0..4);
        assert_eq!(blocks[1].pages, 4..8);
        assert_eq!(blocks[2].pages, 8..10);
        assert_eq!(blocks[0].tuples, 0..20);
        assert_eq!(blocks[2].tuples, 40..50);
        assert_eq!(blocks[2].tuple_count(), 10);
        assert_eq!(blocks[1].pages.len(), 4);
    }

    #[test]
    fn jumbo_page_gets_own_block() {
        let pages = vec![8192, 100_000, 8192];
        let tuples = vec![3, 1, 3];
        let blocks = plan_blocks(&pages, &tuples, 16_384);
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks[1].bytes, 100_000);
        assert_eq!(blocks[1].tuple_count(), 1);
    }

    #[test]
    fn empty_input_yields_no_blocks() {
        assert!(plan_blocks(&[], &[], 1024).is_empty());
    }

    #[test]
    fn single_block_when_block_size_huge() {
        let pages = vec![8192; 7];
        let tuples = vec![2; 7];
        let blocks = plan_blocks(&pages, &tuples, usize::MAX);
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].tuples, 0..14);
    }

    proptest! {
        #[test]
        fn prop_blocks_partition_pages_and_tuples(
            n_pages in 0usize..50,
            block_pages in 1usize..8,
        ) {
            let pages = vec![8192usize; n_pages];
            let tuples: Vec<usize> = (0..n_pages).map(|i| i % 7 + 1).collect();
            let blocks = plan_blocks(&pages, &tuples, 8192 * block_pages);
            // Pages partition: contiguous, disjoint, cover all.
            let mut next_page = 0usize;
            let mut next_tuple = 0u64;
            for (i, b) in blocks.iter().enumerate() {
                prop_assert_eq!(b.id, i);
                prop_assert_eq!(b.pages.start, next_page);
                prop_assert_eq!(b.tuples.start, next_tuple);
                prop_assert!(b.pages.end > b.pages.start);
                next_page = b.pages.end;
                next_tuple = b.tuples.end;
            }
            prop_assert_eq!(next_page, n_pages);
            let total_tuples: u64 = tuples.iter().map(|&t| t as u64).sum();
            prop_assert_eq!(next_tuple, total_tuples);
            // Byte budget respected unless a block is a single (jumbo) page.
            for b in &blocks {
                prop_assert!(b.bytes <= 8192 * block_pages || b.pages.len() == 1);
            }
        }
    }
}
