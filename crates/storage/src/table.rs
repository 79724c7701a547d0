//! Heap tables: pages + blocks + cost-charged access paths.
//!
//! A [`Table`] is an append-only sequence of slotted pages carved into
//! blocks of roughly `block_bytes` each. All read paths charge a
//! [`SimDevice`] so experiments can account simulated I/O time:
//!
//! * [`Table::read`] — the one block read, fault-guarded and retried. With
//!   [`Access::Random`] it is the CorgiPile path (one seek + block
//!   transfer), with [`Access::Sequential`] the No-Shuffle path (blocks
//!   read in order at sequential bandwidth);
//! * [`Table::read_tuple_random`] — the full-shuffle path: one seek + page
//!   transfer per tuple (this is what makes Shuffle Once so expensive);
//! * [`Table::materialize_reordered`] — Shuffle Once's offline shuffle,
//!   modeled as a two-pass external sort (read + write, twice) plus 2×
//!   storage, matching the paper's observations (§3.1, Table 1).
//!
//! Every offline rewrite (Shuffle Once's and Epoch Shuffle's copy, Corgi²'s
//! `RECLUSTER`) feeds the one [`TableBuilder`] rows borrowed in place.

use crate::block::{closes_block, Block, BlockHandle, BlockId, BlockMeta};
use crate::clock;
use crate::device::{Access, SimDevice};
use crate::error::StorageError;
use crate::page::{LabelMoments, Page, PAGE_SIZE};
use crate::retry::{with_retries, RetryPolicy};
use crate::tuple::{Tuple, TupleId, TupleView};
use crate::Result;
use std::sync::Arc;

/// Default block size: 10 MB (the paper's recommended sweet spot, §7.3.4).
pub const DEFAULT_BLOCK_BYTES: usize = 10 << 20;

/// Configuration of a heap table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableConfig {
    /// Table name (for the DB catalog).
    pub name: String,
    /// Numeric id, used to derive cache keys. Must be unique per device.
    pub table_id: u32,
    /// Target block size in bytes.
    pub block_bytes: usize,
    /// Tuples whose encoding exceeds this are considered TOASTed
    /// (compressed out-of-line); reading them is throughput-capped.
    pub toast_threshold: usize,
    /// Effective throughput cap (bytes/s) for TOASTed content
    /// ([`clock::TOAST_CAP`] by default).
    pub toast_cap: f64,
}

impl TableConfig {
    /// A config with paper-default parameters.
    pub fn new(name: impl Into<String>, table_id: u32) -> Self {
        TableConfig {
            name: name.into(),
            table_id,
            block_bytes: DEFAULT_BLOCK_BYTES,
            toast_threshold: PAGE_SIZE / 2,
            toast_cap: clock::TOAST_CAP,
        }
    }

    /// Override the block size.
    pub fn with_block_bytes(mut self, bytes: usize) -> Self {
        self.block_bytes = bytes;
        self
    }

    fn validate(&self) -> Result<()> {
        if self.block_bytes == 0 {
            return Err(StorageError::InvalidConfig(
                "block_bytes must be > 0".into(),
            ));
        }
        Ok(())
    }
}

/// Incrementally builds a [`Table`] from a tuple stream.
///
/// The builder keeps the block plan as it goes: pages collect in the open
/// block until the page that would overflow it arrives — the boundary
/// [`plan_blocks`](crate::block::plan_blocks) draws — at which point the
/// open block is sealed behind an `Arc` and never touched again. [`TableBuilder::snapshot`] therefore
/// shares every sealed block with the tables it publishes and only builds
/// the last block anew.
#[derive(Debug)]
pub struct TableBuilder {
    config: TableConfig,
    sealed: Arc<Vec<Arc<Block>>>,
    /// Pages of the open block. Only the last can still take tuples; a
    /// published table may share it, so it is written copy-on-write.
    open_pages: Vec<Arc<Page>>,
    open_bytes: usize,
    tuple_count: u64,
    total_bytes: usize,
    any_toast: bool,
    dim: Option<usize>,
}

impl TableBuilder {
    /// Start building a table.
    pub fn new(config: TableConfig) -> Result<Self> {
        config.validate()?;
        Ok(TableBuilder {
            config,
            sealed: Arc::default(),
            open_pages: Vec::new(),
            open_bytes: 0,
            tuple_count: 0,
            total_bytes: 0,
            any_toast: false,
            dim: None,
        })
    }

    /// Append one row (placed on the current page, a fresh page, or a
    /// jumbo page if oversized).
    pub fn append(&mut self, row: TupleView<'_>) -> Result<()> {
        let len = row.encoded_len();
        if len > self.config.toast_threshold {
            self.any_toast = true;
        }
        if !self.open_pages.last().is_some_and(|p| p.fits(len)) {
            let mut fresh = Page::new();
            if !fresh.fits(len) {
                fresh = Page::new_jumbo(len + 16);
            }
            self.start_page(Arc::new(fresh));
        }
        Arc::make_mut(self.open_pages.last_mut().expect("page pushed above")).push(row)?;
        self.dim.get_or_insert(row.features.dim());
        self.tuple_count += 1;
        Ok(())
    }

    /// Add `page` to the open block, sealing that block first if the page
    /// does not belong to it.
    fn start_page(&mut self, page: Arc<Page>) {
        let bytes = page.disk_bytes();
        if closes_block(self.open_bytes, bytes, self.config.block_bytes) {
            let pages = std::mem::take(&mut self.open_pages);
            let block = self.open_block(pages);
            Arc::make_mut(&mut self.sealed).push(Arc::new(block));
            self.open_bytes = 0;
        }
        self.open_bytes += bytes;
        self.total_bytes += bytes;
        self.open_pages.push(page);
    }

    fn open_block(&self, pages: Vec<Arc<Page>>) -> Block {
        Block::after(self.sealed.last().map(|b| &**b), pages)
    }

    /// Re-open a finished table for further appends. The builder shares
    /// the table's blocks, so the table itself stays immutable — this is
    /// how [`AppendableTable`](crate::AppendableTable) seeds its writer
    /// from the currently-registered snapshot.
    pub fn from_table(table: &Table) -> TableBuilder {
        TableBuilder {
            config: table.config.clone(),
            sealed: table.sealed.clone(),
            open_pages: table
                .last
                .as_ref()
                .map_or_else(Vec::new, |b| b.pages.clone()),
            open_bytes: table.last.as_ref().map_or(0, |b| b.meta.bytes),
            tuple_count: table.tuple_count,
            total_bytes: table.total_bytes,
            any_toast: table.any_toast,
            dim: table.dim,
        }
    }

    /// Tuples appended so far.
    pub fn tuple_count(&self) -> u64 {
        self.tuple_count
    }

    /// Feature width, recorded from the first tuple appended.
    pub(crate) fn dim(&self) -> Option<usize> {
        self.dim
    }

    /// Blocks sealed so far (every block but the open one).
    pub(crate) fn sealed(&self) -> &[Arc<Block>] {
        &self.sealed
    }

    /// Label moments of every block in table order, the open one included.
    pub(crate) fn block_labels(&self) -> impl Iterator<Item = LabelMoments> + Clone + '_ {
        let mut open = LabelMoments::default();
        for p in &self.open_pages {
            open.merge(p.label_moments());
        }
        self.sealed.iter().map(|b| b.labels).chain([open])
    }

    /// An immutable point-in-time [`Table`] over the current pages, so
    /// appends can continue underneath it. Pointer work only: sealed blocks
    /// are shared, and the open page is copied by the next
    /// [`TableBuilder::append`] that writes to it, not here.
    pub fn snapshot(&self) -> Table {
        let last = (!self.open_pages.is_empty())
            .then(|| Arc::new(self.open_block(self.open_pages.clone())));
        Table {
            config: self.config.clone(),
            sealed: self.sealed.clone(),
            last,
            tuple_count: self.tuple_count,
            total_bytes: self.total_bytes,
            any_toast: self.any_toast,
            dim: self.dim,
        }
    }

    /// Finish: the table over everything appended.
    pub fn finish(self) -> Table {
        self.snapshot()
    }
}

/// An immutable heap table.
///
/// Blocks follow [`plan_blocks`](crate::block::plan_blocks) over the
/// table's pages. Every block but the last is final — no append can change
/// it — and is shared by `Arc` with the builder and with every later
/// version of the table; cloning a table copies pointers, never pages.
#[derive(Debug, Clone)]
pub struct Table {
    config: TableConfig,
    sealed: Arc<Vec<Arc<Block>>>,
    last: Option<Arc<Block>>,
    tuple_count: u64,
    total_bytes: usize,
    any_toast: bool,
    dim: Option<usize>,
}

impl Table {
    /// Build a table from an iterator of tuples, owned or borrowed.
    pub fn from_tuples(
        config: TableConfig,
        tuples: impl IntoIterator<Item = impl std::borrow::Borrow<Tuple>>,
    ) -> Result<Table> {
        let mut b = TableBuilder::new(config)?;
        for t in tuples {
            b.append(t.borrow().view())?;
        }
        Ok(b.finish())
    }

    /// Table configuration.
    pub fn config(&self) -> &TableConfig {
        &self.config
    }

    /// Number of tuples.
    pub fn num_tuples(&self) -> u64 {
        self.tuple_count
    }

    /// Feature dimensionality, recorded from the first tuple appended.
    /// [`StorageError::EmptyTable`] while the table holds no tuple.
    pub fn dim(&self) -> Result<usize> {
        self.dim.ok_or(StorageError::EmptyTable)
    }

    /// Number of blocks (the paper's `N`).
    pub fn num_blocks(&self) -> usize {
        self.sealed.len() + usize::from(self.last.is_some())
    }

    /// Number of pages.
    pub fn num_pages(&self) -> usize {
        self.all_blocks()
            .next_back()
            .map_or(0, |b| b.meta.pages.end)
    }

    /// On-disk size in bytes.
    pub fn total_bytes(&self) -> usize {
        self.total_bytes
    }

    /// Average tuples per block (the paper's `b`).
    pub fn tuples_per_block(&self) -> f64 {
        if self.num_blocks() == 0 {
            0.0
        } else {
            self.tuple_count as f64 / self.num_blocks() as f64
        }
    }

    /// Whether any tuple is TOASTed (throughput-capped on read).
    pub fn is_toasted(&self) -> bool {
        self.any_toast
    }

    fn all_blocks(&self) -> impl DoubleEndedIterator<Item = &Arc<Block>> + Clone {
        self.sealed.iter().chain(&self.last)
    }

    fn block_at(&self, id: BlockId) -> Result<&Arc<Block>> {
        let found = match id.checked_sub(self.sealed.len()) {
            None => self.sealed.get(id),
            Some(0) => self.last.as_ref(),
            Some(_) => None,
        };
        found.ok_or(StorageError::BlockOutOfRange {
            block: id,
            blocks: self.num_blocks(),
        })
    }

    /// Block metadata.
    pub fn block(&self, id: BlockId) -> Result<&BlockMeta> {
        Ok(&self.block_at(id)?.meta)
    }

    /// All block metadata in table order.
    pub fn blocks(&self) -> impl Iterator<Item = &BlockMeta> {
        self.all_blocks().map(|b| &b.meta)
    }

    fn cache_key(&self, block: BlockId) -> u64 {
        ((self.config.table_id as u64) << 32) | block as u64
    }

    fn toast_cap(&self) -> Option<f64> {
        if self.any_toast {
            Some(self.config.toast_cap)
        } else {
            None
        }
    }

    /// The pages of a block, without charging any device: what
    /// [`Table::read`] returns once the device has been paid.
    pub fn block_handle(&self, id: BlockId) -> Result<BlockHandle> {
        self.block_at(id).map(|b| BlockHandle(b.clone()))
    }

    /// Owned copies of a block's tuples, without charging any device (for
    /// in-memory tooling and tests).
    pub fn block_tuples(&self, id: BlockId) -> Result<Vec<Tuple>> {
        Ok(self.block_handle(id)?.to_tuples())
    }

    /// The one charged block read: `access` says what the device is
    /// charged — [`Access::Random`] is one seek + transfer (CorgiPile's I/O
    /// primitive, and the head of any scan), [`Access::Sequential`] the
    /// continuation of an in-order scan (No Shuffle's). The read goes
    /// through the device's fault injector, if any, and a retryable failure
    /// is re-attempted under `policy` ([`RetryPolicy::none`] fails fast),
    /// each retry first waiting its backoff on the simulated clock.
    /// Exhaustion is a [`StorageError::ReadFailed`] carrying the attempt
    /// count; other errors surface at once.
    pub fn read(
        &self,
        id: BlockId,
        access: Access,
        dev: &mut SimDevice,
        policy: &RetryPolicy,
    ) -> Result<BlockHandle> {
        let block = self.block_handle(id)?;
        let (table_id, cap) = (self.config.table_id, self.toast_cap());
        retried(id, dev, policy, |dev| {
            dev.read_guarded(table_id, id, block.0.meta.bytes, access, cap)
        })?;
        Ok(block)
    }

    /// Ask the fault injector about every block, retried like
    /// [`Table::read`], charging nothing when all answer. For the passes
    /// that are *charged* as one bulk transfer of the whole table (the
    /// offline shuffles) but still have to read each of its blocks.
    pub fn check_readable(&self, dev: &mut SimDevice, policy: &RetryPolicy) -> Result<()> {
        for meta in self.blocks() {
            retried(meta.id, dev, policy, |dev| {
                dev.guard(
                    self.config.table_id,
                    meta.id,
                    meta.bytes,
                    Access::Sequential,
                )
            })?;
        }
        Ok(())
    }

    /// Locate tuple `tid`: its block, its page and its slot on that page.
    /// A binary search over the blocks, then a walk over one block's pages.
    fn locate(&self, tid: TupleId) -> Result<(BlockId, &Page, usize)> {
        if tid >= self.tuple_count {
            return Err(StorageError::Corrupt(format!(
                "tuple {tid} out of range ({} tuples)",
                self.tuple_count
            )));
        }
        let id = self.sealed.partition_point(|b| b.meta.tuples.end <= tid);
        let block = self.block_at(id)?;
        let mut first_on_page = block.meta.tuples.start;
        for p in &block.pages {
            let cnt = p.tuple_count() as u64;
            if tid < first_on_page + cnt {
                return Ok((id, p, (tid - first_on_page) as usize));
            }
            first_on_page += cnt;
        }
        Err(StorageError::Corrupt(format!(
            "tuple {tid} not found in block {id}"
        )))
    }

    /// Read a single tuple by position with random access: one seek + one
    /// page transfer. The full-shuffle access pattern (map-style dataset on
    /// secondary storage).
    pub fn read_tuple_random(&self, tid: TupleId, dev: &mut SimDevice) -> Result<TupleView<'_>> {
        let (block, page, slot) = self.locate(tid)?;
        dev.read(
            Some(self.cache_key(block)),
            page.disk_bytes(),
            Access::Random,
            self.toast_cap(),
        );
        Ok(page.row(slot))
    }

    /// The row at position `tid`, read in place without charging a device.
    pub fn row(&self, tid: TupleId) -> Result<TupleView<'_>> {
        let (_, page, slot) = self.locate(tid)?;
        Ok(page.row(slot))
    }

    /// All rows in table order, read in place, without device charges.
    pub fn rows(&self) -> impl Iterator<Item = TupleView<'_>> + Clone {
        let pages = self.all_blocks().flat_map(|b| &b.pages);
        pages.flat_map(|p| p.rows())
    }

    /// Owned copies of all tuples in table order, without device charges.
    pub fn all_tuples(&self) -> Vec<Tuple> {
        self.rows().map(|r| r.to_tuple()).collect()
    }

    /// This table under a fresh `table_id`. Device/pool caches key extents
    /// by `(table_id, block)`, so every published table version must carry
    /// its own id — two versions sharing an id would alias cache entries
    /// across different block contents.
    pub fn with_table_id(mut self, table_id: u32) -> Table {
        self.config.table_id = table_id;
        self
    }

    /// Re-plan the block boundaries with a new block size: the same pages,
    /// by pointer, regrouped. Used by the SQL surface's `block_size = …`
    /// parameter (§6.1).
    pub fn rechunk(&self, block_bytes: usize) -> Result<Table> {
        let mut b = TableBuilder::new(self.config.clone().with_block_bytes(block_bytes))?;
        for p in self.all_blocks().flat_map(|b| &b.pages) {
            b.start_page(p.clone());
        }
        b.tuple_count = self.tuple_count;
        b.any_toast = self.any_toast;
        b.dim = self.dim;
        Ok(b.finish())
    }

    /// Materialize a reordered copy (Shuffle Once's offline shuffle).
    ///
    /// Cost model: a two-pass external sort over the table — read + write of
    /// the full data set twice at sequential bandwidth — which matches the
    /// `ORDER BY RANDOM()` plan PostgreSQL uses for MADlib/Bismarck's
    /// pre-shuffle (§7.3.1), and the new copy doubles the storage footprint
    /// (Table 1 "2× data size").
    ///
    /// `order[k]` gives the position in `self` of the tuple that lands at
    /// position `k` of the copy. Tuple `id`s are preserved so order
    /// diagnostics still see original positions. The sort has to read every
    /// block of `self`, so a block that stays unreadable under the default
    /// [`RetryPolicy`] fails it ([`Table::check_readable`]).
    pub fn materialize_reordered(
        &self,
        order: &[TupleId],
        new_name: impl Into<String>,
        new_table_id: u32,
        dev: &mut SimDevice,
    ) -> Result<Table> {
        assert_eq!(
            order.len() as u64,
            self.tuple_count,
            "order must be a permutation"
        );
        self.check_readable(dev, &RetryPolicy::default())?;
        // Two passes of read+write at sequential bandwidth.
        for _pass in 0..2 {
            dev.read(None, self.total_bytes, Access::Random, self.toast_cap());
            dev.write(self.total_bytes, Access::Sequential);
        }
        let mut cfg = self.config.clone();
        cfg.name = new_name.into();
        cfg.table_id = new_table_id;
        let mut b = TableBuilder::new(cfg)?;
        for &tid in order {
            b.append(self.row(tid)?)?;
        }
        Ok(b.finish())
    }
}

/// `attempt` at block `block` under `policy`, the simulated device's way:
/// a retry first pays its backoff on the simulated clock.
fn retried<T>(
    block: BlockId,
    dev: &mut SimDevice,
    policy: &RetryPolicy,
    mut attempt: impl FnMut(&mut SimDevice) -> Result<T>,
) -> Result<T> {
    with_retries(
        policy,
        |n| {
            if n > 0 {
                dev.note_retry(policy.backoff(n - 1));
            }
            attempt(dev)
        },
        |attempts, message| StorageError::ReadFailed {
            block,
            attempts,
            message,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn make_table(n: u64, width: usize, block_bytes: usize) -> Table {
        let cfg = TableConfig::new("t", 1).with_block_bytes(block_bytes);
        Table::from_tuples(
            cfg,
            (0..n).map(|id| {
                Tuple::dense(
                    id,
                    vec![id as f32; width],
                    if id % 2 == 0 { 1.0 } else { -1.0 },
                )
            }),
        )
        .unwrap()
    }

    /// Full sequential scan of the table, charging the device.
    fn scan_all(t: &Table, dev: &mut SimDevice) {
        for id in 0..t.num_blocks() {
            t.read(id, Access::in_scan(id == 0), dev, &RetryPolicy::none())
                .unwrap();
        }
    }

    #[test]
    fn build_and_count() {
        let t = make_table(1000, 8, 4 * PAGE_SIZE);
        assert_eq!(t.num_tuples(), 1000);
        assert!(t.num_pages() > 1);
        assert!(t.num_blocks() > 1);
        assert!(t.tuples_per_block() > 0.0);
        assert!(!t.is_toasted());
    }

    #[test]
    fn blocks_cover_all_tuples_in_order() {
        let t = make_table(500, 4, 2 * PAGE_SIZE);
        let mut seen = Vec::new();
        for b in 0..t.num_blocks() {
            seen.extend(t.block_tuples(b).unwrap().into_iter().map(|tp| tp.id));
        }
        let expect: Vec<u64> = (0..500).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn row_by_position() {
        let t = make_table(300, 4, 2 * PAGE_SIZE);
        for tid in [0u64, 1, 99, 157, 299] {
            assert_eq!(t.row(tid).unwrap().id, tid);
        }
        assert!(t.row(300).is_err());
    }

    #[test]
    fn row_by_position_agrees_with_a_full_decode_on_a_many_page_table() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let t = make_table(80_000, 48, 8 * PAGE_SIZE);
        assert!(t.num_pages() >= 2_000, "{} pages", t.num_pages());
        let all = t.all_tuples();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let tid = rng.gen_range(0..t.num_tuples());
            assert_eq!(t.row(tid).unwrap(), all[tid as usize].view());
        }
    }

    #[test]
    fn sequential_scan_cheaper_than_block_random_cheaper_than_tuple_random() {
        let t = make_table(5000, 16, 64 * PAGE_SIZE);
        let mut d1 = SimDevice::hdd(0);
        scan_all(&t, &mut d1);
        let seq = d1.stats().io_seconds;

        let mut d2 = SimDevice::hdd(0);
        for b in 0..t.num_blocks() {
            t.read(b, Access::Random, &mut d2, &RetryPolicy::none())
                .unwrap();
        }
        let blk = d2.stats().io_seconds;

        let mut d3 = SimDevice::hdd(0);
        for tid in 0..t.num_tuples() {
            t.read_tuple_random(tid, &mut d3).unwrap();
        }
        let tup = d3.stats().io_seconds;

        assert!(
            seq <= blk,
            "sequential {seq} should be <= block-random {blk}"
        );
        assert!(
            blk < tup / 50.0,
            "block-random {blk} should be ≪ tuple-random {tup}"
        );
    }

    #[test]
    fn cache_makes_second_epoch_fast() {
        let t = make_table(2000, 16, 16 * PAGE_SIZE);
        let mut dev = SimDevice::hdd(t.total_bytes() * 2);
        scan_all(&t, &mut dev);
        let first = dev.stats().io_seconds;
        scan_all(&t, &mut dev);
        let second = dev.stats().io_seconds - first;
        assert!(
            second < first / 10.0,
            "cached epoch {second} not ≪ cold epoch {first}"
        );
    }

    #[test]
    fn toast_detection_and_cap() {
        let cfg = TableConfig::new("wide", 2).with_block_bytes(1 << 20);
        let t = Table::from_tuples(
            cfg,
            (0..20u64).map(|id| Tuple::dense(id, vec![1.0; 4096], 1.0)),
        )
        .unwrap();
        assert!(t.is_toasted());
        let mut ssd = SimDevice::ssd(0);
        scan_all(&t, &mut ssd);
        let capped = ssd.stats().io_seconds;
        // At 130MB/s cap the time must exceed raw SSD time by ~7x.
        let raw = t.total_bytes() as f64 / 1e9;
        assert!(
            capped > 5.0 * raw,
            "TOAST cap not applied: {capped} vs raw {raw}"
        );
    }

    #[test]
    fn materialize_reordered_preserves_ids_and_charges_io() {
        let t = make_table(200, 4, 2 * PAGE_SIZE);
        let order: Vec<u64> = (0..200).rev().collect();
        let mut dev = SimDevice::hdd(0);
        let t2 = t
            .materialize_reordered(&order, "t_shuffled", 9, &mut dev)
            .unwrap();
        assert_eq!(t2.num_tuples(), 200);
        for (k, &tid) in order.iter().enumerate() {
            assert_eq!(t2.row(k as u64).unwrap(), t.row(tid).unwrap());
        }
        assert!(dev.stats().io_seconds > 0.0);
        assert!(dev.stats().written_bytes as usize >= 2 * t.total_bytes());
    }

    #[test]
    fn block_out_of_range() {
        let t = make_table(10, 2, PAGE_SIZE);
        assert!(matches!(
            t.block(999),
            Err(StorageError::BlockOutOfRange { .. })
        ));
    }

    #[test]
    fn rechunk_replans_blocks() {
        let t = make_table(500, 4, 2 * PAGE_SIZE);
        let before = t.num_blocks();
        let finer = t.rechunk(PAGE_SIZE).unwrap();
        assert!(finer.num_blocks() > before);
        assert_eq!(finer.num_tuples(), 500);
        assert_eq!(finer.all_tuples(), t.all_tuples());
        // Same pages by pointer, regrouped: nothing was copied.
        assert!(pages(&finer)
            .iter()
            .zip(pages(&t))
            .all(|(a, b)| Arc::ptr_eq(a, b)));
        // The regrouped blocks carry the label moments of their own pages.
        let hd = crate::append::AppendableTable::open_in_memory(&finer).hd_estimate();
        let exact = exact_between_block_share(&finer);
        assert!(
            (hd.unwrap() - exact.unwrap()).abs() <= 1e-9,
            "{hd:?} {exact:?}"
        );
        assert!(t.rechunk(0).is_err());
        // Tuple ranges still partition.
        let mut next = 0u64;
        for b in finer.blocks() {
            assert_eq!(b.tuples.start, next);
            next = b.tuples.end;
        }
        assert_eq!(next, 500);
    }

    #[test]
    fn zero_block_size_rejected() {
        let cfg = TableConfig::new("bad", 0).with_block_bytes(0);
        assert!(TableBuilder::new(cfg).is_err());
    }

    #[test]
    fn retry_recovers_from_transient_faults_and_charges_backoff() {
        use crate::fault::FaultPlan;
        let t = make_table(400, 4, 4 * PAGE_SIZE);
        let policy = RetryPolicy::default();

        let mut faulty = SimDevice::hdd(0);
        faulty.set_fault_plan(FaultPlan::new(5).with_transient(1, 0, 2));
        let got = t.read(0, Access::Random, &mut faulty, &policy).unwrap();

        let mut clean = SimDevice::hdd(0);
        let want = t.read(0, Access::Random, &mut clean, &policy).unwrap();
        assert_eq!(
            got.to_tuples(),
            want.to_tuples(),
            "recovered read must return the same tuples"
        );
        // Two failed attempts: two backoffs plus two wasted seeks.
        let overhead = faulty.stats().io_seconds - clean.stats().io_seconds;
        let expected = policy.total_backoff(2) + 2.0 * clean.profile().seek_latency_s;
        assert!(
            (overhead - expected).abs() < 1e-9,
            "retry cost {overhead} should be {expected}"
        );
        assert_eq!(faulty.stats().retries, 2, "one retry per failed attempt");
        assert_eq!(faulty.stats().faults, 2);
        assert_eq!(clean.stats().retries, 0);
    }

    #[test]
    fn retry_exhaustion_reports_attempts() {
        use crate::fault::FaultPlan;
        let t = make_table(2000, 8, 2 * PAGE_SIZE);
        assert!(t.num_blocks() > 1, "test needs a healthy second block");
        let mut dev = SimDevice::hdd(0);
        dev.set_fault_plan(FaultPlan::new(5).with_permanent(1, 0));
        let policy = RetryPolicy::with_max_retries(3);
        match t.read(0, Access::Random, &mut dev, &policy) {
            Err(StorageError::ReadFailed {
                block, attempts, ..
            }) => {
                assert_eq!(block, 0);
                assert_eq!(attempts, 4, "1 try + 3 retries");
            }
            other => panic!("expected exhausted retries, got {other:?}"),
        }
        // Non-faulty blocks still read fine on the same device.
        assert!(t.read(1, Access::Random, &mut dev, &policy).is_ok());
    }

    #[test]
    fn retry_does_not_mask_out_of_range() {
        let t = make_table(10, 2, PAGE_SIZE);
        let mut dev = SimDevice::in_memory();
        assert!(matches!(
            t.read(999, Access::Random, &mut dev, &RetryPolicy::default()),
            Err(StorageError::BlockOutOfRange { .. })
        ));
    }

    #[test]
    fn the_policy_is_invisible_when_fault_free() {
        let t = make_table(300, 4, 2 * PAGE_SIZE);
        let mut a = SimDevice::hdd(0);
        let mut b = SimDevice::hdd(0);
        scan_all(&t, &mut a);
        for id in 0..t.num_blocks() {
            let y = t
                .read(
                    id,
                    Access::in_scan(id == 0),
                    &mut b,
                    &RetryPolicy::default(),
                )
                .unwrap();
            assert_eq!(t.block_tuples(id).unwrap(), y.to_tuples());
            assert_eq!(y.len(), y.rows().count());
        }
        assert_eq!(a.stats(), b.stats());
        t.check_readable(&mut b, &RetryPolicy::default()).unwrap();
        assert_eq!(a.stats(), b.stats(), "a clean check charges nothing");
    }

    #[test]
    fn the_offline_shuffle_has_to_read_every_source_block() {
        use crate::fault::FaultPlan;
        let t = make_table(2000, 4, 2 * PAGE_SIZE);
        assert!(t.num_blocks() > 2);
        let order: Vec<u64> = (0..2000).collect();
        let mut clean = SimDevice::hdd(0);
        t.materialize_reordered(&order, "c", 9, &mut clean).unwrap();

        let mut flaky = SimDevice::hdd(0);
        flaky.set_fault_plan(FaultPlan::new(5).with_transient(1, 0, 2));
        t.materialize_reordered(&order, "c", 9, &mut flaky).unwrap();
        assert_eq!(flaky.stats().retries, 2);
        assert!(flaky.stats().io_seconds > clean.stats().io_seconds);

        let mut dead = SimDevice::hdd(0);
        dead.set_fault_plan(FaultPlan::new(5).with_permanent(1, 1));
        match t.materialize_reordered(&order, "c", 9, &mut dead).map(drop) {
            Err(StorageError::ReadFailed {
                block: 1, attempts, ..
            }) => assert_eq!(attempts, RetryPolicy::default().max_retries + 1),
            other => panic!("expected ReadFailed on block 1, got {other:?}"),
        }
    }

    fn pages(t: &Table) -> Vec<&Arc<Page>> {
        t.all_blocks().flat_map(|b| &b.pages).collect()
    }

    /// ĥ_D the long way: decode every block of `t`, two passes over labels.
    fn exact_between_block_share(t: &Table) -> Option<f64> {
        let blocks: Vec<Vec<f64>> = (0..t.num_blocks())
            .map(|b| t.block_tuples(b).unwrap())
            .map(|ts| ts.iter().map(|t| t.label as f64).collect())
            .filter(|b: &Vec<f64>| !b.is_empty())
            .collect();
        if blocks.len() < 2 {
            return None;
        }
        let n = blocks.iter().map(Vec::len).sum::<usize>() as f64;
        let mean = blocks.iter().flatten().sum::<f64>() / n;
        let total = blocks
            .iter()
            .flatten()
            .map(|l| (l - mean).powi(2))
            .sum::<f64>()
            / n;
        if total <= 1e-12 {
            return Some(0.0);
        }
        let between = blocks
            .iter()
            .map(|b| b.len() as f64 * (b.iter().sum::<f64>() / b.len() as f64 - mean).powi(2))
            .sum::<f64>()
            / n;
        Some((between / total).clamp(0.0, 1.0))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every published version of an appended-to table is the table a
        /// from-scratch build would give, shares all it can with the version
        /// before it, and leaves that version untouched.
        #[test]
        fn prop_versions_follow_the_block_plan_and_share_sealed_blocks(
            block_pages in prop_oneof![Just(1usize), Just(8), Just(128)],
            base_rows in 0u64..6000,
            schedule in proptest::collection::vec((1usize..40, 0u32..8, 0u32..4), 1..20),
        ) {
            use crate::append::AppendableTable;
            use crate::block::plan_blocks;
            let row = |jumbo: bool, label: f32| {
                // 24 of 3000 features share a page with ~37 others; all 3000
                // need a jumbo page. One width: appends keep the table's.
                if jumbo {
                    Tuple::dense(0, vec![label; 3000], label)
                } else {
                    Tuple::sparse(0, 3000, (0..24).collect(), vec![label; 24], label)
                }
            };
            let cfg = TableConfig::new("t", 1).with_block_bytes(block_pages * PAGE_SIZE);
            let base = Table::from_tuples(
                cfg,
                (0..base_rows).map(|id| Tuple { id, ..row(false, (id % 3) as f32 - 1.0) }),
            )
            .unwrap();
            let mut expected = base.all_tuples();
            let mut writer = AppendableTable::open_in_memory(&base);
            let mut versions = vec![base];
            for (v, (batch, kind, label)) in schedule.into_iter().enumerate() {
                let jumbo = kind == 0;
                let rows: Vec<Tuple> = (0..if jumbo { batch.min(5) } else { batch })
                    .map(|i| row(jumbo, ((label as usize + i * (kind as usize % 2)) % 4) as f32 - 1.5))
                    .collect();
                for r in &rows {
                    expected.push(Tuple { id: expected.len() as u64, ..r.clone() });
                }
                writer.append_rows(rows, None).unwrap();
                let snap = writer.snapshot_table(v as u32 + 2);

                let page_bytes: Vec<usize> = pages(&snap).iter().map(|p| p.disk_bytes()).collect();
                let page_tuples: Vec<usize> = pages(&snap).iter().map(|p| p.tuple_count()).collect();
                let plan = plan_blocks(&page_bytes, &page_tuples, block_pages * PAGE_SIZE);
                prop_assert_eq!(snap.blocks().cloned().collect::<Vec<_>>(), plan);
                prop_assert_eq!(snap.total_bytes(), page_bytes.iter().sum::<usize>());
                prop_assert_eq!(&snap.all_tuples(), &expected);

                match (writer.hd_estimate(), exact_between_block_share(&snap)) {
                    (Some(got), Some(want)) => prop_assert!((got - want).abs() <= 1e-9, "{got} vs {want}"),
                    (got, want) => prop_assert_eq!(got, want),
                }

                let prev = versions.last().unwrap();
                prop_assert!(snap.sealed.len() >= prev.sealed.len());
                for (a, b) in prev.sealed.iter().zip(snap.sealed.iter()) {
                    prop_assert!(Arc::ptr_eq(a, b), "sealed block {} was rebuilt", a.meta.id);
                }
                // All of the previous version's pages but its open one live on.
                let (old, new) = (pages(prev), pages(&snap));
                for (a, b) in old.iter().zip(&new).take(old.len().saturating_sub(1)) {
                    prop_assert!(Arc::ptr_eq(a, b));
                }
                versions.push(snap);
            }
            // Pinned versions never saw the appends that followed them.
            for v in &versions {
                prop_assert_eq!(&v.all_tuples()[..], &expected[..v.num_tuples() as usize]);
            }
        }

        #[test]
        fn prop_roundtrip_all_tuples(n in 1u64..400, width in 1usize..12, blk_pages in 1usize..6) {
            let t = make_table(n, width, blk_pages * PAGE_SIZE);
            let all = t.all_tuples();
            prop_assert_eq!(all.len() as u64, n);
            for (i, tp) in all.iter().enumerate() {
                prop_assert_eq!(tp.id, i as u64);
            }
        }

        #[test]
        fn prop_locate_consistent_with_block_ranges(n in 1u64..300) {
            let t = make_table(n, 4, 2 * PAGE_SIZE);
            for tid in 0..n {
                prop_assert_eq!(t.row(tid).unwrap().id, tid);
            }
            // Every block's tuple range matches its decoded contents.
            for b in 0..t.num_blocks() {
                let meta = t.block(b).unwrap().clone();
                let tuples = t.block_tuples(b).unwrap();
                prop_assert_eq!(tuples.len(), meta.tuple_count());
                if let Some(first) = tuples.first() {
                    prop_assert_eq!(first.id, meta.tuples.start);
                }
            }
        }
    }
}
