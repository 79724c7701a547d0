//! The one fill: stage a fill's blocks, rank their rows, place them (§4.1,
//! §6.2).
//!
//! Every way into training moves rows through here: `Trainer`, one process
//! or many, and SQL `TRAIN` run one loop, [`EpochStream::fill_epoch`], with
//! their own [`ScanStep`]. The step reads a fill's blocks and admits their
//! rows (the SQL engine evaluates `WHERE`, projects and skips dead blocks
//! there); [`Filler::fill`] ranks the admitted rows by the order's [`Rank`]
//! and leaves them in the batch the kernel drains. MRS's and
//! Sliding-Window's fills ([`Rank::Picks`]) are gathered by scan position
//! from the rows their epoch has read, and a multi-process order's fills are
//! interleaved into one stream ([`Deal`]).
//!
//! What moves is a [`RowBatch`]: heap pages pinned by `Arc` plus one 8-byte
//! [`RowRef`] per row. A ranked fill's rows are handles in SGD order; rows
//! wider than [`SLAB_ROW_BYTES`] are read so, in place, and narrower ones
//! gathered in that order into a page the batch owns alone, its slab — by
//! the producer, or by the kernel lane for the rest once it waits.

use crate::plan::{Deal, EpochOrder, Rank};
use crate::strategy::{copy_id, ShuffleStrategy};
use corgipile_data::rng::rank_by_key;
use corgipile_storage::{
    splitmix64, Page, RetryPolicy, SimDevice, Span, SpanSite, StorageError, Table, Telemetry,
    TupleView,
};
use std::sync::Arc;

/// Fills whose rows average more stored bytes than this are consumed in
/// place, on the table's pages: a row of many cache lines already streams,
/// and copying it doubles the traffic of a memory-bound statement. Narrower
/// rows are copied into the batch's slab (DESIGN.md §9 has the sweep).
pub const SLAB_ROW_BYTES: usize = 1024;

/// One row of a [`RowBatch`]: which of its pinned pages, which slot on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowRef {
    page: u32,
    slot: u32,
}

/// The one batch type: pinned pages (one `Arc` bump per page, none per row)
/// and the [`RowRef`]s of a run of their rows, in consumption order.
/// [`RowBatch::clear`] keeps both allocations for the next fill. A batch a
/// ranked fill copies narrow rows into holds one page nobody else does — its
/// slab, found again by that test and overwritten in place when the batch
/// comes back to be refilled.
#[derive(Debug, Default)]
pub struct RowBatch {
    pages: Vec<Arc<Page>>,
    rows: Vec<RowRef>,
    /// Rows from here on await the copy: handles on staged pages pinned before the slab.
    pending: Option<usize>,
    /// Where [`RowBatch::settle`] records: its filler's `{prefix}.settle`.
    settle_span: SpanSite,
}

impl RowBatch {
    /// An empty batch with room for `rows` rows.
    pub fn with_capacity(rows: usize) -> Self {
        RowBatch {
            rows: Vec::with_capacity(rows),
            ..RowBatch::default()
        }
    }

    /// Drop all rows and pins but keep the backing allocations.
    pub fn clear(&mut self) {
        self.pages.clear();
        self.rows.clear();
        self.pending = None;
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the batch holds no row.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The handles of the rows, in order.
    pub fn refs(&self) -> &[RowRef] {
        debug_assert!(self.pending.is_none(), "settle the batch first");
        &self.rows
    }

    /// The pinned pages.
    pub fn pages(&self) -> &[Arc<Page>] {
        &self.pages
    }

    /// The row behind a handle of this batch.
    #[inline]
    pub fn row(&self, r: RowRef) -> TupleView<'_> {
        debug_assert!(self.pending.is_none(), "settle the batch first");
        self.pages[r.page as usize].row(r.slot as usize)
    }

    /// The rows, in order.
    #[inline]
    pub fn rows(&self) -> impl Iterator<Item = TupleView<'_>> + Clone {
        self.rows.iter().map(|&r| self.row(r))
    }

    /// Finish a fill handed over part-copied, if it is one: the rest of its rows
    /// go to the slab slots the producer would have given, its staging unpinned.
    pub fn settle(&mut self) {
        if self.pending.is_some() {
            let _span = self.settle_span.start();
            self.gather(|| false);
        }
    }

    /// Copy the pending rows into the slab, [`GATHER_ROWS`] at a time, until
    /// `waiting`; after the last, unpin the rest and point every handle there.
    fn gather(&mut self, mut waiting: impl FnMut() -> bool) {
        let (slab, pinned) = self.pages.split_last_mut().expect("the slab is last");
        let slab = Arc::get_mut(slab).expect("held by this batch alone");
        while let Some(at) = self.pending.filter(|_| !waiting()) {
            let end = (at + GATHER_ROWS).min(self.rows.len());
            let run = self.rows[at..end].iter();
            let run = run.map(|r| (&*pinned[r.page as usize], r.slot as usize));
            slab.gather(at, run);
            self.pending = (end < self.rows.len()).then_some(end);
        }
        if self.pending.is_none() {
            self.pages.drain(..self.pages.len() - 1);
            let slab = (0..).zip(&mut self.rows);
            slab.for_each(|(slot, r)| *r = RowRef { page: 0, slot });
        }
    }

    /// Pin `page` and append the slots `keep` admits, in slot order.
    #[inline]
    pub fn push_page(&mut self, page: &Arc<Page>, mut keep: impl FnMut(&Page, usize) -> bool) {
        let (index, before) = (self.pages.len() as u32, self.rows.len());
        for slot in 0..page.tuple_count() as u32 {
            if keep(page, slot as usize) {
                self.rows.push(RowRef { page: index, slot });
            }
        }
        if self.rows.len() > before {
            self.pages.push(Arc::clone(page));
        }
    }

    /// The rows' stored features, in all: a run of rows on a page dense of
    /// one width at once.
    pub fn features(&self) -> usize {
        let runs = self.rows.chunk_by(|a, b| a.page == b.page);
        runs.map(|run| {
            let page = &self.pages[run[0].page as usize];
            let nnz = |r: &RowRef| page.row(r.slot as usize).features.nnz();
            page.dense_width()
                .map_or_else(|| run.iter().map(nnz).sum(), |w| w * run.len())
        })
        .sum()
    }

    /// Append row `r` of `src`, pinning its page if the last push did not.
    pub fn push_from(&mut self, src: &RowBatch, r: RowRef) {
        debug_assert!(src.pending.is_none(), "settle the batch first");
        let page = &src.pages[r.page as usize];
        if !self.pages.last().is_some_and(|p| Arc::ptr_eq(p, page)) {
            self.pages.push(Arc::clone(page));
        }
        self.rows.push(RowRef {
            page: self.pages.len() as u32 - 1,
            slot: r.slot,
        });
    }
}

/// One buffer fill on its way from the source to the kernel stage.
#[derive(Debug, Default)]
pub struct Fill {
    /// The fill's rows, in SGD consumption order.
    pub batch: RowBatch,
    /// Its rows' stored features, counted by the producer: with the rows,
    /// what the clock prices its compute from.
    pub features: usize,
    /// Index of the epoch's per-fill loading cost this fill's lands in; its
    /// compute is attributed to the same slot.
    pub slot: usize,
    /// Simulated seconds spent producing the fill.
    pub sim_seconds: f64,
}

/// A fill [`Filler::fill`] placed: its rows, their stored bytes — what the
/// clock's buffering prices for a ranked fill — and the open `{prefix}.fill`
/// span, for the caller to add the fill's simulated seconds to.
#[derive(Debug)]
pub struct Placed {
    /// Rows placed.
    pub rows: usize,
    /// Their stored bytes (ranked fills only; 0 in stored order).
    pub bytes: usize,
    /// The fill's span (records nothing for a fill in stored order).
    pub span: Span,
}

/// Rows a ranked fill copies between looks at whether the kernel lane waits.
const GATHER_ROWS: usize = 1024;

/// The fill's scratch, kept across fills: the staging batch, a key per
/// staged row and [`rank_by_key`]'s output.
#[derive(Debug, Default)]
pub struct Filler {
    prefix: &'static str,
    staging: RowBatch,
    keys: Vec<u64>,
    order: Vec<u32>,
    /// `{prefix}.{fill, read, key, sort, copy, settle}`, resolved by the
    /// first ranked fill (DESIGN.md §9).
    spans: Option<[SpanSite; 6]>,
}

impl Filler {
    /// A filler whose ranked fills record spans named `{prefix}.*`.
    pub fn new(prefix: &'static str) -> Self {
        Filler {
            prefix,
            ..Filler::default()
        }
    }

    /// Place the next fill in `out`; `None` at the end of the stream.
    ///
    /// `stage` is the caller's scan step: it appends the admitted rows of the next
    /// fill's blocks to the batch it is handed and returns `Ok(false)` once no block
    /// is left. A fill that admitted no row merges into the next. In [`Rank::Stored`]
    /// the rows are staged straight into `out`, on their pages. In [`Rank::Key`] they
    /// are staged aside, ranked by `splitmix64(salt ⊕ id)` off the staged pages' id
    /// columns, and laid out in that order in `out` as handles on the staged pages,
    /// where rows of more than [`SLAB_ROW_BYTES`] stored bytes on average stay;
    /// narrower ones go to its slab until `waiting`, the rest to [`RowBatch::settle`].
    pub fn fill<E>(
        &mut self,
        tel: &Telemetry,
        rank: Rank,
        mut stage: impl FnMut(&mut RowBatch) -> Result<bool, E>,
        waiting: impl FnMut() -> bool,
        out: &mut RowBatch,
    ) -> Result<Option<Placed>, E> {
        let salt = match rank {
            Rank::Key(salt) => salt,
            Rank::Stored => {
                out.clear();
                while stage(out)? && out.is_empty() {}
                let (rows, bytes, span) = (out.len(), 0, SpanSite::default().start());
                return Ok((rows > 0).then_some(Placed { rows, bytes, span }));
            }
            Rank::Picks => unreachable!("a picked fill is gathered by fill_epoch"),
        };
        let staging = &mut self.staging;
        staging.clear();
        out.rows.clear();
        out.pending = None;
        let prefix = self.prefix;
        let site = |p| tel.span_site(&[prefix, ".", p].concat());
        let phases = ["fill", "read", "key", "sort", "copy", "settle"];
        let [fill, read, key, sort, copy, settle] =
            &*self.spans.get_or_insert_with(|| phases.map(site));
        let (span, mut phase) = (fill.start(), read.start());
        while stage(staging)? && staging.is_empty() {}
        let rows = staging.len();
        if rows == 0 {
            // End-of-stream probe, not a fill: record nothing.
            span.cancel();
            phase.cancel();
            return Ok(None);
        }
        // splitmix64 is bijective, so any correct sort gives the same order,
        // and filtering below or above the buffer leaves the survivors'
        // order unchanged.
        phase = phase.then(key);
        let mut bytes = 0;
        self.keys.clear();
        self.keys.reserve(rows);
        for run in staging.rows.chunk_by(|a, b| a.page == b.page) {
            let page = &staging.pages[run[0].page as usize];
            let (ids, slots) = (page.ids(), run.iter().map(|r| r.slot as usize));
            self.keys
                .extend(slots.clone().map(|s| splitmix64(salt ^ ids[s])));
            bytes += if run.len() == page.tuple_count() {
                page.used_bytes()
            } else {
                slots.map(|s| page.row(s).encoded_len()).sum()
            };
        }
        phase = phase.then(sort);
        rank_by_key(&self.keys, &mut self.order);
        let _copy = phase.then(copy);
        // The staged pins move to `out`; its last slab, if it holds it alone, goes after.
        let held = |mut slab: Arc<Page>| Arc::get_mut(&mut slab).is_some().then_some(slab);
        let slab = out.pages.pop().and_then(held);
        out.pages.clear();
        std::mem::swap(&mut out.pages, &mut staging.pages);
        let order = self.order.iter().map(|&at| staging.rows[at as usize]);
        out.rows.extend(order);
        if bytes / rows <= SLAB_ROW_BYTES {
            staging.pages.reserve_exact(out.pages.len() + 1);
            let mut slab = slab.unwrap_or_default();
            let (pages, rows) = (&out.pages, out.rows.iter());
            let rows = rows.map(|r| (&*pages[r.page as usize], r.slot as usize));
            let page = Arc::get_mut(&mut slab).expect("held by this batch alone: checked, or new");
            page.refill(pages.iter().map(|p| &**p), rows, bytes);
            out.pages.push(slab);
            (out.pending, out.settle_span) = (Some(0), settle.clone());
            out.gather(waiting);
        }
        Ok(Some(Placed { rows, bytes, span }))
    }
}

/// How [`EpochStream::fill_epoch`] reads: the scan step and the simulated
/// clock it charges. The library reads whole blocks through [`Table::read`]
/// on a [`SimDevice`] (its impl here); the SQL engine's step also evaluates
/// `WHERE` and the column list, reads random orders through its buffer pool,
/// skips dead blocks and counts its actuals.
pub trait ScanStep {
    /// What a read fails with.
    type Error: From<StorageError>;

    /// Append the rows of position `i` of `order` (block `order.blocks[i]` of
    /// `table`, read as `order.access(i)`) that the scan admits to `into`.
    fn read_at(
        &mut self,
        table: &Table,
        order: &EpochOrder,
        i: usize,
        into: &mut RowBatch,
    ) -> Result<(), Self::Error>;

    /// Simulated seconds the scan has charged so far.
    fn seconds(&self) -> f64;

    /// Run `f` on the scan's device, which carries the telemetry the
    /// fills' spans record to: a strategy's setup, buffering charges.
    fn device<R>(&mut self, f: impl FnOnce(&mut SimDevice) -> R) -> R;

    /// Read fill `k`'s blocks as a task of a worker of a dealt order; returns
    /// its simulated seconds. By default the worker reads on this scan.
    fn read_apart(
        &mut self,
        table: &Table,
        order: &EpochOrder,
        k: usize,
        into: &mut RowBatch,
    ) -> Result<f64, Self::Error> {
        let before = self.seconds();
        for i in order.reads(k) {
            self.read_at(table, order, i, into)?;
        }
        Ok(self.seconds() - before)
    }

    /// `fill` is about to be emitted.
    fn placed(&mut self, _fill: &Fill) {}
}

/// The library's step: whole blocks through [`Table::read`] under the
/// default [`RetryPolicy`]; a block that stays unreadable ends the epoch
/// with its error. A dealt fill reads on a fresh copy of the device (a
/// worker's fill is a task of its own: its first block pays the seek).
impl ScanStep for SimDevice {
    type Error = StorageError;

    fn read_at(
        &mut self,
        table: &Table,
        order: &EpochOrder,
        i: usize,
        into: &mut RowBatch,
    ) -> Result<(), StorageError> {
        let policy = RetryPolicy::default();
        let block = table.read(order.blocks[i], order.access(i), self, &policy)?;
        for page in block.pages() {
            into.push_page(page, |_, _| true);
        }
        Ok(())
    }

    fn seconds(&self) -> f64 {
        self.stats().io_seconds
    }

    fn device<R>(&mut self, f: impl FnOnce(&mut SimDevice) -> R) -> R {
        f(self)
    }

    fn read_apart(
        &mut self,
        table: &Table,
        order: &EpochOrder,
        k: usize,
        into: &mut RowBatch,
    ) -> Result<f64, StorageError> {
        let mut fresh = self.clone();
        let read = order
            .reads(k)
            .try_for_each(|i| fresh.read_at(table, order, i, into));
        // The copy's fault injector, the fill's failures spent, goes back:
        // a fault strikes once a run.
        if let Some(injector) = fresh.clear_fault_injector() {
            self.set_fault_injector(injector);
        }
        read.map(|()| fresh.seconds() - self.seconds())
    }
}

/// A strategy's epochs over a table: each epoch's setup and order
/// ([`EpochStream::start`]), and the one loop over the order's fills
/// ([`EpochStream::fill_epoch`]).
pub struct EpochStream<'a, S: ?Sized> {
    /// The strategy whose orders run.
    pub strategy: &'a mut S,
    /// The table they run over (the strategy's copy, once it has one).
    pub table: &'a Table,
    /// The current epoch's order.
    pub order: EpochOrder,
    /// Epochs started.
    pub started: u64,
    filler: Filler,
}

impl<'a, S: ShuffleStrategy + ?Sized> EpochStream<'a, S> {
    /// `strategy` over `table`, its ranked fills recording spans `{prefix}.*`.
    pub fn new(strategy: &'a mut S, table: &'a Table, prefix: &'static str) -> Self {
        // Sized here, not by an epoch's producer thread, in whose malloc arena
        // it would sit between the fill slabs (+3 MiB peak RSS, narrow TRAIN).
        let mut order = EpochOrder::default();
        order.blocks.reserve(table.num_blocks());
        EpochStream {
            strategy,
            table,
            order,
            started: 0,
            filler: Filler::new(prefix),
        }
    }

    /// Start the next epoch on `dev`: the strategy's setup (any copy gets
    /// the table's id with the two high bits set; a setup already made is
    /// not made again), then its order. Returns the setup's simulated seconds.
    pub fn start(&mut self, dev: &mut SimDevice) -> Result<f64, StorageError> {
        let (strategy, table) = (&mut *self.strategy, self.table);
        let setup = strategy.setup(table, &|| copy_id(table), dev)?;
        let copy = strategy.copy();
        strategy.next_order(copy.as_deref().unwrap_or(table), &mut self.order);
        self.started += 1;
        Ok(setup)
    }

    /// The one loop over the fills of the epoch [`EpochStream::start`]
    /// began, read through `scan`: each placed in `out` and handed to
    /// `emit`, which leaves a buffer behind to fill next (`false` ends the
    /// epoch); a ranked fill may go part-copied once `waiting`. Leaves each
    /// fill slot's simulated loading seconds in `fill_io`: its reads, plus
    /// its buffering when ranked (a ranked fill's rows and bytes, or a
    /// [`Rank::Picks`] cut's bytes, priced by the device's clock).
    ///
    /// A plain fill reads the next window of `fill_blocks` blocks; a window
    /// the scan admits no row of merges into the next. In stored order each
    /// window keeps its own slot, its read's seconds; a ranked fill is one
    /// slot, and the reads of windows emptied at the end of the epoch take
    /// the epoch's last slot, with no rows. Every fill's stored features are
    /// counted. A dealt
    /// order ([`Deal`]) reads fill `k` through [`ScanStep::read_apart`] into
    /// slot `k`; the stream takes `share` rows per worker per round, handing
    /// over before a round needs a fill not yet built, in the slot of the
    /// newest fill any worker has reached (fill `k` is worker `k mod
    /// workers`'s `k / workers`).
    pub fn fill_epoch<T: ScanStep>(
        &mut self,
        scan: &mut T,
        out: &mut Fill,
        waiting: &dyn Fn() -> bool,
        fill_io: &mut Vec<f64>,
        mut emit: impl FnMut(&mut Fill) -> bool,
    ) -> Result<(), T::Error> {
        let copy = self.strategy.copy();
        let (table, order) = (copy.as_deref().unwrap_or(self.table), &self.order);
        let tel = scan.device(|dev| dev.telemetry().clone());
        fill_io.clear();
        fill_io.reserve(order.fills().max(order.cuts.len()));
        let Some(Deal { workers, share }) = order.deal else {
            let (fills, mut next, mut scanned) = (order.fills(), 0, RowBatch::default());
            while next < fills.max(order.cuts.len()) {
                let before = scan.seconds();
                if order.rank == Rank::Picks {
                    let k = next;
                    next += 1;
                    for i in order.reads(k) {
                        scan.read_at(table, order, i, &mut scanned)?;
                    }
                    scan.device(|d| d.buffer(0, order.cuts[k].1));
                    out.batch.clear();
                    let picked = order.picks(k).iter().map(|&at| scanned.rows[at as usize]);
                    picked.for_each(|r| out.batch.push_from(&scanned, r));
                    fill_io.push(scan.seconds() - before);
                } else {
                    let stage = |staged: &mut RowBatch| -> Result<bool, T::Error> {
                        let at = scan.seconds();
                        for i in order.reads(next) {
                            scan.read_at(table, order, i, staged)?;
                        }
                        if order.rank == Rank::Stored {
                            fill_io.push(scan.seconds() - at);
                        }
                        next += 1;
                        Ok(next < fills)
                    };
                    let filler = &mut self.filler;
                    let placed = filler.fill(&tel, order.rank, stage, waiting, &mut out.batch)?;
                    let Some(mut placed) = placed else {
                        // Windows the scan emptied at the epoch's end: their
                        // reads follow its last fill, in a slot of their own.
                        if order.rank != Rank::Stored {
                            fill_io.push(scan.seconds() - before);
                        }
                        break;
                    };
                    if order.rank != Rank::Stored {
                        scan.device(|d| d.buffer(placed.rows, placed.bytes));
                        fill_io.push(scan.seconds() - before);
                        placed.span.add_sim_seconds(scan.seconds() - before);
                    }
                }
                (out.slot, out.sim_seconds) = (fill_io.len() - 1, scan.seconds() - before);
                out.features = out.batch.features();
                scan.placed(out);
                if !emit(out) {
                    break;
                }
            }
            return Ok(());
        };
        fill_io.resize(order.fills(), 0.0);
        // Per worker: its rows not yet streamed (from `at` on), and the next
        // fill it owns.
        let mut queued: Vec<(RowBatch, usize, usize)> =
            (0..workers).map(|w| (RowBatch::default(), 0, w)).collect();
        let (mut built, mut spare, mut slot) = (RowBatch::default(), RowBatch::default(), 0);
        out.batch.clear();
        out.sim_seconds = 0.0;
        loop {
            let (before, mut short) = (out.batch.len(), false);
            for (rows, at, next) in &mut queued {
                while rows.len() - *at < share && *next < order.fills() {
                    let k = *next;
                    *next += workers;
                    let mut io = 0.0;
                    let stage = |staged: &mut RowBatch| -> Result<bool, T::Error> {
                        io = scan.read_apart(table, order, k, staged)?;
                        Ok(false)
                    };
                    let placed = self
                        .filler
                        .fill(&tel, order.rank, stage, || false, &mut built);
                    if let Some(mut placed) = placed? {
                        placed.span.add_sim_seconds(io);
                    }
                    (fill_io[k], slot) = (io, slot.max(k / workers));
                    out.sim_seconds = out.sim_seconds.max(io);
                    // What is left of the worker's rows, then the new fill's.
                    spare.clear();
                    let left = &rows.rows[*at..];
                    left.iter().for_each(|&r| spare.push_from(rows, r));
                    built.rows.iter().for_each(|&r| spare.push_from(&built, r));
                    std::mem::swap(rows, &mut spare);
                    *at = 0;
                }
                let take = share.min(rows.len() - *at);
                let taken = &rows.rows[*at..*at + take];
                taken.iter().for_each(|&r| out.batch.push_from(rows, r));
                *at += take;
                short |= rows.len() - *at < share;
            }
            out.slot = slot;
            // The last round with rows left every worker short, so it was
            // handed over: an empty round ends the epoch with nothing held.
            if out.batch.len() == before {
                return Ok(());
            }
            if short {
                out.features = out.batch.features();
                scan.placed(out);
                if !emit(out) {
                    return Ok(());
                }
                out.batch.clear();
                out.sim_seconds = 0.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corgipile_storage::Tuple;
    use std::sync::{Mutex, Weak};

    /// A fill's scan step.
    type Stage<'a> = &'a dyn Fn(&mut RowBatch) -> Result<bool, ()>;

    /// `rows` on heap pages, as a table lays them out.
    fn paginate(rows: impl IntoIterator<Item = Tuple>) -> Vec<Arc<Page>> {
        let mut pages = vec![Page::new()];
        for t in rows {
            if !pages.last().unwrap().fits(t.encoded_len()) {
                pages.push(Page::new());
            }
            pages.last_mut().unwrap().push(t.view()).unwrap();
        }
        pages.into_iter().map(Arc::new).collect()
    }

    /// One key-ranked fill of what `stage` admits into `out`, the kernel
    /// lane waiting from the look after the `k`-th run on. Returns the looks.
    fn fill(
        tel: &Telemetry,
        stage: impl FnMut(&mut RowBatch) -> Result<bool, ()>,
        k: usize,
        out: &mut RowBatch,
    ) -> usize {
        let mut looks = 0;
        let waiting = || {
            looks += 1;
            looks > k
        };
        let placed = Filler::new("t").fill(tel, Rank::Key(7), stage, waiting, out);
        assert!(placed.unwrap().is_some());
        looks
    }

    #[test]
    fn the_hand_off_point_is_invisible_once_the_fill_is_settled() {
        let dense = |id: u64, width: usize| {
            let values = (0..width)
                .map(|j| (id as usize * width + j) as f32)
                .collect();
            Tuple::dense(id, values, if id.is_multiple_of(3) { 1.0 } else { -1.0 })
        };
        let table = paginate((0..3000).map(|id| dense(id, 28)));
        let mixed = paginate((0..4000).map(|id| match id % 4 {
            0 => Tuple::sparse(id, 90, vec![1, 7, 40], vec![0.5, id as f32, -2.0], 1.0),
            1 => dense(id, 5),
            _ => dense(id, 3),
        }));
        // The projected case builds its pages afresh in every stage, as a
        // projection does: only the staged batch holds them.
        let projected = Mutex::new(Vec::new());
        let stage_table = |b: &mut RowBatch| {
            table.iter().for_each(|p| b.push_page(p, |_, _| true));
            Ok(false)
        };
        let stage_mixed = |b: &mut RowBatch| {
            mixed.iter().for_each(|p| b.push_page(p, |_, s| s % 5 != 4));
            Ok(false)
        };
        let stage_projected = |b: &mut RowBatch| {
            let pages = paginate((0..2500).map(|id| dense(id, 3)));
            *projected.lock().unwrap() = pages.iter().map(Arc::downgrade).collect();
            pages.iter().for_each(|p| b.push_page(p, |_, s| s % 3 != 1));
            Ok(false)
        };
        let cases: [(&str, Stage); 3] = [
            ("dense", &stage_table),
            ("projected", &stage_projected),
            ("mixed", &stage_mixed),
        ];
        for (case, stage) in cases {
            let tel = Telemetry::enabled();
            let mut whole = RowBatch::default();
            fill(&tel, stage, usize::MAX, &mut whole);
            let runs = whole.len().div_ceil(GATHER_ROWS);
            assert!(runs >= 2, "{case}: {} rows", whole.len());
            for k in 0..=runs {
                let mut out = RowBatch::default();
                let looks = fill(&tel, stage, k, &mut out);
                assert_eq!(looks, (k + 1).min(runs), "{case}: k = {k}");
                assert_eq!(out.pending, (k < runs).then_some(k * GATHER_ROWS));
                assert_eq!(
                    Arc::strong_count(&table[0]),
                    1 + usize::from(case == "dense" && k < runs)
                );
                out.settle();
                let dropped = projected
                    .lock()
                    .unwrap()
                    .iter()
                    .all(|p: &Weak<Page>| p.upgrade().is_none());
                assert!(dropped, "{case}: k = {k}");
                assert_eq!(Arc::strong_count(&table[0]), 1, "{case}: k = {k}");
                assert_eq!(out.pages().len(), 1, "{case}: k = {k}");
                assert!(*out.pages()[0] == *whole.pages()[0], "{case}: k = {k}");
                assert_eq!(out.refs(), whole.refs(), "{case}: k = {k}");
            }
            let settled = tel.histogram("t.settle.wall_seconds").count();
            assert_eq!(settled, runs as u64, "{case}: one settle per hand-off");
        }
    }
}
