//! Multi-process CorgiPile (§5): per-worker block partitions, per-worker
//! tuple buffers, and AllReduce-style synchronous gradient averaging.
//!
//! The paper's PyTorch DDP integration works as follows (Figure 5):
//!
//! 1. every process shuffles the *same* block permutation (shared seed) and
//!    splits it into `PN` parts, taking part `i`;
//! 2. each process fills a local buffer of `n/PN` blocks and shuffles the
//!    buffered tuples;
//! 3. each mini-batch step consumes `batch/PN` tuples per process, computes
//!    local gradients, AllReduces (averages) them, and updates every
//!    replica identically.
//!
//! Synchronous data parallelism makes the merged execution equivalent to
//! mini-batch SGD over the *interleaved* global stream, which is what
//! [`parallel_epoch_plan`] constructs; [`train_parallel`] then runs real
//! worker threads that compute partial gradients concurrently and average
//! them — a faithful single-machine analogue of DDP's AllReduce.
//!
//! ## Work stealing
//!
//! The preferred execution path is the [`StealingExecutor`]: a small
//! persistent thread pool with crossbeam-style deques (a global injector
//! plus per-thread worker queues idle threads steal from). Epoch fills are
//! decomposed into *block-granular tasks* — one task per (worker, buffer
//! chunk) — that any idle SGD worker can steal, and each AllReduce step's
//! partial-gradient chunks run as priority tasks on the same pool. Because
//! every fill derives its RNG from `(seed, worker, fill, epoch)` and its
//! simulated device charge from a fresh per-fill device, the global batch
//! stream is *identical* no matter which thread runs which fill:
//! [`train_parallel_stealing`] is bit-identical to [`train_parallel`] over
//! [`parallel_epoch_plan`]'s `merged_batches` while eliminating both the
//! serial fill phase and the per-batch thread spawns of the fixed
//! round-robin interleaver.

use corgipile_data::rng::shuffle_in_place;
use corgipile_ml::{Model, Optimizer};
use corgipile_storage::{SimDevice, Table, Tuple};
use crossbeam::deque::{Injector, Steal, Stealer, Worker as TaskQueue};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Configuration of multi-process CorgiPile.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelConfig {
    /// Number of processes (`PN`).
    pub workers: usize,
    /// Total buffer fraction across all workers (each gets `f/PN`, §5.1
    /// step 3).
    pub total_buffer_fraction: f64,
    /// Global batch size (each worker contributes `batch/PN`, §5.1 step 4).
    pub batch_size: usize,
    /// Shared seed (all workers must agree for the block split to work).
    pub seed: u64,
    /// Device scale factor for the per-worker loaders (see
    /// `DeviceProfile::hdd_scaled`); 1.0 = unscaled HDD.
    pub device_scale: f64,
    /// OS-cache bytes available to each worker's loader.
    pub cache_bytes: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            workers: 4,
            total_buffer_fraction: 0.10,
            batch_size: 64,
            seed: 0xDD9,
            device_scale: 1.0,
            cache_bytes: 0,
        }
    }
}

/// The materialized order of one multi-process epoch.
#[derive(Debug, Clone)]
pub struct ParallelEpoch {
    /// Per-worker shuffled streams (what each process's loader yields).
    pub worker_streams: Vec<Vec<Tuple>>,
    /// Global mini-batches after interleaving `batch/PN` tuples per worker.
    pub merged_batches: Vec<Vec<Tuple>>,
    /// Simulated loading seconds, max across workers (they load in
    /// parallel).
    pub io_seconds: f64,
}

/// Shared-seed block permutation split into `PN` contiguous parts plus the
/// per-worker buffer size in blocks (§5.1 steps 1–3). Every caller — serial
/// plan or pipelined producers — derives the same parts from the same seed.
fn worker_block_parts(
    table: &Table,
    cfg: &ParallelConfig,
    epoch: usize,
) -> (Vec<Vec<usize>>, usize) {
    assert!(cfg.workers >= 1, "need at least one worker");
    let pn = cfg.workers;
    let mut shared =
        StdRng::seed_from_u64(cfg.seed ^ (epoch as u64).wrapping_mul(0x9E3779B97F4A7C15));
    let mut order: Vec<usize> = (0..table.num_blocks()).collect();
    shuffle_in_place(&mut shared, &mut order);
    let per = order.len().div_ceil(pn);
    let parts = (0..pn)
        .map(|w| {
            if w * per < order.len() {
                order[w * per..((w + 1) * per).min(order.len())].to_vec()
            } else {
                Vec::new()
            }
        })
        .collect();
    let n_total =
        ((table.num_blocks() as f64 * cfg.total_buffer_fraction).round() as usize).max(pn);
    (parts, (n_total / pn).max(1))
}

/// Worker `w`'s tuple-shuffle RNG for its `fill`-th buffer of `epoch`.
///
/// Seeding per `(worker, fill, epoch)` makes every fill a self-contained
/// task: the serial plan, the per-worker pipelines and the work-stealing
/// executor all derive the identical tuple stream regardless of which
/// thread runs which fill, or in what order.
fn fill_rng(cfg: &ParallelConfig, w: usize, fill: usize, epoch: usize) -> StdRng {
    StdRng::seed_from_u64(
        cfg.seed ^ 0x70_u64 ^ ((w as u64) << 8) ^ ((fill as u64) << 24) ^ epoch as u64,
    )
}

/// The simulated loader device for one fill. Each fill charges a fresh
/// device pass (its first block pays the seek): a fill is an independent
/// task, so its I/O cost must not depend on which fills ran before it on
/// the same OS thread.
fn fill_device(cfg: &ParallelConfig) -> SimDevice {
    SimDevice::hdd_scaled(cfg.device_scale.max(1.0), cfg.cache_bytes)
}

/// Read one buffer's worth of blocks and Fisher–Yates-shuffle the tuples —
/// the single fill code path shared by the serial and pipelined variants.
fn fill_worker_buffer(
    table: &Table,
    chunk: &[usize],
    rng: &mut StdRng,
    dev: &mut SimDevice,
) -> Vec<Tuple> {
    let mut buf: Vec<Tuple> = Vec::new();
    for &b in chunk {
        buf.extend(table.read_block(b, dev).expect("block in range"));
    }
    for i in (1..buf.len()).rev() {
        let j = rng.gen_range(0..=i);
        buf.swap(i, j);
    }
    buf
}

/// Build one epoch's multi-process plan.
pub fn parallel_epoch_plan(table: &Table, cfg: &ParallelConfig, epoch: usize) -> ParallelEpoch {
    let pn = cfg.workers;
    let (parts, n_local) = worker_block_parts(table, cfg, epoch);
    let mut worker_streams = Vec::with_capacity(pn);
    let mut io_seconds: f64 = 0.0;
    for (w, part) in parts.iter().enumerate() {
        let mut stream = Vec::new();
        let mut worker_io = 0.0f64;
        for (fill, chunk) in part.chunks(n_local).enumerate() {
            let mut rng = fill_rng(cfg, w, fill, epoch);
            let mut dev = fill_device(cfg);
            stream.extend(fill_worker_buffer(table, chunk, &mut rng, &mut dev));
            worker_io += dev.stats().io_seconds;
        }
        io_seconds = io_seconds.max(worker_io);
        worker_streams.push(stream);
    }

    // Interleave batch/PN per worker into global batches.
    let share = (cfg.batch_size / pn).max(1);
    let mut cursors = vec![0usize; pn];
    let mut merged_batches = Vec::new();
    loop {
        let mut batch = Vec::with_capacity(share * pn);
        let mut any = false;
        for w in 0..pn {
            let s = &worker_streams[w];
            let take = share.min(s.len().saturating_sub(cursors[w]));
            if take > 0 {
                batch.extend_from_slice(&s[cursors[w]..cursors[w] + take]);
                cursors[w] += take;
                any = true;
            }
        }
        if !any {
            break;
        }
        merged_batches.push(batch);
    }
    ParallelEpoch {
        worker_streams,
        merged_batches,
        io_seconds,
    }
}

/// Synchronous data-parallel mini-batch step over `batches`: each batch is
/// split across `workers` real threads computing partial gradient sums
/// against a shared read-only model snapshot; the main thread averages
/// (AllReduce) and applies the optimizer step.
///
/// Returns the mean pre-update loss across the epoch.
pub fn train_parallel(
    model: &mut dyn Model,
    opt: &mut dyn Optimizer,
    batches: &[Vec<Tuple>],
    workers: usize,
) -> f64 {
    assert!(workers >= 1);
    let nparams = model.num_params();
    let mut loss_sum = 0.0f64;
    let mut examples = 0usize;
    for batch in batches {
        if batch.is_empty() {
            continue;
        }
        let chunk = batch.len().div_ceil(workers);
        let grads: Vec<(Vec<f32>, f64)> = crossbeam::thread::scope(|scope| {
            let model_ref: &dyn Model = &*model;
            let handles: Vec<_> = batch
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move |_| {
                        let mut g = vec![0.0f32; nparams];
                        let mut l = 0.0f64;
                        for t in part {
                            l += model_ref.loss(&t.features, t.label);
                            model_ref.grad(&t.features, t.label, &mut g);
                        }
                        (g, l)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        })
        .expect("thread scope");

        // AllReduce: sum partial gradients, average over the global batch.
        let mut total = vec![0.0f32; nparams];
        for (g, l) in grads {
            for (t, gi) in total.iter_mut().zip(&g) {
                *t += gi;
            }
            loss_sum += l;
        }
        let scale = 1.0 / batch.len() as f32;
        for t in total.iter_mut() {
            *t *= scale;
        }
        opt.step(model.params_mut(), &total);
        examples += batch.len();
    }
    if examples > 0 {
        loss_sum / examples as f64
    } else {
        0.0
    }
}

// --------------------------------------------------------------------------
// Work-stealing executor
// --------------------------------------------------------------------------

type Task = Box<dyn FnOnce() + Send + 'static>;

struct ExecShared {
    /// Priority queue for AllReduce gradient chunks: always served before
    /// fills, so a batch step waiting on its partials is never stuck
    /// behind a backlog of queued block reads.
    hot: Injector<Task>,
    /// Block-granular fill tasks.
    fills: Injector<Task>,
    /// Handles onto every thread's local queue, for stealing.
    stealers: Vec<Stealer<Task>>,
    sleep: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
}

fn find_task(local: &TaskQueue<Task>, shared: &ExecShared) -> Option<Task> {
    loop {
        match shared.hot.steal() {
            Steal::Success(t) => return Some(t),
            Steal::Empty => break,
            Steal::Retry => continue,
        }
    }
    if let Some(t) = local.pop() {
        return Some(t);
    }
    loop {
        match shared.fills.steal_batch_and_pop(local) {
            Steal::Success(t) => return Some(t),
            Steal::Empty => break,
            Steal::Retry => continue,
        }
    }
    for stealer in &shared.stealers {
        loop {
            match stealer.steal() {
                Steal::Success(t) => return Some(t),
                Steal::Empty => break,
                Steal::Retry => continue,
            }
        }
    }
    None
}

fn worker_loop(local: TaskQueue<Task>, shared: Arc<ExecShared>) {
    loop {
        match find_task(&local, &shared) {
            Some(task) => task(),
            None => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                let guard = lock(&shared.sleep);
                // Re-check under the lock so a submission between the failed
                // find and this wait cannot be missed; the timeout is a
                // belt-and-braces fallback for stolen-then-requeued work.
                if shared.hot.is_empty()
                    && shared.fills.is_empty()
                    && !shared.shutdown.load(Ordering::Acquire)
                {
                    let _ = shared.wake.wait_timeout(guard, Duration::from_millis(1));
                }
            }
        }
    }
}

struct ScopeState {
    spawned: AtomicUsize,
    completed: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// A small persistent work-stealing executor: one OS thread per SGD
/// worker, crossbeam-style deques underneath ([`Injector`]s for
/// submission, per-thread [`TaskQueue`]s idle threads steal from).
///
/// Unlike the per-batch `thread::scope` of [`train_parallel`], the pool is
/// built once and reused across every batch and epoch — submission is a
/// queue push instead of a thread spawn — and a thread that finishes its
/// own work steals someone else's instead of idling at a barrier.
pub struct StealingExecutor {
    shared: Arc<ExecShared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl StealingExecutor {
    /// A pool of `threads` persistent worker threads (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let locals: Vec<TaskQueue<Task>> = (0..threads).map(|_| TaskQueue::new_fifo()).collect();
        let stealers = locals.iter().map(|q| q.stealer()).collect();
        let shared = Arc::new(ExecShared {
            hot: Injector::new(),
            fills: Injector::new(),
            stealers,
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let threads = locals
            .into_iter()
            .enumerate()
            .map(|(i, local)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("corgi-steal-{i}"))
                    .spawn(move || worker_loop(local, shared))
                    .expect("spawn executor thread")
            })
            .collect();
        StealingExecutor { shared, threads }
    }

    /// Number of pool threads.
    pub fn workers(&self) -> usize {
        self.threads.len()
    }

    /// Run `f` with a scope whose spawned tasks may borrow from the
    /// enclosing stack frame; every task is guaranteed to have finished
    /// before `scope` returns (a panicking task re-panics here).
    pub fn scope<'env, R>(&self, f: impl FnOnce(&StealScope<'_, 'env>) -> R) -> R {
        let scope = StealScope {
            exec: self,
            state: Arc::new(ScopeState {
                spawned: AtomicUsize::new(0),
                completed: Mutex::new(0),
                done: Condvar::new(),
                panic: Mutex::new(None),
            }),
            _env: std::marker::PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        scope.wait_all();
        if let Some(payload) = lock(&scope.state.panic).take() {
            resume_unwind(payload);
        }
        match result {
            Ok(r) => r,
            Err(payload) => resume_unwind(payload),
        }
    }
}

impl Drop for StealingExecutor {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _guard = lock(&self.shared.sleep);
            self.shared.wake.notify_all();
        }
        for handle in self.threads.drain(..) {
            handle.join().expect("executor thread panicked");
        }
    }
}

/// Scope handle for [`StealingExecutor::scope`]: spawn borrows-allowed
/// tasks onto the shared pool.
pub struct StealScope<'exec, 'env> {
    exec: &'exec StealingExecutor,
    state: Arc<ScopeState>,
    // 'env invariant: a longer-lived scope must not coerce to a
    // shorter-lived one, or tasks could capture borrows that end before
    // the pool runs them.
    _env: std::marker::PhantomData<fn(&'env ()) -> &'env ()>,
}

impl<'env> StealScope<'_, 'env> {
    /// Spawn a fill-priority task (served after any queued gradient work).
    pub fn spawn<F: FnOnce() + Send + 'env>(&self, f: F) {
        self.submit(Box::new(f), false);
    }

    /// Spawn a priority task (gradient chunks: served before fills).
    pub fn spawn_hot<F: FnOnce() + Send + 'env>(&self, f: F) {
        self.submit(Box::new(f), true);
    }

    fn submit(&self, f: Box<dyn FnOnce() + Send + 'env>, hot: bool) {
        self.state.spawned.fetch_add(1, Ordering::SeqCst);
        let state = Arc::clone(&self.state);
        let wrapped: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                lock(&state.panic).get_or_insert(payload);
            }
            // The completion count is bumped only after the task closure —
            // and with it every borrow it captured — has been dropped.
            let mut done = lock(&state.completed);
            *done += 1;
            state.done.notify_all();
        });
        // SAFETY: `scope` blocks in `wait_all` until the completion count
        // reaches the spawn count, and the count is bumped strictly after
        // the closure (with all its captures) is dropped, so nothing
        // borrowed for 'env is reachable once `scope` returns. 'env is
        // invariant on the scope handle, preventing lifetime shortening.
        let wrapped: Task =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Task>(wrapped) };
        let shared = &self.exec.shared;
        if hot {
            shared.hot.push(wrapped);
        } else {
            shared.fills.push(wrapped);
        }
        let _guard = lock(&shared.sleep);
        shared.wake.notify_all();
    }

    fn wait_all(&self) {
        // No task can spawn further tasks, so once the scope closure has
        // returned the spawn count is final.
        let target = self.state.spawned.load(Ordering::SeqCst);
        loop {
            if *lock(&self.state.completed) >= target {
                return;
            }
            // Help with queued priority work instead of just parking.
            if let Steal::Success(task) = self.exec.shared.hot.steal() {
                task();
                continue;
            }
            let done = lock(&self.state.completed);
            if *done >= target {
                return;
            }
            let _ = self
                .state
                .done
                .wait_timeout(done, Duration::from_micros(200));
        }
    }
}

// --------------------------------------------------------------------------
// Stealing epoch + training
// --------------------------------------------------------------------------

/// Stream one epoch through the work-stealing executor.
///
/// Every fill — one task per (worker, buffer chunk) — is pushed onto the
/// pool as a block-granular task any idle thread can steal; the caller
/// interleaves completed fills into exactly the global batch order of
/// [`parallel_epoch_plan`] (fills carry their `(worker, fill)` index, so
/// out-of-order completion cannot reorder the stream) and hands each
/// batch to `consume`. Returns the simulated loading seconds (max across
/// workers, as §5's processes load in parallel).
pub fn parallel_epoch_stealing<F: FnMut(Vec<Tuple>)>(
    table: &Table,
    cfg: &ParallelConfig,
    epoch: usize,
    exec: &StealingExecutor,
    mut consume: F,
) -> f64 {
    let pn = cfg.workers;
    let (parts, n_local) = worker_block_parts(table, cfg, epoch);
    let fills_per_worker: Vec<usize> = parts.iter().map(|p| p.chunks(n_local).count()).collect();
    let (tx, rx) = mpsc::channel::<(usize, usize, Vec<Tuple>, f64)>();
    exec.scope(|scope| {
        for (w, part) in parts.iter().enumerate() {
            for (fill, chunk) in part.chunks(n_local).enumerate() {
                let tx = tx.clone();
                scope.spawn(move || {
                    let mut rng = fill_rng(cfg, w, fill, epoch);
                    let mut dev = fill_device(cfg);
                    let buf = fill_worker_buffer(table, chunk, &mut rng, &mut dev);
                    let io = dev.stats().io_seconds;
                    let _ = tx.send((w, fill, buf, io));
                });
            }
        }
        drop(tx);

        // Round-robin merge, identical to the materialized plan's: batch/PN
        // tuples per worker per round, each worker's fills consumed in fill
        // order (late arrivals are stashed until their index comes up).
        let share = (cfg.batch_size / pn).max(1);
        let mut pending: Vec<VecDeque<Tuple>> = (0..pn).map(|_| VecDeque::new()).collect();
        let mut stash: Vec<BTreeMap<usize, Vec<Tuple>>> =
            (0..pn).map(|_| BTreeMap::new()).collect();
        let mut next_fill = vec![0usize; pn];
        let mut io_per_worker = vec![0.0f64; pn];
        loop {
            let mut batch = Vec::with_capacity(share * pn);
            let mut any = false;
            for w in 0..pn {
                while pending[w].len() < share && next_fill[w] < fills_per_worker[w] {
                    match stash[w].remove(&next_fill[w]) {
                        Some(buf) => {
                            pending[w].extend(buf);
                            next_fill[w] += 1;
                        }
                        None => match rx.recv() {
                            Ok((rw, rf, buf, io)) => {
                                io_per_worker[rw] += io;
                                stash[rw].insert(rf, buf);
                            }
                            // Disconnected with the needed fill missing:
                            // a fill task panicked. Stop merging; the
                            // scope re-raises the panic on exit.
                            Err(_) => break,
                        },
                    }
                }
                let take = share.min(pending[w].len());
                if take > 0 {
                    batch.extend(pending[w].drain(..take));
                    any = true;
                }
            }
            if !any {
                break;
            }
            consume(batch);
        }
        io_per_worker.iter().fold(0.0f64, |acc, &io| acc.max(io))
    })
}

/// One epoch of synchronous data-parallel training on the work-stealing
/// executor: fills stream through [`parallel_epoch_stealing`] while each
/// global batch's partial-gradient chunks run as priority tasks on the
/// same pool — idle SGD workers steal outstanding fills between batches.
///
/// Bit-identical to [`train_parallel`] over [`parallel_epoch_plan`]'s
/// `merged_batches`: the batch stream is the same, the per-batch chunking
/// is the same, and partial gradients are reduced in chunk order, so every
/// floating-point operation happens in the same sequence.
///
/// Returns `(mean pre-update loss, simulated loading seconds)`.
pub fn train_parallel_stealing(
    model: &mut dyn Model,
    opt: &mut dyn Optimizer,
    table: &Table,
    cfg: &ParallelConfig,
    epoch: usize,
    exec: &StealingExecutor,
) -> (f64, f64) {
    let workers = cfg.workers;
    let nparams = model.num_params();
    let mut loss_sum = 0.0f64;
    let mut examples = 0usize;
    let io_seconds = parallel_epoch_stealing(table, cfg, epoch, exec, |batch| {
        if batch.is_empty() {
            return;
        }
        let chunk = batch.len().div_ceil(workers);
        let nchunks = batch.len().div_ceil(chunk);
        let mut partials: Vec<Option<(Vec<f32>, f64)>> = Vec::with_capacity(nchunks);
        partials.resize_with(nchunks, || None);
        {
            let model_ref: &dyn Model = &*model;
            exec.scope(|scope| {
                for (part, slot) in batch.chunks(chunk).zip(partials.iter_mut()) {
                    scope.spawn_hot(move || {
                        let mut g = vec![0.0f32; nparams];
                        let mut l = 0.0f64;
                        for t in part {
                            l += model_ref.loss(&t.features, t.label);
                            model_ref.grad(&t.features, t.label, &mut g);
                        }
                        *slot = Some((g, l));
                    });
                }
            });
        }
        // AllReduce in chunk order — the same op sequence as the fixed
        // interleaver's join-in-spawn-order loop.
        let mut total = vec![0.0f32; nparams];
        let mut batch_loss = 0.0f64;
        for partial in partials {
            let (g, l) = partial.expect("every chunk task fills its slot");
            for (t, gi) in total.iter_mut().zip(&g) {
                *t += gi;
            }
            batch_loss += l;
        }
        let scale = 1.0 / batch.len() as f32;
        for t in total.iter_mut() {
            *t *= scale;
        }
        opt.step(model.params_mut(), &total);
        loss_sum += batch_loss;
        examples += batch.len();
    });
    (
        if examples > 0 {
            loss_sum / examples as f64
        } else {
            0.0
        },
        io_seconds,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use corgipile_data::{DatasetSpec, Order};
    use corgipile_ml::{build_model, ModelKind, Sgd};

    fn clustered(n: usize) -> Table {
        DatasetSpec::higgs_like(n)
            .with_order(Order::ClusteredByLabel)
            .with_block_bytes(2 * 8192)
            .build_table(1)
            .unwrap()
    }

    #[test]
    fn plan_partitions_all_tuples_across_workers() {
        let t = clustered(800);
        let cfg = ParallelConfig {
            workers: 4,
            ..Default::default()
        };
        let plan = parallel_epoch_plan(&t, &cfg, 0);
        assert_eq!(plan.worker_streams.len(), 4);
        let mut ids: Vec<u64> = plan
            .worker_streams
            .iter()
            .flat_map(|s| s.iter().map(|t| t.id))
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..800).collect::<Vec<_>>());
        // Merged batches cover the same multiset.
        let mut merged: Vec<u64> = plan
            .merged_batches
            .iter()
            .flat_map(|b| b.iter().map(|t| t.id))
            .collect();
        merged.sort_unstable();
        assert_eq!(merged, (0..800).collect::<Vec<_>>());
    }

    #[test]
    fn merged_batches_mix_labels_like_single_process_corgipile() {
        // The Figure-5 equivalence: global batches should mix labels about
        // as well as a single process with a PN×-sized buffer.
        let t = clustered(2000);
        let cfg = ParallelConfig {
            workers: 4,
            total_buffer_fraction: 0.2,
            batch_size: 100,
            seed: 5,
            ..Default::default()
        };
        let plan = parallel_epoch_plan(&t, &cfg, 0);
        let mut mixed = 0;
        let total = plan.merged_batches.len();
        for b in &plan.merged_batches {
            let pos = b.iter().filter(|t| t.label > 0.0).count();
            let frac = pos as f64 / b.len() as f64;
            if frac > 0.1 && frac < 0.9 {
                mixed += 1;
            }
        }
        assert!(mixed * 2 >= total, "only {mixed}/{total} batches mixed");
    }

    #[test]
    fn epochs_produce_fresh_orders() {
        let t = clustered(400);
        let cfg = ParallelConfig::default();
        let a: Vec<u64> = parallel_epoch_plan(&t, &cfg, 0)
            .merged_batches
            .concat()
            .iter()
            .map(|t| t.id)
            .collect();
        let b: Vec<u64> = parallel_epoch_plan(&t, &cfg, 1)
            .merged_batches
            .concat()
            .iter()
            .map(|t| t.id)
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn train_parallel_learns_clustered_data() {
        let spec = DatasetSpec::susy_like(2000)
            .with_order(Order::ClusteredByLabel)
            .with_block_bytes(8192);
        let ds = spec.build(2);
        let t = ds.to_table(1).unwrap();
        let cfg = ParallelConfig {
            workers: 4,
            total_buffer_fraction: 0.2,
            batch_size: 32,
            seed: 3,
            ..Default::default()
        };
        let mut model = build_model(&ModelKind::LogisticRegression, 18, 1);
        let mut opt = Sgd::new(0.5, 0.95);
        for e in 0..8 {
            opt.set_epoch(e);
            let plan = parallel_epoch_plan(&t, &cfg, e);
            train_parallel(model.as_mut(), &mut opt, &plan.merged_batches, 4);
        }
        let acc = corgipile_ml::accuracy(model.as_ref(), &ds.test);
        assert!(acc > 0.65, "parallel CorgiPile should learn: acc {acc}");
    }

    #[test]
    fn parallel_gradients_match_sequential_minibatch() {
        // One batch, 3 workers vs 1 worker: identical parameter updates.
        let t = clustered(300);
        let cfg = ParallelConfig {
            workers: 3,
            batch_size: 60,
            ..Default::default()
        };
        let plan = parallel_epoch_plan(&t, &cfg, 0);
        let batch = plan.merged_batches[0].clone();

        let mut m1 = build_model(&ModelKind::Svm, 28, 1);
        let mut m3 = build_model(&ModelKind::Svm, 28, 1);
        let mut o1 = Sgd::new(0.1, 1.0);
        let mut o3 = Sgd::new(0.1, 1.0);
        train_parallel(m1.as_mut(), &mut o1, std::slice::from_ref(&batch), 1);
        train_parallel(m3.as_mut(), &mut o3, std::slice::from_ref(&batch), 3);
        for (a, b) in m1.params().iter().zip(m3.params()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn single_worker_is_a_valid_degenerate_case() {
        let t = clustered(200);
        let cfg = ParallelConfig {
            workers: 1,
            batch_size: 32,
            ..Default::default()
        };
        let plan = parallel_epoch_plan(&t, &cfg, 0);
        assert_eq!(plan.worker_streams.len(), 1);
        let total: usize = plan.merged_batches.iter().map(|b| b.len()).sum();
        assert_eq!(total, 200);
    }

    #[test]
    fn executor_runs_borrowed_tasks_to_completion() {
        let exec = StealingExecutor::new(4);
        assert_eq!(exec.workers(), 4);
        let mut slots = vec![0u64; 64];
        exec.scope(|scope| {
            for (i, slot) in slots.iter_mut().enumerate() {
                if i % 2 == 0 {
                    scope.spawn(move || *slot = i as u64 + 1);
                } else {
                    scope.spawn_hot(move || *slot = i as u64 + 1);
                }
            }
        });
        assert_eq!(slots, (1..=64).collect::<Vec<u64>>());
    }

    #[test]
    fn executor_propagates_task_panics() {
        let exec = StealingExecutor::new(2);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            exec.scope(|scope| {
                scope.spawn(|| {});
                scope.spawn(|| panic!("task boom"));
            });
        }));
        assert!(
            caught.is_err(),
            "a panicking task must re-panic at the scope"
        );
        // The pool survives a panicked task.
        let mut x = 0;
        exec.scope(|scope| scope.spawn(|| x = 7));
        assert_eq!(x, 7);
    }

    #[test]
    fn stealing_epoch_preserves_merged_batch_order() {
        let t = clustered(900);
        let exec = StealingExecutor::new(4);
        for workers in [1usize, 3, 4] {
            let cfg = ParallelConfig {
                workers,
                batch_size: 48,
                seed: 9,
                ..Default::default()
            };
            for epoch in 0..2 {
                let plan = parallel_epoch_plan(&t, &cfg, epoch);
                let mut streamed: Vec<Vec<u64>> = Vec::new();
                let io = parallel_epoch_stealing(&t, &cfg, epoch, &exec, |batch| {
                    streamed.push(batch.iter().map(|t| t.id).collect());
                });
                let planned: Vec<Vec<u64>> = plan
                    .merged_batches
                    .iter()
                    .map(|b| b.iter().map(|t| t.id).collect())
                    .collect();
                assert_eq!(streamed, planned, "workers {workers} epoch {epoch}");
                assert!(
                    (io - plan.io_seconds).abs() < 1e-12,
                    "io accounting diverged"
                );
            }
        }
    }

    #[test]
    fn stealing_training_is_bit_identical_to_the_interleaver() {
        // The trainer-layer bit-identity assertion: the work-stealing path
        // must reproduce the fixed round-robin merge exactly.
        let t = clustered(600);
        for workers in [1usize, 3, 4] {
            let cfg = ParallelConfig {
                workers,
                batch_size: 30,
                seed: 4,
                total_buffer_fraction: 0.2,
                ..Default::default()
            };
            let exec = StealingExecutor::new(workers);
            let mut m_plan = build_model(&ModelKind::LogisticRegression, 28, 1);
            let mut m_steal = build_model(&ModelKind::LogisticRegression, 28, 1);
            let mut o_plan = Sgd::new(0.1, 0.95);
            let mut o_steal = Sgd::new(0.1, 0.95);
            for e in 0..3 {
                o_plan.set_epoch(e);
                o_steal.set_epoch(e);
                let plan = parallel_epoch_plan(&t, &cfg, e);
                train_parallel(m_plan.as_mut(), &mut o_plan, &plan.merged_batches, workers);
                let (loss, io) =
                    train_parallel_stealing(m_steal.as_mut(), &mut o_steal, &t, &cfg, e, &exec);
                assert!(loss.is_finite());
                assert!((io - plan.io_seconds).abs() < 1e-12);
            }
            assert_eq!(
                m_plan.params(),
                m_steal.params(),
                "work-stealing training must match the interleaver bit-for-bit \
                 (workers {workers})"
            );
        }
    }

    #[test]
    fn stealing_pool_size_does_not_affect_the_model() {
        // Determinism must not depend on how many OS threads execute the
        // tasks — only on the (worker, fill, epoch) decomposition.
        let t = clustered(500);
        let cfg = ParallelConfig {
            workers: 4,
            batch_size: 40,
            seed: 11,
            total_buffer_fraction: 0.25,
            ..Default::default()
        };
        let run = |threads: usize| {
            let exec = StealingExecutor::new(threads);
            let mut m = build_model(&ModelKind::Svm, 28, 1);
            let mut o = Sgd::new(0.1, 0.95);
            for e in 0..2 {
                o.set_epoch(e);
                train_parallel_stealing(m.as_mut(), &mut o, &t, &cfg, e, &exec);
            }
            m.params().to_vec()
        };
        assert_eq!(run(1), run(4));
        assert_eq!(run(4), run(8));
    }
}
