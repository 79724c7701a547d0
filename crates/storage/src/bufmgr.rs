//! The buffer pool: PostgreSQL's `shared_buffers`, block-granular.
//!
//! The paper's integration "directly interacts with the buffer manager"
//! (§1, §6) and its experiments tune `shared_buffers` (§7.1.5) — a server
//! setting, so an engine owns exactly one of these, shared by every
//! connection through [`SharedBufferPool`](crate::SharedBufferPool). This pool
//! caches block handles above the device tier: a hit returns the cached
//! block with no device charge (shared-memory access); on a miss the
//! caller reads the block through the [`SimDevice`](crate::SimDevice)
//! (which itself models the OS page cache below) and offers it back for
//! admission with LRU eviction. [`PoolHandle`](crate::PoolHandle) is that
//! caller.

use crate::block::{BlockHandle, BlockId};
use corgipile_telemetry::{Counter, Telemetry};
use std::collections::HashMap;

/// Counters for buffer-pool behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferPoolStats {
    /// Block requests served from the pool.
    pub hits: u64,
    /// Block requests that went to storage.
    pub misses: u64,
    /// Blocks evicted to make room.
    pub evictions: u64,
}

struct Frame {
    block: BlockHandle,
    bytes: usize,
    stamp: u64,
}

/// Pre-resolved telemetry instruments mirroring [`BufferPoolStats`].
#[derive(Debug, Clone, Default)]
struct PoolMetrics {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

/// A block-granular LRU buffer pool keyed by `(table_id, block_id)`.
pub struct BufferPool {
    capacity_bytes: usize,
    used_bytes: usize,
    frames: HashMap<(u32, BlockId), Frame>,
    stamp: u64,
    stats: BufferPoolStats,
    metrics: PoolMetrics,
}

impl BufferPool {
    /// A pool holding up to `capacity_bytes` of blocks.
    pub fn new(capacity_bytes: usize) -> Self {
        BufferPool {
            capacity_bytes,
            used_bytes: 0,
            frames: HashMap::new(),
            stamp: 0,
            stats: BufferPoolStats::default(),
            metrics: PoolMetrics::default(),
        }
    }

    /// Mirror pool counters into `telemetry` (`storage.pool.*`) from now on.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.metrics = PoolMetrics {
            hits: telemetry.counter("storage.pool.hits"),
            misses: telemetry.counter("storage.pool.misses"),
            evictions: telemetry.counter("storage.pool.evictions"),
        };
    }

    /// Pool capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity_bytes
    }

    /// Bytes currently pinned by cached blocks.
    pub fn used(&self) -> usize {
        self.used_bytes
    }

    /// Counters.
    pub fn stats(&self) -> BufferPoolStats {
        self.stats
    }

    /// Whether a block is resident.
    pub fn contains(&self, table_id: u32, block: BlockId) -> bool {
        self.frames.contains_key(&(table_id, block))
    }

    /// Probe the pool for a block, recording a hit or miss. A hit returns
    /// the shared block handle and touches its LRU stamp; a miss returns
    /// `None` — the caller reads the block from storage and offers it back
    /// via [`BufferPool::admit_block`]. Splitting the probe from the admit
    /// lets shared-pool callers release the pool lock during the device
    /// read.
    pub fn lookup(&mut self, table_id: u32, block: BlockId) -> Option<BlockHandle> {
        self.stamp += 1;
        if let Some(frame) = self.frames.get_mut(&(table_id, block)) {
            frame.stamp = self.stamp;
            self.stats.hits += 1;
            self.metrics.hits.inc();
            Some(frame.block.clone())
        } else {
            self.stats.misses += 1;
            self.metrics.misses.inc();
            None
        }
    }

    /// Offer a block read from storage for caching (LRU eviction applies;
    /// oversized blocks are served uncached). If another caller admitted
    /// the same block while this one was reading, the duplicate is a no-op.
    pub fn admit_block(
        &mut self,
        table_id: u32,
        block: BlockId,
        handle: BlockHandle,
        bytes: usize,
    ) {
        let key = (table_id, block);
        if bytes > self.capacity_bytes {
            return; // oversized block: serve uncached
        }
        if self.frames.contains_key(&key) {
            return; // concurrent duplicate admit: keep the resident frame
        }
        while self.used_bytes + bytes > self.capacity_bytes {
            let victim = self
                .frames
                .iter()
                .min_by_key(|(_, f)| f.stamp)
                .map(|(&k, f)| (k, f.bytes));
            match victim {
                Some((k, b)) => {
                    self.frames.remove(&k);
                    self.used_bytes -= b;
                    self.stats.evictions += 1;
                    self.metrics.evictions.inc();
                }
                None => return,
            }
        }
        self.stamp += 1;
        self.frames.insert(
            key,
            Frame {
                block: handle,
                bytes,
                stamp: self.stamp,
            },
        );
        self.used_bytes += bytes;
    }

    /// Drop all cached blocks (counters survive).
    pub fn clear(&mut self) {
        self.frames.clear();
        self.used_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Table, TableConfig};
    use crate::{Access, RetryPolicy, SimDevice, Tuple};

    fn table(id: u32, n: u64) -> Table {
        let cfg = TableConfig::new(format!("t{id}"), id).with_block_bytes(8192);
        Table::from_tuples(cfg, (0..n).map(|i| Tuple::dense(i, vec![i as f32; 8], 1.0))).unwrap()
    }

    /// A read through the pool, as [`crate::PoolHandle`] does it.
    fn read(pool: &mut BufferPool, t: &Table, block: BlockId, dev: &mut SimDevice) -> BlockHandle {
        let table_id = t.config().table_id;
        if let Some(hit) = pool.lookup(table_id, block) {
            return hit;
        }
        let handle = t
            .read(block, Access::Random, dev, &RetryPolicy::none())
            .unwrap();
        pool.admit_block(
            table_id,
            block,
            handle.clone(),
            t.block(block).unwrap().bytes,
        );
        handle
    }

    #[test]
    fn hit_skips_the_device() {
        let t = table(1, 400);
        let mut pool = BufferPool::new(1 << 20);
        let mut dev = SimDevice::hdd(0);
        let a = read(&mut pool, &t, 0, &mut dev);
        let io_after_miss = dev.stats().io_seconds;
        let b = read(&mut pool, &t, 0, &mut dev);
        assert_eq!(dev.stats().io_seconds, io_after_miss, "hit must be free");
        assert!(std::sync::Arc::ptr_eq(&a.pages()[0], &b.pages()[0]));
        assert_eq!(
            pool.stats(),
            BufferPoolStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
    }

    #[test]
    fn lru_eviction_under_pressure() {
        let t = table(1, 400); // several 8KB blocks
        let mut pool = BufferPool::new(2 * 8192 + 100);
        let mut dev = SimDevice::hdd(0);
        read(&mut pool, &t, 0, &mut dev);
        read(&mut pool, &t, 1, &mut dev);
        read(&mut pool, &t, 0, &mut dev); // touch 0
        read(&mut pool, &t, 2, &mut dev); // evicts 1
        assert!(pool.contains(1, 0));
        assert!(!pool.contains(1, 1));
        assert!(pool.contains(1, 2));
        assert_eq!(pool.stats().evictions, 1);
        assert!(pool.used() <= pool.capacity());
    }

    #[test]
    fn tables_are_isolated_by_id() {
        let t1 = table(1, 100);
        let t2 = table(2, 100);
        let mut pool = BufferPool::new(1 << 20);
        let mut dev = SimDevice::hdd(0);
        read(&mut pool, &t1, 0, &mut dev);
        assert!(pool.contains(1, 0));
        assert!(!pool.contains(2, 0));
        read(&mut pool, &t2, 0, &mut dev);
        assert_eq!(pool.stats().misses, 2);
    }

    #[test]
    fn oversized_block_bypasses_pool() {
        let t = table(1, 100);
        let mut pool = BufferPool::new(10); // smaller than any block
        let mut dev = SimDevice::hdd(0);
        read(&mut pool, &t, 0, &mut dev);
        assert!(!pool.contains(1, 0));
        assert_eq!(pool.used(), 0);
    }

    #[test]
    fn telemetry_mirrors_pool_counters() {
        let t = table(1, 400);
        let tel = Telemetry::enabled();
        let mut pool = BufferPool::new(2 * 8192 + 100);
        pool.set_telemetry(&tel);
        let mut dev = SimDevice::hdd(0);
        read(&mut pool, &t, 0, &mut dev);
        read(&mut pool, &t, 0, &mut dev);
        read(&mut pool, &t, 1, &mut dev);
        read(&mut pool, &t, 2, &mut dev); // evicts
        assert_eq!(tel.counter("storage.pool.hits").get(), pool.stats().hits);
        assert_eq!(
            tel.counter("storage.pool.misses").get(),
            pool.stats().misses
        );
        assert_eq!(
            tel.counter("storage.pool.evictions").get(),
            pool.stats().evictions
        );
        assert!(pool.stats().evictions > 0);
    }

    #[test]
    fn clear_keeps_counters() {
        let t = table(1, 100);
        let mut pool = BufferPool::new(1 << 20);
        let mut dev = SimDevice::hdd(0);
        read(&mut pool, &t, 0, &mut dev);
        pool.clear();
        assert!(!pool.contains(1, 0));
        assert_eq!(pool.stats().misses, 1);
        assert_eq!(pool.used(), 0);
    }
}
