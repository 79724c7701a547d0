//! Interior-synchronized storage handles for a shared engine.
//!
//! The paper runs inside PostgreSQL, where many client backends share one
//! buffer manager and one storage device. This module provides that shape:
//! a [`SharedDevice`] / [`SharedBufferPool`] pair owns the engine-wide
//! [`SimDevice`] and [`BufferPool`] behind mutexes, and each connection
//! holds a lightweight [`DeviceHandle`] / [`PoolHandle`] through which all
//! of its I/O flows.
//!
//! Handles add the per-connection state a shared engine needs:
//!
//! * **Local statistics** — every access accumulates the device/pool stats
//!   delta it caused into the handle, so a session's `EXPLAIN ANALYZE` and
//!   fill accounting see only their own I/O while the engine totals keep
//!   aggregating underneath.
//! * **Per-connection fault plans** — a handle-held [`FaultInjector`] is
//!   swapped onto the device for the duration of each access and swapped
//!   back out after, so one session's injected faults never strike another
//!   session's reads.
//! * **Per-connection telemetry** — likewise, the handle's [`Telemetry`]
//!   registry is bound to the device for the duration of each access, so
//!   `storage.device.*` counters mirror into the session that caused them.
//!
//! Determinism note: the trained model depends only on the tuple stream
//! order (table contents + RNG seeds), never on device timing or cache
//! residency, so sessions sharing one device produce models bit-identical
//! to their serial counterparts — only the I/O clocks observe the sharing.

use crate::block::BlockHandle;
use crate::bufmgr::{BufferPool, BufferPoolStats};
use crate::clock::DeviceProfile;
use crate::device::{Access, BoundTelemetry, IoStats, SimDevice};
use crate::fault::{FaultInjector, FaultPlan};
use crate::retry::RetryPolicy;
use crate::table::Table;
use crate::Result;
use corgipile_telemetry::Telemetry;
use std::sync::{Arc, Mutex, MutexGuard};

pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A poisoned lock means another session panicked mid-access; the
    // device/pool state itself is a plain counter structure and stays
    // coherent, so keep serving the remaining sessions.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The engine-owned side of a shared [`SimDevice`]: cheap to clone, hands
/// out per-connection [`DeviceHandle`]s.
#[derive(Debug, Clone)]
pub struct SharedDevice {
    inner: Arc<Mutex<SimDevice>>,
}

impl SharedDevice {
    /// Wrap a device for sharing. The device's currently attached telemetry
    /// becomes the *resting* registry: it receives mirrors only for access
    /// made outside any handle.
    pub fn new(dev: SimDevice) -> Self {
        SharedDevice {
            inner: Arc::new(Mutex::new(dev)),
        }
    }

    /// A fresh connection handle. The handle starts with the device's
    /// resting telemetry, no fault plan, and zeroed local stats.
    pub fn handle(&self) -> DeviceHandle {
        let telemetry = BoundTelemetry::new(lock(&self.inner).telemetry().clone());
        DeviceHandle {
            inner: self.inner.clone(),
            injector: None,
            telemetry,
            local: IoStats::default(),
        }
    }

    /// Engine-wide statistics snapshot (all connections combined).
    pub fn stats(&self) -> IoStats {
        lock(&self.inner).stats().clone()
    }

    /// The device profile.
    pub fn profile(&self) -> DeviceProfile {
        lock(&self.inner).profile().clone()
    }
}

/// A per-connection view of a shared (or private) [`SimDevice`].
///
/// All device access goes through [`DeviceHandle::with`], which takes the
/// engine lock, installs this connection's fault injector and telemetry,
/// runs the access, and accumulates the stats delta into the handle's
/// local [`IoStats`].
#[derive(Debug)]
pub struct DeviceHandle {
    inner: Arc<Mutex<SimDevice>>,
    /// This connection's fault plan, installed on the device only for the
    /// duration of each access.
    injector: Option<FaultInjector>,
    /// This connection's telemetry registry, bound to the device only for
    /// the duration of each access (when it holds the device's resting one).
    telemetry: BoundTelemetry,
    /// I/O caused through this handle (deltas of the shared counters).
    local: IoStats,
}

impl DeviceHandle {
    /// Wrap an exclusively owned device (single-connection use: tests,
    /// tools). The handle inherits the device's attached telemetry.
    pub fn private(dev: SimDevice) -> Self {
        SharedDevice::new(dev).handle()
    }

    /// Run `f` against the device with this connection's fault plan and
    /// telemetry installed, accumulating the stats delta locally.
    pub fn with<R>(&mut self, f: impl FnOnce(&mut SimDevice) -> R) -> R {
        let mut dev = lock(&self.inner);
        let resting_injector = dev.clear_fault_injector();
        if let Some(inj) = self.injector.take() {
            dev.set_fault_injector(inj);
        }
        dev.swap_telemetry(&mut self.telemetry);
        let before = dev.stats().clone();
        let out = f(&mut dev);
        self.local.add_delta(&before, dev.stats());
        // Swap this connection's state back out; injector bookkeeping
        // (consumed transients etc.) survives in the handle.
        self.injector = dev.clear_fault_injector();
        if let Some(inj) = resting_injector {
            dev.set_fault_injector(inj);
        }
        dev.swap_telemetry(&mut self.telemetry);
        out
    }

    /// I/O caused through this handle.
    pub fn stats(&self) -> &IoStats {
        &self.local
    }

    /// The device profile.
    pub fn profile(&self) -> DeviceProfile {
        lock(&self.inner).profile().clone()
    }

    /// Install a fault plan for this connection only.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.injector = Some(FaultInjector::new(plan));
    }

    /// Install a fault injector for this connection only.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// This connection's fault injector, if any.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }

    /// Remove and return this connection's fault injector.
    pub fn clear_fault_injector(&mut self) -> Option<FaultInjector> {
        self.injector.take()
    }

    /// Bind this connection's telemetry registry; device counters caused
    /// through this handle mirror into it from now on.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = BoundTelemetry::new(telemetry);
    }

    /// The bound telemetry registry.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry.0
    }
}

/// The engine-owned side of a shared [`BufferPool`]: cheap to clone, hands
/// out per-connection [`PoolHandle`]s.
#[derive(Clone)]
pub struct SharedBufferPool {
    inner: Arc<Mutex<BufferPool>>,
}

impl SharedBufferPool {
    /// A shared pool of `capacity_bytes`.
    pub fn new(capacity_bytes: usize) -> Self {
        SharedBufferPool {
            inner: Arc::new(Mutex::new(BufferPool::new(capacity_bytes))),
        }
    }

    /// A fresh connection handle with zeroed local stats.
    pub fn handle(&self) -> PoolHandle {
        PoolHandle {
            inner: self.inner.clone(),
            local: BufferPoolStats::default(),
        }
    }

    /// Engine-wide pool statistics (all connections combined).
    pub fn stats(&self) -> BufferPoolStats {
        lock(&self.inner).stats()
    }

    /// Pool capacity in bytes.
    pub fn capacity(&self) -> usize {
        lock(&self.inner).capacity()
    }

    /// Mirror the pool's counters into `telemetry` (engine-level
    /// aggregation across every connection).
    pub fn set_telemetry(&self, telemetry: &Telemetry) {
        lock(&self.inner).set_telemetry(telemetry);
    }
}

/// A per-connection view of the engine's shared [`BufferPool`].
///
/// The pool lock is released while a miss reads through the device, so
/// concurrent sessions overlap their device reads; two sessions missing
/// the same block may both read it (the second admit is a no-op), exactly
/// like PostgreSQL backends racing on a buffer.
pub struct PoolHandle {
    inner: Arc<Mutex<BufferPool>>,
    local: BufferPoolStats,
}

impl PoolHandle {
    /// Fetch a block through the pool: hit → shared handle at zero device
    /// cost; miss → retried random block read through `dev` (pool lock
    /// released during the read), then admit.
    pub fn read_block_retry(
        &mut self,
        table: &Table,
        block: crate::block::BlockId,
        dev: &mut DeviceHandle,
        policy: &RetryPolicy,
    ) -> Result<BlockHandle> {
        let table_id = table.config().table_id;
        if let Some(hit) = lock(&self.inner).lookup(table_id, block) {
            self.local.hits += 1;
            return Ok(hit);
        }
        self.local.misses += 1;
        let handle = dev.with(|d| table.read(block, Access::Random, d, policy))?;
        let bytes = table.block(block)?.bytes;
        lock(&self.inner).admit_block(table_id, block, handle.clone(), bytes);
        Ok(handle)
    }

    /// Pool traffic caused through this handle (evictions are a global
    /// property and stay at zero here; see [`SharedBufferPool::stats`]).
    pub fn stats(&self) -> BufferPoolStats {
        self.local
    }

    /// Pool capacity in bytes.
    pub fn capacity(&self) -> usize {
        lock(&self.inner).capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableConfig;
    use crate::tuple::Tuple;

    fn table(id: u32, n: u64) -> Table {
        let cfg = TableConfig::new(format!("t{id}"), id).with_block_bytes(8192);
        Table::from_tuples(cfg, (0..n).map(|i| Tuple::dense(i, vec![i as f32; 8], 1.0))).unwrap()
    }

    #[test]
    fn handle_stats_are_local_engine_stats_are_global() {
        let shared = SharedDevice::new(SimDevice::hdd(0));
        let mut a = shared.handle();
        let mut b = shared.handle();
        a.with(|d| d.read(Some(1), 1000, Access::Random, None));
        b.with(|d| d.read(Some(2), 2000, Access::Random, None));
        b.with(|d| d.read(Some(3), 3000, Access::Random, None));
        assert_eq!(a.stats().device_bytes, 1000);
        assert_eq!(b.stats().device_bytes, 5000);
        assert_eq!(shared.stats().device_bytes, 6000);
        assert_eq!(shared.stats().random_reads, 3);
    }

    #[test]
    fn fault_plans_are_per_handle() {
        let t = table(3, 200);
        let shared = SharedDevice::new(SimDevice::hdd(0));
        let mut faulty = shared.handle();
        let mut clean = shared.handle();
        faulty.set_fault_plan(FaultPlan::new(1).with_permanent(3, 0));
        // The clean handle reads block 0 without seeing the other
        // connection's fault plan.
        let fail_fast = RetryPolicy::none();
        clean
            .with(|d| t.read(0, Access::Random, d, &fail_fast))
            .unwrap();
        let err = faulty.with(|d| t.read(0, Access::Random, d, &fail_fast));
        assert!(err.is_err(), "the faulty handle's own plan must strike");
        // The injector state survived the swap cycle.
        assert!(faulty.fault_injector().is_some());
        assert_eq!(faulty.stats().faults, 1);
        assert_eq!(clean.stats().faults, 0);
    }

    #[test]
    fn per_handle_telemetry_mirrors_only_own_io() {
        let shared = SharedDevice::new(SimDevice::hdd(0));
        let mut a = shared.handle();
        let mut b = shared.handle();
        let tel_a = Telemetry::enabled();
        let tel_b = Telemetry::enabled();
        a.set_telemetry(tel_a.clone());
        b.set_telemetry(tel_b.clone());
        a.with(|d| d.read(Some(1), 1000, Access::Random, None));
        b.with(|d| d.read(Some(2), 2000, Access::Random, None));
        assert_eq!(tel_a.counter("storage.device.device_bytes").get(), 1000);
        assert_eq!(tel_b.counter("storage.device.device_bytes").get(), 2000);
    }

    #[test]
    fn private_handle_behaves_like_the_raw_device() {
        let mut raw = SimDevice::hdd(0);
        let t_raw = raw.read(Some(1), 5000, Access::Random, None);
        let mut handle = DeviceHandle::private(SimDevice::hdd(0));
        let t_h = handle.with(|d| d.read(Some(1), 5000, Access::Random, None));
        assert_eq!(t_raw, t_h);
        assert_eq!(raw.stats(), handle.stats());
        let global = handle.with(|d| d.stats().clone());
        assert_eq!(handle.stats(), &global);
    }

    #[test]
    fn cross_handle_pool_hits() {
        let t = table(1, 400);
        let shared = SharedBufferPool::new(1 << 20);
        let dev = SharedDevice::new(SimDevice::hdd(0));
        let mut warm = shared.handle();
        let mut warm_dev = dev.handle();
        let policy = RetryPolicy::default();
        for b in 0..t.num_blocks() {
            warm.read_block_retry(&t, b, &mut warm_dev, &policy)
                .unwrap();
        }
        assert_eq!(warm.stats().hits, 0);
        let mut cold = shared.handle();
        let mut cold_dev = dev.handle();
        for b in 0..t.num_blocks() {
            cold.read_block_retry(&t, b, &mut cold_dev, &policy)
                .unwrap();
        }
        assert_eq!(
            cold.stats().misses,
            0,
            "second connection must hit the shared pool"
        );
        assert_eq!(cold.stats().hits as usize, t.num_blocks());
        assert_eq!(
            cold_dev.stats().device_bytes,
            0,
            "hits never touch the device"
        );
        let global = shared.stats();
        assert_eq!(global.hits, cold.stats().hits);
        assert_eq!(global.misses, warm.stats().misses);
        assert!(global.hits > 0);
    }

    #[test]
    fn handles_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<DeviceHandle>();
        assert_send::<PoolHandle>();
        assert_send::<SharedDevice>();
        assert_send::<SharedBufferPool>();
    }
}
