//! Simulated storage devices: a deterministic [`SimDevice`] with an OS
//! page-cache model prices each read on the clock's list
//! ([`clock::read_seconds`]) as it happens and keeps the simulated clock in
//! [`IoStats`], so experiments are machine-independent yet keep the
//! latency/bandwidth asymmetry the paper's evaluation rests on (Appendix A,
//! Figure 20). Cached extents re-read at memory speed with no seek, which is
//! why small datasets run at "in-memory I/O bandwidth" after their first
//! epoch (§7.3.3/§7.3.4).

use crate::clock::{self, DeviceProfile};
use crate::error::StorageError;
use crate::fault::{FaultInjector, FaultPlan, ReadOutcome};
use crate::Result;
use corgipile_telemetry::{Counter, Gauge, Telemetry};
use std::collections::HashMap;

/// How a read reaches the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Random access: pays the seek latency, then transfers.
    Random,
    /// Sequential continuation of the previous read: transfer only.
    Sequential,
}

impl Access {
    /// The access of one read of an in-order scan: a read that `seeks`
    /// (the head of the scan, or a jump) is random, the rest continue.
    pub fn in_scan(seeks: bool) -> Access {
        if seeks {
            Access::Random
        } else {
            Access::Sequential
        }
    }
}

/// OS page-cache configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Cache capacity in bytes. Zero disables caching.
    pub capacity: usize,
    /// Profile used for cache hits (memory speed).
    pub hit_profile: DeviceProfile,
}

impl CacheConfig {
    /// A cache of `capacity` bytes served at memory speed.
    pub fn with_capacity(capacity: usize) -> Self {
        CacheConfig {
            capacity,
            hit_profile: DeviceProfile::memory(),
        }
    }

    /// No caching: every read hits the device (the paper clears the OS cache
    /// before each experiment; this keeps it cleared).
    pub fn disabled() -> Self {
        Self::with_capacity(0)
    }
}

/// Counters accumulated by a [`SimDevice`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IoStats {
    /// Random read operations issued to the underlying device.
    pub random_reads: u64,
    /// Sequential read operations issued to the underlying device.
    pub sequential_reads: u64,
    /// Bytes transferred from the underlying device.
    pub device_bytes: u64,
    /// Bytes served from the cache.
    pub cache_bytes: u64,
    /// Bytes written to the device.
    pub written_bytes: u64,
    /// Reads served entirely from the cache (one per cache-resident read).
    pub cache_hits: u64,
    /// Retry attempts recorded via [`SimDevice::note_retry`].
    pub retries: u64,
    /// Read attempts that failed with an injected fault.
    pub faults: u64,
    /// Total simulated I/O time in seconds.
    pub io_seconds: f64,
}

impl IoStats {
    /// Total read operations (device tier + cache hits).
    pub fn total_reads(&self) -> u64 {
        self.random_reads + self.sequential_reads + self.cache_hits
    }

    /// Fraction of read operations served from the cache (0 when idle).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.total_reads();
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Accumulate the `before` → `after` change of another stats object
    /// into `self`. Counters saturate at zero so a [`SimDevice::reset`]
    /// between the snapshots never underflows.
    pub fn add_delta(&mut self, before: &IoStats, after: &IoStats) {
        self.random_reads += after.random_reads.saturating_sub(before.random_reads);
        self.sequential_reads += after
            .sequential_reads
            .saturating_sub(before.sequential_reads);
        self.device_bytes += after.device_bytes.saturating_sub(before.device_bytes);
        self.cache_bytes += after.cache_bytes.saturating_sub(before.cache_bytes);
        self.written_bytes += after.written_bytes.saturating_sub(before.written_bytes);
        self.cache_hits += after.cache_hits.saturating_sub(before.cache_hits);
        self.retries += after.retries.saturating_sub(before.retries);
        self.faults += after.faults.saturating_sub(before.faults);
        self.io_seconds += (after.io_seconds - before.io_seconds).max(0.0);
    }
}

/// Pre-resolved telemetry instruments mirroring [`IoStats`]. Disabled
/// handles make every update a no-op, so an un-instrumented device pays
/// only an `Option` branch per counter.
#[derive(Debug, Clone, Default)]
struct DeviceMetrics {
    random_reads: Counter,
    sequential_reads: Counter,
    device_bytes: Counter,
    cache_bytes: Counter,
    cache_hits: Counter,
    written_bytes: Counter,
    retries: Counter,
    faults: Counter,
    io_seconds: Gauge,
}

impl DeviceMetrics {
    fn resolve(telemetry: &Telemetry) -> Self {
        DeviceMetrics {
            random_reads: telemetry.counter("storage.device.random_reads"),
            sequential_reads: telemetry.counter("storage.device.sequential_reads"),
            device_bytes: telemetry.counter("storage.device.device_bytes"),
            cache_bytes: telemetry.counter("storage.device.cache_bytes"),
            cache_hits: telemetry.counter("storage.device.cache_hits"),
            written_bytes: telemetry.counter("storage.device.written_bytes"),
            retries: telemetry.counter("storage.device.retries"),
            faults: telemetry.counter("storage.device.faults"),
            io_seconds: telemetry.gauge("storage.device.io_seconds"),
        }
    }
}

/// A telemetry handle with the device instruments resolved against it: what
/// a connection swaps in and out around every access, resolving nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct BoundTelemetry(pub(crate) Telemetry, DeviceMetrics);

impl BoundTelemetry {
    pub(crate) fn new(telemetry: Telemetry) -> Self {
        let metrics = DeviceMetrics::resolve(&telemetry);
        BoundTelemetry(telemetry, metrics)
    }
}

/// A deterministic simulated device with an OS page cache.
///
/// Reads are keyed: passing a stable `key` (e.g. `(table_id, block_id)`
/// hashed to `u64`) enables cache residency tracking for that extent.
/// Unkeyed reads always hit the device.
#[derive(Debug, Clone)]
pub struct SimDevice {
    profile: DeviceProfile,
    cache: CacheConfig,
    /// Resident extents: key → (bytes, last-use stamp) for LRU eviction.
    resident: HashMap<u64, (usize, u64)>,
    resident_bytes: usize,
    stamp: u64,
    stats: IoStats,
    /// Optional deterministic fault injector consulted by guarded reads.
    injector: Option<FaultInjector>,
    /// Shared observability handle (disabled by default).
    telemetry: Telemetry,
    /// Instruments resolved from `telemetry`; no-ops when disabled.
    metrics: DeviceMetrics,
}

impl SimDevice {
    /// Create a device with the given profile and cache.
    pub fn new(profile: DeviceProfile, cache: CacheConfig) -> Self {
        SimDevice {
            profile,
            cache,
            resident: HashMap::new(),
            resident_bytes: 0,
            stamp: 0,
            stats: IoStats::default(),
            injector: None,
            telemetry: Telemetry::disabled(),
            metrics: DeviceMetrics::default(),
        }
    }

    /// Attach a telemetry handle; device counters and the simulated clock
    /// are mirrored into it from this point on. Pass
    /// [`Telemetry::disabled`] to opt back out.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.swap_telemetry(&mut BoundTelemetry::new(telemetry));
    }

    /// Exchange the attached telemetry with `other`.
    pub(crate) fn swap_telemetry(&mut self, other: &mut BoundTelemetry) {
        std::mem::swap(&mut self.telemetry, &mut other.0);
        std::mem::swap(&mut self.metrics, &mut other.1);
    }

    /// The attached telemetry handle (disabled unless
    /// [`SimDevice::set_telemetry`] was called).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// HDD with a cache of `cache_bytes`.
    pub fn hdd(cache_bytes: usize) -> Self {
        Self::hdd_scaled(1.0, cache_bytes)
    }

    /// SSD with a cache of `cache_bytes`.
    pub fn ssd(cache_bytes: usize) -> Self {
        Self::ssd_scaled(1.0, cache_bytes)
    }

    /// Scale-preserving HDD (see [`DeviceProfile::hdd_scaled`]).
    pub fn hdd_scaled(scale: f64, cache_bytes: usize) -> Self {
        Self::new(
            DeviceProfile::hdd_scaled(scale),
            CacheConfig::with_capacity(cache_bytes),
        )
    }

    /// Scale-preserving SSD (see [`DeviceProfile::ssd_scaled`]).
    pub fn ssd_scaled(scale: f64, cache_bytes: usize) -> Self {
        Self::new(
            DeviceProfile::ssd_scaled(scale),
            CacheConfig::with_capacity(cache_bytes),
        )
    }

    /// Pure in-memory device (no meaningful I/O cost).
    pub fn in_memory() -> Self {
        Self::new(DeviceProfile::memory(), CacheConfig::disabled())
    }

    /// The device profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Reset counters and cache (paper: "we clear the OS cache before
    /// running each experiment").
    pub fn reset(&mut self) {
        self.drop_cache();
        self.stamp = 0;
        self.stats = IoStats::default();
    }

    /// Drop cache contents but keep counters.
    pub fn drop_cache(&mut self) {
        self.resident.clear();
        self.resident_bytes = 0;
    }

    /// Read `bytes` from extent `key` (if `Some`, cache-tracked), priced by
    /// [`clock::read_seconds`] under `throughput_cap` (the TOAST cap).
    /// Returns the simulated seconds consumed by this read.
    pub fn read(
        &mut self,
        key: Option<u64>,
        bytes: usize,
        access: Access,
        throughput_cap: Option<f64>,
    ) -> f64 {
        let cached = key.map(|k| self.touch(k)).unwrap_or(false);
        let profile = if cached {
            &self.cache.hit_profile
        } else {
            &self.profile
        };
        let time = clock::read_seconds(profile, bytes, access, throughput_cap);
        if cached {
            self.stats.cache_bytes += bytes as u64;
            self.stats.cache_hits += 1;
            self.metrics.cache_bytes.add(bytes as u64);
            self.metrics.cache_hits.inc();
        } else {
            self.stats.device_bytes += bytes as u64;
            self.metrics.device_bytes.add(bytes as u64);
            match access {
                Access::Random => {
                    self.stats.random_reads += 1;
                    self.metrics.random_reads.inc();
                }
                Access::Sequential => {
                    self.stats.sequential_reads += 1;
                    self.metrics.sequential_reads.inc();
                }
            }
            if let Some(k) = key {
                self.admit(k, bytes);
            }
        }
        self.tick(time);
        time
    }

    /// Advance the clock by `seconds`.
    fn tick(&mut self, seconds: f64) {
        self.stats.io_seconds += seconds;
        self.metrics.io_seconds.set(self.stats.io_seconds);
    }

    /// Install a fault injector; subsequent guarded reads consult it.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// Convenience: install an injector executing `plan` from scratch.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.injector = Some(FaultInjector::new(plan));
    }

    /// The installed fault injector, if any.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }

    /// Remove and return the fault injector.
    pub fn clear_fault_injector(&mut self) -> Option<FaultInjector> {
        self.injector.take()
    }

    /// Read block `block` of table `table_id` through the fault injector.
    ///
    /// The extent key matches the one `Table` derives
    /// (`table_id << 32 | block`), so residency tracking is shared with
    /// [`SimDevice::read`]. Cache-resident extents bypass injection — a
    /// storage fault cannot strike data already in memory. A failed attempt
    /// still costs simulated time: the seek that discovered the failure, or
    /// the full transfer for a checksum mismatch (the bytes crossed the bus
    /// before verification rejected them).
    pub fn read_guarded(
        &mut self,
        table_id: u32,
        block: usize,
        bytes: usize,
        access: Access,
        throughput_cap: Option<f64>,
    ) -> Result<f64> {
        self.guard(table_id, block, bytes, access)?;
        let key = ((table_id as u64) << 32) | block as u64;
        Ok(self.read(Some(key), bytes, access, throughput_cap))
    }

    /// The fault-injection half of [`SimDevice::read_guarded`]: one attempt
    /// at `(table_id, block)` as the injector sees it, charging what a
    /// failed attempt wastes (or a latency spike adds) and nothing else.
    pub fn guard(
        &mut self,
        table_id: u32,
        block: usize,
        bytes: usize,
        access: Access,
    ) -> Result<()> {
        let key = ((table_id as u64) << 32) | block as u64;
        let resident = self.is_resident(key);
        if let Some(injector) = self.injector.as_mut().filter(|_| !resident) {
            let outcome = injector.on_read(table_id, block);
            match outcome {
                ReadOutcome::Ok => {}
                ReadOutcome::Delay(seconds) => self.tick(seconds),
                ReadOutcome::Fail(e) => {
                    let wasted = match &e {
                        StorageError::ChecksumMismatch { .. } => {
                            self.profile.read_time(bytes, access)
                        }
                        _ => self.profile.seek_latency_s,
                    };
                    self.tick(wasted);
                    self.stats.faults += 1;
                    self.metrics.faults.inc();
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Write `bytes` (e.g. Shuffle Once materializing a shuffled copy).
    /// Returns the simulated seconds consumed.
    pub fn write(&mut self, bytes: usize, access: Access) -> f64 {
        let time = self.profile.read_time(bytes, access);
        self.stats.written_bytes += bytes as u64;
        self.metrics.written_bytes.add(bytes as u64);
        self.tick(time);
        time
    }

    /// Copy `rows` rows of `bytes` stored bytes into a shuffle buffer and
    /// shuffle them: the loading clock pays [`clock::buffering_seconds`].
    pub fn buffer(&mut self, rows: usize, bytes: usize) {
        self.tick(clock::buffering_seconds(rows, bytes));
    }

    /// Record one retry attempt after a `backoff`-second wait on the clock
    /// (called by [`Table::read`](crate::Table::read) before each re-attempt).
    pub fn note_retry(&mut self, backoff: f64) {
        self.tick(backoff);
        self.stats.retries += 1;
        self.metrics.retries.inc();
    }

    /// Whether extent `key` is currently cache-resident.
    pub fn is_resident(&self, key: u64) -> bool {
        self.resident.contains_key(&key)
    }

    fn touch(&mut self, key: u64) -> bool {
        self.stamp += 1;
        if let Some(entry) = self.resident.get_mut(&key) {
            entry.1 = self.stamp;
            true
        } else {
            false
        }
    }

    fn admit(&mut self, key: u64, bytes: usize) {
        if bytes > self.cache.capacity {
            return;
        }
        while self.resident_bytes + bytes > self.cache.capacity {
            // Evict the least recently used extent.
            let victim = self
                .resident
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(&k, &(b, _))| (k, b));
            match victim {
                Some((k, b)) => {
                    self.resident.remove(&k);
                    self.resident_bytes -= b;
                }
                None => return,
            }
        }
        self.stamp += 1;
        self.resident.insert(key, (bytes, self.stamp));
        self.resident_bytes += bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Effective throughput (bytes/s) of random reads of `chunk` bytes: the
    /// quantity plotted in Appendix Figure 20.
    fn throughput(p: &DeviceProfile, chunk: usize) -> f64 {
        chunk as f64 / p.read_time(chunk, Access::Random)
    }
    use proptest::prelude::*;

    #[test]
    fn hdd_random_tuple_reads_are_brutally_slow() {
        // Figure 20's premise: random per-tuple reads on HDD are orders of
        // magnitude slower than sequential scans.
        let hdd = DeviceProfile::hdd();
        let tuple = 150; // bytes
        let per_tuple_random = hdd.read_time(tuple, Access::Random);
        let per_tuple_seq = hdd.read_time(tuple, Access::Sequential);
        assert!(per_tuple_random / per_tuple_seq > 1000.0);
    }

    #[test]
    fn ten_mb_blocks_approach_sequential_bandwidth() {
        // Appendix A: at ~10 MB blocks, random block reads ≈ sequential scan.
        for profile in [DeviceProfile::hdd(), DeviceProfile::ssd()] {
            let tp = throughput(&profile, 10 << 20);
            assert!(
                tp > 0.85 * profile.bandwidth,
                "{}: throughput {tp:.0} below 85% of {}",
                profile.name,
                profile.bandwidth
            );
        }
    }

    #[test]
    fn small_random_reads_waste_bandwidth() {
        let hdd = DeviceProfile::hdd();
        let tp_small = throughput(&hdd, 64 << 10);
        assert!(tp_small < 0.1 * hdd.bandwidth);
    }

    #[test]
    fn cache_hit_is_fast_and_counted() {
        let mut dev = SimDevice::hdd(1 << 20);
        let t1 = dev.read(Some(1), 100_000, Access::Random, None);
        let t2 = dev.read(Some(1), 100_000, Access::Random, None);
        assert!(t2 < t1 / 100.0, "cache hit {t2} not ≪ miss {t1}");
        assert_eq!(dev.stats().device_bytes, 100_000);
        assert_eq!(dev.stats().cache_bytes, 100_000);
        assert!(dev.is_resident(1));
    }

    #[test]
    fn cache_evicts_lru() {
        let mut dev = SimDevice::hdd(250_000);
        dev.read(Some(1), 100_000, Access::Random, None);
        dev.read(Some(2), 100_000, Access::Random, None);
        dev.read(Some(1), 100_000, Access::Random, None); // touch 1
        dev.read(Some(3), 100_000, Access::Random, None); // evicts 2
        assert!(dev.is_resident(1));
        assert!(!dev.is_resident(2));
        assert!(dev.is_resident(3));
    }

    #[test]
    fn oversized_extent_bypasses_cache() {
        let mut dev = SimDevice::hdd(1000);
        dev.read(Some(9), 10_000, Access::Random, None);
        assert!(!dev.is_resident(9));
        // Second read still hits the device.
        dev.read(Some(9), 10_000, Access::Random, None);
        assert_eq!(dev.stats().device_bytes, 20_000);
    }

    #[test]
    fn throughput_cap_emulates_toast() {
        let mut dev = SimDevice::ssd(usize::MAX);
        // 130 MB/s cap on a 1 GB/s SSD: the cap dominates.
        let t = dev.read(Some(5), 130_000_000, Access::Sequential, Some(130e6));
        assert!((t - 1.0).abs() < 0.05, "expected ~1s, got {t}");
        // Even cached reads stay capped (decompression is CPU-bound).
        let t2 = dev.read(Some(5), 130_000_000, Access::Sequential, Some(130e6));
        assert!((t2 - 1.0).abs() < 0.05, "expected ~1s cached, got {t2}");
    }

    #[test]
    fn write_accumulates() {
        let mut dev = SimDevice::hdd(0);
        let t = dev.write(140_000_000, Access::Sequential);
        assert!((t - 1.0).abs() < 0.01);
        assert_eq!(dev.stats().written_bytes, 140_000_000);
    }

    #[test]
    fn reset_clears_everything() {
        let mut dev = SimDevice::hdd(1 << 20);
        dev.read(Some(1), 1000, Access::Random, None);
        dev.reset();
        assert_eq!(dev.stats(), &IoStats::default());
        assert!(!dev.is_resident(1));
    }

    #[test]
    fn drop_cache_keeps_counters() {
        let mut dev = SimDevice::hdd(1 << 20);
        dev.read(Some(1), 1000, Access::Random, None);
        dev.drop_cache();
        assert!(!dev.is_resident(1));
        assert_eq!(dev.stats().device_bytes, 1000);
    }

    #[test]
    fn cache_hit_vs_miss_byte_and_op_accounting() {
        let mut dev = SimDevice::hdd(1 << 20);
        dev.read(Some(1), 60_000, Access::Random, None); // miss
        dev.read(Some(1), 60_000, Access::Random, None); // hit
        dev.read(Some(1), 60_000, Access::Sequential, None); // hit
        dev.read(None, 40_000, Access::Sequential, None); // unkeyed: device
        let s = dev.stats();
        assert_eq!(s.device_bytes, 100_000);
        assert_eq!(s.cache_bytes, 120_000);
        assert_eq!(s.cache_hits, 2);
        assert_eq!(s.random_reads, 1);
        assert_eq!(s.sequential_reads, 1);
        assert_eq!(s.device_bytes + s.cache_bytes, 220_000);
        assert_eq!(s.total_reads(), 4);
        assert!((s.cache_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reset_and_drop_cache_semantics_for_extended_counters() {
        let mut dev = SimDevice::hdd(1 << 20);
        dev.read(Some(1), 1000, Access::Random, None);
        dev.read(Some(1), 1000, Access::Random, None);
        dev.note_retry(0.0);
        // drop_cache: residency gone, every counter preserved.
        dev.drop_cache();
        assert_eq!(dev.stats().cache_hits, 1);
        assert_eq!(dev.stats().retries, 1);
        assert_eq!(dev.stats().device_bytes, 1000);
        // The next keyed read misses again (cache really dropped).
        dev.read(Some(1), 1000, Access::Random, None);
        assert_eq!(dev.stats().cache_hits, 1);
        assert_eq!(dev.stats().device_bytes, 2000);
        // reset: everything back to zero.
        dev.reset();
        assert_eq!(dev.stats(), &IoStats::default());
    }

    #[test]
    fn failed_attempts_charge_clock_exactly_once_per_attempt() {
        // Two transient failures on (3,7): each failed attempt costs exactly
        // one seek; the succeeding attempt costs a full random read.
        let mut dev = SimDevice::hdd(0);
        dev.set_fault_plan(crate::fault::FaultPlan::new(1).with_transient(3, 7, 2));
        let seek = dev.profile().seek_latency_s;
        let full = dev.profile().read_time(50_000, Access::Random);
        dev.read_guarded(3, 7, 50_000, Access::Random, None)
            .unwrap_err();
        assert!((dev.stats().io_seconds - seek).abs() < 1e-12);
        dev.read_guarded(3, 7, 50_000, Access::Random, None)
            .unwrap_err();
        assert!((dev.stats().io_seconds - 2.0 * seek).abs() < 1e-12);
        dev.read_guarded(3, 7, 50_000, Access::Random, None)
            .unwrap();
        assert!((dev.stats().io_seconds - (2.0 * seek + full)).abs() < 1e-12);
        assert_eq!(dev.stats().faults, 2);
    }

    #[test]
    fn telemetry_mirrors_device_counters() {
        let tel = Telemetry::enabled();
        let mut dev = SimDevice::hdd(1 << 20);
        dev.set_telemetry(tel.clone());
        dev.read(Some(1), 5000, Access::Random, None);
        dev.read(Some(1), 5000, Access::Random, None);
        dev.write(2000, Access::Sequential);
        dev.note_retry(0.0);
        assert_eq!(tel.counter("storage.device.random_reads").get(), 1);
        assert_eq!(tel.counter("storage.device.cache_hits").get(), 1);
        assert_eq!(tel.counter("storage.device.device_bytes").get(), 5000);
        assert_eq!(tel.counter("storage.device.cache_bytes").get(), 5000);
        assert_eq!(tel.counter("storage.device.written_bytes").get(), 2000);
        assert_eq!(tel.counter("storage.device.retries").get(), 1);
        let clock = tel.gauge("storage.device.io_seconds").get();
        assert!((clock - dev.stats().io_seconds).abs() < 1e-12);
    }

    #[test]
    fn disabled_telemetry_leaves_device_untouched() {
        let mut plain = SimDevice::hdd(1 << 20);
        let mut wired = SimDevice::hdd(1 << 20);
        wired.set_telemetry(Telemetry::disabled());
        for dev in [&mut plain, &mut wired] {
            dev.read(Some(1), 5000, Access::Random, None);
            dev.read(Some(1), 5000, Access::Random, None);
        }
        assert_eq!(plain.stats(), wired.stats());
        assert!(!wired.telemetry().is_enabled());
    }

    #[test]
    fn guarded_read_without_injector_matches_plain_read() {
        let mut a = SimDevice::hdd(0);
        let mut b = SimDevice::hdd(0);
        let ta = a.read_guarded(3, 7, 50_000, Access::Random, None).unwrap();
        let tb = b.read(Some((3u64 << 32) | 7), 50_000, Access::Random, None);
        assert_eq!(ta, tb);
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn guarded_read_injects_and_charges_failed_attempts() {
        let mut dev = SimDevice::hdd(0);
        dev.set_fault_plan(crate::fault::FaultPlan::new(1).with_transient(3, 7, 1));
        let before = dev.stats().io_seconds;
        let err = dev
            .read_guarded(3, 7, 50_000, Access::Random, None)
            .unwrap_err();
        assert!(err.is_retryable());
        let after_fail = dev.stats().io_seconds;
        assert!(
            after_fail > before,
            "failed attempt must cost simulated time"
        );
        // Second attempt succeeds (transient fault exhausted).
        dev.read_guarded(3, 7, 50_000, Access::Random, None)
            .unwrap();
        assert_eq!(dev.fault_injector().unwrap().stats().transient_failures, 1);
    }

    #[test]
    fn guarded_read_latency_spike_charges_clock() {
        let mut dev = SimDevice::ssd(0);
        dev.set_fault_plan(crate::fault::FaultPlan::new(1).with_latency_spike(1, 0, 0.5));
        let t_spiked = dev.read_guarded(1, 0, 1000, Access::Random, None).unwrap();
        let mut plain = SimDevice::ssd(0);
        let t_plain = plain
            .read_guarded(1, 0, 1000, Access::Random, None)
            .unwrap();
        // The returned per-read time excludes the spike, but the clock
        // includes it.
        assert_eq!(t_spiked, t_plain);
        assert!(dev.stats().io_seconds >= plain.stats().io_seconds + 0.5 - 1e-12);
    }

    #[test]
    fn cache_resident_extents_bypass_injection() {
        let mut dev = SimDevice::hdd(1 << 20);
        // Warm the cache with no faults, then make the block permanently bad.
        dev.read_guarded(1, 0, 10_000, Access::Random, None)
            .unwrap();
        dev.set_fault_plan(crate::fault::FaultPlan::new(1).with_permanent(1, 0));
        dev.read_guarded(1, 0, 10_000, Access::Random, None)
            .expect("cached read must not fault");
        // Once evicted, the fault strikes.
        dev.drop_cache();
        assert!(dev
            .read_guarded(1, 0, 10_000, Access::Random, None)
            .is_err());
    }

    proptest! {
        #[test]
        fn prop_read_time_monotone_in_bytes(a in 1usize..1_000_000, b in 1usize..1_000_000) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            for p in [DeviceProfile::hdd(), DeviceProfile::ssd(), DeviceProfile::memory()] {
                prop_assert!(p.read_time(lo, Access::Random) <= p.read_time(hi, Access::Random));
                prop_assert!(p.read_time(lo, Access::Sequential) <= p.read_time(hi, Access::Sequential));
            }
        }

        #[test]
        fn prop_random_never_cheaper_than_sequential(bytes in 0usize..10_000_000) {
            for p in [DeviceProfile::hdd(), DeviceProfile::ssd()] {
                prop_assert!(p.read_time(bytes, Access::Random) >= p.read_time(bytes, Access::Sequential));
            }
        }

        #[test]
        fn prop_throughput_increases_with_block_size(shift in 10u32..26) {
            let p = DeviceProfile::hdd();
            let small = throughput(&p, 1 << shift);
            let large = throughput(&p, 1 << (shift + 1));
            prop_assert!(large > small);
        }

        #[test]
        fn prop_io_seconds_never_decreases(ops in proptest::collection::vec((0u64..8, 1usize..100_000), 1..64)) {
            let mut dev = SimDevice::hdd(200_000);
            let mut last = 0.0f64;
            for (key, bytes) in ops {
                dev.read(Some(key), bytes, Access::Random, None);
                let now = dev.stats().io_seconds;
                prop_assert!(now >= last);
                last = now;
            }
        }
    }
}
