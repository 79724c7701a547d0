//! The simulated clock's one price list: every constant the clock charges
//! and the rule pricing each count, modelling the paper's hardware (§7.1.1).
//!
//! * A read ([`read_seconds`]) is priced by the device as it happens, since
//!   the TOAST cap is a per-read `max`; a retry first waits its backoff.
//! * Buffering a ranked fill or an MRS / Sliding-Window cut
//!   ([`buffering_seconds`]) is paid on the device's clock after the fill's
//!   reads, so a fill's loading seconds are one difference of that clock.
//! * Compute prices a fill's rows and stored features by a
//!   [`ComputeCostModel`]; an epoch combines its slots, serial or
//!   double-buffered ([`epoch_seconds`]).

use crate::device::Access;

/// Latency/bandwidth profile of a storage device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Human-readable name ("hdd", "ssd", "memory").
    pub name: String,
    /// Cost of one random-access operation in seconds (HDD seek + rotate,
    /// SSD read latency, DRAM access).
    pub seek_latency_s: f64,
    /// Sustained transfer bandwidth in bytes/second.
    pub bandwidth: f64,
}

impl DeviceProfile {
    /// Magnetic disk: ~8 ms seek, 140 MB/s (paper §7.1.1).
    pub fn hdd() -> Self {
        Self::hdd_scaled(1.0)
    }

    /// NVMe-class SSD: ~0.1 ms latency, 1 GB/s (paper §7.1.1).
    pub fn ssd() -> Self {
        Self::ssd_scaled(1.0)
    }

    /// HDD profile for experiments scaled down by `scale`.
    ///
    /// The paper's datasets are GBs with 10 MB blocks; ours are `scale`×
    /// smaller with `scale`× smaller blocks. Dividing the seek latency by
    /// the same factor preserves the seek-to-transfer ratio — and therefore
    /// every relative result (which strategy wins, by what factor) — while
    /// letting experiments finish in milliseconds of simulated time.
    pub fn hdd_scaled(scale: f64) -> Self {
        Self::scaled("hdd", 8e-3, 140e6, scale)
    }

    /// SSD profile for experiments scaled down by `scale` (see
    /// [`DeviceProfile::hdd_scaled`]).
    pub fn ssd_scaled(scale: f64) -> Self {
        Self::scaled("ssd", 1e-4, 1e9, scale)
    }

    /// Main memory (the OS cache tier): ~10 GB/s, negligible latency.
    pub fn memory() -> Self {
        Self::scaled("memory", 1e-7, 10e9, 1.0)
    }

    fn scaled(name: &str, seek: f64, bandwidth: f64, scale: f64) -> Self {
        assert!(scale >= 1.0);
        DeviceProfile {
            name: name.into(),
            seek_latency_s: seek / scale,
            bandwidth,
        }
    }

    /// Time to read `bytes` with the given access pattern, uncapped.
    pub fn read_time(&self, bytes: usize, access: Access) -> f64 {
        let seek = match access {
            Access::Random => self.seek_latency_s,
            Access::Sequential => 0.0,
        };
        seek + bytes as f64 / self.bandwidth
    }
}

/// Read throughput (bytes/s) of TOASTed rows: ~130 MB/s for yfcc on HDD and
/// SSD alike (§7.3.4), where decompression, not the device, bounds it.
pub const TOAST_CAP: f64 = 130e6;

/// The one read rule: `bytes` from `p` as `access`, at most `cap` B/s.
pub fn read_seconds(p: &DeviceProfile, bytes: usize, access: Access, cap: Option<f64>) -> f64 {
    let time = p.read_time(bytes, access);
    cap.map_or(time, |cap| time.max(bytes as f64 / cap))
}

/// `RetryPolicy::default()`'s backoff: first wait, factor per retry, cap (s).
pub const RETRY_BACKOFF: (f64, f64, f64) = (1e-3, 2.0, 0.1);

/// Buffering: copy bandwidth (B/s, the "buffer copy" of §4.1/§7.3.3) and
/// in-buffer shuffle seconds per row.
pub const COPY_BANDWIDTH: f64 = 5e9;
/// See [`COPY_BANDWIDTH`].
pub const SHUFFLE_SECONDS_PER_ROW: f64 = 1.5e-8;

/// Loading seconds of buffering `rows` rows of `bytes` stored bytes.
pub fn buffering_seconds(rows: usize, bytes: usize) -> f64 {
    bytes as f64 / COPY_BANDWIDTH + rows as f64 * SHUFFLE_SECONDS_PER_ROW
}

/// A full offline shuffle of `total` bytes on `p`
/// (`Table::materialize_reordered`): two passes of read + write.
pub fn full_shuffle_seconds(p: &DeviceProfile, total: usize) -> f64 {
    2.0 * (p.read_time(total, Access::Random) + p.read_time(total, Access::Sequential))
}

/// Compute profile of an executor: FLOPs at a rate, plus an invocation
/// overhead per row — the UDA call, operator `next()` or Python call of the
/// system modelled (PyTorch's per-tuple call is why it is 2–16× slower,
/// §7.3.5) — or per fill, for a plan that calls its kernel once per batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeCostModel {
    /// Sustained scalar throughput of the executor (FLOP/s).
    pub flops_per_second: f64,
    /// Fixed overhead per call (seconds).
    pub per_tuple_overhead: f64,
    /// Call once per fill instead of once per row (a fused plan).
    pub per_fill: bool,
}

impl ComputeCostModel {
    /// One in-DB executor core (CorgiPile is bound to one, §7.1.1).
    pub fn in_db_core() -> Self {
        ComputeCostModel {
            flops_per_second: 5e9,
            per_tuple_overhead: 8e-8,
            per_fill: false,
        }
    }

    /// PyTorch outside the DB, training per tuple (§7.3.5).
    pub fn pytorch_per_tuple() -> Self {
        Self::in_db_core().with_overhead(3e-6)
    }

    /// Bismarck's lean UDA path, slightly heavier than a native operator.
    pub fn bismarck() -> Self {
        Self::in_db_core().with_overhead(1.5e-7)
    }

    /// MADlib: auxiliary statistics per tuple, plus `extra_flops` (its LR's
    /// `stderr`, quadratic in the feature count, §7.3.1).
    pub fn madlib(extra_flops: f64) -> Self {
        let base = Self::in_db_core();
        base.with_overhead(4e-7 + extra_flops / base.flops_per_second)
    }

    fn with_overhead(self, per_tuple_overhead: f64) -> Self {
        ComputeCostModel {
            per_tuple_overhead,
            ..self
        }
    }

    /// This profile, calling once per fill.
    pub fn fused(self) -> Self {
        ComputeCostModel {
            per_fill: true,
            ..self
        }
    }

    /// One fill of `rows` rows holding `features` stored features, a row of
    /// `nnz` costing `flops.0 + nnz · flops.1` FLOPs (as every model's do).
    pub fn price(&self, rows: usize, features: usize, flops: (f64, f64)) -> f64 {
        let total = flops.0 * rows as f64 + flops.1 * features as f64;
        let calls = if self.per_fill { 1 } else { rows };
        calls as f64 * self.per_tuple_overhead + total / self.flops_per_second
    }
}

/// An epoch from its slots' loading and compute seconds: `Σ io + Σ compute`
/// serially; with two buffers, slot `i + 1` loads while slot `i` computes:
/// `io[0] + Σ_{i≥1} max(io[i], compute[i-1]) + compute[last]`.
pub fn epoch_seconds(io: &[f64], compute: &[f64], double_buffer: bool) -> f64 {
    if !double_buffer {
        return io.iter().sum::<f64>() + compute.iter().sum::<f64>();
    }
    assert_eq!(io.len(), compute.len(), "one compute slot per fill");
    let Some((last, _)) = compute.split_last() else {
        return 0.0;
    };
    let overlapped = io[1..].iter().zip(compute).map(|(i, c)| i.max(*c));
    overlapped.fold(io[0], |t, s| t + s) + last
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn double_buffer_beats_single_buffer() {
        let io = vec![1.0; 10];
        let compute = vec![1.0; 10];
        let single = epoch_seconds(&io, &compute, false);
        let double = epoch_seconds(&io, &compute, true);
        assert_eq!(single, 20.0);
        assert_eq!(double, 11.0); // 1 + 9*max(1,1) + 1
        assert!(double < single);
    }

    #[test]
    fn double_buffer_degenerate_cases() {
        assert_eq!(epoch_seconds(&[], &[], true), 0.0);
        assert_eq!(epoch_seconds(&[2.0], &[3.0], true), 5.0);
    }

    #[test]
    fn double_buffer_bound_by_dominant_stage() {
        // When I/O dominates, epoch ≈ total I/O + last compute.
        let d = epoch_seconds(&[5.0; 4], &[0.5; 4], true);
        assert!((d - (20.0 + 0.5)).abs() < 1e-9);
    }

    #[test]
    fn buffering_is_positive_and_monotone() {
        let small = buffering_seconds(10, 1000);
        assert!(small > 0.0 && buffering_seconds(1000, 100_000) > small);
    }

    #[test]
    fn compute_profiles_order_systems_like_the_paper() {
        let price = |c: ComputeCostModel| c.price(1000, 28_000, (8.0, 4.0));
        let db = price(ComputeCostModel::in_db_core());
        assert!(price(ComputeCostModel::pytorch_per_tuple()) > 5.0 * db);
        assert!(price(ComputeCostModel::bismarck()) > db);
        assert!(price(ComputeCostModel::madlib(0.0)) > price(ComputeCostModel::bismarck()));
        assert!(price(ComputeCostModel::in_db_core().fused()) < db);
    }

    #[test]
    fn toast_cap_bounds_throughput() {
        let p = DeviceProfile::ssd();
        let capped = read_seconds(&p, 1 << 20, Access::Sequential, Some(TOAST_CAP));
        assert_eq!(capped, (1 << 20) as f64 / TOAST_CAP);
        assert_eq!(
            read_seconds(&p, 10, Access::Random, None),
            p.read_time(10, Access::Random)
        );
    }

    proptest! {
        #[test]
        fn prop_double_never_worse_than_single(
            pairs in proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0), 0..32)
        ) {
            let io: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let compute: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            let s = epoch_seconds(&io, &compute, false);
            let d = epoch_seconds(&io, &compute, true);
            prop_assert!(d <= s + 1e-9);
            // And never better than the dominant stage alone.
            let io_total: f64 = io.iter().sum();
            let c_total: f64 = compute.iter().sum();
            prop_assert!(d + 1e-9 >= io_total.max(c_total));
        }
    }
}
