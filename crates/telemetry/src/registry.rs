//! Named metric instruments backed by lock-free atomics.
//!
//! The registry hands out *resolved* handles ([`Counter`], [`Gauge`],
//! [`Histogram`]). Resolution takes a short-lived lock on a `BTreeMap`
//! (sorted, so exports are deterministic); every subsequent update is a
//! single atomic operation. A handle resolved from a disabled
//! [`crate::Telemetry`] carries `None` and every operation on it is a no-op
//! that allocates nothing.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The cell named `name`, looked up by `&str`: the name is copied into a
/// `String` only when the cell is created.
fn resolve<T: Default>(map: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    let mut map = lock(map);
    match map.get(name) {
        Some(cell) => Arc::clone(cell),
        None => Arc::clone(map.entry(name.to_string()).or_default()),
    }
}

/// Monotonically increasing event count.
#[derive(Debug, Clone, Default)]
pub struct Counter(pub(crate) Option<Arc<AtomicU64>>);

impl Counter {
    /// A permanently disabled counter; all operations are no-ops.
    pub fn noop() -> Self {
        Counter(None)
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, delta: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a disabled counter).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Last-write-wins floating point value (stored as IEEE-754 bits).
#[derive(Debug, Clone, Default)]
pub struct Gauge(pub(crate) Option<Arc<AtomicU64>>);

impl Gauge {
    pub fn noop() -> Self {
        Gauge(None)
    }

    pub fn set(&self, value: f64) {
        if let Some(cell) = &self.0 {
            cell.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Add `delta` to the gauge via a compare-and-swap loop.
    pub fn add(&self, delta: f64) {
        if let Some(cell) = &self.0 {
            let mut cur = cell.load(Ordering::Relaxed);
            loop {
                let next = (f64::from_bits(cur) + delta).to_bits();
                match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        }
    }

    pub fn get(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |c| f64::from_bits(c.load(Ordering::Relaxed)))
    }
}

/// Upper bounds (seconds) for histogram buckets. Chosen for I/O and fill
/// durations: sub-millisecond cache hits up to multi-minute epochs.
pub const BUCKET_BOUNDS: [f64; 10] = [0.0001, 0.001, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0];

#[derive(Debug, Default)]
pub(crate) struct HistCore {
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
    buckets: [AtomicU64; BUCKET_BOUNDS.len()],
}

fn cas_f64(cell: &AtomicU64, value: f64, keep: impl Fn(f64, f64) -> bool) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let seen = f64::from_bits(cur);
        if !keep(value, seen) {
            return;
        }
        match cell.compare_exchange_weak(cur, value.to_bits(), Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => return,
            Err(now) => cur = now,
        }
    }
}

impl HistCore {
    fn record(&self, value: f64) {
        let first = self.count.fetch_add(1, Ordering::Relaxed) == 0;
        // sum += value
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + value).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        if first {
            self.min_bits.store(value.to_bits(), Ordering::Relaxed);
            self.max_bits.store(value.to_bits(), Ordering::Relaxed);
        }
        cas_f64(&self.min_bits, value, |v, seen| v < seen);
        cas_f64(&self.max_bits, value, |v, seen| v > seen);
        for (i, bound) in BUCKET_BOUNDS.iter().enumerate() {
            if value <= *bound {
                self.buckets[i].fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            min: if count == 0 {
                0.0
            } else {
                f64::from_bits(self.min_bits.load(Ordering::Relaxed))
            },
            max: if count == 0 {
                0.0
            } else {
                f64::from_bits(self.max_bits.load(Ordering::Relaxed))
            },
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Distribution of observed values (durations, fill sizes, ...).
#[derive(Debug, Clone, Default)]
pub struct Histogram(pub(crate) Option<Arc<HistCore>>);

impl Histogram {
    pub fn noop() -> Self {
        Histogram(None)
    }

    pub fn record(&self, value: f64) {
        if let Some(core) = &self.0 {
            core.record(value);
        }
    }

    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |c| c.count.load(Ordering::Relaxed))
    }

    pub fn sum(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |c| f64::from_bits(c.sum_bits.load(Ordering::Relaxed)))
    }
}

/// Point-in-time view of a histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    /// Cumulative-free per-bucket counts aligned with [`BUCKET_BOUNDS`];
    /// values above the last bound are counted only in `count`.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Point-in-time view of every instrument in a registry, sorted by name.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// Registry of named instruments. Instrument names are created on first
/// resolution and live for the registry's lifetime.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistCore>>>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn counter(&self, name: &str) -> Counter {
        Counter(Some(resolve(&self.counters, name)))
    }

    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(Some(resolve(&self.gauges, name)))
    }

    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram(Some(resolve(&self.histograms, name)))
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: lock(&self.counters)
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            gauges: lock(&self.gauges)
                .iter()
                .map(|(k, v)| (k.clone(), f64::from_bits(v.load(Ordering::Relaxed))))
                .collect(),
            histograms: lock(&self.histograms)
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_resolves_to_shared_cell() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("io.reads");
        let b = reg.counter("io.reads");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(reg.snapshot().counters, vec![("io.reads".to_string(), 5)]);
    }

    #[test]
    fn gauge_set_and_add() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("io.seconds");
        g.set(1.5);
        g.add(0.25);
        assert!((g.get() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn histogram_tracks_count_sum_min_max_buckets() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("fill.seconds");
        for v in [0.0005, 0.02, 0.02, 3.0] {
            h.record(v);
        }
        let snap = &reg.snapshot().histograms[0].1;
        assert_eq!(snap.count, 4);
        assert!((snap.sum - 3.0405).abs() < 1e-12);
        assert!((snap.min - 0.0005).abs() < 1e-15);
        assert!((snap.max - 3.0).abs() < 1e-12);
        assert_eq!(snap.buckets[1], 1); // <= 1ms
        assert_eq!(snap.buckets[3], 2); // <= 50ms
        assert_eq!(snap.buckets[7], 1); // <= 5s
        assert!((snap.mean() - 3.0405 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn disabled_handles_are_noops() {
        let c = Counter::noop();
        c.inc();
        assert_eq!(c.get(), 0);
        let g = Gauge::noop();
        g.set(9.0);
        g.add(1.0);
        assert_eq!(g.get(), 0.0);
        let h = Histogram::noop();
        h.record(1.0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0.0);
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let reg = MetricsRegistry::new();
        reg.counter("z.last").inc();
        reg.counter("a.first").inc();
        let names: Vec<_> = reg
            .snapshot()
            .counters
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(names, vec!["a.first", "z.last"]);
    }
}
