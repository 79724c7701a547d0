//! # corgipile-telemetry
//!
//! Dependency-free observability core for the CorgiPile stack.
//!
//! The central type is [`Telemetry`], a cheaply clonable handle that is
//! either *enabled* (wrapping a shared [`MetricsRegistry`] + [`EventLog`])
//! or *disabled* (`None` inside). A disabled handle hands out no-op
//! [`Counter`]/[`Gauge`]/[`Histogram`]/[`Span`] instruments whose
//! operations compile down to a branch on an `Option` — **no allocation
//! and no atomics on the hot path when telemetry is off**.
//!
//! Conventions used across the workspace:
//! - metric names are dotted lowercase, e.g. `storage.device.cache_hits`;
//! - spans record both wall time (`<name>.wall_seconds`) and simulated
//!   I/O-clock time (`<name>.sim_seconds`);
//! - per-epoch observations go to the [`EventLog`] keyed by epoch.
//!
//! Exports: [`Telemetry::json`] for machine-readable snapshots (consumed
//! by `corgipile-bench` reports) and [`Telemetry::prometheus`] for text
//! exposition.

#![forbid(unsafe_code)]

pub mod events;
pub mod export;
pub mod registry;
pub mod span;

use std::sync::Arc;

pub use events::{Event, EventLog, DEFAULT_EVENT_CAPACITY};
pub use export::{json_escape, json_f64, to_json, to_prometheus};
pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, BUCKET_BOUNDS,
};
pub use span::{Span, SpanSite};

#[derive(Debug, Default)]
struct Inner {
    registry: MetricsRegistry,
    events: EventLog,
}

/// Shared observability handle threaded through the stack.
///
/// Clones share the same registry and event log. The default handle is
/// disabled; construct with [`Telemetry::enabled`] to record.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

/// Full point-in-time view: metrics plus the retained event log.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    pub metrics: MetricsSnapshot,
    pub events: Vec<Event>,
    pub dropped_events: u64,
}

impl Telemetry {
    /// A recording handle with a fresh registry and event log.
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner::default())),
        }
    }

    /// A handle that records nothing (same as `Telemetry::default()`).
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Resolve (creating on first use) a named counter.
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            Some(inner) => inner.registry.counter(name),
            None => Counter::noop(),
        }
    }

    /// Resolve (creating on first use) a named gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            Some(inner) => inner.registry.gauge(name),
            None => Gauge::noop(),
        }
    }

    /// Resolve (creating on first use) a named histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        match &self.inner {
            Some(inner) => inner.registry.histogram(name),
            None => Histogram::noop(),
        }
    }

    /// Start a span guard; on drop it records wall seconds into
    /// `<name>.wall_seconds` and accumulated sim seconds into
    /// `<name>.sim_seconds`. Resolves both names on every call: a site that
    /// opens a span per fill resolves a [`Telemetry::span_site`] once instead.
    pub fn span(&self, name: &str) -> Span {
        self.span_site(name).start()
    }

    /// Resolve the histogram pair of the span `name` once, for
    /// [`SpanSite::start`] to open spans on without a lookup.
    pub fn span_site(&self, name: &str) -> SpanSite {
        match &self.inner {
            Some(_) => SpanSite::new(
                self.histogram(&format!("{name}.wall_seconds")),
                self.histogram(&format!("{name}.sim_seconds")),
            ),
            None => SpanSite::default(),
        }
    }

    /// Append a per-epoch event to the log.
    pub fn event(&self, epoch: u64, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            inner.events.record(epoch, name, value);
        }
    }

    /// Retained events (empty when disabled).
    pub fn events(&self) -> Vec<Event> {
        self.inner
            .as_ref()
            .map(|i| i.events.events())
            .unwrap_or_default()
    }

    /// Point-in-time view of every instrument and event.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        match &self.inner {
            Some(inner) => TelemetrySnapshot {
                metrics: inner.registry.snapshot(),
                events: inner.events.events(),
                dropped_events: inner.events.dropped(),
            },
            None => TelemetrySnapshot::default(),
        }
    }

    /// JSON snapshot (see [`export::to_json`]).
    pub fn json(&self) -> String {
        to_json(&self.snapshot())
    }

    /// Prometheus text exposition (see [`export::to_prometheus`]).
    pub fn prometheus(&self) -> String {
        to_prometheus(&self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state() {
        let a = Telemetry::enabled();
        let b = a.clone();
        a.counter("reads").inc();
        b.counter("reads").add(2);
        assert_eq!(a.counter("reads").get(), 3);
        assert!(a.is_enabled());
    }

    #[test]
    fn default_is_disabled_and_inert() {
        let tel = Telemetry::default();
        assert!(!tel.is_enabled());
        tel.counter("reads").inc();
        tel.gauge("g").set(1.0);
        tel.histogram("h").record(1.0);
        tel.event(0, "e", 1.0);
        tel.span("s").finish();
        let snap = tel.snapshot();
        assert!(snap.metrics.counters.is_empty());
        assert!(snap.events.is_empty());
        assert_eq!(tel.json(), to_json(&TelemetrySnapshot::default()));
    }

    #[test]
    fn snapshot_combines_metrics_and_events() {
        let tel = Telemetry::enabled();
        tel.counter("storage.device.cache_hits").add(7);
        tel.event(2, "db.epoch.io_seconds", 1.25);
        let snap = tel.snapshot();
        assert_eq!(
            snap.metrics.counters,
            vec![("storage.device.cache_hits".to_string(), 7)]
        );
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].epoch, 2);
        assert_eq!(snap.dropped_events, 0);
    }

    #[test]
    fn concurrent_updates_are_lossless() {
        let tel = Telemetry::enabled();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let t = tel.clone();
            handles.push(std::thread::spawn(move || {
                let c = t.counter("storage.device.device_bytes");
                let h = t.histogram("fill.seconds");
                for _ in 0..1000 {
                    c.inc();
                    h.record(0.01);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(tel.counter("storage.device.device_bytes").get(), 4000);
        assert_eq!(tel.histogram("fill.seconds").count(), 4000);
        assert!((tel.histogram("fill.seconds").sum() - 40.0).abs() < 1e-9);
    }
}
