//! Span guards: scoped timers that record into paired histograms.
//!
//! A [`Span`] measures *wall* time automatically (from creation to drop)
//! and *simulated* time explicitly: callers add sim-clock deltas via
//! [`Span::add_sim_seconds`] as they charge the [`SimDevice`] clock. On
//! drop the wall duration lands in `<name>.wall_seconds` and the
//! accumulated sim duration in `<name>.sim_seconds`. A code path that opens
//! a span per fill resolves that pair once, as a [`SpanSite`], and opens its
//! spans there.
//!
//! [`SimDevice`]: https://en.wikipedia.org/wiki/Discrete-event_simulation

use std::time::Instant;

use crate::registry::Histogram;

/// A span's `<name>.wall_seconds` / `<name>.sim_seconds` pair, resolved once
/// by [`crate::Telemetry::span_site`]: a span opened from it formats no name,
/// looks nothing up and allocates nothing. The default site records nothing.
#[derive(Debug, Clone, Default)]
pub struct SpanSite {
    wall: Histogram,
    sim: Histogram,
}

impl SpanSite {
    pub(crate) fn new(wall: Histogram, sim: Histogram) -> Self {
        SpanSite { wall, sim }
    }

    /// Record one span measured by the caller: `wall` and `sim` seconds.
    pub fn record(&self, wall: f64, sim: f64) {
        self.wall.record(wall);
        self.sim.record(sim);
    }

    /// Open a span recording into this site's pair.
    pub fn start(&self) -> Span {
        Span {
            started: self.wall.0.is_some().then(Instant::now),
            site: self.clone(),
            sim_seconds: 0.0,
        }
    }
}

/// Guard object returned by [`crate::Telemetry::span`] and [`SpanSite::start`].
#[derive(Debug)]
pub struct Span {
    site: SpanSite,
    started: Option<Instant>,
    sim_seconds: f64,
}

impl Span {
    /// Attribute `seconds` of simulated-clock time to this span.
    pub fn add_sim_seconds(&mut self, seconds: f64) {
        if self.started.is_some() && seconds > 0.0 {
            self.sim_seconds += seconds;
        }
    }

    /// Simulated seconds accumulated so far.
    pub fn sim_seconds(&self) -> f64 {
        self.sim_seconds
    }

    /// Explicitly end the span (equivalent to dropping it).
    pub fn finish(self) {}

    /// End the span and open one on `next` at the same instant: the phases
    /// of a piece of work, timed this way, add up to the whole.
    pub fn then(mut self, next: &SpanSite) -> Span {
        let next = next.start();
        self.end(next.started.unwrap_or_else(Instant::now));
        next
    }

    /// Discard the span without recording anything — for guards opened
    /// speculatively around work that turned out not to happen (e.g. the
    /// end-of-stream buffer refill that finds no tuples).
    pub fn cancel(mut self) {
        self.started = None;
    }

    fn end(&mut self, at: Instant) {
        if let Some(started) = self.started.take() {
            let wall = (at - started).as_secs_f64();
            self.site.record(wall, self.sim_seconds);
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.end(Instant::now());
    }
}

#[cfg(test)]
mod tests {
    use crate::Telemetry;

    #[test]
    fn span_records_wall_and_sim_on_drop() {
        let tel = Telemetry::enabled();
        {
            let mut span = tel.span("loader.fill");
            span.add_sim_seconds(0.25);
            span.add_sim_seconds(0.50);
            assert!((span.sim_seconds() - 0.75).abs() < 1e-12);
        }
        let snap = tel.snapshot();
        let sim = snap
            .metrics
            .histograms
            .iter()
            .find(|(name, _)| name == "loader.fill.sim_seconds")
            .map(|(_, h)| h.clone())
            .expect("sim histogram registered");
        assert_eq!(sim.count, 1);
        assert!((sim.sum - 0.75).abs() < 1e-12);
        let wall = snap
            .metrics
            .histograms
            .iter()
            .find(|(name, _)| name == "loader.fill.wall_seconds")
            .map(|(_, h)| h.clone())
            .expect("wall histogram registered");
        assert_eq!(wall.count, 1);
        assert!(wall.sum >= 0.0);
    }

    #[test]
    fn spans_opened_on_a_resolved_site_record_into_the_named_pair() {
        let tel = Telemetry::enabled();
        let site = tel.span_site("loader.fill");
        for _ in 0..3 {
            site.start().add_sim_seconds(0.5);
        }
        tel.span("loader.fill").finish();
        let wall = tel.histogram("loader.fill.wall_seconds");
        let sim = tel.histogram("loader.fill.sim_seconds");
        assert_eq!((wall.count(), sim.count(), sim.sum()), (4, 4, 1.5));
        // Phases chained with `then` tile the interval of a span around them.
        let (a, b) = (tel.span_site("phase.a"), tel.span_site("phase.b"));
        let whole = tel.span("phase.whole");
        let phase = a.start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let phase = phase.then(&b);
        std::thread::sleep(std::time::Duration::from_millis(2));
        drop(phase);
        drop(whole);
        let wall = |name: &str| tel.histogram(&format!("{name}.wall_seconds")).sum();
        assert!(wall("phase.a") >= 0.002 && wall("phase.b") >= 0.002);
        assert!(wall("phase.a") + wall("phase.b") <= wall("phase.whole"));
        // A site resolved from a disabled handle opens spans that record nothing.
        let off = Telemetry::disabled();
        off.span_site("loader.fill").start().finish();
        assert!(off.snapshot().metrics.histograms.is_empty());
    }

    #[test]
    fn cancelled_span_records_nothing() {
        let tel = Telemetry::enabled();
        let mut span = tel.span("loader.fill");
        span.add_sim_seconds(1.0);
        span.cancel();
        assert!(tel
            .snapshot()
            .metrics
            .histograms
            .iter()
            .all(|(_, h)| h.count == 0));
    }

    #[test]
    fn disabled_span_records_nothing() {
        let tel = Telemetry::disabled();
        {
            let mut span = tel.span("loader.fill");
            span.add_sim_seconds(1.0);
            assert_eq!(span.sim_seconds(), 0.0);
        }
        assert!(tel.snapshot().metrics.histograms.is_empty());
    }
}
