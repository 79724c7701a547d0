//! Span guards: scoped timers that record into paired histograms.
//!
//! A [`Span`] measures *wall* time automatically (from creation to drop)
//! and *simulated* time explicitly: callers add sim-clock deltas via
//! [`Span::add_sim_seconds`] as they charge the [`SimDevice`] clock. On
//! drop the wall duration lands in `<name>.wall_seconds` and the
//! accumulated sim duration in `<name>.sim_seconds`.
//!
//! [`SimDevice`]: https://en.wikipedia.org/wiki/Discrete-event_simulation

use std::time::Instant;

use crate::registry::Histogram;

/// Guard object returned by [`crate::Telemetry::span`].
#[derive(Debug)]
pub struct Span {
    wall: Histogram,
    sim: Histogram,
    started: Option<Instant>,
    sim_seconds: f64,
}

impl Span {
    pub(crate) fn new(wall: Histogram, sim: Histogram, enabled: bool) -> Self {
        Span {
            wall,
            sim,
            started: if enabled { Some(Instant::now()) } else { None },
            sim_seconds: 0.0,
        }
    }

    /// A span that records nothing; used by disabled telemetry handles.
    pub fn noop() -> Self {
        Span {
            wall: Histogram::noop(),
            sim: Histogram::noop(),
            started: None,
            sim_seconds: 0.0,
        }
    }

    /// Attribute `seconds` of simulated-clock time to this span.
    pub fn add_sim_seconds(&mut self, seconds: f64) {
        if self.started.is_some() && seconds > 0.0 {
            self.sim_seconds += seconds;
        }
    }

    /// Move the wall-clock start back to `started`, for work that began
    /// before the guard could be opened (a fill handed over after the fact).
    pub fn backdate(&mut self, started: Instant) {
        if self.started.is_some() {
            self.started = Some(started);
        }
    }

    /// Simulated seconds accumulated so far.
    pub fn sim_seconds(&self) -> f64 {
        self.sim_seconds
    }

    /// Explicitly end the span (equivalent to dropping it).
    pub fn finish(self) {}

    /// Discard the span without recording anything — for guards opened
    /// speculatively around work that turned out not to happen (e.g. the
    /// end-of-stream buffer refill that finds no tuples).
    pub fn cancel(mut self) {
        self.started = None;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(started) = self.started.take() {
            self.wall.record(started.elapsed().as_secs_f64());
            self.sim.record(self.sim_seconds);
        }
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
    fn backdated_span_measures_wall_from_the_earlier_start() {
        let tel = Telemetry::enabled();
        let earlier = std::time::Instant::now() - std::time::Duration::from_secs(2);
        let mut span = tel.span("loader.fill");
        span.backdate(earlier);
        span.finish();
        let snap = tel.snapshot();
        let (_, wall) = snap
            .metrics
            .histograms
            .iter()
            .find(|(name, _)| name == "loader.fill.wall_seconds")
            .expect("wall histogram registered");
        assert!(wall.sum >= 2.0, "wall {}", wall.sum);
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
