//! Double-buffered prefetch pipeline (the paper's §6.3, for real).
//!
//! The analytic [`DoubleBufferModel`](crate::buffer::DoubleBufferModel)
//! predicts the epoch time when buffer filling overlaps SGD; this module is
//! the mechanism: a *producer* thread fills buffer `B` (block reads +
//! tuple-level shuffle) while the consumer drains buffer `A` into the
//! training loop, the two swapping through a bounded channel of capacity
//! [`PIPELINE_SLOTS`]. [`run_epoch_pipeline`] and its [`PipelineSender`] are
//! all there is: generic over the batch, they never look inside one — the
//! SQL executor sends page pins and row handles, the library trainer owned
//! tuples.
//!
//! * **Scoped, not detached.** The producer runs inside
//!   [`std::thread::scope`], so it may mutably borrow the caller's device,
//!   operators or shuffle strategy for the epoch. Simulated I/O is charged
//!   to the *real* device and fault injection and retry run their normal
//!   code path, just on the producer thread.
//! * **Determinism.** The producer runs the *same* fill code (same RNG
//!   streams, same visit order) as the serial path, the channel preserves
//!   send order, and there is one producer and one consumer: the consumer
//!   sees the tuples in the serial order and trains bit-identical models.
//! * **Clock accounting.** The simulated clock knows nothing about threads:
//!   fills charge `io_seconds` as usual and the epoch-time formula
//!   (`DoubleBufferModel::double_buffer` or `single_buffer` over the
//!   per-fill vectors) is the caller's job. Wall clock overlaps for real.
//! * **Failure.** A producer error reaches the consumer side as
//!   [`PipelineError::Producer`] once in-flight batches drain — no hang. A
//!   consumer that stops early drops its receiver; the producer's next send
//!   fails, it winds down, and the scope joins. Producer panics resurface
//!   as [`PipelineError::ProducerPanicked`].
//! * **One body for serial and overlapped.** With `overlapped = false`
//!   nothing is spawned: [`PipelineSender::fill_and_send`] runs `consume` on
//!   the calling thread, on the producer's own batch (which keeps its
//!   allocation), records no spans and returns an empty [`PipelineReport`].
//!
//! Telemetry: each overlapped fill runs under a `pipeline.fill` span (wall
//! from the previous hand-off, sim as reported by the producer); consumer
//! waits are recorded under `pipeline.stall` spans, producer waits in the
//! `pipeline.backpressure.wall_seconds` histogram.

use std::fmt;
use std::sync::mpsc::{Receiver, SyncSender, TryRecvError};
use std::time::Instant;

use corgipile_telemetry::Telemetry;

/// Bounded-channel capacity between producer and consumer: one batch in
/// flight plus one being built equals the paper's two buffers.
pub const PIPELINE_SLOTS: usize = 1;

/// Error surfaced on the consumer side of [`run_epoch_pipeline`].
#[derive(Debug)]
pub enum PipelineError<E> {
    /// The producer closure returned a typed error.
    Producer(E),
    /// The producer thread panicked; the payload's message is preserved.
    ProducerPanicked(String),
}

impl<E: fmt::Display> fmt::Display for PipelineError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Producer(e) => write!(f, "pipeline producer failed: {e}"),
            PipelineError::ProducerPanicked(msg) => {
                write!(f, "pipeline producer panicked: {msg}")
            }
        }
    }
}

impl<E: fmt::Debug + fmt::Display> std::error::Error for PipelineError<E> {}

/// What one epoch of pipelined execution did, beyond its batches.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PipelineReport {
    /// Batches the producer filled and handed over.
    pub fills: u64,
    /// Batches the consumer actually received (lower if it stopped early).
    pub batches_consumed: u64,
    /// Wall seconds the consumer spent waiting for the producer.
    pub stall_wall_seconds: f64,
    /// Wall seconds the producer spent blocked on a full channel.
    pub backpressure_wall_seconds: f64,
}

/// Where a [`PipelineSender`] delivers its fills.
enum Link<'a, T> {
    /// Overlapped: through the bounded channel to the consumer thread.
    Channel(SyncSender<T>),
    /// Inline: straight into the consumer, on this thread.
    Inline(&'a mut dyn FnMut(&mut T) -> bool),
}

/// Producer-side handle: fill batches and hand them to the consumer.
pub struct PipelineSender<'a, T> {
    link: Link<'a, T>,
    telemetry: Telemetry,
    /// When the previous hand-off returned: the wall start of the fill
    /// being produced now.
    fill_started: Instant,
    fills: u64,
    backpressure_wall_seconds: f64,
    hung_up: bool,
}

impl<'a, T: Default> PipelineSender<'a, T> {
    fn new(link: Link<'a, T>, telemetry: &Telemetry) -> Self {
        PipelineSender {
            link,
            fill_started: Instant::now(),
            telemetry: telemetry.clone(),
            fills: 0,
            backpressure_wall_seconds: 0.0,
            hung_up: false,
        }
    }

    /// Hand `batch` to the consumer.
    ///
    /// Overlapped, the batch is taken (leaving `T::default()` behind) and
    /// sent through the channel under a `pipeline.fill` span: wall since
    /// the previous hand-off returned, sim = `sim_seconds`. Inline, the
    /// consumer runs right here on `batch` in place. Returns `false` once
    /// the consumer has hung up — the producer should stop filling; the
    /// batch that observed the hang-up is dropped.
    pub fn fill_and_send(&mut self, batch: &mut T, sim_seconds: f64) -> bool {
        if self.hung_up {
            return false;
        }
        match &mut self.link {
            Link::Inline(consume) => self.hung_up = !consume(batch),
            Link::Channel(tx) => {
                let mut span = self.telemetry.span("pipeline.fill");
                span.backdate(self.fill_started);
                span.add_sim_seconds(sim_seconds);
                span.finish();
                let blocked_at = Instant::now();
                match tx.send(std::mem::take(batch)) {
                    Ok(()) => {
                        self.fill_started = Instant::now();
                        self.backpressure_wall_seconds +=
                            (self.fill_started - blocked_at).as_secs_f64();
                        self.fills += 1;
                    }
                    Err(_) => self.hung_up = true,
                }
            }
        }
        !self.hung_up
    }
}

/// Run one epoch's fills through `consume`, in send order.
///
/// With `overlapped` set, `produce` executes on a scoped thread and pushes
/// batches through the bounded channel via
/// [`PipelineSender::fill_and_send`] while `consume` runs on the calling
/// thread. Without it, `produce` runs on the calling thread and every
/// `fill_and_send` calls `consume` directly. Either way `consume` returns
/// `false` to stop early, and typed producer errors and panics are
/// reported after the scope joins — never by hanging. See the module docs
/// for the determinism and accounting rules.
pub fn run_epoch_pipeline<T, E, P, C>(
    telemetry: &Telemetry,
    overlapped: bool,
    produce: P,
    mut consume: C,
) -> Result<PipelineReport, PipelineError<E>>
where
    T: Send + Default,
    E: Send,
    P: FnOnce(&mut PipelineSender<'_, T>) -> Result<(), E> + Send,
    C: FnMut(&mut T) -> bool,
{
    if !overlapped {
        let mut sender = PipelineSender::new(Link::Inline(&mut consume), telemetry);
        return match produce(&mut sender) {
            Ok(()) => Ok(PipelineReport::default()),
            Err(e) => Err(PipelineError::Producer(e)),
        };
    }
    let (tx, rx) = std::sync::mpsc::sync_channel::<T>(PIPELINE_SLOTS);
    std::thread::scope(|scope| {
        let producer = scope.spawn(move || {
            let mut sender = PipelineSender::new(Link::Channel(tx), telemetry);
            let outcome = produce(&mut sender);
            (outcome, sender.fills, sender.backpressure_wall_seconds)
        });

        let mut report = PipelineReport::default();
        let mut rx = Some(rx);
        while let Some(receiver) = rx.as_ref() {
            let batch = recv_with_stall(receiver, telemetry, &mut report);
            match batch {
                Some(mut b) => {
                    report.batches_consumed += 1;
                    if !consume(&mut b) {
                        // Early stop: drop the receiver so the producer's
                        // next send fails and it winds down.
                        rx = None;
                    }
                }
                None => rx = None,
            }
        }

        match producer.join() {
            Ok((outcome, fills, backpressure)) => {
                report.fills = fills;
                report.backpressure_wall_seconds = backpressure;
                match outcome {
                    Ok(()) => Ok(report),
                    Err(e) => Err(PipelineError::Producer(e)),
                }
            }
            Err(payload) => Err(PipelineError::ProducerPanicked(panic_message(payload))),
        }
    })
}

/// Receive one batch, charging any wait to `pipeline.stall`.
fn recv_with_stall<T>(
    rx: &Receiver<T>,
    telemetry: &Telemetry,
    report: &mut PipelineReport,
) -> Option<T> {
    // Fast path: a batch is already waiting, no stall to record.
    match rx.try_recv() {
        Ok(batch) => return Some(batch),
        Err(TryRecvError::Disconnected) => return None,
        Err(TryRecvError::Empty) => {}
    }
    let span = telemetry.span("pipeline.stall");
    let waited_from = Instant::now();
    let got = rx.recv().ok();
    if got.is_some() {
        report.stall_wall_seconds += waited_from.elapsed().as_secs_f64();
        span.finish();
    } else {
        // End of stream is not a stall.
        span.cancel();
    }
    got
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StorageError;

    #[test]
    fn batches_arrive_in_send_order() {
        for overlapped in [false, true] {
            let tel = Telemetry::enabled();
            let mut got = Vec::new();
            let report = run_epoch_pipeline::<_, StorageError, _, _>(
                &tel,
                overlapped,
                |sender| {
                    for mut i in 0..16 {
                        if !sender.fill_and_send(&mut i, 0.0) {
                            break;
                        }
                    }
                    Ok(())
                },
                |i| {
                    got.push(*i);
                    true
                },
            )
            .unwrap();
            assert_eq!(got, (0..16).collect::<Vec<_>>());
            // Inline runs report nothing: no thread, no channel, no spans.
            let n = if overlapped { 16 } else { 0 };
            assert_eq!((report.fills, report.batches_consumed), (n, n));
            // One `pipeline.fill` span per hand-off.
            let snap = tel.snapshot();
            let spans = snap
                .metrics
                .histograms
                .iter()
                .find(|(name, _)| name == "pipeline.fill.wall_seconds")
                .map_or(0, |(_, h)| h.count);
            assert_eq!(spans, n);
        }
    }

    #[test]
    fn inline_mode_consumes_the_producers_batch_in_place() {
        // The consumer sees the producer's own Vec (same allocation every
        // fill), on the producer's thread; the overlapped mode takes it.
        let tel = Telemetry::disabled();
        let caller = std::thread::current().id();
        let mut seen = Vec::new();
        run_epoch_pipeline::<Vec<u64>, StorageError, _, _>(
            &tel,
            false,
            |sender| {
                let mut batch = Vec::with_capacity(8);
                for i in 0..4u64 {
                    batch.clear();
                    batch.extend([i, i + 1]);
                    assert!(sender.fill_and_send(&mut batch, 0.0));
                    assert_eq!(batch.capacity(), 8, "inline keeps the allocation");
                }
                Ok(())
            },
            |batch| {
                assert_eq!(std::thread::current().id(), caller);
                seen.push((batch.as_ptr() as usize, batch.clone()));
                true
            },
        )
        .unwrap();
        assert_eq!(seen.len(), 4);
        assert!(seen.iter().all(|(p, _)| *p == seen[0].0));
        assert_eq!(seen[3].1, vec![3, 4]);
    }

    #[test]
    fn producer_error_is_typed_and_does_not_hang() {
        let tel = Telemetry::disabled();
        let mut got = Vec::new();
        for overlapped in [false, true] {
            got.clear();
            let err = run_epoch_pipeline(
                &tel,
                overlapped,
                |sender| {
                    sender.fill_and_send(&mut 1u32, 0.0);
                    sender.fill_and_send(&mut 2u32, 0.0);
                    Err(StorageError::ReadFailed {
                        block: 7,
                        attempts: 3,
                        message: "dead block".into(),
                    })
                },
                |i| {
                    got.push(*i);
                    true
                },
            )
            .unwrap_err();
            // In-flight batches drain first, then the typed error surfaces.
            assert_eq!(got, vec![1, 2]);
            match err {
                PipelineError::Producer(StorageError::ReadFailed {
                    block, attempts, ..
                }) => {
                    assert_eq!((block, attempts), (7, 3));
                }
                other => panic!("unexpected error: {other:?}"),
            }
        }
    }

    #[test]
    fn early_consumer_stop_joins_cleanly() {
        let tel = Telemetry::disabled();
        for overlapped in [false, true] {
            let mut seen = 0u64;
            let report = run_epoch_pipeline::<_, StorageError, _, _>(
                &tel,
                overlapped,
                |sender| {
                    let mut sent_all = true;
                    for mut i in 0..1000u64 {
                        if !sender.fill_and_send(&mut i, 0.0) {
                            sent_all = false;
                            break;
                        }
                    }
                    assert!(!sent_all, "consumer hang-up should stop the producer");
                    assert!(!sender.fill_and_send(&mut 0, 0.0), "and it stays hung up");
                    Ok(())
                },
                |_| {
                    seen += 1;
                    seen < 3
                },
            )
            .unwrap();
            assert_eq!(seen, 3);
            if overlapped {
                assert_eq!(report.batches_consumed, 3);
                assert!(report.fills < 1000);
            }
        }
    }

    #[test]
    fn producer_panic_is_reported_not_propagated() {
        let tel = Telemetry::disabled();
        let err = run_epoch_pipeline::<u32, StorageError, _, _>(
            &tel,
            true,
            |_| panic!("boom in producer"),
            |_| true,
        )
        .unwrap_err();
        match err {
            PipelineError::ProducerPanicked(msg) => assert!(msg.contains("boom")),
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn stress_many_epochs_small_buffers_preserve_order() {
        // Loom-free determinism stress: whatever the thread interleaving,
        // the consumer must observe the producer's exact send order.
        for seed in 0u64..8 {
            for epoch in 0..4u64 {
                let tel = Telemetry::disabled();
                let expected: Vec<u64> = (0..64)
                    .map(|i| i ^ (seed.wrapping_mul(0x9E37) + epoch))
                    .collect();
                let send_side = expected.clone();
                let mut got = Vec::new();
                run_epoch_pipeline::<_, StorageError, _, _>(
                    &tel,
                    true,
                    move |sender| {
                        for chunk in send_side.chunks(3) {
                            if !sender.fill_and_send(&mut chunk.to_vec(), 0.0) {
                                break;
                            }
                        }
                        Ok(())
                    },
                    |chunk: &mut Vec<u64>| {
                        got.extend(chunk.iter().copied());
                        true
                    },
                )
                .unwrap();
                assert_eq!(got, expected, "order diverged at seed {seed} epoch {epoch}");
            }
        }
    }
}
