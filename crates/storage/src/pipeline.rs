//! Double-buffered prefetch pipeline (the paper's §6.3, for real).
//!
//! The price list's [`epoch_seconds`](crate::clock::epoch_seconds)
//! prices an epoch whose buffer filling overlaps SGD; this module is the
//! mechanism. **Two batches exist, and they are the caller's**: the
//! *producer* thread fills one (block reads + tuple-level shuffle) while the
//! consumer drains the other into the training loop, and every drained batch
//! travels back on a return lane to be refilled — the paper's two buffers,
//! never a third queued between them, and no batch memory allocated per
//! fill. [`run_epoch_pipeline`] and its [`PipelineSender`] are all there is:
//! generic over the batch, they never look inside one, and neither creates
//! nor drops one — the lanes carry `&mut` borrows of the caller's pair.
//!
//! * **Scoped, not detached.** The producer runs inside
//!   [`std::thread::scope`], so it may mutably borrow the caller's device,
//!   operators or shuffle strategy for the epoch. Simulated I/O is charged
//!   to the *real* device and fault injection and retry run their normal
//!   code path, just on the producer thread.
//! * **Determinism.** The producer runs the *same* fill code (same RNG
//!   streams, same visit order) as the serial path, the lane preserves
//!   send order, and there is one producer and one consumer: the consumer
//!   sees the tuples in the serial order and trains bit-identical models.
//! * **Clock accounting.** The simulated clock knows nothing about threads:
//!   the caller prices the epoch (`clock::epoch_seconds`). Wall clock
//!   overlaps for real.
//! * **Failure.** A producer error reaches the consumer side as
//!   [`PipelineError::Producer`] once the batch in flight drains — no hang.
//!   A consumer that stops early (or unwinds) closes the lanes; the
//!   producer's next hand-off fails, it winds down, and the scope joins.
//!   Producer panics resurface as [`PipelineError::ProducerPanicked`].
//!   Whichever way an epoch ends, both batches are back with the caller,
//!   with whatever rows they last held: a fill overwrites, never appends.
//! * **One body for serial and overlapped.** With `overlapped = false`
//!   nothing is spawned: [`PipelineSender::fill_and_send`] runs `consume` on
//!   the calling thread, on the producer's batch in place (the second batch
//!   stays untouched), records no spans and returns an empty
//!   [`PipelineReport`].
//! * **Waits are a signal, and allocate nothing.** While the consumer waits
//!   for a batch it raises a flag, [`PipelineSender::kernel_waits`]: the
//!   producer's cue to hand its batch over unfinished. Inline, it never waits.
//!   Both sides wait on a lock and condition variable on the stack, never on
//!   a channel: that allocates on a thread's first blocking receive, and what
//!   a statement allocates would depend on whether either side had to wait.
//!
//! Telemetry: each overlapped fill runs under a `pipeline.fill` span (wall
//! from the previous hand-off, sim as reported by the producer); consumer
//! waits land in the `pipeline.stall` histogram pair, producer waits for the
//! other batch to come back in the `backpressure_wall_seconds` of the report.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Instant;

use corgipile_telemetry::{SpanSite, Telemetry};

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
            PipelineError::ProducerPanicked(msg) => write!(f, "pipeline producer panicked: {msg}"),
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
    /// Wall seconds the producer spent waiting for a drained batch.
    pub backpressure_wall_seconds: f64,
}

/// Where a [`PipelineSender`] delivers its fills.
enum Link<'a, T> {
    /// Overlapped: filled batches out, drained batches back.
    Lanes(&'a Lanes<'a, T>),
    /// Inline: straight into the consumer, on this thread.
    Inline(&'a mut dyn FnMut(&mut T) -> bool),
}

/// The lanes: the batches under way and whether either side has gone, under
/// one lock, and the flag raised while the consumer waits for a batch.
struct Lanes<'a, T>(Mutex<Slots<'a, T>>, Condvar, AtomicBool);

/// `(full, drained, closed)`.
type Slots<'a, T> = (Option<&'a mut T>, Option<&'a mut T>, bool);

impl<'a, T> Lanes<'a, T> {
    /// Wait while `blocked`, then `trade` on the slots and wake the other side.
    fn trade<R>(
        &self,
        blocked: impl FnMut(&mut Slots<'a, T>) -> bool,
        trade: impl FnOnce(&mut Slots<'a, T>) -> R,
    ) -> R {
        // Nothing panics holding the lock: a poisoned one guards whole slots.
        let slots = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        let mut slots = (self.1.wait_while(slots, blocked)).unwrap_or_else(PoisonError::into_inner);
        self.1.notify_one(); // woken, the other side takes the lock after the trade
        trade(&mut slots)
    }
}

/// Closes the lanes when dropped, unwinding too, so no side waits on a gone one.
struct Close<'l, 'a, T>(&'l Lanes<'a, T>);

impl<T> Drop for Close<'_, '_, T> {
    fn drop(&mut self) {
        self.0.trade(|_| false, |(.., closed)| *closed = true);
    }
}

/// Producer-side handle: fill batches and hand them to the consumer.
pub struct PipelineSender<'a, T> {
    link: Link<'a, T>,
    waiting: Option<&'a AtomicBool>,
    fill_span: SpanSite,
    /// When the last hand-off returned: the wall start of the fill under way.
    fill_started: Instant,
    fills: u64,
    backpressure_wall_seconds: f64,
    hung_up: bool,
}

impl<'a, T> PipelineSender<'a, T> {
    fn new(link: Link<'a, T>, waiting: Option<&'a AtomicBool>, fill_span: SpanSite) -> Self {
        PipelineSender {
            link,
            waiting,
            fill_started: Instant::now(),
            fill_span,
            fills: 0,
            backpressure_wall_seconds: 0.0,
            hung_up: false,
        }
    }

    /// Whether the consumer waits for a batch: a hint, published `Relaxed`.
    pub fn kernel_waits(&self) -> impl Fn() -> bool + 'a {
        let waiting = self.waiting;
        move || waiting.is_some_and(|w| w.load(Ordering::Relaxed))
    }

    /// Hand `batch` to the consumer.
    ///
    /// Overlapped, the fill is recorded under a `pipeline.fill` span (wall
    /// since the previous hand-off returned, sim = `sim_seconds`), then the
    /// producer waits for the other batch to come back drained, swaps the
    /// two and sends the full one: `batch` now holds the drained batch's
    /// leftovers, to be overwritten by the next fill. Inline, the consumer
    /// runs right here on `batch` in place. Returns `false` once the
    /// consumer has hung up — the producer should stop filling.
    pub fn fill_and_send(&mut self, batch: &mut T, sim_seconds: f64) -> bool {
        if self.hung_up {
            return false;
        }
        match &mut self.link {
            Link::Inline(consume) => self.hung_up = !consume(batch),
            Link::Lanes(lanes) => {
                let blocked_at = Instant::now();
                let wall = (blocked_at - self.fill_started).as_secs_f64();
                self.fill_span.record(wall, sim_seconds);
                let away = |(_, drained, closed): &mut Slots<'a, T>| drained.is_none() && !*closed;
                // Closed lanes hang up; else the full batch goes, the drained one stays.
                self.hung_up = lanes.trade(away, |(full, drained, closed)| {
                    *full = drained.take().filter(|_| !*closed);
                    let sent = full.as_mut().map(|other| std::mem::swap(batch, other));
                    sent.is_none()
                });
                self.fill_started = Instant::now();
                self.backpressure_wall_seconds += (self.fill_started - blocked_at).as_secs_f64();
                self.fills += u64::from(!self.hung_up);
            }
        }
        !self.hung_up
    }
}

/// Run one epoch's fills through `consume`, in send order.
///
/// `batches` are the epoch's two buffers. `produce` fills the first and
/// hands it over with [`PipelineSender::fill_and_send`]. With `overlapped`
/// set it does so on a scoped thread while `consume` runs on the calling
/// thread, each hand-off trading the full batch for the drained one; without
/// it, `produce` runs on the calling thread and every `fill_and_send` calls
/// `consume` directly. Either way `consume` returns `false` to stop early,
/// and typed producer errors and panics are reported after the scope joins —
/// never by hanging. See the module docs for the determinism and accounting
/// rules.
pub fn run_epoch_pipeline<T, E, P, C>(
    telemetry: &Telemetry,
    overlapped: bool,
    batches: &mut [T; 2],
    produce: P,
    mut consume: C,
) -> Result<PipelineReport, PipelineError<E>>
where
    T: Send,
    E: Send,
    P: FnOnce(&mut T, &mut PipelineSender<'_, T>) -> Result<(), E> + Send,
    C: FnMut(&mut T) -> bool,
{
    let [building, spare] = batches;
    if !overlapped {
        let mut sender = PipelineSender::new(Link::Inline(&mut consume), None, SpanSite::default());
        let outcome = produce(building, &mut sender).map_err(PipelineError::Producer);
        return outcome.map(|()| PipelineReport::default());
    }
    let slots = Mutex::new((None, Some(spare), false));
    let lanes = &Lanes(slots, Condvar::new(), AtomicBool::new(false));
    // Resolved per epoch, not per stall or per fill: how often the consumer
    // waits is timing, and what a statement allocates must not depend on it.
    let stall = telemetry.span_site("pipeline.stall");
    let fill_span = telemetry.span_site("pipeline.fill");
    std::thread::scope(|scope| {
        let producer = scope.spawn(move || {
            let _close = Close(lanes);
            let mut sender = PipelineSender::new(Link::Lanes(lanes), Some(&lanes.2), fill_span);
            let outcome = produce(building, &mut sender);
            (outcome, sender.fills, sender.backpressure_wall_seconds)
        });

        let mut report = PipelineReport::default();
        // Closed on an early stop or unwinding: the producer's next hand-off fails.
        let close = Close(lanes);
        loop {
            let mut waited_from = None;
            let empty = |(full, _, closed): &mut Slots<'_, T>| {
                // Up while a look finds no batch, and more to come; the stall runs from the first.
                let empty = full.is_none() && !*closed;
                lanes.2.store(empty, Ordering::Relaxed);
                waited_from = waited_from.or(empty.then(Instant::now));
                empty
            };
            let got = lanes.trade(empty, |(full, ..)| full.take());
            // End of stream is not a stall.
            let Some(batch) = got else { break };
            if let Some(waited) = waited_from.map(|from| from.elapsed().as_secs_f64()) {
                report.stall_wall_seconds += waited;
                stall.record(waited, 0.0);
            }
            report.batches_consumed += 1;
            if !consume(batch) {
                break;
            }
            lanes.trade(|_| false, |(_, drained, _)| *drained = Some(batch));
        }
        drop(close);

        let panicked = |payload: Box<dyn std::any::Any + Send>| {
            let text = payload.downcast_ref::<&str>().map(|s| s.to_string());
            let text = text.or_else(|| payload.downcast_ref::<String>().cloned());
            PipelineError::ProducerPanicked(text.unwrap_or_else(|| "unknown panic payload".into()))
        };
        let (outcome, fills, backpressure) = producer.join().map_err(panicked)?;
        (report.fills, report.backpressure_wall_seconds) = (fills, backpressure);
        outcome.map_err(PipelineError::Producer).map(|()| report)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StorageError;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn batches_arrive_in_send_order() {
        for overlapped in [false, true] {
            let tel = Telemetry::enabled();
            let mut got = Vec::new();
            let report = run_epoch_pipeline::<u32, StorageError, _, _>(
                &tel,
                overlapped,
                &mut [0, 0],
                |batch, sender| {
                    for i in 0..16 {
                        *batch = i;
                        if !sender.fill_and_send(batch, 0.0) {
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
            // Inline runs report nothing: no thread, no lanes, no spans.
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
    fn every_consumer_wait_is_one_stall_sample_and_end_of_stream_is_none() {
        // A producer slower than the consumer: the consumer waits for each
        // of the three fills, then for an end of stream that is not a stall.
        let tel = Telemetry::enabled();
        let report = run_epoch_pipeline::<u32, StorageError, _, _>(
            &tel,
            true,
            &mut [0, 0],
            |batch, sender| {
                for _ in 0..3 {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    sender.fill_and_send(batch, 0.0);
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
                Ok(())
            },
            |_| true,
        )
        .unwrap();
        let (wall, sim) = (
            tel.histogram("pipeline.stall.wall_seconds"),
            tel.histogram("pipeline.stall.sim_seconds"),
        );
        assert_eq!((wall.count(), sim.count(), sim.sum()), (3, 3, 0.0));
        assert_eq!(wall.sum(), report.stall_wall_seconds);
        assert!(wall.sum() >= 0.05, "three waits of about 20 ms each");
    }

    #[test]
    fn fills_alternate_between_the_callers_two_batches() {
        // Inline, the consumer sees the producer's batch in place and the
        // second one is never touched; overlapped, every hand-off trades the
        // two's contents, so the consumer sees both allocations in turn —
        // and never a third.
        let tel = Telemetry::disabled();
        for overlapped in [false, true] {
            let mut pair = [Vec::with_capacity(8), Vec::with_capacity(8)];
            let owned = pair.each_ref().map(|b: &Vec<u64>| b.as_ptr() as usize);
            let caller = std::thread::current().id();
            let mut seen = Vec::new();
            run_epoch_pipeline::<Vec<u64>, StorageError, _, _>(
                &tel,
                overlapped,
                &mut pair,
                |batch, sender| {
                    for i in 0..4u64 {
                        batch.clear();
                        batch.extend([i, i + 1]);
                        assert!(sender.fill_and_send(batch, 0.0));
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
            let fills: Vec<_> = seen.iter().map(|(_, b)| b.clone()).collect();
            assert_eq!(fills, [[0, 1], [1, 2], [2, 3], [3, 4]]);
            let expected = if overlapped {
                [owned[0], owned[1], owned[0], owned[1]]
            } else {
                [owned[0]; 4]
            };
            assert_eq!(seen.iter().map(|(p, _)| *p).collect::<Vec<_>>(), expected);
            assert!(pair.iter().all(|b| b.capacity() == 8));
        }
    }

    #[test]
    fn the_producer_sees_the_consumer_wait_and_an_inline_consumer_never_does() {
        // Overlapped, the producer holds each fill until the consumer is
        // blocked waiting for it — which it must come to, so this ends.
        let tel = Telemetry::disabled();
        for overlapped in [false, true] {
            let mut got = Vec::new();
            run_epoch_pipeline::<u32, StorageError, _, _>(
                &tel,
                overlapped,
                &mut [0, 0],
                |batch, sender| {
                    let kernel_waits = sender.kernel_waits();
                    for i in 0..3 {
                        while overlapped && !kernel_waits() {
                            std::thread::yield_now();
                        }
                        assert_eq!(kernel_waits(), overlapped);
                        *batch = i;
                        sender.fill_and_send(batch, 0.0);
                    }
                    Ok(())
                },
                |i| {
                    got.push(*i);
                    true
                },
            )
            .unwrap();
            assert_eq!(got, [0, 1, 2]);
        }
    }

    static ALIVE: AtomicUsize = AtomicUsize::new(0);
    static PEAK: AtomicUsize = AtomicUsize::new(0);

    /// A batch that counts how many of its kind exist.
    struct Counted(Vec<u64>);

    impl Default for Counted {
        fn default() -> Self {
            let alive = ALIVE.fetch_add(1, Ordering::SeqCst) + 1;
            PEAK.fetch_max(alive, Ordering::SeqCst);
            Counted(Vec::new())
        }
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            ALIVE.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn at_most_two_batches_are_ever_alive() {
        #[derive(Clone, Copy, PartialEq, Debug)]
        enum Ending {
            Drained,
            ConsumerStops,
            ProducerFails,
            ProducerPanics,
        }
        let tel = Telemetry::disabled();
        for overlapped in [false, true] {
            for ending in [
                Ending::Drained,
                Ending::ConsumerStops,
                Ending::ProducerFails,
                Ending::ProducerPanics,
            ] {
                if ending == Ending::ProducerPanics && !overlapped {
                    continue; // an inline producer's panic is the caller's own
                }
                let mut pair: [Counted; 2] = Default::default();
                // Three epochs over the same pair: whatever an epoch left in
                // a batch, the next one's fills overwrite it.
                for epoch in 0..3u64 {
                    let mut got = Vec::new();
                    let result = run_epoch_pipeline(
                        &tel,
                        overlapped,
                        &mut pair,
                        |batch, sender| {
                            for fill in 0..6 {
                                batch.0.clear();
                                batch.0.extend([epoch, fill]);
                                if !sender.fill_and_send(batch, 0.0) {
                                    assert_eq!(ending, Ending::ConsumerStops);
                                    return Ok(());
                                }
                                match ending {
                                    Ending::ProducerFails if fill == 2 => {
                                        return Err(StorageError::Corrupt("dead".into()))
                                    }
                                    Ending::ProducerPanics if fill == 2 => panic!("boom"),
                                    _ => {}
                                }
                            }
                            Ok(())
                        },
                        |batch| {
                            got.push(batch.0.clone());
                            !(ending == Ending::ConsumerStops && got.len() == 2)
                        },
                    );
                    let fills = match ending {
                        Ending::Drained => 6,
                        Ending::ConsumerStops => 2,
                        // What was handed over before the end still drains.
                        Ending::ProducerFails | Ending::ProducerPanics => 3,
                    };
                    let expected: Vec<_> = (0..fills as u64).map(|f| vec![epoch, f]).collect();
                    assert_eq!(got, expected, "{ending:?} overlapped={overlapped}");
                    match (ending, result) {
                        (Ending::Drained | Ending::ConsumerStops, Ok(_)) => {}
                        (Ending::ProducerFails, Err(PipelineError::Producer(_))) => {}
                        (Ending::ProducerPanics, Err(PipelineError::ProducerPanicked(m))) => {
                            assert!(m.contains("boom"))
                        }
                        (_, other) => panic!("{ending:?}: unexpected {other:?}"),
                    }
                    assert_eq!(ALIVE.load(Ordering::SeqCst), 2, "both are back");
                }
                drop(pair);
                assert_eq!(ALIVE.load(Ordering::SeqCst), 0);
            }
        }
        assert_eq!(PEAK.load(Ordering::SeqCst), 2);
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
                &mut [0u32, 0],
                |batch, sender| {
                    for i in [1, 2] {
                        *batch = i;
                        sender.fill_and_send(batch, 0.0);
                    }
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
            let report = run_epoch_pipeline::<u64, StorageError, _, _>(
                &tel,
                overlapped,
                &mut [0, 0],
                |batch, sender| {
                    let mut sent_all = true;
                    for i in 0..1000u64 {
                        *batch = i;
                        if !sender.fill_and_send(batch, 0.0) {
                            sent_all = false;
                            break;
                        }
                    }
                    assert!(!sent_all, "consumer hang-up should stop the producer");
                    assert!(!sender.fill_and_send(batch, 0.0), "and it stays hung up");
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
    fn a_consumer_that_panics_stops_the_producer() {
        // The lanes close as the consumer unwinds, so the producer's next
        // hand-off fails and the scope joins instead of waiting forever.
        let tel = Telemetry::disabled();
        let caught = std::panic::catch_unwind(|| {
            run_epoch_pipeline::<u64, StorageError, _, _>(
                &tel,
                true,
                &mut [0, 0],
                |batch, sender| {
                    while sender.fill_and_send(batch, 0.0) {}
                    Ok(())
                },
                |_| panic!("kernel"),
            )
        });
        assert!(caught.is_err());
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
                run_epoch_pipeline::<Vec<u64>, StorageError, _, _>(
                    &tel,
                    true,
                    &mut Default::default(),
                    move |batch, sender| {
                        for chunk in send_side.chunks(3) {
                            batch.clear();
                            batch.extend_from_slice(chunk);
                            if !sender.fill_and_send(batch, 0.0) {
                                break;
                            }
                        }
                        Ok(())
                    },
                    |chunk| {
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
