//! The [`Recorder`] trait: the single seam every instrumented
//! algorithm talks to.
//!
//! Two channels with different determinism contracts:
//!
//! * [`Recorder::event`] carries [`Event`]s — deterministic facts about
//!   the search that must be identical for every thread count.
//! * [`Recorder::span`] / [`Recorder::counter`] / [`Recorder::gauge`]
//!   carry measurements (durations, queue depths, worker counts),
//!   keyed by the [`Phase`], [`Counter`] and [`Gauge`] of the
//!   [`metric`](crate::metric) list; they only ever land in aggregate
//!   form in the run manifest, never in the event stream.
//!
//! The default implementation of every method is a no-op, and
//! [`NoopRecorder::enabled`] is `false`, so an uninstrumented fit pays
//! one virtual call per emission site at most — and the hot loops gate
//! even that behind `enabled()` so the disabled path does no work and
//! takes no clocks. The facade's
//! `disabled_recorder_receives_no_spans_and_no_events` test
//! (`tests/determinism.rs`) pins this for whole fits; the end-to-end
//! benchmark's `fit.trace_overhead` prices the enabled path.

use std::time::Duration;

use crate::event::Event;
use crate::metric::{Counter, Gauge, Phase};

/// Sink for structured run events and phase measurements.
///
/// Implementations must be `Sync`: a recorder reference is shared with
/// the fit while worker threads are live (the algorithms themselves
/// only emit from the driving thread, but the bound keeps the seam
/// future-proof and lets tests share one recorder across fits).
pub trait Recorder: Sync {
    /// Is this recorder collecting anything? Hot loops skip building
    /// event payloads (and skip reading clocks) when this is `false`.
    fn enabled(&self) -> bool {
        false
    }

    /// Record one structured event.
    fn event(&self, _event: &Event) {}

    /// Record one timed execution of `phase`.
    fn span(&self, _phase: Phase, _elapsed: Duration) {}

    /// Add `delta` to the monotone counter `key`.
    fn counter(&self, _key: Counter, _delta: u64) {}

    /// Record an observation of the gauge `key` (manifests keep the
    /// last value and the maximum).
    fn gauge(&self, _key: Gauge, _value: f64) {}
}

/// The default recorder: collects nothing, reports disabled.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// Forwards everything to two recorders (e.g. a `RingRecorder` for the
/// CLI's verbose summary plus a `JsonlRecorder` for `--trace-out`).
pub struct Fanout<'a> {
    a: &'a dyn Recorder,
    b: &'a dyn Recorder,
}

impl<'a> Fanout<'a> {
    /// Pair two recorders.
    pub fn new(a: &'a dyn Recorder, b: &'a dyn Recorder) -> Self {
        Fanout { a, b }
    }
}

impl Recorder for Fanout<'_> {
    fn enabled(&self) -> bool {
        self.a.enabled() || self.b.enabled()
    }

    fn event(&self, event: &Event) {
        self.a.event(event);
        self.b.event(event);
    }

    fn span(&self, phase: Phase, elapsed: Duration) {
        self.a.span(phase, elapsed);
        self.b.span(phase, elapsed);
    }

    fn counter(&self, key: Counter, delta: u64) {
        self.a.counter(key, delta);
        self.b.counter(key, delta);
    }

    fn gauge(&self, key: Gauge, value: f64) {
        self.a.gauge(key, value);
        self.b.gauge(key, value);
    }
}

/// Run `f`, recording its duration as a span of `phase` — but only
/// touch the clock when the recorder is enabled, so the disabled path
/// is exactly `f()`.
pub fn timed<T>(rec: &dyn Recorder, phase: Phase, f: impl FnOnce() -> T) -> T {
    if !rec.enabled() {
        return f();
    }
    let start = std::time::Instant::now();
    let out = f();
    rec.span(phase, start.elapsed());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::RingRecorder;

    #[test]
    fn noop_is_disabled_and_timed_skips_the_clock_path() {
        let rec = NoopRecorder;
        assert!(!rec.enabled());
        let out = timed(&rec, Phase::Assign, || 41 + 1);
        assert_eq!(out, 42);
    }

    #[test]
    fn fanout_forwards_to_both() {
        let a = RingRecorder::new(16);
        let b = RingRecorder::new(16);
        let fan = Fanout::new(&a, &b);
        assert!(fan.enabled());
        fan.event(&Event::RestartStart {
            restart: 0,
            seed: 1,
        });
        fan.counter(Counter::PoolBlocks, 3);
        fan.gauge(Gauge::PoolQueueHighWater, 2.0);
        fan.span(Phase::Dims, Duration::from_micros(5));
        for rec in [&a, &b] {
            assert_eq!(rec.events().len(), 1);
            assert_eq!(rec.counter_value(Counter::PoolBlocks.name()), 3);
            assert_eq!(rec.gauge_last(Gauge::PoolQueueHighWater), Some(2.0));
            assert_eq!(rec.span_stats(Phase::Dims).map(|s| s.count), Some(1));
        }
    }
}
