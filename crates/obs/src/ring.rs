//! [`RingRecorder`]: an in-memory recorder for tests and the CLI's
//! verbose summary.
//!
//! Events are kept in a capacity-bounded ring (oldest dropped first,
//! with a drop counter so tests can assert nothing was lost); spans,
//! counters and gauges are folded into the crate's one aggregate, the
//! same fold [`JsonlRecorder`](crate::JsonlRecorder) writes `run.json`
//! from. One
//! `Mutex` guards everything — cheap because the algorithms emit from
//! the driving thread only, and poisoning is absorbed with
//! `PoisonError::into_inner` (the workspace's no-panic policy).

use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use crate::aggregate::{Aggregate, GaugeStats, SpanStats};
use crate::event::Event;
use crate::recorder::{Phase, Recorder};

#[derive(Default)]
struct Inner {
    events: VecDeque<Event>,
    dropped: u64,
    aggregate: Aggregate,
}

/// Capacity-bounded in-memory recorder.
pub struct RingRecorder {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl RingRecorder {
    /// A recorder holding at most `capacity` events (aggregates are
    /// unbounded — they are O(phases + names)).
    pub fn new(capacity: usize) -> Self {
        RingRecorder {
            capacity,
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.lock().events.iter().cloned().collect()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Aggregate span statistics for `phase`, if any were recorded.
    pub fn span_stats(&self, phase: Phase) -> Option<SpanStats> {
        self.lock().aggregate.span_stats(phase)
    }

    /// Current value of the named counter (0 if never incremented).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.lock().aggregate.counter_value(name)
    }

    /// Last observation of the named gauge.
    pub fn gauge_last(&self, name: &str) -> Option<f64> {
        self.lock().aggregate.gauge_stats(name).map(|g| g.last)
    }

    /// Maximum observation of the named gauge.
    pub fn gauge_max(&self, name: &str) -> Option<f64> {
        self.lock().aggregate.gauge_stats(name).map(|g| g.max)
    }

    /// All span aggregates in [`Phase::ALL`] order.
    pub fn spans(&self) -> Vec<(Phase, SpanStats)> {
        self.lock().aggregate.spans()
    }

    /// All counters, sorted by name for deterministic iteration.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        self.lock().aggregate.counters()
    }

    /// All gauges, sorted by name for deterministic iteration.
    pub fn gauges(&self) -> Vec<(&'static str, GaugeStats)> {
        self.lock().aggregate.gauges()
    }
}

impl Recorder for RingRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn event(&self, event: &Event) {
        let mut inner = self.lock();
        if self.capacity == 0 {
            inner.dropped += 1;
            return;
        }
        if inner.events.len() == self.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(event.clone());
    }

    fn span(&self, phase: Phase, elapsed: Duration) {
        self.lock().aggregate.span(phase, elapsed);
    }

    fn counter(&self, name: &'static str, delta: u64) {
        self.lock().aggregate.counter(name, delta);
    }

    fn gauge(&self, name: &'static str, value: f64) {
        self.lock().aggregate.gauge(name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let rec = RingRecorder::new(2);
        for seed in 0..5u64 {
            rec.event(&Event::RestartStart {
                restart: seed as usize,
                seed,
            });
        }
        assert_eq!(rec.dropped(), 3);
        let events = rec.events();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events,
            vec![
                Event::RestartStart {
                    restart: 3,
                    seed: 3
                },
                Event::RestartStart {
                    restart: 4,
                    seed: 4
                },
            ]
        );
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let rec = RingRecorder::new(0);
        rec.event(&Event::RestartStart {
            restart: 0,
            seed: 0,
        });
        assert!(rec.events().is_empty());
        assert_eq!(rec.dropped(), 1);
    }

    #[test]
    fn spans_aggregate_count_total_max() {
        let rec = RingRecorder::new(4);
        rec.span(Phase::Assign, Duration::from_micros(10));
        rec.span(Phase::Assign, Duration::from_micros(30));
        rec.span(Phase::Dims, Duration::from_micros(5));
        let assign = rec.span_stats(Phase::Assign).unwrap();
        assert_eq!(assign.count, 2);
        assert_eq!(assign.total, Duration::from_micros(40));
        assert_eq!(assign.max, Duration::from_micros(30));
        assert_eq!(rec.span_stats(Phase::Evaluate), None);
        assert_eq!(rec.spans().len(), 2);
    }

    #[test]
    fn counters_accumulate_and_gauges_track_last_and_max() {
        let rec = RingRecorder::new(4);
        rec.counter("pool.blocks", 4);
        rec.counter("pool.blocks", 6);
        assert_eq!(rec.counter_value("pool.blocks"), 10);
        assert_eq!(rec.counter_value("unknown"), 0);

        rec.gauge("queue", 3.0);
        rec.gauge("queue", 7.0);
        rec.gauge("queue", 2.0);
        assert_eq!(rec.gauge_last("queue"), Some(2.0));
        assert_eq!(rec.gauge_max("queue"), Some(7.0));
    }
}
