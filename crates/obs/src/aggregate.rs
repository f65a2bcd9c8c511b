//! [`Aggregate`]: the span / counter / gauge fold that both
//! [`RingRecorder`](crate::RingRecorder) and
//! [`JsonlRecorder`](crate::JsonlRecorder) hold, one slot per key of the
//! [`metric`](crate::metric) list, and the ordered views they report it
//! through (spans in [`Phase::ALL`] order, counters and gauges by
//! name).

use std::time::Duration;

use crate::metric::{Counter, Gauge, Phase};

/// Aggregate statistics for one phase's spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanStats {
    /// Number of spans recorded.
    pub count: u64,
    /// Total duration across all spans.
    pub total: Duration,
    /// Longest single span.
    pub max: Duration,
}

/// Last-value + maximum aggregate of one gauge.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GaugeStats {
    /// Most recent observation.
    pub last: f64,
    /// Largest observation.
    pub max: f64,
}

/// Spans, counters and gauges folded into one slot per declared key;
/// a slot stays `None` until its key is first recorded, so the manifest
/// lists only what the run emitted.
pub(crate) struct Aggregate {
    spans: [Option<SpanStats>; Phase::ALL.len()],
    counters: [Option<u64>; Counter::ALL.len()],
    gauges: [Option<GaugeStats>; Gauge::ALL.len()],
}

impl Default for Aggregate {
    fn default() -> Self {
        Aggregate {
            spans: [None; Phase::ALL.len()],
            counters: [None; Counter::ALL.len()],
            gauges: [None; Gauge::ALL.len()],
        }
    }
}

/// The recorded slots of `keys`, in `keys`' order.
fn recorded<K: Copy, V: Copy>(keys: &[K], slots: &[Option<V>]) -> Vec<(K, V)> {
    keys.iter()
        .zip(slots)
        .filter_map(|(&k, v)| v.map(|v| (k, v)))
        .collect()
}

impl Aggregate {
    /// Fold one span of `phase`.
    pub(crate) fn span(&mut self, phase: Phase, elapsed: Duration) {
        let s = self.spans[phase as usize].get_or_insert_with(SpanStats::default);
        s.count += 1;
        s.total += elapsed;
        s.max = s.max.max(elapsed);
    }

    /// Add `delta` to counter `key`.
    pub(crate) fn counter(&mut self, key: Counter, delta: u64) {
        *self.counters[key as usize].get_or_insert(0) += delta;
    }

    /// Record one observation of gauge `key`.
    pub(crate) fn gauge(&mut self, key: Gauge, value: f64) {
        let g = self.gauges[key as usize].get_or_insert(GaugeStats {
            last: value,
            max: value,
        });
        g.last = value;
        if value > g.max || g.max.is_nan() {
            g.max = value;
        }
    }

    /// The span statistics of `phase`, if any span was recorded.
    pub(crate) fn span_stats(&self, phase: Phase) -> Option<SpanStats> {
        self.spans[phase as usize]
    }

    /// Counter `key` (0 if never incremented).
    pub(crate) fn counter_value(&self, key: Counter) -> u64 {
        self.counters[key as usize].unwrap_or(0)
    }

    /// Gauge `key`, if it was ever observed.
    pub(crate) fn gauge_stats(&self, key: Gauge) -> Option<GaugeStats> {
        self.gauges[key as usize]
    }

    /// All recorded span statistics in [`Phase::ALL`] order.
    pub(crate) fn spans(&self) -> Vec<(Phase, SpanStats)> {
        recorded(Phase::ALL, &self.spans)
    }

    /// All recorded counters, sorted by name.
    pub(crate) fn counters(&self) -> Vec<(Counter, u64)> {
        let mut out = recorded(Counter::ALL, &self.counters);
        out.sort_by_key(|(k, _)| k.name());
        out
    }

    /// All recorded gauges, sorted by name.
    pub(crate) fn gauges(&self) -> Vec<(Gauge, GaugeStats)> {
        let mut out = recorded(Gauge::ALL, &self.gauges);
        out.sort_by_key(|(k, _)| k.name());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views_are_ordered_whatever_the_arrival_order() {
        let mut agg = Aggregate::default();
        // Declared pool-first, named cache-first: the view sorts by name.
        agg.counter(Counter::PoolBlocks, 1);
        agg.counter(Counter::CacheEvictions, 2);
        agg.counter(Counter::PoolBlocks, 3);
        agg.gauge(Gauge::PoolWorkers, 1.0);
        agg.gauge(Gauge::CacheMedoidsRecomputed, 5.0);
        agg.gauge(Gauge::CacheMedoidsRecomputed, 2.0);
        let late = Phase::ALL[Phase::ALL.len() - 1];
        let early = Phase::ALL[0];
        agg.span(late, Duration::from_micros(5));
        agg.span(early, Duration::from_micros(7));
        agg.span(late, Duration::from_micros(9));
        assert_eq!(
            agg.counters(),
            vec![(Counter::CacheEvictions, 2), (Counter::PoolBlocks, 4)]
        );
        assert_eq!(agg.counter_value(Counter::ServeRequests), 0);
        let gauges = agg.gauges();
        assert_eq!(
            gauges[0],
            (
                Gauge::CacheMedoidsRecomputed,
                GaugeStats {
                    last: 2.0,
                    max: 5.0
                }
            )
        );
        assert_eq!(gauges[1].0, Gauge::PoolWorkers);
        let spans = agg.spans();
        assert_eq!(spans[0].0, early);
        assert_eq!(
            spans[1],
            (
                late,
                SpanStats {
                    count: 2,
                    total: Duration::from_micros(14),
                    max: Duration::from_micros(9),
                }
            )
        );
    }
}
