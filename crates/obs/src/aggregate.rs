//! [`Aggregate`]: the span / counter / gauge fold that both
//! [`RingRecorder`](crate::RingRecorder) and
//! [`JsonlRecorder`](crate::JsonlRecorder) hold, and the ordered views
//! they report it through (spans in [`Phase::ALL`] order, counters and
//! gauges by name).

use std::time::Duration;

use crate::recorder::Phase;

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

/// Spans, counters and gauges folded in arrival order; O(phases +
/// names) in size.
#[derive(Default)]
pub(crate) struct Aggregate {
    spans: Vec<(Phase, SpanStats)>,
    counters: Vec<(&'static str, u64)>,
    gauges: Vec<(&'static str, GaugeStats)>,
}

impl Aggregate {
    /// Fold one span of `phase`.
    pub(crate) fn span(&mut self, phase: Phase, elapsed: Duration) {
        let i = match self.spans.iter().position(|(p, _)| *p == phase) {
            Some(i) => i,
            None => {
                self.spans.push((phase, SpanStats::default()));
                self.spans.len() - 1
            }
        };
        let s = &mut self.spans[i].1;
        s.count += 1;
        s.total += elapsed;
        s.max = s.max.max(elapsed);
    }

    /// Add `delta` to the named counter.
    pub(crate) fn counter(&mut self, name: &'static str, delta: u64) {
        match self.counters.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v += delta,
            None => self.counters.push((name, delta)),
        }
    }

    /// Record one observation of the named gauge.
    pub(crate) fn gauge(&mut self, name: &'static str, value: f64) {
        match self.gauges.iter_mut().find(|(n, _)| *n == name) {
            Some((_, g)) => {
                g.last = value;
                if value > g.max || g.max.is_nan() {
                    g.max = value;
                }
            }
            None => self.gauges.push((
                name,
                GaugeStats {
                    last: value,
                    max: value,
                },
            )),
        }
    }

    /// The span statistics of `phase`, if any span was recorded.
    pub(crate) fn span_stats(&self, phase: Phase) -> Option<SpanStats> {
        self.spans
            .iter()
            .find(|(p, _)| *p == phase)
            .map(|(_, s)| *s)
    }

    /// The named counter (0 if never incremented).
    pub(crate) fn counter_value(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The named gauge, if it was ever observed.
    pub(crate) fn gauge_stats(&self, name: &str) -> Option<GaugeStats> {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, g)| *g)
    }

    /// All span statistics in [`Phase::ALL`] order.
    pub(crate) fn spans(&self) -> Vec<(Phase, SpanStats)> {
        Phase::ALL
            .iter()
            .filter_map(|&p| self.span_stats(p).map(|s| (p, s)))
            .collect()
    }

    /// All counters, sorted by name.
    pub(crate) fn counters(&self) -> Vec<(&'static str, u64)> {
        let mut out = self.counters.clone();
        out.sort_by_key(|(n, _)| *n);
        out
    }

    /// All gauges, sorted by name.
    pub(crate) fn gauges(&self) -> Vec<(&'static str, GaugeStats)> {
        let mut out = self.gauges.clone();
        out.sort_by_key(|(n, _)| *n);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views_are_ordered_whatever_the_arrival_order() {
        let mut agg = Aggregate::default();
        agg.counter("zeta", 1);
        agg.counter("alpha", 2);
        agg.counter("zeta", 3);
        agg.gauge("g2", 1.0);
        agg.gauge("g1", 5.0);
        agg.gauge("g1", 2.0);
        let late = Phase::ALL[Phase::ALL.len() - 1];
        let early = Phase::ALL[0];
        agg.span(late, Duration::from_micros(5));
        agg.span(early, Duration::from_micros(7));
        agg.span(late, Duration::from_micros(9));
        assert_eq!(agg.counters(), vec![("alpha", 2), ("zeta", 4)]);
        assert_eq!(agg.counter_value("missing"), 0);
        let gauges = agg.gauges();
        assert_eq!(
            gauges[0],
            (
                "g1",
                GaugeStats {
                    last: 2.0,
                    max: 5.0
                }
            )
        );
        assert_eq!(gauges[1].0, "g2");
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
