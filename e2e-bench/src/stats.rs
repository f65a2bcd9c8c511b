//! Order statistics shared by the runner and the pair comparison.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so the spreads this crate prints are
//! the ones an outside script computes from the same run files. Tail
//! percentiles obey the reporting rule of the benchmark: a percentile is
//! reported only when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie beyond a tail percentile for it to be reported.
pub const MIN_BEYOND: u64 = 10;

/// Median of `values` (the mean of the middle pair for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Arithmetic mean of `values`; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them; `None` for fewer
/// than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len as i64 + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, len as i64 - 1);
        // May be negative or exceed 4 at the clamped ends, as in Python.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// 1-based nearest rank of percentile `p` among `n` samples, or `None`
/// when fewer than [`MIN_BEYOND`] samples would lie beyond it.
pub fn tail_rank(n: u64, p: f64) -> Option<u64> {
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as u64;
    (n - rank >= MIN_BEYOND).then_some(rank)
}

/// Relative width of one [`LatencyHist`] bucket.
const BUCKET_GROWTH: f64 = 1.0 + 1.0 / 1024.0;
/// Buckets of a [`LatencyHist`]: 1 ns up to 100 s.
const BUCKETS: usize = 26_000;

/// Fixed-memory latency histogram with log-spaced buckets 0.1% wide
/// (1 ns to 100 s; longer latencies land in the last bucket). A run
/// keeps one per connection-second: only the pages of buckets actually
/// hit become resident, a few kilobytes each, so memory does not grow
/// with the request count and a faster server does not read as a
/// memory regression. It reports the median only; tails of the serving
/// path come from exact samples (see [`tail_rank`]).
pub struct LatencyHist {
    counts: Vec<u32>,
    total: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl LatencyHist {
    fn bucket(ns: u64) -> usize {
        ((ns.max(1) as f64).ln() / BUCKET_GROWTH.ln()) as usize
    }

    /// Geometric midpoint of bucket `b`, in nanoseconds.
    fn midpoint(b: usize) -> f64 {
        ((b as f64 + 0.5) * BUCKET_GROWTH.ln()).exp()
    }

    /// Record one latency.
    pub fn record(&mut self, ns: u64) {
        let b = Self::bucket(ns).min(BUCKETS - 1);
        self.counts[b] = self.counts[b].saturating_add(1);
        self.total += 1;
    }

    /// Median in nanoseconds; `None` when empty.
    pub fn p50(&self) -> Option<f64> {
        let rank = self.total.div_ceil(2);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if c > 0 && seen >= rank {
                return Some(Self::midpoint(b));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0]
        assert_eq!(quartiles(&[1.0, 5.0]), Some((0.0, 3.0, 6.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_and_mean_handle_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[4.0, 1.0, 1.0]), Some(2.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn histogram_median_is_within_a_bucket_width() {
        let mut h = LatencyHist::default();
        assert_eq!(h.p50(), None);
        for us in 1..=999u64 {
            h.record(us * 1_000);
        }
        let p50 = h.p50().unwrap();
        assert!((p50 / 500_000.0 - 1.0).abs() < 1e-3, "{p50}");
        for _ in 0..1000 {
            h.record(50_000_000);
        }
        let p50 = h.p50().unwrap();
        assert!((p50 / 50_000_000.0 - 1.0).abs() < 1e-3, "{p50}");
        // Beyond the last bucket, and zero: clamped, not out of bounds.
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.total, 2001);
        assert!(LatencyHist::bucket(100_000_000_000) < BUCKETS);
    }
}
