//! Host-speed calibration: a fixed, benchmark-owned kernel timed alongside the
//! workload, so that every reported time can be scaled to one reference
//! host speed.
//!
//! Shared virtual machines change speed for seconds to minutes at a time:
//! a busy neighbour on the sibling hyperthread slows throughput-bound code
//! by up to 1.7×, while a latency-bound loop barely notices. Raw wall times
//! of two runs minutes apart then differ by more than any change worth
//! measuring. The calibration pass is a segmental-Manhattan nearest-medoid
//! pass — the kind of work PROCLUS's hot loops do — over a fixed,
//! L2-resident matrix. It calls no code of the repository, so no change to
//! the program under test can move it. The benchmark samples it right
//! before and after each timed operation, while nothing else of its own
//! runs, and reports each time as `raw × REFERENCE_S / pass`: the time the
//! work would have taken on a host where one pass takes [`REFERENCE_S`].
//! The raw times are printed on the context line.

use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Seconds one calibration pass takes on the reference host: a round
/// value near the median pass (264 µs, 189–319 µs over 120 runs) on a
/// shared 2-vCPU Xeon VM at 2.1 GHz.
pub const REFERENCE_S: f64 = 250e-6;

/// Rows of the calibration matrix.
const ROWS: usize = 8_000;
/// Columns of the calibration matrix; a pass reads every other one.
const COLS: usize = 20;
/// Medoids each row is compared with.
const MEDOIDS: usize = 5;
/// Passes timed per sample.
const PASSES: usize = 2;

/// The calibration kernel, its matrix (1.28 MB) and every sample taken.
pub struct Calibrator {
    matrix: Vec<f64>,
    samples: Mutex<Vec<f64>>,
}

/// A duration measured between two calibration samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timing {
    /// Wall seconds.
    pub raw_s: f64,
    /// Factor to the reference host speed around the measurement.
    pub scale: f64,
}

impl Timing {
    /// The duration at reference host speed, in seconds.
    pub fn scaled_s(self) -> f64 {
        self.raw_s * self.scale
    }
}

impl Default for Calibrator {
    fn default() -> Self {
        // A fixed multiplicative-hash pattern: data-independent timing,
        // no allocation while timing.
        let matrix = (0..ROWS * COLS)
            .map(|i: usize| (i.wrapping_mul(2_654_435_761) % 1_000) as f64)
            .collect();
        Calibrator {
            matrix,
            samples: Mutex::new(Vec::new()),
        }
    }
}

impl Calibrator {
    /// Time [`PASSES`] passes; returns seconds per pass.
    pub fn sample(&self) -> f64 {
        let m = std::hint::black_box(&self.matrix[..]);
        let t = Instant::now();
        let mut nearest = 0usize;
        for _ in 0..PASSES {
            for row in m.chunks_exact(COLS) {
                let mut best = f64::INFINITY;
                let mut arg = 0;
                for c in 0..MEDOIDS {
                    let medoid = &m[c * 977 * COLS..][..COLS];
                    let d: f64 = (0..COLS)
                        .step_by(2)
                        .map(|j| (row[j] - medoid[j]).abs())
                        .sum();
                    if d < best {
                        best = d;
                        arg = c;
                    }
                }
                nearest += arg;
            }
        }
        std::hint::black_box(nearest);
        let per_pass = t.elapsed().as_secs_f64() / PASSES as f64;
        self.samples
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(per_pass);
        per_pass
    }

    /// Run `f` between two calibration samples.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> (T, Timing) {
        let before = self.sample();
        let t = Instant::now();
        let out = f();
        let raw_s = t.elapsed().as_secs_f64();
        let after = self.sample();
        let timing = Timing {
            raw_s,
            scale: scale((before + after) / 2.0),
        };
        (out, timing)
    }

    /// Median seconds per pass over every sample taken so far.
    pub fn median_s(&self) -> Option<f64> {
        crate::stats::median(&self.samples.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// Factor that turns a time measured while one calibration pass took
/// `pass_s` into reference-host time.
pub fn scale(pass_s: f64) -> f64 {
    REFERENCE_S / pass_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_positive_recorded_and_scale_inversely() {
        let c = Calibrator::default();
        let ((), t) = c.time(|| ());
        assert!(t.raw_s >= 0.0 && t.scale > 0.0 && t.scale.is_finite());
        assert!(c.median_s().is_some_and(|s| s > 0.0));
        assert_eq!(scale(REFERENCE_S), 1.0);
        assert_eq!(scale(2.0 * REFERENCE_S), 0.5);
    }
}
