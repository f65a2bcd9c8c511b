//! The [`Proclus`] parameter builder and `fit` entry point.

use crate::error::ProclusError;
use crate::model::ProclusModel;
use proclus_math::{DistanceKind, Matrix};

/// How the candidate medoid set is constructed (ablation knob; the
/// paper's algorithm is [`InitStrategy::SampleGreedy`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum InitStrategy {
    /// Random sample of `A·k` points reduced to `B·k` by the greedy
    /// farthest-point pass (the paper's two-step initialization).
    #[default]
    SampleGreedy,
    /// Plain random sample of `B·k` points — skips the greedy pass.
    /// Used by the initialization ablation benchmark to show why the
    /// greedy step exists.
    RandomOnly,
}

/// Configuration for a PROCLUS run. Construct with [`Proclus::new`],
/// adjust with the builder methods, then call [`Proclus::fit`].
///
/// The two *semantic* inputs are the paper's: the number of clusters `k`
/// and the average cluster dimensionality `l` (so `k·l` dimensions are
/// distributed over the clusters, at least 2 each). Everything else is a
/// tuning knob with a paper-faithful default.
#[derive(Clone, Debug)]
pub struct Proclus {
    /// Number of clusters `k`.
    pub k: usize,
    /// Average number of dimensions per cluster `l`. May be fractional
    /// as long as `k·l` rounds to an integer total (the paper requires
    /// `k·l` integral).
    pub l: f64,
    /// Initialization sample size factor: the random sample has
    /// `A·k` points. The paper calls this constant `A`; default 30.
    pub sample_factor: usize,
    /// Greedy reduction factor: the candidate medoid set `M` keeps
    /// `B·k` points. The paper calls this constant `B`; default 3.
    pub medoid_factor: usize,
    /// A cluster with fewer than `(N/k) · min_deviation` points marks
    /// its medoid as *bad* (paper default 0.1).
    pub min_deviation: f64,
    /// Hill climbing stops after this many consecutive rounds without
    /// improvement of the best objective.
    pub max_stale_rounds: usize,
    /// Absolute cap on hill-climbing rounds (safety valve).
    pub max_rounds: usize,
    /// Independent hill-climbing restarts; the run with the lowest
    /// iterative objective wins (default 5). The paper's bad-medoid
    /// replacement can pin itself to a good medoid when the smallest
    /// cluster is a genuine one (kicking it never helps, and the
    /// duplicated medoid is never touched); cheap restarts from fresh
    /// random vertices of the search graph sidestep those local optima,
    /// in the spirit of CLARANS's `numlocal`.
    pub restarts: usize,
    /// Metric used for full-dimensional and segmental distances.
    /// The paper uses Manhattan throughout; other kinds exist for
    /// ablation studies.
    pub distance: DistanceKind,
    /// PRNG seed. Fits are fully deterministic given the seed.
    pub rng_seed: u64,
    /// Candidate-medoid construction strategy (ablation knob).
    pub init: InitStrategy,
    /// Number of cluster-based dimension recomputations folded into
    /// every hill-climbing evaluation (default 1).
    ///
    /// The paper's iterative phase derives dimensions from medoid
    /// *localities* only. Localities of well-separated medoids span
    /// nearly half the dataset in high dimensions, which pollutes the
    /// per-dimension averages and makes the objective rank piercing
    /// medoid sets no better than non-piercing ones. Re-deriving the
    /// dimensions once from the *assigned clusters* (exactly the
    /// paper's refinement procedure) before evaluating restores the
    /// paper's reported accuracy. Set to 0 for the paper-literal
    /// behavior (the ablation harness measures the difference).
    pub inner_refinements: usize,
    /// Standardize per-dimension average distances into Z-scores before
    /// allocating dimensions (the paper's FindDimensions). Disabling
    /// allocates raw averages — an ablation that loses the per-medoid
    /// scale normalization.
    pub standardize_dimensions: bool,
    /// Worker threads for the O(N·k·d) passes of every round (default
    /// 1 = serial, the paper's runtime model). The workers are spawned
    /// once per [`Proclus::fit`] and reused across all rounds and
    /// restarts (see [`crate::pool`]); work is tiled into fixed row
    /// blocks whose partial results merge in a canonical order, so the
    /// fit is **bit-identical for every thread count**.
    pub threads: usize,
}

impl Proclus {
    /// A configuration with the paper's defaults for clustering into
    /// `k` clusters averaging `l` dimensions each.
    pub fn new(k: usize, l: f64) -> Self {
        Self {
            k,
            l,
            sample_factor: 30,
            medoid_factor: 3,
            min_deviation: 0.1,
            max_stale_rounds: 20,
            max_rounds: 300,
            restarts: 5,
            distance: DistanceKind::Manhattan,
            rng_seed: 0,
            init: InitStrategy::SampleGreedy,
            inner_refinements: 1,
            standardize_dimensions: true,
            threads: 1,
        }
    }

    /// Set the worker-thread count for the heavy passes (min 1).
    pub fn threads(mut self, v: usize) -> Self {
        self.threads = v.max(1);
        self
    }

    /// Set the number of cluster-based dimension recomputations per
    /// evaluation (0 = paper-literal locality-only dimensions).
    pub fn inner_refinements(mut self, v: usize) -> Self {
        self.inner_refinements = v;
        self
    }

    /// Set the candidate-medoid construction strategy (ablation knob).
    pub fn init_strategy(mut self, s: InitStrategy) -> Self {
        self.init = s;
        self
    }

    /// Toggle Z-score standardization in FindDimensions (ablation
    /// knob; the paper's algorithm standardizes).
    pub fn standardize_dimensions(mut self, v: bool) -> Self {
        self.standardize_dimensions = v;
        self
    }

    /// Set the PRNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.rng_seed = seed;
        self
    }

    /// Set the sample size factor `A`.
    pub fn sample_factor(mut self, a: usize) -> Self {
        self.sample_factor = a;
        self
    }

    /// Set the candidate-medoid factor `B`.
    pub fn medoid_factor(mut self, b: usize) -> Self {
        self.medoid_factor = b;
        self
    }

    /// Set the bad-medoid deviation threshold (paper default `0.1`).
    pub fn min_deviation(mut self, v: f64) -> Self {
        self.min_deviation = v;
        self
    }

    /// Set how many stale hill-climbing rounds end the search.
    pub fn max_stale_rounds(mut self, v: usize) -> Self {
        self.max_stale_rounds = v;
        self
    }

    /// Set the absolute cap on hill-climbing rounds.
    pub fn max_rounds(mut self, v: usize) -> Self {
        self.max_rounds = v;
        self
    }

    /// Set the number of independent restarts (min 1).
    pub fn restarts(mut self, v: usize) -> Self {
        self.restarts = v.max(1);
        self
    }

    /// Use a different distance kind (ablation only; the paper's
    /// algorithm is defined for Manhattan).
    pub fn distance(mut self, kind: DistanceKind) -> Self {
        self.distance = kind;
        self
    }

    /// Total number of dimensions distributed over the clusters:
    /// `round(k·l)`.
    pub fn total_dimensions(&self) -> usize {
        (self.k as f64 * self.l).round() as usize
    }

    /// Validate this configuration against a dataset shape.
    pub fn validate(&self, n: usize, d: usize) -> Result<(), ProclusError> {
        if self.k == 0 {
            return Err(ProclusError::InvalidParameters("k must be positive".into()));
        }
        if !self.l.is_finite() || self.l < 2.0 {
            return Err(ProclusError::InvalidParameters(format!(
                "l must be at least 2 (every cluster needs >= 2 dimensions), got {}",
                self.l
            )));
        }
        if self.l > d as f64 {
            return Err(ProclusError::DimensionalityTooLow { d, l: self.l });
        }
        let total = self.total_dimensions();
        if (total as f64 - self.k as f64 * self.l).abs() > 1e-9 {
            return Err(ProclusError::InvalidParameters(format!(
                "k*l must be integral, got {} * {} = {}",
                self.k,
                self.l,
                self.k as f64 * self.l
            )));
        }
        if total > self.k * d {
            return Err(ProclusError::DimensionalityTooLow { d, l: self.l });
        }
        if self.sample_factor == 0 || self.medoid_factor == 0 {
            return Err(ProclusError::InvalidParameters(
                "sample_factor and medoid_factor must be positive".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.min_deviation) {
            return Err(ProclusError::InvalidParameters(format!(
                "min_deviation must be in [0, 1], got {}",
                self.min_deviation
            )));
        }
        if n < self.k {
            return Err(ProclusError::TooFewPoints {
                needed: self.k,
                got: n,
            });
        }
        Ok(())
    }

    /// Run PROCLUS on `points` (rows = points).
    ///
    /// # Errors
    ///
    /// Returns an error when the configuration is invalid for the shape
    /// of `points` — never panics on valid configurations.
    pub fn fit(&self, points: &Matrix) -> Result<ProclusModel, ProclusError> {
        crate::iterate::run(self, points)
    }

    /// [`Proclus::fit`] with a [`proclus_obs::Recorder`] observing the
    /// run: structured per-round events (localities, chosen dimensions
    /// and their Z-scores, assignment counts, objectives, swap
    /// decisions) plus phase spans and pool counters. The event stream
    /// is deterministic given `(self, points)` and independent of
    /// [`Proclus::threads`]; `fit` is exactly this with the no-op
    /// recorder.
    ///
    /// # Errors
    ///
    /// Same as [`Proclus::fit`].
    pub fn fit_traced(
        &self,
        points: &Matrix,
        rec: &dyn proclus_obs::Recorder,
    ) -> Result<ProclusModel, ProclusError> {
        crate::iterate::run_traced(self, points, rec)
    }

    /// Run PROCLUS starting the hill climb from an explicit medoid set
    /// (one climb, no restarts) — useful for reproducing a specific run
    /// or studying the search from controlled starting points.
    ///
    /// # Errors
    ///
    /// Rejects duplicate/out-of-range medoids, a count different from
    /// `k`, and the same shape errors as [`Proclus::fit`].
    pub fn fit_with_initial_medoids(
        &self,
        points: &Matrix,
        medoids: &[usize],
    ) -> Result<ProclusModel, ProclusError> {
        crate::iterate::run_from_medoids(self, points, medoids)
    }

    /// [`Proclus::fit_with_initial_medoids`] with a recorder observing
    /// the single climb (see [`Proclus::fit_traced`]).
    ///
    /// # Errors
    ///
    /// Same as [`Proclus::fit_with_initial_medoids`].
    pub fn fit_with_initial_medoids_traced(
        &self,
        points: &Matrix,
        medoids: &[usize],
        rec: &dyn proclus_obs::Recorder,
    ) -> Result<ProclusModel, ProclusError> {
        crate::iterate::run_from_medoids_traced(self, points, medoids, rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let p = Proclus::new(5, 7.0);
        assert_eq!(p.k, 5);
        assert_eq!(p.l, 7.0);
        assert_eq!(p.min_deviation, 0.1);
        assert_eq!(p.distance, DistanceKind::Manhattan);
        assert_eq!(p.total_dimensions(), 35);
    }

    #[test]
    fn fractional_l_with_integral_product_is_ok() {
        let p = Proclus::new(4, 2.5);
        assert_eq!(p.total_dimensions(), 10);
        assert!(p.validate(100, 10).is_ok());
    }

    #[test]
    fn fractional_l_with_nonintegral_product_is_rejected() {
        let p = Proclus::new(3, 2.5); // 7.5 dimensions total
        assert!(matches!(
            p.validate(100, 10),
            Err(ProclusError::InvalidParameters(_))
        ));
    }

    #[test]
    fn rejects_degenerate_parameters() {
        assert!(Proclus::new(0, 3.0).validate(10, 5).is_err());
        assert!(Proclus::new(2, 1.0).validate(10, 5).is_err());
        assert!(Proclus::new(2, 6.0).validate(10, 5).is_err()); // l > d
        assert!(Proclus::new(20, 3.0).validate(10, 5).is_err()); // n < k
        assert!(Proclus::new(2, 3.0)
            .min_deviation(1.5)
            .validate(10, 5)
            .is_err());
        let mut p = Proclus::new(2, 3.0);
        p.sample_factor = 0;
        assert!(p.validate(10, 5).is_err());
    }

    #[test]
    fn builder_methods_chain() {
        let p = Proclus::new(3, 4.0)
            .seed(9)
            .sample_factor(10)
            .medoid_factor(2)
            .min_deviation(0.2)
            .max_stale_rounds(5)
            .max_rounds(50)
            .distance(DistanceKind::Euclidean);
        assert_eq!(p.rng_seed, 9);
        assert_eq!(p.sample_factor, 10);
        assert_eq!(p.medoid_factor, 2);
        assert_eq!(p.min_deviation, 0.2);
        assert_eq!(p.max_stale_rounds, 5);
        assert_eq!(p.max_rounds, 50);
        assert_eq!(p.distance, DistanceKind::Euclidean);
    }
}
