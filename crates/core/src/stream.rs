//! Continuous-ingest streaming front end for PROCLUS: deterministic
//! sampling, drift detection, and gated model rollover.
//!
//! The batch setting of the paper assumes the full dataset is in hand.
//! This module serves the complementary deployment shape: points arrive
//! in batches, a *live* model (from the crash-safe
//! [`registry`](crate::registry)) classifies them, and the
//! [`StreamServer`] decides — deterministically — when the live model
//! has gone stale and a refit should replace it.
//!
//! Three cooperating pieces:
//!
//! * [`WindowSampler`] — a sliding window of the most recent points
//!   (what candidate models are fitted on) plus an Algorithm-R
//!   reservoir frozen over the points seen since the last promotion
//!   (the *reference* distribution).
//! * [`DriftDetector`] — compares window against reservoir through a
//!   fixed set of seeded random unit projections (in the spirit of the
//!   projection-based two-sample tests of Kerber–Raghvendra,
//!   arXiv:1407.2063): the score is the maximum over projections of
//!   the standardized mean shift. Cheap, dimension-robust, and a pure
//!   function of the data and seed.
//! * [`rollover`] — the Shadow → Canary → Promote
//!   state machine that fits and gates a candidate when drift persists.
//!
//! # Determinism
//!
//! Every decision (quarantine, drift, trigger, gate verdict, promote /
//! rollback) is a pure function of `(params, config, gates, batches,
//! seed)`. Thread count affects only scheduling inside the candidate
//! fits, which are bit-identical by the workspace guarantee — so the
//! emitted `stream.*` / rollover event log is byte-identical for every
//! thread count (pinned by a golden digest in the streaming test
//! tier).
//!
//! # Fault handling
//!
//! [`StreamServer::ingest_batch`] never fails: malformed batches
//! (empty, wrong dimensionality, non-finite coordinates) are
//! *quarantined* — recorded in the diagnostics and the event stream,
//! with the live model left serving untouched. Batches that fail frame
//! decoding upstream (see `proclus-data`'s chunk reader) are reported
//! through [`StreamServer::quarantine_corrupt`].

use std::collections::VecDeque;
use std::fmt;
use std::path::Path;

use proclus_math::Matrix;
use proclus_obs::{Event, Recorder};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::error::ProclusError;
use crate::model::ProclusModel;
use crate::params::Proclus;
use crate::registry::{ModelRegistry, RecoveryReport, RegistryError};
use crate::rollover::{self, RolloverOutcome, RolloverReport};

/// Seed-mixing constant for the reservoir RNG (distinct per subsystem
/// so one user seed cannot correlate the samplers).
const RESERVOIR_SALT: u64 = 0x5EED_0001_D5B7_C0DE;
/// Seed-mixing constant for the drift detector's projections.
const PROJECTION_SALT: u64 = 0x5EED_0002_9E37_79B9;

/// Configuration of the streaming front end (window sizes, drift
/// sensitivity, trigger pacing). Validate with
/// [`StreamConfig::validate`]; all fields are public for builder-free
/// construction.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamConfig {
    /// Sliding-window capacity: candidate models are fitted on the
    /// most recent `window` accepted points.
    pub window: usize,
    /// Minimum accepted points in the window before any fit (bootstrap
    /// or rebuild) is attempted.
    pub min_fit_points: usize,
    /// Reservoir capacity for the long-term reference sample.
    pub reservoir: usize,
    /// Number of random unit projections the drift detector compares
    /// window and reservoir through.
    pub projections: usize,
    /// Drift score above which a batch counts as drifted.
    pub drift_threshold: f64,
    /// Consecutive drifted batches required to trigger a rebuild.
    pub patience: usize,
    /// Accepted batches to wait after any rollover (promoted *or*
    /// rolled back) before another trigger can fire.
    pub cooldown: usize,
    /// Seed for the sampling and projection PRNGs. Independent of the
    /// fit seed in [`Proclus::rng_seed`].
    pub seed: u64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            window: 2048,
            min_fit_points: 256,
            reservoir: 256,
            projections: 8,
            drift_threshold: 0.6,
            patience: 2,
            cooldown: 2,
            seed: 0,
        }
    }
}

impl StreamConfig {
    /// Check the configuration for internal consistency.
    ///
    /// # Errors
    ///
    /// [`ProclusError::InvalidParameters`] naming the offending field.
    pub fn validate(&self) -> Result<(), ProclusError> {
        if self.window == 0 {
            return Err(ProclusError::InvalidParameters(
                "stream window must be positive".into(),
            ));
        }
        if self.min_fit_points == 0 || self.min_fit_points > self.window {
            return Err(ProclusError::InvalidParameters(format!(
                "min_fit_points must be in 1..=window ({}), got {}",
                self.window, self.min_fit_points
            )));
        }
        if self.reservoir == 0 {
            return Err(ProclusError::InvalidParameters(
                "reservoir capacity must be positive".into(),
            ));
        }
        if self.projections == 0 {
            return Err(ProclusError::InvalidParameters(
                "drift detector needs at least one projection".into(),
            ));
        }
        if !self.drift_threshold.is_finite() || self.drift_threshold <= 0.0 {
            return Err(ProclusError::InvalidParameters(format!(
                "drift_threshold must be finite and positive, got {}",
                self.drift_threshold
            )));
        }
        if self.patience == 0 {
            return Err(ProclusError::InvalidParameters(
                "patience must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// Promotion-gate thresholds for the rollover state machine (see
/// [`crate::rollover`] for where each one is enforced).
#[derive(Clone, Debug, PartialEq)]
pub struct GateConfig {
    /// Shadow gate: minimum projected silhouette of the candidate on
    /// the fit window. Set to any value `<= -1.0` to disable the
    /// silhouette gate (a silhouette is always in `[-1, 1]`).
    pub min_silhouette: f64,
    /// Sample cap forwarded to the silhouette evaluation.
    pub silhouette_samples: usize,
    /// Canary gate: maximum allowed ratio of the candidate's mean
    /// nearest-medoid cost to the live model's, over the canary subset.
    pub max_cost_ratio: f64,
    /// Shadow gate: maximum fraction of the window the candidate may
    /// classify as outliers.
    pub max_outlier_fraction: f64,
    /// Fraction of the window routed to the canary comparison.
    pub canary_fraction: f64,
    /// Canary gate: minimum live-vs-candidate agreement (ARI), only
    /// enforced while the live model still covers the canary (see
    /// `min_live_coverage`).
    pub min_canary_ari: f64,
    /// Minimum fraction of canary points the live model must still
    /// cluster for the ARI gate to be *enforced*; below this the live
    /// labeling is itself stale (that is drift evidence, not candidate
    /// failure) and the ARI is recorded but not gating.
    pub min_live_coverage: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            min_silhouette: 0.05,
            silhouette_samples: 64,
            max_cost_ratio: 1.25,
            max_outlier_fraction: 0.5,
            canary_fraction: 0.25,
            min_canary_ari: 0.0,
            min_live_coverage: 0.25,
        }
    }
}

impl GateConfig {
    /// Check the gate thresholds for internal consistency.
    ///
    /// # Errors
    ///
    /// [`ProclusError::InvalidParameters`] naming the offending field.
    pub fn validate(&self) -> Result<(), ProclusError> {
        if self.min_silhouette.is_nan() {
            return Err(ProclusError::InvalidParameters(
                "min_silhouette must not be NaN".into(),
            ));
        }
        if !self.max_cost_ratio.is_finite() || self.max_cost_ratio <= 0.0 {
            return Err(ProclusError::InvalidParameters(format!(
                "max_cost_ratio must be finite and positive, got {}",
                self.max_cost_ratio
            )));
        }
        if !(0.0..=1.0).contains(&self.max_outlier_fraction) {
            return Err(ProclusError::InvalidParameters(format!(
                "max_outlier_fraction must be in [0, 1], got {}",
                self.max_outlier_fraction
            )));
        }
        if !(self.canary_fraction > 0.0 && self.canary_fraction <= 1.0) {
            return Err(ProclusError::InvalidParameters(format!(
                "canary_fraction must be in (0, 1], got {}",
                self.canary_fraction
            )));
        }
        if self.min_canary_ari.is_nan() {
            return Err(ProclusError::InvalidParameters(
                "min_canary_ari must not be NaN".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.min_live_coverage) {
            return Err(ProclusError::InvalidParameters(format!(
                "min_live_coverage must be in [0, 1], got {}",
                self.min_live_coverage
            )));
        }
        Ok(())
    }
}

/// Reasons a [`StreamServer`] cannot be constructed.
#[derive(Debug)]
pub enum StreamError {
    /// The stream or gate configuration is invalid.
    Config(ProclusError),
    /// The model registry could not be opened or its serving model
    /// could not be loaded.
    Registry(RegistryError),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Config(e) => write!(f, "invalid stream configuration: {e}"),
            StreamError::Registry(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Config(e) => Some(e),
            StreamError::Registry(e) => Some(e),
        }
    }
}

/// Sliding window + Algorithm-R reservoir over the accepted stream.
///
/// The window holds the most recent `capacity` points in arrival
/// order. The reservoir is a uniform sample of everything accepted
/// since its last [`reset`](WindowSampler::reset) and serves as the
/// drift detector's reference distribution; it is reseeded
/// deterministically per epoch so replaying the same batches always
/// reproduces the same sample.
#[derive(Debug)]
pub struct WindowSampler {
    window: VecDeque<Vec<f64>>,
    window_capacity: usize,
    reservoir: Vec<Vec<f64>>,
    reservoir_capacity: usize,
    seen: u64,
    rng: StdRng,
    seed: u64,
}

impl WindowSampler {
    /// A sampler with the given window and reservoir capacities,
    /// starting at epoch 0.
    pub fn new(window_capacity: usize, reservoir_capacity: usize, seed: u64) -> Self {
        WindowSampler {
            window: VecDeque::with_capacity(window_capacity),
            window_capacity,
            reservoir: Vec::with_capacity(reservoir_capacity),
            reservoir_capacity,
            seen: 0,
            rng: Self::epoch_rng(seed, 0),
            seed,
        }
    }

    fn epoch_rng(seed: u64, epoch: u64) -> StdRng {
        StdRng::seed_from_u64(seed ^ RESERVOIR_SALT ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Accept one point: append to the window (evicting the oldest when
    /// full) and offer it to the reservoir (Vitter's Algorithm R).
    pub fn push(&mut self, row: &[f64]) {
        if self.window.len() == self.window_capacity {
            self.window.pop_front();
        }
        self.window.push_back(row.to_vec());
        self.seen += 1;
        if self.reservoir.len() < self.reservoir_capacity {
            self.reservoir.push(row.to_vec());
        } else {
            let j = self.rng.random_range(0..self.seen);
            if (j as usize) < self.reservoir_capacity {
                self.reservoir[j as usize] = row.to_vec();
            }
        }
    }

    /// Start a new reference epoch (called on every promotion): clear
    /// the reservoir, reseed its RNG from `(seed, epoch)`, and re-offer
    /// the current window so the new reference describes the
    /// distribution the promoted model was fitted on.
    pub fn reset(&mut self, epoch: u64) {
        self.rng = Self::epoch_rng(self.seed, epoch);
        self.reservoir.clear();
        self.seen = 0;
        let rows: Vec<Vec<f64>> = self.window.iter().cloned().collect();
        for row in &rows {
            self.seen += 1;
            if self.reservoir.len() < self.reservoir_capacity {
                self.reservoir.push(row.clone());
            } else {
                let j = self.rng.random_range(0..self.seen);
                if (j as usize) < self.reservoir_capacity {
                    self.reservoir[j as usize] = row.clone();
                }
            }
        }
    }

    /// Number of points currently in the window.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// The window as a matrix, oldest row first (the candidate-fit
    /// input; `d` must be supplied because an empty window has no
    /// intrinsic width).
    pub fn window_matrix(&self, d: usize) -> Matrix {
        let mut data = Vec::with_capacity(self.window.len() * d);
        for row in &self.window {
            data.extend_from_slice(row);
        }
        Matrix::from_vec(data, self.window.len(), d)
    }

    /// The reservoir's current sample.
    pub fn reservoir_rows(&self) -> &[Vec<f64>] {
        &self.reservoir
    }
}

/// Projection-based two-sample drift score between the sliding window
/// and the reservoir reference.
///
/// `projections` seeded unit directions are drawn lazily when the
/// dimensionality is first known; the score is
/// `max_p |mean_window(p) - mean_reservoir(p)| / (std_reservoir(p) + ε)`
/// — a standardized mean shift along the worst projection.
#[derive(Debug)]
pub struct DriftDetector {
    directions: Vec<Vec<f64>>,
    count: usize,
    seed: u64,
}

impl DriftDetector {
    /// A detector with `count` projections derived from `seed`.
    pub fn new(count: usize, seed: u64) -> Self {
        DriftDetector {
            directions: Vec::new(),
            count,
            seed,
        }
    }

    fn ensure_directions(&mut self, d: usize) {
        if !self.directions.is_empty() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(self.seed ^ PROJECTION_SALT);
        for _ in 0..self.count {
            let mut v: Vec<f64> = (0..d).map(|_| rng.random_range(-1.0..1.0)).collect();
            let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm > 0.0 {
                for x in &mut v {
                    *x /= norm;
                }
            } else if let Some(first) = v.first_mut() {
                *first = 1.0;
            }
            self.directions.push(v);
        }
    }

    /// Score `recent` (the window) against `reference` (the
    /// reservoir). Returns NaN when either side is too small to
    /// compare (fewer than 2 points).
    pub fn score(&mut self, recent: &VecDeque<Vec<f64>>, reference: &[Vec<f64>]) -> f64 {
        if recent.len() < 2 || reference.len() < 2 {
            return f64::NAN;
        }
        let d = reference[0].len();
        self.ensure_directions(d);
        let mut worst = 0.0f64;
        for dir in &self.directions {
            let dot = |row: &[f64]| -> f64 { row.iter().zip(dir).map(|(a, b)| a * b).sum() };
            let mut rsum = 0.0;
            let mut rsq = 0.0;
            for row in reference {
                let p = dot(row);
                rsum += p;
                rsq += p * p;
            }
            let rn = reference.len() as f64;
            let rmean = rsum / rn;
            let rvar = (rsq / rn - rmean * rmean).max(0.0);
            let mut wsum = 0.0;
            for row in recent {
                wsum += dot(row);
            }
            let wmean = wsum / recent.len() as f64;
            let shift = (wmean - rmean).abs() / (rvar.sqrt() + 1e-9);
            if shift > worst {
                worst = shift;
            }
        }
        worst
    }
}

/// What happened to one ingested batch.
#[derive(Debug)]
pub struct BatchReport {
    /// 1-based batch sequence number.
    pub batch: u64,
    /// `false` when the batch was quarantined.
    pub accepted: bool,
    /// Why the batch was quarantined, when it was.
    pub quarantine_reason: Option<&'static str>,
    /// Drift score after ingest (NaN before the reference exists or on
    /// quarantined batches).
    pub drift_score: f64,
    /// Whether this batch counted toward the drift patience run.
    pub drifted: bool,
    /// The rollover attempt this batch triggered, if any.
    pub rollover: Option<RolloverReport>,
}

/// Running account of a stream session (rendered by the CLI and
/// asserted on by the robustness tier).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StreamDiagnostics {
    /// Batches ingested (accepted + quarantined).
    pub batches: u64,
    /// Total accepted points.
    pub accepted_points: usize,
    /// Quarantined batches: `(batch number, reason)`.
    pub quarantined: Vec<(u64, &'static str)>,
    /// Times the drift patience was exhausted.
    pub drift_detections: u64,
    /// Rollover attempts that ended in rollback.
    pub rollbacks: u64,
    /// Rollover attempts that promoted.
    pub promotions: u64,
}

/// The streaming server: ingests batches, serves a live model from the
/// registry, and drives gated rollovers when the stream drifts.
///
/// See the module docs for the decision pipeline and its determinism
/// contract.
pub struct StreamServer<'a> {
    params: Proclus,
    config: StreamConfig,
    gates: GateConfig,
    registry: ModelRegistry,
    live: Option<(u64, ProclusModel)>,
    sampler: WindowSampler,
    detector: DriftDetector,
    rec: &'a dyn Recorder,
    dims: Option<usize>,
    batch: u64,
    rebuilds: u64,
    drift_run: usize,
    cooldown: usize,
    diagnostics: StreamDiagnostics,
}

impl<'a> StreamServer<'a> {
    /// Open the registry at `registry_dir` (running its recovery scan)
    /// and construct a server. A valid `CURRENT` model resumes serving
    /// immediately.
    ///
    /// # Errors
    ///
    /// [`StreamError::Config`] for invalid configuration,
    /// [`StreamError::Registry`] when the registry cannot be opened or
    /// its serving model cannot be loaded.
    pub fn new(
        params: Proclus,
        config: StreamConfig,
        gates: GateConfig,
        registry_dir: &Path,
        rec: &'a dyn Recorder,
    ) -> Result<(Self, RecoveryReport), StreamError> {
        config.validate().map_err(StreamError::Config)?;
        gates.validate().map_err(StreamError::Config)?;
        let (registry, report) =
            ModelRegistry::open(registry_dir).map_err(StreamError::Registry)?;
        let live = registry.load_current().map_err(StreamError::Registry)?;
        let dims = live
            .as_ref()
            .and_then(|(_, m)| m.clusters().first().map(|c| c.medoid.len()));
        let sampler = WindowSampler::new(config.window, config.reservoir, config.seed);
        let detector = DriftDetector::new(config.projections, config.seed);
        Ok((
            StreamServer {
                params,
                config,
                gates,
                registry,
                live,
                sampler,
                detector,
                rec,
                dims,
                batch: 0,
                rebuilds: 0,
                drift_run: 0,
                cooldown: 0,
                diagnostics: StreamDiagnostics::default(),
            },
            report,
        ))
    }

    /// The serving model, if one has been bootstrapped or recovered.
    pub fn live(&self) -> Option<&ProclusModel> {
        self.live.as_ref().map(|(_, m)| m)
    }

    /// Generation of the serving model.
    pub fn live_generation(&self) -> Option<u64> {
        self.live.as_ref().map(|(g, _)| *g)
    }

    /// The backing registry.
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// The session diagnostics so far.
    pub fn diagnostics(&self) -> &StreamDiagnostics {
        &self.diagnostics
    }

    /// The current window as a fit-ready matrix (empty when no batch
    /// has been accepted yet).
    pub fn window_matrix(&self) -> Matrix {
        self.sampler.window_matrix(self.dims.unwrap_or(0))
    }

    fn quarantine(&mut self, reason: &'static str) -> BatchReport {
        self.batch += 1;
        self.diagnostics.batches += 1;
        self.diagnostics.quarantined.push((self.batch, reason));
        if self.rec.enabled() {
            self.rec.event(&Event::StreamQuarantine {
                batch: self.batch,
                reason,
            });
        }
        BatchReport {
            batch: self.batch,
            accepted: false,
            quarantine_reason: Some(reason),
            drift_score: f64::NAN,
            drifted: false,
            rollover: None,
        }
    }

    /// Record a batch that failed *upstream* decoding (truncated /
    /// corrupt chunk frame) as quarantined, without touching the window
    /// or the live model. The caller consumes the decode error; this
    /// keeps the batch numbering and decision log aware of it.
    pub fn quarantine_corrupt(&mut self) -> BatchReport {
        self.quarantine("corrupt_chunk")
    }

    /// Ingest one batch. Never fails: malformed batches are
    /// quarantined; accepted batches update the window/reservoir, are
    /// scored for drift, and may trigger a gated rollover (bootstrap or
    /// rebuild). The returned report says exactly what happened.
    pub fn ingest_batch(&mut self, batch: &Matrix) -> BatchReport {
        if batch.rows() == 0 {
            return self.quarantine("empty_batch");
        }
        let d = batch.cols();
        if let Some(expect) = self.dims {
            if d != expect {
                return self.quarantine("dimension_mismatch");
            }
        }
        if batch.as_slice().iter().any(|v| !v.is_finite()) {
            return self.quarantine("non_finite");
        }

        // Accept: the batch joins the window and the reservoir.
        self.batch += 1;
        self.diagnostics.batches += 1;
        self.diagnostics.accepted_points += batch.rows();
        self.dims = Some(d);
        for row in batch.iter_rows() {
            self.sampler.push(row);
        }
        let score = self
            .detector
            .score(&self.sampler.window, &self.sampler.reservoir);
        let drifted =
            self.live.is_some() && score.is_finite() && score > self.config.drift_threshold;
        if self.rec.enabled() {
            self.rec.event(&Event::StreamBatch {
                batch: self.batch,
                rows: batch.rows(),
                window: self.sampler.window_len(),
                drift_score: score,
                drifted,
            });
        }
        if drifted {
            self.drift_run += 1;
        } else {
            self.drift_run = 0;
        }
        self.cooldown = self.cooldown.saturating_sub(1);

        let enough = self.sampler.window_len() >= self.config.min_fit_points;
        let trigger = if self.cooldown > 0 || !enough {
            None
        } else if self.live.is_none() {
            Some("bootstrap")
        } else if self.drift_run >= self.config.patience {
            self.diagnostics.drift_detections += 1;
            if self.rec.enabled() {
                self.rec.event(&Event::DriftDetected {
                    batch: self.batch,
                    score,
                    threshold: self.config.drift_threshold,
                });
            }
            self.drift_run = 0;
            Some("drift")
        } else {
            None
        };

        let rollover = trigger.map(|t| self.run_rollover(t, d));
        BatchReport {
            batch: self.batch,
            accepted: true,
            quarantine_reason: None,
            drift_score: score,
            drifted,
            rollover,
        }
    }

    fn run_rollover(&mut self, trigger: &'static str, d: usize) -> RolloverReport {
        self.rebuilds += 1;
        let window = self.sampler.window_matrix(d);
        let (report, promoted) = rollover::run(
            &self.params,
            &self.gates,
            &window,
            self.live.as_ref(),
            &mut self.registry,
            self.rebuilds,
            trigger,
            self.config.seed,
            self.rec,
        );
        match report.outcome {
            RolloverOutcome::Promoted { .. } => {
                self.live = promoted;
                self.diagnostics.promotions += 1;
                // New serving model ⇒ new reference epoch: the
                // reservoir restarts from the window the model was
                // fitted on.
                self.sampler.reset(self.rebuilds);
                self.drift_run = 0;
            }
            RolloverOutcome::RolledBack { .. } => {
                self.diagnostics.rollbacks += 1;
            }
        }
        self.cooldown = self.config.cooldown;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proclus_obs::NoopRecorder;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("proclus-stream-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn blob(center: f64, rows: usize, d: usize, jitter_seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(jitter_seed);
        let mut data = Vec::with_capacity(rows * d);
        for _ in 0..rows {
            for _ in 0..d {
                data.push(center + rng.random_range(-1.0..1.0));
            }
        }
        Matrix::from_vec(data, rows, d)
    }

    #[test]
    fn config_validation_rejects_bad_fields() {
        let ok = StreamConfig::default();
        assert!(ok.validate().is_ok());
        for bad in [
            StreamConfig {
                window: 0,
                ..ok.clone()
            },
            StreamConfig {
                min_fit_points: 0,
                ..ok.clone()
            },
            StreamConfig {
                min_fit_points: 9999,
                ..ok.clone()
            },
            StreamConfig {
                reservoir: 0,
                ..ok.clone()
            },
            StreamConfig {
                projections: 0,
                ..ok.clone()
            },
            StreamConfig {
                drift_threshold: f64::NAN,
                ..ok.clone()
            },
            StreamConfig {
                drift_threshold: -1.0,
                ..ok.clone()
            },
            StreamConfig {
                patience: 0,
                ..ok.clone()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
        let gates = GateConfig::default();
        assert!(gates.validate().is_ok());
        for bad in [
            GateConfig {
                min_silhouette: f64::NAN,
                ..gates.clone()
            },
            GateConfig {
                max_cost_ratio: 0.0,
                ..gates.clone()
            },
            GateConfig {
                max_outlier_fraction: 1.5,
                ..gates.clone()
            },
            GateConfig {
                canary_fraction: 0.0,
                ..gates.clone()
            },
            GateConfig {
                min_live_coverage: -0.1,
                ..gates.clone()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn sampler_window_slides_and_reservoir_is_deterministic() {
        let mut a = WindowSampler::new(4, 3, 11);
        let mut b = WindowSampler::new(4, 3, 11);
        for i in 0..50 {
            let row = [i as f64, (i * 2) as f64];
            a.push(&row);
            b.push(&row);
        }
        assert_eq!(a.window_len(), 4);
        let w = a.window_matrix(2);
        assert_eq!(w.row(0), &[46.0, 92.0]);
        assert_eq!(w.row(3), &[49.0, 98.0]);
        assert_eq!(a.reservoir_rows(), b.reservoir_rows());
        a.reset(1);
        b.reset(1);
        assert_eq!(a.reservoir_rows(), b.reservoir_rows());
        // Post-reset the reservoir describes only the window.
        assert_eq!(a.reservoir_rows().len(), 3);
        for row in a.reservoir_rows() {
            assert!(row[0] >= 46.0);
        }
    }

    #[test]
    fn drift_detector_separates_shifted_distributions() {
        let mut det = DriftDetector::new(8, 5);
        let reference: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![(i % 17) as f64 * 0.1, (i % 13) as f64 * 0.1, 0.0])
            .collect();
        let same: VecDeque<Vec<f64>> = reference.iter().cloned().collect();
        let near = det.score(&same, &reference);
        assert!(near.is_finite() && near < 0.3, "same data scored {near}");
        let shifted: VecDeque<Vec<f64>> = reference
            .iter()
            .map(|r| vec![r[0] + 40.0, r[1] - 25.0, r[2]])
            .collect();
        let far = det.score(&shifted, &reference);
        assert!(far > 5.0, "shifted data scored only {far}");
        // Too-small sides score NaN, never a spurious number.
        let tiny: VecDeque<Vec<f64>> = VecDeque::new();
        assert!(det.score(&tiny, &reference).is_nan());
    }

    #[test]
    fn malformed_batches_are_quarantined_not_fatal() {
        let dir = tmp_dir("quarantine");
        let rec = NoopRecorder;
        let params = Proclus::new(2, 2.0).seed(3).restarts(1);
        let config = StreamConfig {
            window: 64,
            min_fit_points: 48,
            reservoir: 16,
            ..StreamConfig::default()
        };
        let (mut server, report) =
            StreamServer::new(params, config, GateConfig::default(), &dir, &rec).unwrap();
        assert!(report.is_clean());

        let empty = Matrix::zeros(0, 3);
        let r = server.ingest_batch(&empty);
        assert_eq!(r.quarantine_reason, Some("empty_batch"));

        let good = blob(10.0, 8, 3, 1);
        assert!(server.ingest_batch(&good).accepted);

        let wrong = blob(10.0, 4, 2, 2);
        let r = server.ingest_batch(&wrong);
        assert_eq!(r.quarantine_reason, Some("dimension_mismatch"));

        let mut nan = blob(10.0, 4, 3, 3);
        nan.set(1, 1, f64::NAN);
        let r = server.ingest_batch(&nan);
        assert_eq!(r.quarantine_reason, Some("non_finite"));

        let r = server.quarantine_corrupt();
        assert_eq!(r.quarantine_reason, Some("corrupt_chunk"));

        let diag = server.diagnostics();
        assert_eq!(diag.batches, 5);
        assert_eq!(diag.accepted_points, 8);
        assert_eq!(
            diag.quarantined,
            vec![
                (1, "empty_batch"),
                (3, "dimension_mismatch"),
                (4, "non_finite"),
                (5, "corrupt_chunk")
            ]
        );
        // A clean batch after the faults is still accepted.
        assert!(server.ingest_batch(&blob(10.0, 8, 3, 4)).accepted);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bootstrap_promotes_once_window_fills() {
        let dir = tmp_dir("bootstrap");
        let rec = NoopRecorder;
        let params = Proclus::new(2, 2.0).seed(3).restarts(1);
        let config = StreamConfig {
            window: 128,
            min_fit_points: 64,
            reservoir: 32,
            cooldown: 1,
            ..StreamConfig::default()
        };
        let (mut server, _) =
            StreamServer::new(params, config, GateConfig::default(), &dir, &rec).unwrap();
        let mut promoted = false;
        for i in 0..8 {
            // Two well-separated blobs so the fit has real structure.
            let m = if i % 2 == 0 {
                blob(5.0, 16, 3, 100 + i)
            } else {
                blob(60.0, 16, 3, 200 + i)
            };
            let r = server.ingest_batch(&m);
            if let Some(roll) = &r.rollover {
                assert!(
                    matches!(roll.outcome, RolloverOutcome::Promoted { .. }),
                    "{roll:?}"
                );
                promoted = true;
            }
        }
        assert!(promoted, "bootstrap never triggered");
        assert!(server.live().is_some());
        assert_eq!(server.live_generation(), Some(1));
        assert_eq!(server.diagnostics().promotions, 1);
        // The registry on disk agrees.
        let (reg, rep) = ModelRegistry::open(&dir).unwrap();
        assert!(rep.is_clean());
        assert_eq!(reg.current(), Some(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
