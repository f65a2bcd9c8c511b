//! Declarative scenario engine: a workload layer over the §4.1
//! generator.
//!
//! A [`ScenarioSpec`] extends [`SyntheticSpec`] with the workload axes
//! the paper's fixed generator cannot express — the axes along which
//! subspace-clustering quality is known to swing (see the survey
//! literature referenced in PAPERS.md):
//!
//! * **mixed per-cluster distributions** — Gaussian (the paper),
//!   uniform, or heavy-tailed Laplace noise on the cluster dimensions,
//! * **correlated subspaces** — a seeded orthogonal rotation applied
//!   *within* each cluster's dimension set, so the cluster is dense in
//!   a non-axis-parallel frame of its subspace,
//! * **heavy-tailed cluster-size laws** — Zipf(`s`) alongside the
//!   paper's `Exp(1)` law and an even split,
//! * **categorical / ordinal columns** — appended typed columns whose
//!   values are level codes (bin centers for categorical, a monotone
//!   grid for ordinal) with a per-cluster preferred level,
//! * **drift schedules** — a list of epoch transitions (mean shift,
//!   dimension swap, cluster birth/death) that feed `proclus stream`,
//! * **streaming generation** — rows are produced one at a time and
//!   written straight to CSV / `PRCL` / `PRCK` chunk files without
//!   materializing the matrix in RAM.
//!
//! Everything is a pure function of `(spec, seed)`: generation is
//! single-threaded by construction, and the canonical text form
//! ([`ScenarioSpec::parse`] / [`ScenarioSpec::to_canonical`]) is a
//! hand-rolled line grammar with a byte-exact round trip.

use crate::atomic::{write_with, StagedFile};
use crate::binio;
use crate::chunks::encode_chunk;
use crate::error::DataError;
use crate::generator::{
    apportion, apportion_with_floor, choose_dimension_sets, first_non_finite,
    non_finite_coordinate, GeneratedCluster,
};
use crate::io::{csv_header, push_csv_row};
use crate::label::Label;
use crate::spec::{addressable_cells, DimensionSpec, SyntheticSpec};
use proclus_math::distributions::{exponential, laplace, normal, poisson};
use proclus_math::hash::{fnv1a64_continue, FNV1A_BASIS};
use proclus_math::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::path::Path;

/// Coordinate distribution used on the cluster dimensions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClusterDistribution {
    /// `Normal(anchor, (s_ij·r)²)` — the paper's §4.1 model.
    Gaussian,
    /// Uniform on `anchor ± s_ij·r·√3` (same variance as Gaussian).
    Uniform,
    /// Laplace with scale `s_ij·r/√2` (same variance, heavier tails).
    Laplace,
}

/// How the per-epoch point budget is split among the clusters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SizeLaw {
    /// Proportional to `Exp(1)` draws with the spec's minimum-size
    /// floor — the base generator's law.
    ExpFloor,
    /// Proportional to `1/rank^exponent` — a heavy-tailed split where
    /// the first cluster dominates and the tail starves.
    Zipf {
        /// The law's exponent `s > 0`; larger is more skewed.
        exponent: f64,
    },
    /// An even `N_c/k` split.
    Even,
}

/// One appended typed column.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExtraColumn {
    /// Unordered levels encoded as bin centers of the domain:
    /// `lo + (level + ½)·(hi−lo)/levels`.
    Categorical {
        /// Number of levels (≥ 2).
        levels: usize,
    },
    /// Ordered levels encoded as a monotone grid over the domain:
    /// `lo + level·(hi−lo)/(levels−1)`.
    Ordinal {
        /// Number of levels (≥ 2).
        levels: usize,
    },
}

impl ExtraColumn {
    fn levels(self) -> usize {
        match self {
            ExtraColumn::Categorical { levels } | ExtraColumn::Ordinal { levels } => levels,
        }
    }

    fn encode(self, level: usize, lo: f64, hi: f64) -> f64 {
        match self {
            ExtraColumn::Categorical { levels } => {
                lo + (level as f64 + 0.5) * (hi - lo) / levels as f64
            }
            ExtraColumn::Ordinal { levels } => lo + level as f64 * (hi - lo) / (levels - 1) as f64,
        }
    }
}

/// One epoch transition of a drift schedule. Epoch `e ≥ 1` applies
/// `drift[e−1]` to the previous epoch's geometry before emitting rows.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DriftKind {
    /// Every anchor moves by `±magnitude` (seeded sign per dimension)
    /// on each of its cluster dimensions, clamped to the domain.
    MeanShift {
        /// Shift distance in domain units.
        magnitude: f64,
    },
    /// Every cluster trades one of its dimensions for a previously
    /// uncorrelated one (no-op for full-space clusters).
    DimSwap,
    /// The smallest cluster dies and a fresh one (new anchor, new
    /// dimension set of the same size) is born in its slot.
    BirthDeath,
}

/// A named, declarative workload scenario.
///
/// `base` carries the §4.1 parameters (per-epoch `n`, `d`, `k`, dims
/// law, outlier fraction, domain, spread, scale, size floor, seed);
/// the remaining fields select the workload axes described in the
/// module docs.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (`[a-z0-9-]+`), used in reports and trace events.
    pub name: String,
    /// The §4.1 parameters; `base.n` is the row count *per epoch*.
    pub base: SyntheticSpec,
    /// Distribution of cluster-dimension coordinates.
    pub distribution: ClusterDistribution,
    /// Cluster-size law.
    pub size_law: SizeLaw,
    /// Apply a seeded orthogonal rotation within each cluster's
    /// dimension set.
    pub rotate: bool,
    /// Appended typed columns, in order.
    pub columns: Vec<ExtraColumn>,
    /// Drift schedule; empty means a single static epoch.
    pub drift: Vec<DriftKind>,
}

/// Ground truth for one epoch of a scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochTruth {
    /// Per-cluster truth (anchor over the base `d` dims, sorted
    /// dimension set, realized size), indexed by the id in
    /// [`Label::Cluster`].
    pub clusters: Vec<GeneratedCluster>,
    /// Outlier rows emitted in this epoch.
    pub outliers: usize,
}

/// Ground truth for every epoch of a scenario run.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioTruth {
    /// One entry per epoch, in emission order.
    pub epochs: Vec<EpochTruth>,
}

/// A fully materialized scenario (tests and small workloads; the
/// streaming writers never build this).
#[derive(Clone, Debug, PartialEq)]
pub struct GeneratedScenario {
    /// All rows of all epochs, in emission order.
    pub points: Matrix,
    /// `labels[i]` is the epoch-local ground truth of row `i`.
    pub labels: Vec<Label>,
    /// Per-epoch ground truth.
    pub truth: ScenarioTruth,
}

/// Per-cluster generation state for one epoch.
struct ClusterGeom {
    anchor: Vec<f64>,
    dims: Vec<usize>,
    /// Parallel to `dims`: the per-dimension std `s_ij·r`.
    stds: Vec<f64>,
    /// Row-major `m×m` orthogonal matrix (`m = dims.len()`), present
    /// only when the spec rotates.
    rotation: Option<Vec<f64>>,
    /// Per extra column: this cluster's preferred level.
    level_bias: Vec<usize>,
}

/// Probability that a cluster row draws its preferred level on an
/// extra column (the rest is uniform over the levels).
const LEVEL_BIAS_P: f64 = 0.8;

impl ScenarioSpec {
    /// A scenario with the paper's defaults and no workload extras:
    /// Gaussian clusters, `Exp(1)` sizes, no rotation, no extra
    /// columns, one epoch.
    pub fn new(name: &str, n: usize, d: usize, k: usize, l: f64) -> Self {
        ScenarioSpec {
            name: name.to_string(),
            base: SyntheticSpec::new(n, d, k, l),
            distribution: ClusterDistribution::Gaussian,
            size_law: SizeLaw::ExpFloor,
            rotate: false,
            columns: Vec::new(),
            drift: Vec::new(),
        }
    }

    /// Number of epochs (1 + the drift schedule length).
    pub fn epochs(&self) -> usize {
        1 + self.drift.len()
    }

    /// Total rows over every epoch (saturating; a spec that
    /// [validates](ScenarioSpec::validate) never saturates).
    pub fn rows(&self) -> usize {
        self.base.n.saturating_mul(self.epochs())
    }

    /// Total columns: base `d` plus the appended typed columns
    /// (saturating, as [`rows`](ScenarioSpec::rows)).
    pub fn cols(&self) -> usize {
        self.base.d.saturating_add(self.columns.len())
    }

    /// Validate the scenario, returning a human-readable complaint if
    /// it is unusable.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("scenario name must not be empty".into());
        }
        if !self
            .name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
        {
            return Err(format!(
                "scenario name must match [a-z0-9-]+, got {:?}",
                self.name
            ));
        }
        self.base.validate()?;
        // `rows()` and `cols()` saturate, and a saturated factor never
        // makes an addressable product.
        if addressable_cells(self.rows(), self.cols()).is_none() {
            return Err(format!(
                "{} rows x {} epochs x ({} + {}) columns overflow the address space",
                self.base.n,
                self.epochs(),
                self.base.d,
                self.columns.len()
            ));
        }
        if let SizeLaw::Zipf { exponent } = self.size_law {
            if !(exponent.is_finite() && exponent > 0.0) {
                return Err(format!("zipf exponent must be positive, got {exponent}"));
            }
        }
        for (i, col) in self.columns.iter().enumerate() {
            let levels = col.levels();
            if !(2..=64).contains(&levels) {
                return Err(format!(
                    "column {i}: levels must be in [2, 64], got {levels}"
                ));
            }
        }
        for (i, kind) in self.drift.iter().enumerate() {
            if let DriftKind::MeanShift { magnitude } = kind {
                if !(magnitude.is_finite() && *magnitude > 0.0) {
                    return Err(format!(
                        "epoch {}: mean-shift magnitude must be positive, got {magnitude}",
                        i + 1
                    ));
                }
            }
        }
        Ok(())
    }

    /// Stream every row of every epoch through `visit(epoch, row,
    /// label)` in emission order, returning the realized ground truth.
    /// One row buffer is reused; nothing of matrix size is allocated.
    ///
    /// # Errors
    ///
    /// [`DataError::InvalidSpec`] when the scenario does not
    /// [`validate`](ScenarioSpec::validate), or when a coordinate
    /// leaves `f64`; rows before it have been visited. The first error
    /// `visit` returns stops the stream and is returned as is.
    pub fn for_each_row<F>(&self, mut visit: F) -> Result<ScenarioTruth, DataError>
    where
        F: FnMut(usize, &[f64], Label) -> Result<(), DataError>,
    {
        self.validate().map_err(DataError::InvalidSpec)?;
        let d = self.base.d;
        let cols = self.cols();
        let (lo, hi) = self.base.domain;
        let mut truth = ScenarioTruth {
            epochs: Vec::with_capacity(self.epochs()),
        };
        let mut row = vec![0.0f64; cols];
        let mut geometry: Vec<ClusterGeom> = Vec::new();
        let mut emitted = 0usize;
        for epoch in 0..self.epochs() {
            let mut rng = StdRng::seed_from_u64(epoch_seed(self.base.seed, epoch));
            if epoch == 0 {
                geometry = self.realize_geometry(&mut rng);
            } else {
                self.apply_drift(self.drift[epoch - 1], &mut geometry, &mut rng);
            }
            let sizes = self.epoch_sizes(&mut rng);
            let n_outliers = self.base.n - sizes.iter().sum::<usize>();

            // Emission schedule: cluster memberships and outliers,
            // shuffled so membership is not encoded in row order.
            let mut schedule: Vec<Label> = Vec::with_capacity(self.base.n);
            for (c, &s) in sizes.iter().enumerate() {
                schedule.extend(std::iter::repeat_n(Label::Cluster(c), s));
            }
            schedule.extend(std::iter::repeat_n(Label::Outlier, n_outliers));
            schedule.shuffle(&mut rng);

            for &label in &schedule {
                match label {
                    Label::Cluster(c) => self.fill_cluster_row(&geometry[c], &mut row, &mut rng),
                    Label::Outlier => {
                        for slot in row.iter_mut().take(d) {
                            *slot = rng.random_range(lo..hi);
                        }
                        for (t, col) in self.columns.iter().enumerate() {
                            let level = rng.random_range(0..col.levels());
                            row[d + t] = col.encode(level, lo, hi);
                        }
                    }
                }
                if let Some(j) = first_non_finite(&row) {
                    return Err(non_finite_coordinate(emitted, j));
                }
                visit(epoch, &row, label)?;
                emitted += 1;
            }
            truth.epochs.push(EpochTruth {
                clusters: geometry
                    .iter()
                    .zip(&sizes)
                    .map(|(g, &size)| GeneratedCluster {
                        anchor: g.anchor.clone(),
                        dims: g.dims.clone(),
                        size,
                    })
                    .collect(),
                outliers: n_outliers,
            });
        }
        Ok(truth)
    }

    /// Materialize the whole scenario (tests and small workloads).
    ///
    /// # Errors
    ///
    /// [`DataError::InvalidSpec`] on an invalid scenario.
    pub fn generate(&self) -> Result<GeneratedScenario, DataError> {
        self.validate().map_err(DataError::InvalidSpec)?;
        let mut data = Vec::with_capacity(self.rows() * self.cols());
        let mut labels = Vec::with_capacity(self.rows());
        let truth = self.for_each_row(|_, row, label| {
            data.extend_from_slice(row);
            labels.push(label);
            Ok(())
        })?;
        Ok(GeneratedScenario {
            points: Matrix::from_vec(data, self.rows(), self.cols()),
            labels,
            truth,
        })
    }

    /// FNV-1a digest of the full row/label byte stream — the identity
    /// the test tier pins to prove `(spec, seed)` determinism.
    ///
    /// # Errors
    ///
    /// [`DataError::InvalidSpec`] on an invalid scenario.
    pub fn digest(&self) -> Result<u64, DataError> {
        let mut h = FNV1A_BASIS;
        let mut mix = |bytes: &[u8]| h = fnv1a64_continue(h, bytes);
        self.for_each_row(|_, row, label| {
            for v in row {
                mix(&v.to_le_bytes());
            }
            mix(&label.id().to_le_bytes());
            Ok(())
        })?;
        Ok(h)
    }

    /// Stream the scenario into a labeled CSV file (the encoding of
    /// [`crate::io::write_csv`]) through the crash-safe writer
    /// ([`crate::atomic`]).
    ///
    /// # Errors
    ///
    /// [`DataError::InvalidSpec`] on an invalid scenario,
    /// [`DataError::Io`] on any I/O failure.
    pub fn write_csv(&self, path: &Path) -> Result<ScenarioTruth, DataError> {
        self.validate().map_err(DataError::InvalidSpec)?;
        write_with(path, |w| {
            w.write_all(csv_header(self.cols(), true).as_bytes())?;
            let mut line = String::new();
            self.for_each_row(|_, row, label| {
                line.clear();
                push_csv_row(&mut line, row, Some(label));
                w.write_all(line.as_bytes())
            })
        })
    }

    /// Stream the scenario into a labeled `PRCL` binary file. The
    /// header and coordinates stream directly to disk; only the label
    /// column (8 bytes/row) is buffered, because `PRCL` stores labels
    /// after the full matrix.
    ///
    /// # Errors
    ///
    /// [`DataError::InvalidSpec`] on an invalid scenario,
    /// [`DataError::Io`] on any I/O failure.
    pub fn write_prcl(&self, path: &Path) -> Result<ScenarioTruth, DataError> {
        self.validate().map_err(DataError::InvalidSpec)?;
        write_with(path, |w| {
            w.write_all(&binio::header(self.rows(), self.cols(), true))?;
            let mut label_ids: Vec<u8> = Vec::with_capacity(self.rows() * 8);
            let truth = self.for_each_row(|_, row, label| {
                label_ids.extend_from_slice(&label.id().to_le_bytes());
                row.iter().try_for_each(|v| w.write_all(&v.to_le_bytes()))
            })?;
            w.write_all(&label_ids)?;
            Ok(truth)
        })
    }

    /// Stream the scenario into a `PRCK` chunk file (`batch_rows` rows
    /// per checksummed frame) — the input format of `proclus stream`.
    /// Only one batch is buffered at a time. Labels are not part of
    /// the chunk format.
    ///
    /// # Errors
    ///
    /// [`DataError::InvalidSpec`] on an invalid scenario or a zero /
    /// oversized `batch_rows`, [`DataError::Io`] on any I/O failure.
    pub fn write_chunks(&self, path: &Path, batch_rows: usize) -> Result<ScenarioTruth, DataError> {
        self.validate().map_err(DataError::InvalidSpec)?;
        let cols = self.cols();
        if batch_rows == 0 {
            return Err(DataError::InvalidSpec(
                "chunk batch_rows must be positive".into(),
            ));
        }
        if batch_rows.saturating_mul(cols) > crate::chunks::MAX_CHUNK_CELLS {
            return Err(DataError::InvalidSpec(format!(
                "chunk batch of {batch_rows} rows x {cols} cols exceeds the frame cell bound"
            )));
        }
        write_with(path, |w| {
            let mut batch: Vec<f64> = Vec::with_capacity(batch_rows * cols);
            let truth = self.for_each_row(|_, row, _| {
                batch.extend_from_slice(row);
                if batch.len() == batch_rows * cols {
                    write_chunk(w, &mut batch, cols)?;
                }
                Ok(())
            })?;
            write_chunk(w, &mut batch, cols)?;
            Ok(truth)
        })
    }

    /// Realize the epoch-0 geometry from the epoch RNG. Draw order is
    /// part of the format: anchors, dimension counts, dimension sets,
    /// stds, rotations, level biases.
    fn realize_geometry(&self, rng: &mut StdRng) -> Vec<ClusterGeom> {
        let d = self.base.d;
        let k = self.base.k;
        let (lo, hi) = self.base.domain;
        let anchors: Vec<Vec<f64>> = (0..k)
            .map(|_| (0..d).map(|_| rng.random_range(lo..hi)).collect())
            .collect();
        let counts: Vec<usize> = match &self.base.dims {
            DimensionSpec::Fixed(v) => v.clone(),
            DimensionSpec::Poisson { mean } => (0..k)
                .map(|_| (poisson(rng, *mean) as usize).clamp(2, d))
                .collect(),
        };
        let dim_sets = choose_dimension_sets(&counts, d, rng);
        anchors
            .into_iter()
            .zip(dim_sets)
            .map(|(anchor, dims)| {
                let stds: Vec<f64> = dims
                    .iter()
                    .map(|_| rng.random_range(1.0..=self.base.scale_max) * self.base.spread)
                    .collect();
                let rotation = self.rotate.then(|| random_rotation(dims.len(), rng));
                let level_bias = self
                    .columns
                    .iter()
                    .map(|col| rng.random_range(0..col.levels()))
                    .collect();
                ClusterGeom {
                    anchor,
                    dims,
                    stds,
                    rotation,
                    level_bias,
                }
            })
            .collect()
    }

    /// Apply one drift transition in place.
    fn apply_drift(&self, kind: DriftKind, geometry: &mut [ClusterGeom], rng: &mut StdRng) {
        let d = self.base.d;
        let (lo, hi) = self.base.domain;
        match kind {
            DriftKind::MeanShift { magnitude } => {
                for g in geometry.iter_mut() {
                    for &j in &g.dims {
                        let sign = if rng.random_range(0..2) == 0 {
                            1.0
                        } else {
                            -1.0
                        };
                        g.anchor[j] = (g.anchor[j] + sign * magnitude).clamp(lo, hi);
                    }
                }
            }
            DriftKind::DimSwap => {
                for g in geometry.iter_mut() {
                    let m = g.dims.len();
                    if m >= d {
                        continue; // full-space cluster: nothing to swap in
                    }
                    let out_idx = rng.random_range(0..m);
                    let free: Vec<usize> = (0..d).filter(|j| !g.dims.contains(j)).collect();
                    let new_dim = free[rng.random_range(0..free.len())];
                    g.dims[out_idx] = new_dim;
                    g.stds[out_idx] =
                        rng.random_range(1.0..=self.base.scale_max) * self.base.spread;
                    // Keep dims sorted with stds parallel.
                    let mut paired: Vec<(usize, f64)> =
                        g.dims.iter().copied().zip(g.stds.iter().copied()).collect();
                    paired.sort_by_key(|&(j, _)| j);
                    for (t, (j, s)) in paired.into_iter().enumerate() {
                        g.dims[t] = j;
                        g.stds[t] = s;
                    }
                }
            }
            DriftKind::BirthDeath => {
                // The previous epoch's smallest cluster dies. Sizes are
                // re-drawn each epoch, so "smallest" is judged by the
                // current size law's deterministic rank: the Zipf tail
                // or, for stochastic laws, the last cluster slot.
                let victim = geometry.len() - 1;
                let count = geometry[victim].dims.len();
                let anchor: Vec<f64> = (0..d).map(|_| rng.random_range(lo..hi)).collect();
                let mut all: Vec<usize> = (0..d).collect();
                all.shuffle(rng);
                let mut dims: Vec<usize> = all.into_iter().take(count).collect();
                dims.sort_unstable();
                let stds: Vec<f64> = dims
                    .iter()
                    .map(|_| rng.random_range(1.0..=self.base.scale_max) * self.base.spread)
                    .collect();
                let rotation = self.rotate.then(|| random_rotation(count, rng));
                let level_bias = self
                    .columns
                    .iter()
                    .map(|col| rng.random_range(0..col.levels()))
                    .collect();
                geometry[victim] = ClusterGeom {
                    anchor,
                    dims,
                    stds,
                    rotation,
                    level_bias,
                };
            }
        }
    }

    /// Draw this epoch's cluster sizes from the size law.
    fn epoch_sizes(&self, rng: &mut StdRng) -> Vec<usize> {
        let k = self.base.k;
        let n_outliers = (self.base.n as f64 * self.base.outlier_fraction).round() as usize;
        let n_cluster = self.base.n - n_outliers;
        match self.size_law {
            SizeLaw::ExpFloor => {
                let weights: Vec<f64> = (0..k).map(|_| exponential(rng, 1.0)).collect();
                let floor =
                    ((n_cluster as f64 / k as f64) * self.base.min_size_ratio).floor() as usize;
                apportion_with_floor(n_cluster, &weights, floor)
            }
            SizeLaw::Zipf { exponent } => {
                let weights: Vec<f64> = (0..k)
                    .map(|i| 1.0 / ((i + 1) as f64).powf(exponent))
                    .collect();
                apportion(n_cluster, &weights)
            }
            SizeLaw::Even => apportion(n_cluster, &vec![1.0; k]),
        }
    }

    /// Fill `row` with one cluster point: distribution offsets in the
    /// cluster's (optionally rotated) subspace frame, uniform noise
    /// elsewhere, then the typed extra columns.
    fn fill_cluster_row(&self, g: &ClusterGeom, row: &mut [f64], rng: &mut StdRng) {
        let d = self.base.d;
        let (lo, hi) = self.base.domain;
        let m = g.dims.len();
        // Offsets in the subspace's local frame, one per cluster dim.
        let mut local: Vec<f64> = Vec::with_capacity(m);
        for &std in &g.stds {
            let v = match self.distribution {
                ClusterDistribution::Gaussian => normal(rng, 0.0, std),
                ClusterDistribution::Uniform => {
                    let w = std * 3f64.sqrt();
                    rng.random_range(-w..w)
                }
                ClusterDistribution::Laplace => laplace(rng, 0.0, std / 2f64.sqrt()),
            };
            local.push(v);
        }
        if let Some(rot) = &g.rotation {
            let mut rotated = vec![0.0f64; m];
            for (t, slot) in rotated.iter_mut().enumerate() {
                let mut acc = 0.0;
                for (u, &x) in local.iter().enumerate() {
                    acc += rot[t * m + u] * x;
                }
                *slot = acc;
            }
            local = rotated;
        }
        let mut next_dim = 0usize;
        for (j, slot) in row.iter_mut().take(d).enumerate() {
            if next_dim < m && g.dims[next_dim] == j {
                *slot = g.anchor[j] + local[next_dim];
                next_dim += 1;
            } else {
                *slot = rng.random_range(lo..hi);
            }
        }
        for (t, col) in self.columns.iter().enumerate() {
            let level = if rng.random_range(0.0..1.0) < LEVEL_BIAS_P {
                g.level_bias[t]
            } else {
                rng.random_range(0..col.levels())
            };
            row[d + t] = col.encode(level, lo, hi);
        }
    }
}

// ---------------------------------------------------------------------
// Canonical text form (`.scn` files)
// ---------------------------------------------------------------------

impl ScenarioSpec {
    /// Parse the canonical `.scn` text form.
    ///
    /// The grammar is line-oriented: `#` starts a comment, blank lines
    /// are skipped, each remaining line is `key value...`. `scenario
    /// <name>` is required; every other key has a default (the paper's
    /// §4.1 values, Gaussian clusters, `exp-floor` sizes, no rotation,
    /// no columns, no drift). Scalar keys may appear at most once;
    /// `column` and `epoch` repeat in order.
    ///
    /// # Errors
    ///
    /// [`DataError::InvalidSpec`] naming the offending line for any
    /// unknown key, malformed value, duplicate scalar key, or a parsed
    /// scenario that fails [`validate`](ScenarioSpec::validate).
    pub fn parse(text: &str) -> Result<Self, DataError> {
        let bad = |n: usize, msg: String| DataError::InvalidSpec(format!("line {n}: {msg}"));
        let mut spec = ScenarioSpec::new("", 1000, 10, 4, 3.0);
        let mut seen: Vec<&str> = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let n = i + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let toks: Vec<&str> = line.split_whitespace().collect();
            let key = toks[0];
            let args = &toks[1..];
            let f64_arg = |t: &str| -> Result<f64, DataError> {
                t.parse::<f64>()
                    .map_err(|_| bad(n, format!("expected a number, got {t:?}")))
            };
            let usize_arg = |t: &str| -> Result<usize, DataError> {
                t.parse::<usize>()
                    .map_err(|_| bad(n, format!("expected a non-negative integer, got {t:?}")))
            };
            let one = |args: &[&str]| -> Result<(), DataError> {
                if args.len() == 1 {
                    Ok(())
                } else {
                    Err(bad(n, format!("{key} takes exactly one value")))
                }
            };
            if !matches!(key, "column" | "epoch") && seen.contains(&key) {
                return Err(bad(n, format!("duplicate key {key}")));
            }
            match key {
                "scenario" => {
                    one(args)?;
                    spec.name = args[0].to_string();
                    seen.push("scenario");
                }
                "rows" => {
                    one(args)?;
                    spec.base.n = usize_arg(args[0])?;
                    seen.push("rows");
                }
                "dims" => {
                    one(args)?;
                    spec.base.d = usize_arg(args[0])?;
                    seen.push("dims");
                }
                "clusters" => {
                    one(args)?;
                    spec.base.k = usize_arg(args[0])?;
                    seen.push("clusters");
                }
                "cluster-dims" => {
                    spec.base.dims = match args.first() {
                        Some(&"poisson") if args.len() == 2 => DimensionSpec::Poisson {
                            mean: f64_arg(args[1])?,
                        },
                        Some(&"fixed") if args.len() >= 2 => {
                            let mut v = Vec::with_capacity(args.len() - 1);
                            for t in &args[1..] {
                                v.push(usize_arg(t)?);
                            }
                            DimensionSpec::Fixed(v)
                        }
                        _ => {
                            return Err(bad(
                                n,
                                "cluster-dims wants `poisson <mean>` or `fixed <m>...`".into(),
                            ))
                        }
                    };
                    seen.push("cluster-dims");
                }
                "outliers" => {
                    one(args)?;
                    spec.base.outlier_fraction = f64_arg(args[0])?;
                    seen.push("outliers");
                }
                "domain" => {
                    if args.len() != 2 {
                        return Err(bad(n, "domain wants `<lo> <hi>`".into()));
                    }
                    spec.base.domain = (f64_arg(args[0])?, f64_arg(args[1])?);
                    seen.push("domain");
                }
                "spread" => {
                    one(args)?;
                    spec.base.spread = f64_arg(args[0])?;
                    seen.push("spread");
                }
                "scale-max" => {
                    one(args)?;
                    spec.base.scale_max = f64_arg(args[0])?;
                    seen.push("scale-max");
                }
                "min-size-ratio" => {
                    one(args)?;
                    spec.base.min_size_ratio = f64_arg(args[0])?;
                    seen.push("min-size-ratio");
                }
                "seed" => {
                    one(args)?;
                    spec.base.seed = args[0]
                        .parse::<u64>()
                        .map_err(|_| bad(n, format!("expected a u64 seed, got {:?}", args[0])))?;
                    seen.push("seed");
                }
                "distribution" => {
                    one(args)?;
                    spec.distribution = match args[0] {
                        "gaussian" => ClusterDistribution::Gaussian,
                        "uniform" => ClusterDistribution::Uniform,
                        "laplace" => ClusterDistribution::Laplace,
                        other => {
                            return Err(bad(
                                n,
                                format!(
                                    "unknown distribution {other:?} (gaussian|uniform|laplace)"
                                ),
                            ))
                        }
                    };
                    seen.push("distribution");
                }
                "size-law" => {
                    spec.size_law = match args.first() {
                        Some(&"exp-floor") if args.len() == 1 => SizeLaw::ExpFloor,
                        Some(&"even") if args.len() == 1 => SizeLaw::Even,
                        Some(&"zipf") if args.len() == 2 => SizeLaw::Zipf {
                            exponent: f64_arg(args[1])?,
                        },
                        _ => {
                            return Err(bad(
                                n,
                                "size-law wants `exp-floor`, `zipf <exponent>`, or `even`".into(),
                            ))
                        }
                    };
                    seen.push("size-law");
                }
                "rotate" => {
                    one(args)?;
                    spec.rotate = match args[0] {
                        "on" => true,
                        "off" => false,
                        other => return Err(bad(n, format!("rotate wants on|off, got {other:?}"))),
                    };
                    seen.push("rotate");
                }
                "column" => {
                    if args.len() != 2 {
                        return Err(bad(n, "column wants `categorical|ordinal <levels>`".into()));
                    }
                    let levels = usize_arg(args[1])?;
                    spec.columns.push(match args[0] {
                        "categorical" => ExtraColumn::Categorical { levels },
                        "ordinal" => ExtraColumn::Ordinal { levels },
                        other => {
                            return Err(bad(
                                n,
                                format!("unknown column type {other:?} (categorical|ordinal)"),
                            ))
                        }
                    });
                }
                "epoch" => {
                    spec.drift.push(match args.first() {
                        Some(&"mean-shift") if args.len() == 2 => DriftKind::MeanShift {
                            magnitude: f64_arg(args[1])?,
                        },
                        Some(&"dim-swap") if args.len() == 1 => DriftKind::DimSwap,
                        Some(&"birth-death") if args.len() == 1 => DriftKind::BirthDeath,
                        _ => return Err(bad(
                            n,
                            "epoch wants `mean-shift <magnitude>`, `dim-swap`, or `birth-death`"
                                .into(),
                        )),
                    });
                }
                other => return Err(bad(n, format!("unknown key {other:?}"))),
            }
        }
        if !seen.contains(&"scenario") {
            return Err(DataError::InvalidSpec(
                "missing required `scenario <name>` line".into(),
            ));
        }
        spec.validate().map_err(DataError::InvalidSpec)?;
        Ok(spec)
    }

    /// Render the canonical text form: every key in fixed order, one
    /// per line, such that `parse(to_canonical(s)) == s` exactly
    /// (Rust's `f64` display is shortest-round-trip).
    #[must_use]
    pub fn to_canonical(&self) -> String {
        let mut out = String::new();
        let p = |out: &mut String, line: String| {
            out.push_str(&line);
            out.push('\n');
        };
        p(&mut out, format!("scenario {}", self.name));
        p(&mut out, format!("rows {}", self.base.n));
        p(&mut out, format!("dims {}", self.base.d));
        p(&mut out, format!("clusters {}", self.base.k));
        match &self.base.dims {
            DimensionSpec::Poisson { mean } => {
                p(&mut out, format!("cluster-dims poisson {mean}"));
            }
            DimensionSpec::Fixed(v) => {
                let toks: Vec<String> = v.iter().map(|m| m.to_string()).collect();
                p(&mut out, format!("cluster-dims fixed {}", toks.join(" ")));
            }
        }
        p(&mut out, format!("outliers {}", self.base.outlier_fraction));
        p(
            &mut out,
            format!("domain {} {}", self.base.domain.0, self.base.domain.1),
        );
        p(&mut out, format!("spread {}", self.base.spread));
        p(&mut out, format!("scale-max {}", self.base.scale_max));
        p(
            &mut out,
            format!("min-size-ratio {}", self.base.min_size_ratio),
        );
        p(&mut out, format!("seed {}", self.base.seed));
        let dist = match self.distribution {
            ClusterDistribution::Gaussian => "gaussian",
            ClusterDistribution::Uniform => "uniform",
            ClusterDistribution::Laplace => "laplace",
        };
        p(&mut out, format!("distribution {dist}"));
        match self.size_law {
            SizeLaw::ExpFloor => p(&mut out, "size-law exp-floor".to_string()),
            SizeLaw::Zipf { exponent } => p(&mut out, format!("size-law zipf {exponent}")),
            SizeLaw::Even => p(&mut out, "size-law even".to_string()),
        }
        p(
            &mut out,
            format!("rotate {}", if self.rotate { "on" } else { "off" }),
        );
        for col in &self.columns {
            match col {
                ExtraColumn::Categorical { levels } => {
                    p(&mut out, format!("column categorical {levels}"));
                }
                ExtraColumn::Ordinal { levels } => {
                    p(&mut out, format!("column ordinal {levels}"));
                }
            }
        }
        for kind in &self.drift {
            match kind {
                DriftKind::MeanShift { magnitude } => {
                    p(&mut out, format!("epoch mean-shift {magnitude}"));
                }
                DriftKind::DimSwap => p(&mut out, "epoch dim-swap".to_string()),
                DriftKind::BirthDeath => p(&mut out, "epoch birth-death".to_string()),
            }
        }
        out
    }
}

/// Frame the buffered rows as one `PRCK` chunk, write it and empty the
/// buffer (a no-op on an empty buffer).
fn write_chunk(w: &mut StagedFile, batch: &mut Vec<f64>, cols: usize) -> Result<(), DataError> {
    if batch.is_empty() {
        return Ok(());
    }
    let rows = batch.len() / cols;
    w.write_all(&encode_chunk(&Matrix::from_vec(
        std::mem::take(batch),
        rows,
        cols,
    ))?)
}

/// Mix the spec seed with the epoch index (splitmix-style odd
/// constant) so epochs draw from independent deterministic streams.
fn epoch_seed(seed: u64, epoch: usize) -> u64 {
    seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(epoch as u64 + 1)
}

/// A seeded `m×m` orthogonal matrix (row-major): Gram–Schmidt over
/// rows of standard normals, with an identity-row fallback for the
/// measure-zero degenerate draws (keeps the function total without
/// panicking).
fn random_rotation(m: usize, rng: &mut StdRng) -> Vec<f64> {
    let mut rot = vec![0.0f64; m * m];
    for t in 0..m {
        // Draw a raw row even if we later fall back, so the RNG
        // consumption per rotation is fixed.
        let mut v: Vec<f64> = (0..m).map(|_| normal(rng, 0.0, 1.0)).collect();
        for prev in 0..t {
            let dot: f64 = (0..m).map(|u| v[u] * rot[prev * m + u]).sum();
            for u in 0..m {
                v[u] -= dot * rot[prev * m + u];
            }
        }
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > 1e-9 {
            for (u, x) in v.into_iter().enumerate() {
                rot[t * m + u] = x / norm;
            }
        } else {
            rot[t * m + t] = 1.0;
        }
    }
    rot
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::tmp_path;

    fn small(name: &str) -> ScenarioSpec {
        let mut s = ScenarioSpec::new(name, 400, 8, 3, 3.0);
        s.base.seed = 7;
        s
    }

    #[test]
    fn generate_is_deterministic_and_counts_add_up() {
        let spec = small("det");
        let a = spec.generate().unwrap();
        let b = spec.generate().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.points.rows(), 400);
        assert_eq!(a.points.cols(), 8);
        assert_eq!(a.labels.len(), 400);
        let truth = &a.truth.epochs[0];
        let sized: usize = truth.clusters.iter().map(|c| c.size).sum();
        assert_eq!(sized + truth.outliers, 400);
        assert_eq!(spec.digest().unwrap(), spec.digest().unwrap());
    }

    #[test]
    fn different_seeds_differ() {
        let a = small("seeds").digest().unwrap();
        let mut spec = small("seeds");
        spec.base.seed = 8;
        assert_ne!(a, spec.digest().unwrap());
    }

    #[test]
    fn zipf_sizes_are_heavy_tailed_and_sorted() {
        let mut spec = small("zipf");
        spec.size_law = SizeLaw::Zipf { exponent: 1.6 };
        let g = spec.generate().unwrap();
        let sizes: Vec<usize> = g.truth.epochs[0].clusters.iter().map(|c| c.size).collect();
        assert!(sizes.windows(2).all(|w| w[0] >= w[1]), "{sizes:?}");
        assert!(sizes[0] > 2 * sizes[2], "{sizes:?}");
    }

    #[test]
    fn even_sizes_are_even() {
        let mut spec = small("even");
        spec.size_law = SizeLaw::Even;
        let g = spec.generate().unwrap();
        let sizes: Vec<usize> = g.truth.epochs[0].clusters.iter().map(|c| c.size).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn laplace_clusters_concentrate_on_their_dims() {
        let mut spec = small("laplace");
        spec.distribution = ClusterDistribution::Laplace;
        spec.base.n = 2000;
        let g = spec.generate().unwrap();
        let truth = &g.truth.epochs[0];
        for (ci, c) in truth.clusters.iter().enumerate() {
            let members: Vec<usize> = (0..g.points.rows())
                .filter(|&p| g.labels[p].cluster() == Some(ci))
                .collect();
            for &j in &c.dims {
                let mad: f64 = members
                    .iter()
                    .map(|&p| (g.points.get(p, j) - c.anchor[j]).abs())
                    .sum::<f64>()
                    / members.len() as f64;
                assert!(mad < 6.0, "cluster {ci} dim {j} mad {mad}");
            }
        }
    }

    #[test]
    fn rotation_is_orthogonal() {
        let mut rng = StdRng::seed_from_u64(5);
        for m in [2usize, 3, 5] {
            let r = random_rotation(m, &mut rng);
            for a in 0..m {
                for b in 0..m {
                    let dot: f64 = (0..m).map(|u| r[a * m + u] * r[b * m + u]).sum();
                    let want = if a == b { 1.0 } else { 0.0 };
                    assert!((dot - want).abs() < 1e-9, "m={m} ({a},{b}) dot {dot}");
                }
            }
        }
    }

    #[test]
    fn rotated_clusters_still_concentrate_in_their_subspace() {
        let mut spec = small("rot");
        spec.rotate = true;
        spec.base.n = 2000;
        let g = spec.generate().unwrap();
        let truth = &g.truth.epochs[0];
        for (ci, c) in truth.clusters.iter().enumerate() {
            let members: Vec<usize> = (0..g.points.rows())
                .filter(|&p| g.labels[p].cluster() == Some(ci))
                .collect();
            // Total squared deviation over the subspace stays bounded
            // by the sum of variances (rotation preserves it).
            let var_bound: f64 =
                c.dims.len() as f64 * (spec.base.scale_max * spec.base.spread).powi(2);
            let mean_sq: f64 = members
                .iter()
                .map(|&p| {
                    c.dims
                        .iter()
                        .map(|&j| (g.points.get(p, j) - c.anchor[j]).powi(2))
                        .sum::<f64>()
                })
                .sum::<f64>()
                / members.len() as f64;
            assert!(
                mean_sq < 2.0 * var_bound,
                "cluster {ci}: {mean_sq} vs {var_bound}"
            );
        }
    }

    #[test]
    fn extra_columns_take_level_codes_only() {
        let mut spec = small("cols");
        spec.columns = vec![
            ExtraColumn::Categorical { levels: 3 },
            ExtraColumn::Ordinal { levels: 5 },
        ];
        let g = spec.generate().unwrap();
        assert_eq!(g.points.cols(), 10);
        let (lo, hi) = spec.base.domain;
        let cat_codes: Vec<f64> = (0..3)
            .map(|l| ExtraColumn::Categorical { levels: 3 }.encode(l, lo, hi))
            .collect();
        let ord_codes: Vec<f64> = (0..5)
            .map(|l| ExtraColumn::Ordinal { levels: 5 }.encode(l, lo, hi))
            .collect();
        for p in 0..g.points.rows() {
            assert!(cat_codes.contains(&g.points.get(p, 8)));
            assert!(ord_codes.contains(&g.points.get(p, 9)));
        }
        // Ordinal grid touches the domain endpoints; categorical bins
        // never do (typed encodings differ).
        assert_eq!(ord_codes[0], lo);
        assert_eq!(ord_codes[4], hi);
        assert!(cat_codes[0] > lo && cat_codes[2] < hi);
    }

    #[test]
    fn drift_schedule_produces_distinct_epochs() {
        let mut spec = small("drift");
        spec.drift = vec![
            DriftKind::MeanShift { magnitude: 30.0 },
            DriftKind::DimSwap,
            DriftKind::BirthDeath,
        ];
        let g = spec.generate().unwrap();
        assert_eq!(spec.epochs(), 4);
        assert_eq!(g.points.rows(), 1600);
        assert_eq!(g.truth.epochs.len(), 4);
        let anchors = |e: usize| -> Vec<Vec<f64>> {
            g.truth.epochs[e]
                .clusters
                .iter()
                .map(|c| c.anchor.clone())
                .collect()
        };
        let dims = |e: usize| -> Vec<Vec<usize>> {
            g.truth.epochs[e]
                .clusters
                .iter()
                .map(|c| c.dims.clone())
                .collect()
        };
        assert_ne!(anchors(0), anchors(1), "mean shift must move anchors");
        assert_eq!(dims(0), dims(1), "mean shift must not touch dims");
        assert_ne!(dims(1), dims(2), "dim swap must change dims");
        assert_ne!(
            anchors(2)[2],
            anchors(3)[2],
            "birth/death replaces the last slot"
        );
        for e in &g.truth.epochs {
            for c in &e.clusters {
                assert!(c.dims.windows(2).all(|w| w[0] < w[1]), "dims sorted");
                assert!(c.dims.iter().all(|&j| j < 8));
            }
        }
    }

    #[test]
    fn prcl_writer_matches_materialized_encoding() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("proclus-scn-prcl-{}.prcl", std::process::id()));
        let spec = small("prcl");
        spec.write_prcl(&path).unwrap();
        assert!(!tmp_path(&path).exists());
        let (m, labels) = crate::binio::read_binary(&path).unwrap();
        let g = spec.generate().unwrap();
        assert_eq!(m, g.points);
        assert_eq!(labels, Some(g.labels));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chunk_writer_round_trips_through_chunk_reader() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("proclus-scn-chunks-{}.chunks", std::process::id()));
        let spec = small("chunks");
        spec.write_chunks(&path, 64).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let reader = crate::chunks::ChunkReader::new(&bytes);
        let mut rows = 0usize;
        let mut data: Vec<f64> = Vec::new();
        for next in reader {
            let batch = next.unwrap();
            assert!(batch.rows() <= 64);
            rows += batch.rows();
            data.extend_from_slice(batch.as_slice());
        }
        let g = spec.generate().unwrap();
        assert_eq!(rows, 400);
        assert_eq!(data, g.points.as_slice());
        std::fs::remove_file(&path).ok();
    }

    fn dir_target(ext: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("proclus-scn-dir-{}.{ext}", std::process::id()))
    }

    #[test]
    fn failed_write_csv_leaves_no_tmp() {
        let spec = small("dir-csv");
        crate::atomic::assert_failed_write_leaves_nothing(&dir_target("csv"), |p| {
            spec.write_csv(p)
        });
    }

    #[test]
    fn failed_write_prcl_leaves_no_tmp() {
        let spec = small("dir-prcl");
        crate::atomic::assert_failed_write_leaves_nothing(&dir_target("prcl"), |p| {
            spec.write_prcl(p)
        });
    }

    #[test]
    fn failed_write_chunks_leaves_no_tmp() {
        let spec = small("dir-chunks");
        crate::atomic::assert_failed_write_leaves_nothing(&dir_target("chunks"), |p| {
            spec.write_chunks(p, 64)
        });
    }

    #[test]
    fn csv_writer_round_trips_through_read_csv() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("proclus-scn-csv-{}.csv", std::process::id()));
        let spec = small("csv");
        spec.write_csv(&path).unwrap();
        let (m, labels) = crate::io::read_csv(&path).unwrap();
        let g = spec.generate().unwrap();
        assert_eq!(m, g.points);
        assert_eq!(labels, Some(g.labels));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn invalid_scenarios_are_typed_errors() {
        let mut bad = small("UPPER");
        bad.name = "Not-Valid".into();
        assert!(matches!(
            bad.generate().unwrap_err(),
            DataError::InvalidSpec(_)
        ));
        let mut bad = small("zipf-bad");
        bad.size_law = SizeLaw::Zipf { exponent: 0.0 };
        assert!(bad.validate().is_err());
        let mut bad = small("col-bad");
        bad.columns = vec![ExtraColumn::Categorical { levels: 1 }];
        assert!(bad.validate().is_err());
        let mut bad = small("shift-bad");
        bad.drift = vec![DriftKind::MeanShift {
            magnitude: f64::NAN,
        }];
        assert!(bad.validate().is_err());
        let mut bad = small("base-bad");
        bad.base.n = 0;
        assert!(bad.generate().is_err());
    }

    /// Specs whose fields each pass but whose std or shape overflows are
    /// typed errors: once a sampler panic on an infinite std and a
    /// wrapped allocation size.
    #[test]
    fn overflowing_spread_and_shape_fail_validation() {
        let err = |text: &str| match ScenarioSpec::parse(text) {
            Err(DataError::InvalidSpec(msg)) => msg,
            other => panic!("{text:?}: {other:?}"),
        };
        let base = "scenario s\nrows 100\ndims 5\nclusters 2\n";
        for extra in [
            "scale-max 1e308\n",
            "scale-max 1e308\ndistribution laplace\n",
            "spread 1e300\nscale-max 1e10\n",
        ] {
            let msg = err(&format!("{base}{extra}"));
            assert!(msg.contains("spread * scale_max"), "{extra:?}: {msg}");
        }
        let msg = err("scenario s\nrows 100\ndims 18446744073709551615\n");
        assert!(msg.contains("overflow"), "{msg}");

        let mut wide = small("wide");
        wide.base.d = usize::MAX;
        assert!(matches!(wide.generate(), Err(DataError::InvalidSpec(_))));
        let p = Path::new("/tmp/never-written-wide.chunks");
        assert!(matches!(
            wide.write_chunks(p, 1),
            Err(DataError::InvalidSpec(_))
        ));
        // `d` fits, `d + columns` does not.
        let mut cols = small("cols");
        cols.base.d = usize::MAX - 1;
        cols.columns = vec![ExtraColumn::Categorical { levels: 2 }; 2];
        assert_eq!(cols.cols(), usize::MAX);
        assert!(cols.validate().unwrap_err().contains("overflow"));
    }

    /// Two finite domain bounds whose width overflows `f64` would make
    /// every uniform coordinate the same value, so the spec fails
    /// validation and nothing is generated.
    #[test]
    fn a_domain_of_infinite_width_fails_validation() {
        let text = "scenario wide\nrows 400\ndims 8\nclusters 2\ndomain -1e308 1e308\nseed 1\n";
        match ScenarioSpec::parse(text) {
            Err(DataError::InvalidSpec(msg)) => assert!(msg.contains("domain width"), "{msg}"),
            other => panic!("{other:?}"),
        }
        let mut wide = small("wide");
        wide.base.domain = (-1e308, 1e308);
        assert!(matches!(wide.generate(), Err(DataError::InvalidSpec(_))));
    }

    /// A spec can validate and still sample outside `f64`: a finite
    /// std near `f64::MAX` meets the sampler's tail. Generation stops
    /// at the first such row with a typed error (once `-inf` cells in
    /// the output), and a writer leaves no file.
    #[test]
    fn a_non_finite_coordinate_fails_generation() {
        let gaussian = ScenarioSpec::parse(
            "scenario wide-spread\nrows 100\ndims 5\nclusters 2\nspread 1e307\nscale-max 10\n",
        )
        .unwrap();
        let mut laplace = gaussian.clone();
        laplace.name = "wide-laplace".into();
        laplace.distribution = ClusterDistribution::Laplace;
        for spec in [gaussian, laplace] {
            assert!(spec.validate().is_ok(), "{}", spec.name);
            let msg = match spec.generate() {
                Err(DataError::InvalidSpec(msg)) => msg,
                other => panic!("{}: {other:?}", spec.name),
            };
            assert!(msg.contains("non-finite"), "{}: {msg}", spec.name);
            assert!(spec.digest().is_err());
            let path = std::env::temp_dir().join(format!(
                "proclus-scn-{}-{}.csv",
                spec.name,
                std::process::id()
            ));
            assert!(spec.write_csv(&path).is_err());
            assert!(!path.exists() && !tmp_path(&path).exists(), "{}", spec.name);
        }
    }

    #[test]
    fn canonical_text_round_trips_exactly() {
        let mut spec = small("round-trip");
        spec.base.dims = DimensionSpec::Fixed(vec![4, 3, 2]);
        spec.base.outlier_fraction = 0.125;
        spec.base.domain = (-12.5, 37.25);
        spec.base.seed = 99;
        spec.distribution = ClusterDistribution::Laplace;
        spec.size_law = SizeLaw::Zipf { exponent: 1.3 };
        spec.rotate = true;
        spec.columns = vec![
            ExtraColumn::Categorical { levels: 4 },
            ExtraColumn::Ordinal { levels: 7 },
        ];
        spec.drift = vec![
            DriftKind::MeanShift { magnitude: 25.0 },
            DriftKind::DimSwap,
            DriftKind::BirthDeath,
        ];
        let text = spec.to_canonical();
        let parsed = ScenarioSpec::parse(&text).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(parsed.to_canonical(), text);
    }

    #[test]
    fn parse_applies_defaults_and_ignores_comments() {
        let spec =
            ScenarioSpec::parse("# a comment\n\nscenario defaults-only # trailing comment\n")
                .unwrap();
        assert_eq!(spec.name, "defaults-only");
        assert_eq!(spec.base.n, 1000);
        assert_eq!(spec.base.d, 10);
        assert_eq!(spec.base.k, 4);
        assert_eq!(spec.base.dims, DimensionSpec::Poisson { mean: 3.0 });
        assert_eq!(spec.base.outlier_fraction, 0.05);
        assert_eq!(spec.base.domain, (0.0, 100.0));
        assert_eq!(spec.distribution, ClusterDistribution::Gaussian);
        assert_eq!(spec.size_law, SizeLaw::ExpFloor);
        assert!(!spec.rotate);
        assert!(spec.columns.is_empty() && spec.drift.is_empty());
    }

    #[test]
    fn parse_errors_name_the_line() {
        let err = |text: &str| match ScenarioSpec::parse(text).unwrap_err() {
            DataError::InvalidSpec(msg) => msg,
            other => panic!("wrong error: {other:?}"),
        };
        assert!(
            err("scenario x\nbogus 3\n").starts_with("line 2:"),
            "unknown key"
        );
        assert!(err("scenario x\nrows 10\nrows 20\n").contains("duplicate"));
        assert!(err("scenario x\nrows ten\n").contains("integer"));
        assert!(err("scenario x\ndomain 0\n").contains("lo"));
        assert!(err("scenario x\nsize-law zipf\n").contains("size-law"));
        assert!(err("scenario x\nepoch warp 3\n").contains("epoch"));
        assert!(err("rows 10\n").contains("scenario"));
        // Parsed but semantically invalid specs fail validate too.
        assert!(err("scenario x\nclusters 0\n").contains("k"));
    }

    #[test]
    fn chunk_batch_bounds_are_validated() {
        let spec = small("cb");
        let p = Path::new("/tmp/never-written.chunks");
        assert!(matches!(
            spec.write_chunks(p, 0).unwrap_err(),
            DataError::InvalidSpec(_)
        ));
        assert!(spec
            .write_chunks(p, crate::chunks::MAX_CHUNK_CELLS)
            .is_err());
    }
}
