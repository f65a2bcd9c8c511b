//! The fitted model returned by [`Proclus::fit`](crate::Proclus::fit).

use crate::error::ProclusError;
use proclus_math::{DistanceKind, Matrix};
use std::fmt;

/// One projected cluster: a medoid, the dimension set the cluster lives
/// in, and its member points.
#[derive(Clone, Debug, PartialEq)]
pub struct ProjectedCluster {
    /// Index (into the training matrix) of the medoid point.
    pub medoid_index: usize,
    /// The medoid's coordinates (copied, so the model is self-contained).
    pub medoid: Vec<f64>,
    /// The cluster's dimensions `Dᵢ`, sorted ascending, `|Dᵢ| ≥ 2`.
    pub dimensions: Vec<usize>,
    /// Indices of the member points (ascending).
    pub members: Vec<usize>,
    /// Centroid of the member points (zero vector if empty).
    pub centroid: Vec<f64>,
    /// The medoid's *sphere of influence* `Δᵢ`: the smallest segmental
    /// distance (under `Dᵢ`) to another medoid. Points farther than
    /// this from every medoid are outliers.
    pub sphere_of_influence: f64,
}

impl ProjectedCluster {
    /// Number of member points.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` when the cluster captured no points.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// A degradation the pipeline took instead of failing: the fit is
/// still valid, but the search did less than the parameters asked for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Degradation {
    /// Bad-medoid replacement ran out of unused candidates, so the
    /// climb stopped early with the best vertex seen.
    CandidatePoolExhausted {
        /// Round at which the pool ran dry.
        round: usize,
    },
    /// No round ever improved on the initial (infinite) objective —
    /// typically NaN objectives from degenerate coordinates. The climb
    /// stopped and refinement classified what it could.
    ObjectiveNeverImproved,
    /// One restart ended unusable (e.g. total cluster collapse); the
    /// surviving restarts produced the returned model.
    RestartFailed {
        /// Index of the failed restart.
        restart: usize,
        /// The failure, rendered.
        reason: String,
    },
    /// Rows with non-finite coordinates were excluded from medoid
    /// candidacy (they can still be assigned or flagged as outliers).
    NonFiniteRowsExcluded {
        /// How many rows were excluded.
        count: usize,
    },
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Degradation::CandidatePoolExhausted { round } => {
                write!(f, "candidate pool exhausted at round {round}")
            }
            Degradation::ObjectiveNeverImproved => {
                write!(f, "objective never improved (degenerate coordinates)")
            }
            Degradation::RestartFailed { restart, reason } => {
                write!(f, "restart {restart} failed: {reason}")
            }
            Degradation::NonFiniteRowsExcluded { count } => {
                write!(f, "{count} non-finite rows excluded from medoid candidacy")
            }
        }
    }
}

/// What happened during a fit, across every restart: how much work the
/// search did and which degradations (if any) it took to avoid
/// failing. Exposed as [`ProclusModel::diagnostics`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FitDiagnostics {
    /// Hill-climbing rounds executed, summed over all restarts.
    pub total_rounds: usize,
    /// Restarts executed.
    pub restarts: usize,
    /// Restarts that ended unusable (collapse) and were discarded.
    pub failed_restarts: usize,
    /// Medoids swapped out by the bad-medoid rule, summed over all
    /// restarts.
    pub bad_medoid_swaps: usize,
    /// Hill-climbing rounds whose vertex an earlier round of the same
    /// restart had already scored, summed over all restarts. Such a
    /// round replays its first visit's output instead of running its
    /// passes.
    pub revisits: usize,
    /// The degradations taken, in the order they happened.
    pub degradations: Vec<Degradation>,
}

impl FitDiagnostics {
    /// `true` when the fit ran exactly as parameterized.
    pub fn is_clean(&self) -> bool {
        self.degradations.is_empty() && self.failed_restarts == 0
    }
}

impl fmt::Display for FitDiagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} rounds over {} restarts ({} failed), {} bad-medoid swaps",
            self.total_rounds, self.restarts, self.failed_restarts, self.bad_medoid_swaps
        )?;
        for d in &self.degradations {
            write!(f, "\n  degraded: {d}")?;
        }
        Ok(())
    }
}

/// A fitted PROCLUS clustering.
#[derive(Clone, Debug)]
pub struct ProclusModel {
    pub(crate) clusters: Vec<ProjectedCluster>,
    pub(crate) outliers: Vec<usize>,
    pub(crate) assignment: Vec<Option<usize>>,
    pub(crate) objective: f64,
    pub(crate) iterative_objective: f64,
    pub(crate) rounds: usize,
    pub(crate) improvements: usize,
    pub(crate) distance: DistanceKind,
    pub(crate) diagnostics: FitDiagnostics,
}

impl ProclusModel {
    /// The `k` projected clusters.
    pub fn clusters(&self) -> &[ProjectedCluster] {
        &self.clusters
    }

    /// Indices of the points classified as outliers, ascending.
    pub fn outliers(&self) -> &[usize] {
        &self.outliers
    }

    /// Per-point assignment: `Some(cluster index)` or `None` (outlier).
    pub fn assignment(&self) -> &[Option<usize>] {
        &self.assignment
    }

    /// Final value of the paper's objective function (size-weighted
    /// average centroid spread over each cluster's dimensions; lower is
    /// better).
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Best objective reached during the iterative phase, where every
    /// point (including eventual outliers) is assigned to some cluster.
    /// Unlike [`objective`](Self::objective) — which is computed after
    /// outlier removal — this value is comparable across runs and is
    /// what restart selection uses.
    pub fn iterative_objective(&self) -> f64 {
        self.iterative_objective
    }

    /// Number of hill-climbing rounds executed.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Number of rounds that improved the best objective.
    pub fn improvements(&self) -> usize {
        self.improvements
    }

    /// The metric the model was fitted with.
    pub fn distance(&self) -> DistanceKind {
        self.distance
    }

    /// What happened during the fit: work done across restarts and any
    /// graceful degradations taken instead of failing.
    pub fn diagnostics(&self) -> &FitDiagnostics {
        &self.diagnostics
    }

    /// Classify a new point with the fitted clusters: the cluster whose
    /// medoid is segmentally closest, or `None` when the point falls
    /// outside every medoid's sphere of influence (an outlier).
    pub fn classify(&self, point: &[f64]) -> Option<usize> {
        self.scan(std::iter::once(point), |best, inside_any| {
            inside_any.then_some(best)
        })
        .pop()
        .flatten()
    }

    /// The scan behind [`ProclusModel::assign_batch`],
    /// [`ProclusModel::classify`] and [`ProclusModel::classify_batch`]:
    /// for each row, `pick(nearest, inside_any)`, where `nearest` is the
    /// nearest cluster under each cluster's own dimension set (ties to
    /// the lower index; the scan starts from +∞ with a strict `<`, so a
    /// NaN distance never wins — the comparison of
    /// [`crate::assign::assign_points`] and [`crate::refine::reassign`])
    /// and `inside_any` says whether the row lies inside any sphere of
    /// influence.
    fn scan<'a, T>(
        &self,
        rows: impl Iterator<Item = &'a [f64]>,
        pick: impl Fn(usize, bool) -> T,
    ) -> Vec<T> {
        let gathered = Gathered::new(&self.clusters);
        match self.distance {
            DistanceKind::Manhattan => gathered.scan(rows, manhattan_pairs, pick),
            DistanceKind::Euclidean => gathered.scan(rows, euclidean_pairs, pick),
            DistanceKind::Chebyshev => gathered.scan(rows, chebyshev_pairs, pick),
        }
    }

    /// The segmental distance from `point` to the *nearest* medoid,
    /// each medoid evaluated under its own cluster's dimension set —
    /// the per-point serving cost the streaming canary gate compares
    /// between a live model and a candidate. `None` for a model with
    /// no clusters.
    pub fn nearest_cost(&self, point: &[f64]) -> Option<f64> {
        self.clusters
            .iter()
            .map(|c| {
                self.distance
                    .eval_segmental(point, &c.medoid, &c.dimensions)
            })
            .reduce(f64::min)
    }

    /// Dimensionality of the space the model was fitted in (0 for a
    /// model with no clusters).
    pub fn dimensionality(&self) -> usize {
        self.clusters.first().map_or(0, |c| c.medoid.len())
    }

    /// AssignPoints (Figure 5) against the fitted clusters: every row
    /// of `points` is assigned to the cluster whose medoid is closest
    /// under that cluster's own dimension set, ties to the lower
    /// cluster index. This is the serving twin of
    /// [`crate::assign::assign_points`] — the medoid coordinates are
    /// exact copies of the training rows, so assigning the training
    /// matrix through this method is bit-identical to the offline pass.
    ///
    /// The scan gathers each cluster's `(dimension, medoid coordinate)`
    /// pairs once per call and picks the metric once per call, then
    /// walks the rows one at a time. Each distance keeps the operation
    /// order of [`DistanceKind::eval_segmental`] (the same iterator
    /// sum, then the same division or square root; a fold for
    /// Chebyshev), so the labels are bit-for-bit those of the offline
    /// pass.
    ///
    /// The scan stays row-at-a-time on purpose. Routing it through the
    /// fit's columnar kernel (tiles built per request, the columnar
    /// distance loop, then [`crate::kernel::argmin_columns`]) gave
    /// identical labels but was slower at every batch size tried
    /// (20k × 20 data, k = 5, l = 5, Manhattan; three rounds each):
    /// 256 rows took 1.08–1.56×, 4 096 rows 2.2–3.2× and 20 000 rows
    /// 2.4–3.5× the scalar time.
    ///
    /// # Errors
    ///
    /// [`ProclusError::InvalidParameters`] when the model has no
    /// clusters or `points` does not match the model's dimensionality.
    pub fn assign_batch(&self, points: &Matrix) -> Result<Vec<usize>, ProclusError> {
        self.check_batch(points)?;
        Ok(self.scan(points.iter_rows(), |best, _| best))
    }

    /// [`ProclusModel::classify`] over a whole batch: nearest cluster
    /// per row, or `None` for rows outside every medoid's sphere of
    /// influence.
    ///
    /// # Errors
    ///
    /// Same contract as [`ProclusModel::assign_batch`].
    pub fn classify_batch(&self, points: &Matrix) -> Result<Vec<Option<usize>>, ProclusError> {
        self.check_batch(points)?;
        Ok(self.scan(points.iter_rows(), |best, inside_any| {
            inside_any.then_some(best)
        }))
    }

    fn check_batch(&self, points: &Matrix) -> Result<(), ProclusError> {
        if self.clusters.is_empty() {
            return Err(ProclusError::InvalidParameters(
                "model has no clusters to assign against".into(),
            ));
        }
        let d = self.dimensionality();
        if points.cols() != d {
            return Err(ProclusError::InvalidParameters(format!(
                "batch has {} columns but the model was fitted in {d} dimensions",
                points.cols()
            )));
        }
        Ok(())
    }

    /// Convenience: assignment as plain labels where outliers map to
    /// `usize::MAX` (useful for quick comparisons in tests/benches).
    pub fn labels(&self) -> Vec<usize> {
        self.assignment
            .iter()
            .map(|a| a.unwrap_or(usize::MAX))
            .collect()
    }

    /// Construct a model directly from parts — exposed for tests and
    /// for the benchmark harness's ablation variants.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        points: &Matrix,
        medoids: Vec<usize>,
        dimensions: Vec<Vec<usize>>,
        assignment: Vec<Option<usize>>,
        spheres: Vec<f64>,
        objectives: (f64, f64),
        rounds: usize,
        improvements: usize,
        distance: DistanceKind,
    ) -> Self {
        let (objective, iterative_objective) = objectives;
        let k = medoids.len();
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); k];
        let mut outliers = Vec::new();
        for (p, a) in assignment.iter().enumerate() {
            match a {
                Some(i) => members[*i].push(p),
                None => outliers.push(p),
            }
        }
        let clusters = medoids
            .into_iter()
            .zip(dimensions)
            .zip(members)
            .zip(spheres)
            .map(|(((m, dims), mem), sphere)| {
                let centroid = points.centroid_of(&mem);
                ProjectedCluster {
                    medoid_index: m,
                    medoid: points.row(m).to_vec(),
                    dimensions: dims,
                    members: mem,
                    centroid,
                    sphere_of_influence: sphere,
                }
            })
            .collect();
        Self {
            clusters,
            outliers,
            assignment,
            objective,
            iterative_objective,
            rounds,
            improvements,
            distance,
            diagnostics: FitDiagnostics::default(),
        }
    }

    /// Attach fit diagnostics (builder style; used by the driver after
    /// aggregating across restarts).
    #[must_use]
    pub fn with_diagnostics(mut self, diagnostics: FitDiagnostics) -> Self {
        self.diagnostics = diagnostics;
        self
    }
}

/// The fitted clusters laid out for the serving scan: every cluster's
/// `(dimension, medoid coordinate)` pairs back to back, so a distance
/// reads one contiguous slice instead of indexing the medoid through
/// the dimension list.
struct Gathered {
    pairs: Vec<(usize, f64)>,
    /// Per cluster: the end of its pairs in `pairs`, and its sphere of
    /// influence.
    clusters: Vec<(usize, f64)>,
}

impl Gathered {
    fn new(clusters: &[ProjectedCluster]) -> Self {
        let mut pairs = Vec::with_capacity(clusters.iter().map(|c| c.dimensions.len()).sum());
        let clusters = clusters
            .iter()
            .map(|c| {
                pairs.extend(c.dimensions.iter().map(|&j| (j, c.medoid[j])));
                (pairs.len(), c.sphere_of_influence)
            })
            .collect();
        Gathered { pairs, clusters }
    }

    fn scan<'a, T>(
        &self,
        rows: impl Iterator<Item = &'a [f64]>,
        dist: impl Fn(&[f64], &[(usize, f64)]) -> f64,
        pick: impl Fn(usize, bool) -> T,
    ) -> Vec<T> {
        rows.map(|row| {
            let mut best = 0usize;
            let mut best_dist = f64::INFINITY;
            let mut inside_any = false;
            let mut start = 0;
            for (i, &(end, sphere)) in self.clusters.iter().enumerate() {
                let d = dist(row, &self.pairs[start..end]);
                start = end;
                if d <= sphere {
                    inside_any = true;
                }
                if d < best_dist {
                    best_dist = d;
                    best = i;
                }
            }
            pick(best, inside_any)
        })
        .collect()
    }
}

/// [`proclus_math::distance::manhattan_segmental`] over gathered pairs.
#[inline]
fn manhattan_pairs(row: &[f64], pairs: &[(usize, f64)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    let sum: f64 = pairs.iter().map(|&(j, m)| (row[j] - m).abs()).sum();
    sum / pairs.len() as f64
}

/// [`proclus_math::distance::euclidean_segmental`] over gathered pairs.
#[inline]
fn euclidean_pairs(row: &[f64], pairs: &[(usize, f64)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    let sum: f64 = pairs
        .iter()
        .map(|&(j, m)| {
            let d = row[j] - m;
            d * d
        })
        .sum();
    (sum / pairs.len() as f64).sqrt()
}

/// [`proclus_math::distance::chebyshev_segmental`] over gathered pairs.
#[inline]
fn chebyshev_pairs(row: &[f64], pairs: &[(usize, f64)]) -> f64 {
    pairs
        .iter()
        .map(|&(j, m)| (row[j] - m).abs())
        .fold(0.0, f64::max)
}

impl fmt::Display for ProclusModel {
    /// Render a compact per-cluster summary, one line per cluster plus
    /// an outlier line — convenient for examples and debugging.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "PROCLUS model: {} clusters, {} outliers, objective {:.4}",
            self.clusters.len(),
            self.outliers.len(),
            self.objective
        )?;
        for (i, c) in self.clusters.iter().enumerate() {
            writeln!(
                f,
                "  cluster {i}: {:>7} points, dims {:?}",
                c.len(),
                c.dimensions
            )?;
        }
        write!(f, "  outliers: {:>6} points", self.outliers.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_model() -> ProclusModel {
        let m = Matrix::from_rows(
            &[
                [0.0, 0.0],
                [10.0, 10.0],
                [0.5, 0.0],
                [10.0, 9.0],
                [50.0, 50.0],
            ],
            2,
        );
        ProclusModel::from_parts(
            &m,
            vec![0, 1],
            vec![vec![0, 1], vec![0, 1]],
            vec![Some(0), Some(1), Some(0), Some(1), None],
            vec![10.0, 10.0],
            (0.5, 0.6),
            7,
            3,
            DistanceKind::Manhattan,
        )
    }

    #[test]
    fn from_parts_groups_members_and_outliers() {
        let m = toy_model();
        assert_eq!(m.clusters()[0].members, vec![0, 2]);
        assert_eq!(m.clusters()[1].members, vec![1, 3]);
        assert_eq!(m.outliers(), &[4]);
        assert_eq!(m.clusters()[0].medoid, vec![0.0, 0.0]);
        assert_eq!(m.objective(), 0.5);
        assert_eq!(m.rounds(), 7);
        assert_eq!(m.improvements(), 3);
    }

    #[test]
    fn centroid_is_member_mean() {
        let m = toy_model();
        assert_eq!(m.clusters()[0].centroid, vec![0.25, 0.0]);
    }

    #[test]
    fn classify_inside_sphere() {
        let m = toy_model();
        assert_eq!(m.classify(&[1.0, 1.0]), Some(0));
        assert_eq!(m.classify(&[9.0, 9.0]), Some(1));
    }

    #[test]
    fn classify_outside_all_spheres_is_none() {
        let m = toy_model();
        assert_eq!(m.classify(&[500.0, 500.0]), None);
    }

    #[test]
    fn nearest_cost_is_min_over_per_cluster_segmental() {
        let m = toy_model();
        // Cluster 0 medoid (0,0), cluster 1 medoid (10,10), both on
        // dims {0,1}: segmental Manhattan to (1,1) is 1.0 vs 9.0.
        assert_eq!(m.nearest_cost(&[1.0, 1.0]), Some(1.0));
        assert_eq!(m.nearest_cost(&[9.0, 9.0]), Some(1.0));
    }

    #[test]
    fn labels_encode_outliers_as_max() {
        let m = toy_model();
        assert_eq!(m.labels(), vec![0, 1, 0, 1, usize::MAX]);
    }

    #[test]
    fn cluster_len_and_empty() {
        let m = toy_model();
        assert_eq!(m.clusters()[0].len(), 2);
        assert!(!m.clusters()[0].is_empty());
    }

    #[test]
    fn display_summarizes_model() {
        let s = toy_model().to_string();
        assert!(s.contains("2 clusters"));
        assert!(s.contains("1 outliers"));
        assert!(s.contains("cluster 0"));
        assert!(s.contains("objective 0.5"));
    }

    #[test]
    fn iterative_objective_accessor() {
        let m = toy_model();
        assert_eq!(m.objective(), 0.5);
        assert_eq!(m.iterative_objective(), 0.6);
    }

    #[test]
    fn diagnostics_attach_and_render() {
        let diag = FitDiagnostics {
            total_rounds: 40,
            restarts: 5,
            failed_restarts: 1,
            bad_medoid_swaps: 9,
            revisits: 12,
            degradations: vec![
                Degradation::CandidatePoolExhausted { round: 8 },
                Degradation::NonFiniteRowsExcluded { count: 2 },
            ],
        };
        let m = toy_model().with_diagnostics(diag.clone());
        assert_eq!(m.diagnostics(), &diag);
        assert!(!m.diagnostics().is_clean());
        let s = m.diagnostics().to_string();
        assert!(s.contains("40 rounds"), "{s}");
        assert!(s.contains("candidate pool exhausted at round 8"), "{s}");
        assert!(s.contains("2 non-finite rows"), "{s}");
        assert!(FitDiagnostics::default().is_clean());
    }

    /// Regression: `classify` started its scan from cluster 0, so a NaN
    /// distance to cluster 0 (a NaN coordinate in cluster 0's
    /// dimensions) beat every later finite one. All three serving scans
    /// now agree with the refinement's `reassign`: a NaN never wins.
    #[test]
    fn nan_distance_to_cluster_zero_never_wins() {
        // Medoids (0,0) on dims {0} and (10,10) on dims {1}, spheres 10;
        // the probe (NaN, 10) is at NaN from medoid 0 and 0 from medoid 1.
        let probe = [f64::NAN, 10.0];
        let m = Matrix::from_rows(&[[0.0, 0.0], [10.0, 10.0], probe], 2);
        let dims = vec![vec![0], vec![1]];
        let spheres = vec![10.0, 10.0];
        let metric = DistanceKind::Manhattan;
        let model = ProclusModel::from_parts(
            &m,
            vec![0, 1],
            dims.clone(),
            vec![Some(0), Some(1), Some(1)],
            spheres.clone(),
            (0.0, 0.0),
            1,
            1,
            metric,
        );
        let batch = Matrix::from_rows(&[probe], 2);
        assert_eq!(model.classify(&probe), Some(1));
        assert_eq!(model.classify_batch(&batch).unwrap(), vec![Some(1)]);
        assert_eq!(model.assign_batch(&batch).unwrap(), vec![1]);
        let reassigned = crate::refine::reassign(&m, &[0, 1], &dims, &spheres, metric);
        assert_eq!(reassigned[2], Some(1));
    }

    /// Training data for the scan's bit-identity checks: coordinates on
    /// a coarse grid (so many distances tie exactly, between clusters
    /// and against the spheres), optionally with NaN coordinates.
    fn grid_points(n: usize, d: usize, nan_every: Option<usize>) -> Matrix {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let data = (0..n * d)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                match nan_every {
                    Some(every) if i % every == 3 => f64::NAN,
                    _ => (state % 5) as f64 * 0.5 - 1.0,
                }
            })
            .collect();
        Matrix::from_vec(data, n, d)
    }

    /// The gathered scan is bit-identical to the offline passes for
    /// every metric: `assign_batch` of the training matrix is
    /// AssignPoints, and `classify_batch` is the refinement's
    /// `reassign`, outliers, ties and NaN rows included.
    #[test]
    fn gathered_scan_matches_the_offline_passes_for_every_metric() {
        let medoids = vec![0, 7, 7, 19];
        let dims = vec![
            vec![0, 3],
            vec![1, 2, 5],
            vec![0, 1, 2, 3, 4, 5],
            vec![4, 5],
        ];
        let spheres = vec![0.5, 1.0, 0.75, 0.0];
        for nan_every in [None, Some(5), Some(23)] {
            let points = grid_points(400, 6, nan_every);
            for metric in [
                DistanceKind::Manhattan,
                DistanceKind::Euclidean,
                DistanceKind::Chebyshev,
            ] {
                let reassigned =
                    crate::refine::reassign(&points, &medoids, &dims, &spheres, metric);
                let model = ProclusModel::from_parts(
                    &points,
                    medoids.clone(),
                    dims.clone(),
                    reassigned.clone(),
                    spheres.clone(),
                    (0.0, 0.0),
                    1,
                    1,
                    metric,
                );
                let assigned = crate::assign::assign_points(&points, &medoids, &dims, metric);
                let case = format!("{metric:?}, NaN every {nan_every:?}");
                assert_eq!(model.assign_batch(&points).unwrap(), assigned, "{case}");
                assert_eq!(model.classify_batch(&points).unwrap(), reassigned, "{case}");
                for (p, row) in points.iter_rows().enumerate() {
                    assert_eq!(model.classify(row), reassigned[p], "{case}, row {p}");
                }
                if nan_every == Some(5) && metric != DistanceKind::Chebyshev {
                    // Every medoid has a NaN in its own dimensions, so
                    // no distance ever wins: cluster 0, outside all.
                    // (Chebyshev's `f64::max` fold skips NaN terms.)
                    assert!(assigned.iter().all(|&a| a == 0), "{case}");
                    assert!(reassigned.iter().all(Option::is_none), "{case}");
                } else {
                    assert!(reassigned.contains(&None), "{case}: no outliers");
                    assert!(assigned.iter().any(|&a| a > 0), "{case}: all on cluster 0");
                }
            }
        }
    }

    /// Classifying the training points with the fitted model reproduces
    /// the fit's own final assignment, outliers included.
    #[test]
    fn classify_batch_of_training_points_is_the_assignment() {
        let data = proclus_data::SyntheticSpec::new(1_500, 8, 3, 3.0)
            .seed(8)
            .generate();
        for seed in [1, 2] {
            let model = crate::Proclus::new(3, 3.0)
                .seed(seed)
                .fit(&data.points)
                .unwrap();
            assert!(
                !model.outliers().is_empty(),
                "seed {seed}: no outliers to check"
            );
            let classified = model.classify_batch(&data.points).unwrap();
            assert_eq!(classified, model.assignment(), "seed {seed}");
        }
    }
}
