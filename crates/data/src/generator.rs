//! The §4.1 synthetic data generator.

use crate::error::DataError;
use crate::label::Label;
use crate::spec::{DimensionSpec, SyntheticSpec};
use proclus_math::distributions::{exponential, normal, poisson};
use proclus_math::order::total_cmp_nan_first;
use proclus_math::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Ground truth for one generated cluster.
#[derive(Clone, Debug, PartialEq)]
pub struct GeneratedCluster {
    /// The anchor point the cluster was distributed around.
    pub anchor: Vec<f64>,
    /// The cluster's correlated dimensions, sorted ascending.
    pub dims: Vec<usize>,
    /// Number of points generated for this cluster.
    pub size: usize,
}

/// A generated dataset together with its full ground truth.
#[derive(Clone, Debug, PartialEq)]
pub struct GeneratedDataset {
    /// The points, in shuffled order (clusters are interleaved).
    pub points: Matrix,
    /// `labels[i]` is the ground truth of `points.row(i)`.
    pub labels: Vec<Label>,
    /// Per-cluster ground truth, indexed by the cluster id in
    /// [`Label::Cluster`].
    pub clusters: Vec<GeneratedCluster>,
    /// The spec this dataset was generated from.
    pub spec: SyntheticSpec,
}

impl SyntheticSpec {
    /// Generate the dataset described by this spec.
    ///
    /// Deterministic: the same spec (including seed) always produces the
    /// same dataset.
    ///
    /// # Panics
    ///
    /// Panics if the spec does not [`validate`](SyntheticSpec::validate).
    /// Use [`try_generate`](SyntheticSpec::try_generate) when the spec
    /// comes from untrusted input.
    pub fn generate(&self) -> GeneratedDataset {
        GeneratedDataset::from_spec(self)
    }

    /// Fallible variant of [`generate`](SyntheticSpec::generate):
    /// returns [`DataError::InvalidSpec`] instead of panicking on an
    /// invalid spec.
    pub fn try_generate(&self) -> Result<GeneratedDataset, DataError> {
        GeneratedDataset::try_from_spec(self)
    }
}

impl GeneratedDataset {
    /// See [`SyntheticSpec::generate`].
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid; prefer
    /// [`try_from_spec`](GeneratedDataset::try_from_spec) for untrusted
    /// specs.
    // The panicking convenience API is the documented contract for
    // programmatic (trusted) specs; the fallible path is try_from_spec.
    #[allow(clippy::panic)]
    pub fn from_spec(spec: &SyntheticSpec) -> Self {
        match Self::try_from_spec(spec) {
            Ok(ds) => ds,
            Err(e) => panic!("{e}"),
        }
    }

    /// See [`SyntheticSpec::try_generate`].
    ///
    /// # Errors
    ///
    /// [`DataError::InvalidSpec`] when the spec does not
    /// [`validate`](SyntheticSpec::validate), or when a coordinate
    /// leaves `f64`.
    pub fn try_from_spec(spec: &SyntheticSpec) -> Result<Self, DataError> {
        spec.validate().map_err(DataError::InvalidSpec)?;
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let (lo, hi) = spec.domain;
        let d = spec.d;
        let k = spec.k;

        // 1. Anchor points, uniform over the domain.
        let anchors: Vec<Vec<f64>> = (0..k)
            .map(|_| (0..d).map(|_| rng.random_range(lo..hi)).collect())
            .collect();

        // 2. Per-cluster dimension counts, then the dimensions
        //    themselves with the inherited-sharing rule.
        let counts: Vec<usize> = match &spec.dims {
            DimensionSpec::Fixed(v) => v.clone(),
            DimensionSpec::Poisson { mean } => (0..k)
                .map(|_| (poisson(&mut rng, *mean) as usize).clamp(2, d))
                .collect(),
        };
        let dim_sets = choose_dimension_sets(&counts, d, &mut rng);

        // 3. Cluster sizes proportional to Exp(1) realizations.
        let n_outliers = (spec.n as f64 * spec.outlier_fraction).round() as usize;
        let n_cluster_points = spec.n - n_outliers;
        let weights: Vec<f64> = (0..k).map(|_| exponential(&mut rng, 1.0)).collect();
        let min_size =
            ((n_cluster_points as f64 / k as f64) * spec.min_size_ratio).floor() as usize;
        let sizes = apportion_with_floor(n_cluster_points, &weights, min_size);

        // 4. Generate the points.
        let mut data = Vec::with_capacity(spec.n * d);
        let mut labels = Vec::with_capacity(spec.n);
        let mut clusters = Vec::with_capacity(k);
        for (i, ((anchor, dims), &size)) in anchors.iter().zip(&dim_sets).zip(&sizes).enumerate() {
            // A fixed per-(cluster, dimension) std of s_ij * r,
            // s_ij ~ U[1, s].
            let stds: Vec<f64> = dims
                .iter()
                .map(|_| rng.random_range(1.0..=spec.scale_max) * spec.spread)
                .collect();
            let mut is_cluster_dim = vec![false; d];
            let mut std_of = vec![0.0; d];
            for (&j, &s) in dims.iter().zip(&stds) {
                is_cluster_dim[j] = true;
                std_of[j] = s;
            }
            for _ in 0..size {
                for j in 0..d {
                    let v = if is_cluster_dim[j] {
                        normal(&mut rng, anchor[j], std_of[j])
                    } else {
                        rng.random_range(lo..hi)
                    };
                    data.push(v);
                }
                labels.push(Label::Cluster(i));
            }
            clusters.push(GeneratedCluster {
                anchor: anchor.clone(),
                dims: dims.clone(),
                size,
            });
        }

        // 5. Outliers, uniform over the whole space.
        for _ in 0..n_outliers {
            for _ in 0..d {
                data.push(rng.random_range(lo..hi));
            }
            labels.push(Label::Outlier);
        }

        if let Some(at) = first_non_finite(&data) {
            return Err(non_finite_coordinate(at / d, at % d));
        }

        // 6. Shuffle so cluster membership is not encoded in point order.
        let mut order: Vec<usize> = (0..spec.n).collect();
        order.shuffle(&mut rng);
        let mut shuffled = Vec::with_capacity(data.len());
        let mut shuffled_labels = Vec::with_capacity(spec.n);
        for &p in &order {
            shuffled.extend_from_slice(&data[p * d..(p + 1) * d]);
            shuffled_labels.push(labels[p]);
        }

        Ok(GeneratedDataset {
            points: Matrix::from_vec(shuffled, spec.n, d),
            labels: shuffled_labels,
            clusters,
            spec: spec.clone(),
        })
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.rows()
    }

    /// `true` if the dataset is empty (never the case for valid specs).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Number of ground-truth outliers.
    pub fn outlier_count(&self) -> usize {
        self.labels.iter().filter(|l| l.is_outlier()).count()
    }
}

/// The error for a generated coordinate that is not finite. A spec can
/// validate and still sample outside `f64`: a finite std near
/// `f64::MAX` times a sampler's tail overflows. Checking the emitted
/// value is exact, where a bound in `validate` would guess the tail.
pub(crate) fn non_finite_coordinate(row: usize, col: usize) -> DataError {
    DataError::InvalidSpec(format!(
        "row {row}, column {col}: generated a non-finite coordinate \
         (spread * scale_max is too large for f64)"
    ))
}

/// Index of the first non-finite value. The test runs over every value
/// without an early exit, so it vectorizes; the index is searched only
/// when there is one.
pub(crate) fn first_non_finite(values: &[f64]) -> Option<usize> {
    if values.iter().fold(false, |bad, v| bad | !v.is_finite()) {
        values.iter().position(|v| !v.is_finite())
    } else {
        None
    }
}

/// Choose the concrete dimension set of each cluster.
///
/// Cluster 0 draws its dimensions uniformly at random; cluster `i`
/// inherits `min(|D_{i−1}|, |D_i| / 2)` dimensions from cluster `i − 1`
/// and draws the rest from the remaining dimensions — §4.1's model of
/// clusters that "frequently share subsets of correlated dimensions".
pub(crate) fn choose_dimension_sets(
    counts: &[usize],
    d: usize,
    rng: &mut StdRng,
) -> Vec<Vec<usize>> {
    let mut sets: Vec<Vec<usize>> = Vec::with_capacity(counts.len());
    for (i, &c) in counts.iter().enumerate() {
        debug_assert!((2..=d).contains(&c));
        let mut dims: Vec<usize> = Vec::with_capacity(c);
        if i > 0 {
            let prev = &sets[i - 1];
            let n_shared = prev.len().min(c / 2);
            let mut inherited = prev.clone();
            inherited.shuffle(rng);
            dims.extend_from_slice(&inherited[..n_shared]);
        }
        let mut rest: Vec<usize> = (0..d).filter(|j| !dims.contains(j)).collect();
        rest.shuffle(rng);
        dims.extend_from_slice(&rest[..c - dims.len()]);
        dims.sort_unstable();
        sets.push(dims);
    }
    sets
}

/// [`apportion`] plus a per-cluster minimum: points move from the
/// largest clusters to any cluster below `min_size` until the floor
/// holds (no-op when `min_size * k > total`, which a valid spec never
/// produces).
pub(crate) fn apportion_with_floor(total: usize, weights: &[f64], min_size: usize) -> Vec<usize> {
    let k = weights.len();
    let mut out = apportion(total, weights);
    if min_size * k > total {
        return out;
    }
    while let Some(low) = (0..k).find(|&i| out[i] < min_size) {
        let Some(donor) = (0..k).max_by_key(|&i| out[i]) else {
            break;
        };
        out[donor] -= 1;
        out[low] += 1;
    }
    out
}

/// Apportion `total` points among clusters proportionally to `weights`
/// (largest-remainder method), guaranteeing every cluster at least one
/// point when `total >= weights.len()`.
pub(crate) fn apportion(total: usize, weights: &[f64]) -> Vec<usize> {
    let k = weights.len();
    assert!(k > 0);
    let wsum: f64 = weights.iter().sum();
    // Degenerate weights (all zero) fall back to an even split.
    if wsum <= 0.0 {
        let mut out = vec![total / k; k];
        for slot in out.iter_mut().take(total % k) {
            *slot += 1;
        }
        return out;
    }
    let exact: Vec<f64> = weights.iter().map(|w| total as f64 * w / wsum).collect();
    let mut out: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let assigned: usize = out.iter().sum();
    // Distribute the remainder to the largest fractional parts.
    let mut rema: Vec<(usize, f64)> = exact
        .iter()
        .enumerate()
        .map(|(i, e)| (i, e - e.floor()))
        .collect();
    // Descending fractional parts, NaN-safe (NaN sorts last and ties
    // break on the index, keeping the split deterministic).
    rema.sort_by(|a, b| total_cmp_nan_first(b.1, a.1).then(a.0.cmp(&b.0)));
    for (i, _) in rema.iter().take(total - assigned) {
        out[*i] += 1;
    }
    // Guarantee non-empty clusters by stealing from the largest.
    if total >= k {
        while let Some(empty) = out.iter().position(|&s| s == 0) {
            let Some(donor) = (0..k).max_by_key(|&i| out[i]) else {
                break;
            };
            out[donor] -= 1;
            out[empty] += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> SyntheticSpec {
        SyntheticSpec::new(2_000, 12, 4, 4.0).seed(7)
    }

    #[test]
    fn apportion_sums_and_floors() {
        let out = apportion(100, &[1.0, 1.0, 2.0]);
        assert_eq!(out.iter().sum::<usize>(), 100);
        assert_eq!(out, vec![25, 25, 50]);
    }

    #[test]
    fn apportion_handles_zero_weights() {
        let out = apportion(10, &[0.0, 0.0, 0.0]);
        assert_eq!(out.iter().sum::<usize>(), 10);
        assert!(out.iter().all(|&s| s >= 3));
    }

    #[test]
    fn apportion_no_empty_cluster_with_extreme_weights() {
        let out = apportion(10, &[1e-12, 1.0, 1.0]);
        assert_eq!(out.iter().sum::<usize>(), 10);
        assert!(out.iter().all(|&s| s >= 1));
    }

    #[test]
    fn apportion_floor_redistributes_from_largest() {
        let out = apportion_with_floor(100, &[1e-9, 1.0, 1.0], 20);
        assert_eq!(out.iter().sum::<usize>(), 100);
        assert!(out.iter().all(|&s| s >= 20), "{out:?}");
        // The skew above the floor survives.
        assert!(out[1] > 20 && out[2] > 20);
    }

    #[test]
    fn apportion_floor_unsatisfiable_is_noop() {
        let out = apportion_with_floor(10, &[1.0, 1.0, 1.0], 5);
        assert_eq!(out.iter().sum::<usize>(), 10);
    }

    #[test]
    fn generated_clusters_respect_min_size_ratio() {
        // Many seeds: every cluster at least 0.5 * Nc/k points.
        for seed in 0..20 {
            let ds = SyntheticSpec::new(2_000, 10, 5, 3.0).seed(seed).generate();
            let nc = 2_000 - ds.outlier_count();
            let floor = ((nc as f64 / 5.0) * 0.5).floor() as usize;
            for c in &ds.clusters {
                assert!(c.size >= floor, "seed {seed}: cluster size {}", c.size);
            }
        }
    }

    #[test]
    fn dimension_sets_respect_counts_and_sharing() {
        let mut rng = StdRng::seed_from_u64(3);
        let counts = vec![6, 4, 2, 5];
        let sets = choose_dimension_sets(&counts, 15, &mut rng);
        for (set, &c) in sets.iter().zip(&counts) {
            assert_eq!(set.len(), c);
            let mut sorted = set.clone();
            sorted.dedup();
            assert_eq!(sorted.len(), c, "dimensions must be distinct");
            assert!(set.windows(2).all(|w| w[0] < w[1]), "sorted");
            assert!(set.iter().all(|&j| j < 15));
        }
        // Sharing: cluster i shares at least min(|D_{i-1}|, |D_i|/2)
        // dims with cluster i-1.
        for i in 1..sets.len() {
            let shared = sets[i].iter().filter(|j| sets[i - 1].contains(j)).count();
            let expected = sets[i - 1].len().min(counts[i] / 2);
            assert!(
                shared >= expected,
                "cluster {i} shares {shared} < {expected}"
            );
        }
    }

    #[test]
    fn generate_is_deterministic() {
        let a = small_spec().generate();
        let b = small_spec().generate();
        assert_eq!(a.points, b.points);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.clusters, b.clusters);
    }

    #[test]
    fn generate_different_seeds_differ() {
        let a = small_spec().generate();
        let b = small_spec().seed(8).generate();
        assert_ne!(a.points, b.points);
    }

    #[test]
    fn generate_counts_add_up() {
        let ds = small_spec().generate();
        assert_eq!(ds.len(), 2_000);
        assert_eq!(ds.points.cols(), 12);
        assert_eq!(ds.labels.len(), 2_000);
        let outliers = ds.outlier_count();
        assert_eq!(outliers, 100); // 5% of 2000
        let cluster_total: usize = ds.clusters.iter().map(|c| c.size).sum();
        assert_eq!(cluster_total + outliers, 2_000);
        // Label histogram matches the recorded sizes.
        for (i, c) in ds.clusters.iter().enumerate() {
            let count = ds.labels.iter().filter(|l| l.cluster() == Some(i)).count();
            assert_eq!(count, c.size);
        }
    }

    #[test]
    fn cluster_dims_within_bounds() {
        let ds = SyntheticSpec::new(1_000, 9, 6, 3.0).seed(11).generate();
        for c in &ds.clusters {
            assert!(c.dims.len() >= 2, "at least 2 dims");
            assert!(c.dims.len() <= 9, "at most d dims");
        }
    }

    #[test]
    fn fixed_dims_are_honored() {
        let ds = SyntheticSpec::paper_case2(5).generate();
        let sizes: Vec<usize> = ds.clusters.iter().map(|c| c.dims.len()).collect();
        assert_eq!(sizes, vec![7, 3, 2, 6, 2]);
    }

    #[test]
    fn cluster_points_concentrate_on_cluster_dims() {
        let ds = SyntheticSpec::new(5_000, 10, 2, 4.0).seed(13).generate();
        for (ci, c) in ds.clusters.iter().enumerate() {
            let members: Vec<usize> = (0..ds.len())
                .filter(|&p| ds.labels[p].cluster() == Some(ci))
                .collect();
            assert!(!members.is_empty());
            for &j in &c.dims {
                // On a cluster dimension the std is at most s*r = 4, so
                // the mean absolute deviation from the anchor is small.
                let mad: f64 = members
                    .iter()
                    .map(|&p| (ds.points.get(p, j) - c.anchor[j]).abs())
                    .sum::<f64>()
                    / members.len() as f64;
                assert!(mad < 5.0, "cluster {ci} dim {j} mad {mad}");
            }
            // On a non-cluster dimension the spread is uniform over
            // [0, 100]: the mean absolute deviation from any fixed point
            // is at least 25 in expectation (>= 12 with slack).
            let non_dim = (0..10).find(|j| !c.dims.contains(j)).unwrap();
            let mad: f64 = members
                .iter()
                .map(|&p| (ds.points.get(p, non_dim) - c.anchor[non_dim]).abs())
                .sum::<f64>()
                / members.len() as f64;
            assert!(mad > 12.0, "cluster {ci} non-dim mad {mad}");
        }
    }

    #[test]
    fn outliers_are_spread_out() {
        let ds = SyntheticSpec::new(20_000, 5, 3, 3.0).seed(17).generate();
        let outlier_rows: Vec<usize> = (0..ds.len())
            .filter(|&p| ds.labels[p].is_outlier())
            .collect();
        let m = ds.points.select_rows(&outlier_rows);
        let centroid = m.centroid();
        for (j, &c) in centroid.iter().enumerate() {
            assert!((c - 50.0).abs() < 5.0, "outlier mean on dim {j}: {c}");
        }
    }

    #[test]
    fn shuffle_interleaves_labels() {
        let ds = small_spec().generate();
        // The first 100 labels should not all come from cluster 0, which
        // they would if the output were unshuffled.
        let first: Vec<_> = ds.labels.iter().take(100).collect();
        assert!(first.iter().any(|l| l.cluster() != Some(0)));
    }

    #[test]
    #[should_panic(expected = "invalid synthetic spec")]
    fn generate_rejects_invalid_spec() {
        let _ = SyntheticSpec::new(0, 20, 5, 5.0).generate();
    }

    #[test]
    fn try_generate_returns_typed_error() {
        let err = SyntheticSpec::new(0, 20, 5, 5.0)
            .try_generate()
            .unwrap_err();
        assert!(matches!(err, DataError::InvalidSpec(_)));
        let ok = small_spec().try_generate().unwrap();
        assert_eq!(ok.points, small_spec().generate().points);
    }

    #[test]
    fn poisson_dim_spec_clamps() {
        // Tiny mean: clamped up to 2; huge mean: clamped down to d.
        let low = SyntheticSpec::new(500, 8, 5, 0.2).seed(1).generate();
        assert!(low.clusters.iter().all(|c| c.dims.len() >= 2));
        let high = SyntheticSpec::new(500, 8, 5, 100.0).seed(1).generate();
        assert!(high.clusters.iter().all(|c| c.dims.len() <= 8));
    }
}
