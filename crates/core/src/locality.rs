//! Locality analysis (paper §2.2, "Finding Dimensions" preamble).
//!
//! For each medoid `mᵢ`, `δᵢ` is the distance to the nearest other
//! medoid and the locality `Lᵢ` is the set of points within `δᵢ` of
//! `mᵢ`. Localities may overlap and need not cover the dataset; Theorem
//! 3.1 argues each contains ≈ `N/k` points in expectation, enough to
//! estimate per-dimension spread robustly.
//!
//! Distances here are full-dimensional. We use the *segmental* form over
//! all `d` dimensions (i.e. the metric divided by `d`): since both `δᵢ`
//! and the point distances scale by the same constant, the resulting
//! localities are identical to the unnormalized convention, and the
//! values are directly comparable to segmental distances elsewhere.
//!
//! # Degenerate medoids
//!
//! Coincident medoids are *not* a problem: `δᵢ = 0` keeps the locality
//! non-empty because membership is tested with `≤` and the medoid (and
//! every coordinate-identical point) sits at distance exactly zero. The
//! only way a locality can come out empty is a medoid with non-finite
//! coordinates (reachable through
//! [`crate::params::Proclus::fit_with_initial_medoids`], which does not
//! require finite rows): its distance to every point — itself included —
//! is NaN, which fails the `≤ δᵢ` test. An empty `Lᵢ` would make
//! FindDimensions degenerate (no reference set at all), so both this
//! module and the fused kernel path ([`crate::kernel::merge_fused`])
//! fall back to the singleton `Lᵢ = {mᵢ}` with a zero `X` row — the
//! values a finite medoid would contribute, since `|m_j − m_j| = 0`.

use proclus_math::{DistanceKind, Matrix};

/// `δᵢ` for each medoid: distance to the nearest *other* medoid.
///
/// With a single medoid there is no other medoid; δ is infinite and the
/// locality becomes the whole dataset (a sensible k = 1 degeneration).
pub fn medoid_deltas(points: &Matrix, medoids: &[usize], metric: DistanceKind) -> Vec<f64> {
    let d = points.cols();
    let all_dims: Vec<usize> = (0..d).collect();
    let k = medoids.len();
    let mut deltas = vec![f64::INFINITY; k];
    for i in 0..k {
        for j in (i + 1)..k {
            let dist =
                metric.eval_segmental(points.row(medoids[i]), points.row(medoids[j]), &all_dims);
            if dist < deltas[i] {
                deltas[i] = dist;
            }
            if dist < deltas[j] {
                deltas[j] = dist;
            }
        }
    }
    deltas
}

/// The localities `L₁ … L_k`: for each medoid, the indices of all points
/// whose full-space distance to it is at most `δᵢ`.
///
/// Each locality always contains at least the medoid itself: a finite
/// medoid is at distance zero from itself, and a non-finite medoid
/// (whose NaN distances would otherwise empty the locality) falls back
/// to the singleton `{mᵢ}` — see the module docs.
pub fn localities(
    points: &Matrix,
    medoids: &[usize],
    deltas: &[f64],
    metric: DistanceKind,
) -> Vec<Vec<usize>> {
    let d = points.cols();
    let all_dims: Vec<usize> = (0..d).collect();
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); medoids.len()];
    for p in 0..points.rows() {
        let row = points.row(p);
        for (i, &m) in medoids.iter().enumerate() {
            let dist = metric.eval_segmental(row, points.row(m), &all_dims);
            if dist <= deltas[i] {
                out[i].push(p);
            }
        }
    }
    for (li, &m) in out.iter_mut().zip(medoids) {
        if li.is_empty() {
            li.push(m);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_points() -> Matrix {
        // Points at x = 0..=10.
        let rows: Vec<[f64; 1]> = (0..=10).map(|i| [i as f64]).collect();
        Matrix::from_rows(&rows, 1)
    }

    #[test]
    fn deltas_are_nearest_other_medoid() {
        let m = line_points();
        // Medoids at 0, 4, 10 -> deltas 4, 4, 6.
        let deltas = medoid_deltas(&m, &[0, 4, 10], DistanceKind::Manhattan);
        assert_eq!(deltas, vec![4.0, 4.0, 6.0]);
    }

    #[test]
    fn single_medoid_delta_is_infinite() {
        let m = line_points();
        let deltas = medoid_deltas(&m, &[5], DistanceKind::Manhattan);
        assert_eq!(deltas, vec![f64::INFINITY]);
        let locs = localities(&m, &[5], &deltas, DistanceKind::Manhattan);
        assert_eq!(locs[0].len(), 11, "locality covers everything");
    }

    #[test]
    fn localities_are_balls_of_radius_delta() {
        let m = line_points();
        let medoids = [0usize, 4, 10];
        let deltas = medoid_deltas(&m, &medoids, DistanceKind::Manhattan);
        let locs = localities(&m, &medoids, &deltas, DistanceKind::Manhattan);
        // L0: |x - 0| <= 4 -> {0..4}
        assert_eq!(locs[0], vec![0, 1, 2, 3, 4]);
        // L1: |x - 4| <= 4 -> {0..8}
        assert_eq!(locs[1], vec![0, 1, 2, 3, 4, 5, 6, 7, 8]);
        // L2: |x - 10| <= 6 -> {4..10}
        assert_eq!(locs[2], vec![4, 5, 6, 7, 8, 9, 10]);
        // Every locality contains its own medoid.
        for (i, &mi) in medoids.iter().enumerate() {
            assert!(locs[i].contains(&mi));
        }
    }

    #[test]
    fn localities_may_overlap_and_not_cover() {
        // Medoids at 0 and 2; point at 10 belongs to neither locality.
        let m = line_points();
        let medoids = [0usize, 2];
        let deltas = medoid_deltas(&m, &medoids, DistanceKind::Manhattan);
        let locs = localities(&m, &medoids, &deltas, DistanceKind::Manhattan);
        let all: Vec<usize> = locs.concat();
        assert!(!all.contains(&10), "far point not in any locality");
        assert!(locs[0].contains(&2) && locs[1].contains(&0), "overlap ok");
    }

    /// The round cache's fused pass, cold and then served from cache;
    /// both answers must agree.
    fn fused_round_twice(
        m: &Matrix,
        medoids: &[usize],
        deltas: &[f64],
    ) -> (Vec<usize>, Vec<Vec<f64>>) {
        crate::pool::with_pool(m, DistanceKind::Manhattan, 1, |pool| {
            let mut cache = crate::cache::RoundCache::new(medoids.len());
            let cold = cache.fused_round(pool, medoids, deltas);
            let hit = cache.fused_round(pool, medoids, deltas);
            assert_eq!(cache.stats().fused_slot_hits, medoids.len() as u64);
            assert_eq!(cold, hit, "cache hit must replay the cold pass");
            cold
        })
    }

    /// Duplicate points chosen as distinct medoids make `δᵢ = 0`: each
    /// locality degenerates to exactly the set of coordinate-identical
    /// points (distance `0 ≤ δᵢ`), never goes empty, and the fused
    /// pooled kernel agrees with the legacy path (its `X` averages are
    /// all-zero, since every contributing difference is zero).
    #[test]
    fn duplicate_medoids_yield_zero_delta_localities() {
        // Rows 0, 1, and 4 are coordinate-identical; 0 and 1 are both
        // medoids.
        let rows: Vec<[f64; 1]> = vec![[5.0], [5.0], [0.0], [10.0], [5.0]];
        let m = Matrix::from_rows(&rows, 1);
        let medoids = [0usize, 1];
        let metric = DistanceKind::Manhattan;

        let deltas = medoid_deltas(&m, &medoids, metric);
        assert_eq!(deltas, vec![0.0, 0.0]);

        let locs = localities(&m, &medoids, &deltas, metric);
        for (i, loc) in locs.iter().enumerate() {
            assert_eq!(*loc, vec![0, 1, 4], "locality {i}");
            assert!(loc.contains(&medoids[i]), "medoid {i} in its locality");
        }

        let (sizes, x) = fused_round_twice(&m, &medoids, &deltas);
        assert_eq!(sizes, locs.iter().map(Vec::len).collect::<Vec<_>>());
        for xi in &x {
            assert!(xi.iter().all(|&v| v == 0.0), "X over duplicates is zero");
        }
    }

    /// Regression (empty-locality fallback): a forced medoid with a NaN
    /// coordinate is at NaN distance from everything including itself,
    /// which used to produce an empty locality. Both the legacy and the
    /// fused/pooled paths must now fall back to `Lᵢ = {mᵢ}` and agree
    /// with each other.
    #[test]
    fn non_finite_medoid_locality_falls_back_to_singleton() {
        let rows: Vec<[f64; 2]> = vec![
            [0.0, 0.0],
            [f64::NAN, 1.0],
            [1.0, 0.5],
            [10.0, 10.0],
            [10.5, 10.2],
        ];
        let m = Matrix::from_rows(&rows, 2);
        let medoids = [1usize, 3];
        let metric = DistanceKind::Manhattan;
        let deltas = medoid_deltas(&m, &medoids, metric);

        let legacy = localities(&m, &medoids, &deltas, metric);
        assert_eq!(legacy[0], vec![1], "NaN medoid degenerates to {{mᵢ}}");
        assert!(legacy[1].contains(&3));

        let (sizes, x) = fused_round_twice(&m, &medoids, &deltas);
        let legacy_sizes: Vec<usize> = legacy.iter().map(Vec::len).collect();
        assert_eq!(sizes, legacy_sizes, "fused path applies the same fallback");
        assert_eq!(x[0], vec![0.0, 0.0], "fallback X row is zero, not NaN");
    }

    /// Regression (empty-locality fallback, end-to-end): a fit forced to
    /// start from a NaN-coordinate medoid completes without panicking
    /// and still reports non-empty localities for every round.
    #[test]
    fn fit_from_non_finite_medoid_survives() {
        use proclus_obs::{Event, RingRecorder};
        let mut rows: Vec<[f64; 2]> = (0..30)
            .map(|i| [(i % 5) as f64, (i / 5) as f64 * 10.0])
            .collect();
        rows[7] = [f64::NAN, 2.0];
        let m = Matrix::from_rows(&rows, 2);
        let rec = RingRecorder::new(4096);
        let model = crate::Proclus::new(2, 2.0)
            .seed(3)
            .restarts(1)
            .fit_with_initial_medoids_traced(&m, &[7, 20], &rec)
            .expect("fallback keeps the fit alive");
        assert_eq!(model.assignment().len(), 30);
        let mut rounds = 0;
        for ev in rec.events() {
            if let Event::Round { locality_sizes, .. } = ev {
                rounds += 1;
                assert!(
                    locality_sizes.iter().all(|&s| s >= 1),
                    "every locality non-empty after the fallback: {locality_sizes:?}"
                );
            }
        }
        assert!(rounds > 0);
    }

    #[test]
    fn segmental_normalization_does_not_change_localities() {
        // 2-d version: distances are divided by d = 2 on both sides of
        // the comparison, so membership is invariant.
        let rows: Vec<[f64; 2]> = (0..=10).map(|i| [i as f64, i as f64]).collect();
        let m = Matrix::from_rows(&rows, 2);
        let medoids = [0usize, 6];
        let deltas = medoid_deltas(&m, &medoids, DistanceKind::Manhattan);
        let locs = localities(&m, &medoids, &deltas, DistanceKind::Manhattan);
        // delta_0 = segmental distance between rows 0 and 6 = (6+6)/2 = 6
        assert_eq!(deltas[0], 6.0);
        // L0: segmental distance (x+x)/2 = x <= 6 -> {0..6}
        assert_eq!(locs[0], vec![0, 1, 2, 3, 4, 5, 6]);
    }
}
