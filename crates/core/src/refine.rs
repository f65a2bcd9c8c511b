//! Refinement phase (paper §2.3).
//!
//! With the best medoid set fixed, redo the dimension computation once
//! using the *clusters* produced by the iterative phase (their point
//! distributions are sharper than the localities), reassign all points
//! to the new dimension sets, and finally mark outliers: a point is an
//! outlier iff for **every** medoid `mᵢ` its segmental distance under
//! `Dᵢ` exceeds `Δᵢ`, the medoid's *sphere of influence*
//! (`Δᵢ = min_{j≠i} d_{Dᵢ}(mᵢ, mⱼ)`).

use crate::dims::find_dimensions_from_averages;
use crate::pool::Pool;
use proclus_math::{DistanceKind, Matrix};

/// Output of the refinement pass.
#[derive(Clone, Debug)]
pub struct Refined {
    /// Final dimension sets per medoid.
    pub dims: Vec<Vec<usize>>,
    /// Final assignment; `None` marks an outlier.
    pub assignment: Vec<Option<usize>>,
    /// Sphere of influence `Δᵢ` per medoid.
    pub spheres: Vec<f64>,
}

/// Spheres of influence: `Δᵢ = min_{j ≠ i} d_{Dᵢ}(mᵢ, mⱼ)`, taken over
/// the medoids at *non-zero* projected distance from `mᵢ`.
///
/// Note the asymmetry: `Δᵢ` is measured in medoid `i`'s own subspace.
/// With a single medoid, `Δ` is infinite and no point is an outlier.
///
/// # Zero-distance medoids are excluded
///
/// A medoid `mⱼ` that coincides with `mᵢ` in `mᵢ`'s subspace
/// (duplicate data rows, or distinct rows that project onto the same
/// coordinates) would yield `Δᵢ = 0`, and a zero sphere marks every
/// point of cluster `i` except the medoid itself an outlier — the
/// cluster silently collapses. The paper defines `Δᵢ` as the distance
/// to the nearest *other* cluster's center; a coincident medoid
/// carries no locality information at all, so — consistent with the
/// empty-locality fallback of the iterative phase (`Lᵢ = {mᵢ}` when no
/// point is strictly within `δᵢ`) — such medoids are skipped. When
/// *every* other medoid coincides, `Δᵢ` stays infinite and medoid `i`
/// degenerates to the single-medoid rule (no point is its outlier),
/// rather than every point becoming one.
pub fn spheres_of_influence(
    points: &Matrix,
    medoids: &[usize],
    dims: &[Vec<usize>],
    metric: DistanceKind,
) -> Vec<f64> {
    let k = medoids.len();
    let mut spheres = vec![f64::INFINITY; k];
    for i in 0..k {
        for j in 0..k {
            if i == j {
                continue;
            }
            let d = metric.eval_segmental(points.row(medoids[i]), points.row(medoids[j]), &dims[i]);
            if d > 0.0 && d < spheres[i] {
                spheres[i] = d;
            }
        }
    }
    spheres
}

/// The refinement's reassignment: every point goes to the medoid with
/// the smallest segmental distance under that medoid's dimension set
/// (ties to the lower index; a NaN distance never wins), or `None` —
/// an outlier — when it lies inside no medoid's sphere of influence.
/// The scalar reference of the pool's [`Pool::refine_assign`].
pub fn reassign(
    points: &Matrix,
    medoids: &[usize],
    dims: &[Vec<usize>],
    spheres: &[f64],
    metric: DistanceKind,
) -> Vec<Option<usize>> {
    let mut assignment = Vec::with_capacity(points.rows());
    for p in 0..points.rows() {
        let row = points.row(p);
        let mut best = 0usize;
        let mut best_dist = f64::INFINITY;
        let mut inside_any = false;
        for (i, (&m, di)) in medoids.iter().zip(dims).enumerate() {
            let dist = metric.eval_segmental(row, points.row(m), di);
            if dist <= spheres[i] {
                inside_any = true;
            }
            if dist < best_dist {
                best_dist = dist;
                best = i;
            }
        }
        assignment.push(inside_any.then_some(best));
    }
    assignment
}

/// Run the refinement phase: FindDimensions over the iterative
/// phase's clusters, spheres of influence, then the final reassignment
/// through the per-fit worker pool. This is the path [`crate::iterate`]
/// takes; results are bit-identical for every thread count (see
/// [`crate::kernel`]).
///
/// `cluster_x` holds the per-dimension averages `X` over the iterative
/// phase's best clustering, one row per medoid, as the round cache's
/// assignment pass returns them.
pub fn refine_with_pool(
    pool: &mut Pool<'_>,
    medoids: &[usize],
    cluster_x: &[Vec<f64>],
    total_dims: usize,
    standardize: bool,
) -> Refined {
    let metric = pool.metric();

    // 1. Recompute dimensions from the cluster distributions.
    let dims = find_dimensions_from_averages(cluster_x, total_dims, standardize);

    // 2. Spheres of influence under the new dimension sets (O(k²·l),
    //    stays on the coordinating thread).
    let spheres = spheres_of_influence(pool.points(), medoids, &dims, metric);

    // 3. Reassign points; a point beyond every sphere is an outlier.
    let assignment = pool.refine_assign(medoids, &dims, &spheres);

    Refined {
        dims,
        assignment,
        spheres,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{cluster_x_block, merge_cluster_x};
    use crate::pool::with_pool;

    /// Refine over the clusters `labels` names (`None`: in no cluster),
    /// with their `X` from the row-major oracle
    /// ([`cluster_x_block`] + [`merge_cluster_x`]).
    fn refine_over(
        points: &Matrix,
        medoids: &[usize],
        labels: &[Option<usize>],
        total_dims: usize,
        metric: DistanceKind,
    ) -> Refined {
        let mut counts = vec![0; medoids.len()];
        for &i in labels.iter().flatten() {
            counts[i] += 1;
        }
        let partial = cluster_x_block(points, medoids, labels, 0, labels.len());
        let x = merge_cluster_x(vec![partial], &counts, points.cols());
        with_pool(points, metric, 1, |pool| {
            refine_with_pool(pool, medoids, &x, total_dims, true)
        })
    }

    /// Two obvious projected clusters and one far-away point, which
    /// the clusters leave out.
    fn toy() -> (Matrix, Vec<usize>, Vec<Option<usize>>) {
        let rows: Vec<[f64; 3]> = vec![
            // Cluster around (0, 0, *) on dims {0, 1}.
            [0.0, 0.0, 10.0],
            [0.5, 0.2, 80.0],
            [0.1, 0.4, 40.0],
            // Cluster around (*, 50, 50) on dims {1, 2}.
            [90.0, 50.0, 50.0],
            [10.0, 50.4, 50.2],
            [55.0, 49.8, 49.9],
            // Outlier far from everything in every subspace.
            [500.0, 500.0, 500.0],
        ];
        let m = Matrix::from_rows(&rows, 3);
        let medoids = vec![0usize, 3];
        let labels = vec![Some(0), Some(0), Some(0), Some(1), Some(1), Some(1), None];
        (m, medoids, labels)
    }

    #[test]
    fn spheres_use_own_dimension_sets() {
        let m = Matrix::from_rows(&[[0.0, 0.0], [10.0, 2.0]], 2);
        let spheres =
            spheres_of_influence(&m, &[0, 1], &[vec![0], vec![1]], DistanceKind::Manhattan);
        assert_eq!(spheres, vec![10.0, 2.0]);
    }

    #[test]
    fn single_medoid_sphere_is_infinite() {
        let m = Matrix::from_rows(&[[0.0]], 1);
        let spheres = spheres_of_influence(&m, &[0], &[vec![0]], DistanceKind::Manhattan);
        assert_eq!(spheres, vec![f64::INFINITY]);
    }

    #[test]
    fn refine_recovers_dimensions_and_outlier() {
        let (m, medoids, labels) = toy();
        let refined = refine_over(&m, &medoids, &labels, 4, DistanceKind::Manhattan);
        assert_eq!(refined.dims[0], vec![0, 1]);
        assert_eq!(refined.dims[1], vec![1, 2]);
        // The far point is an outlier.
        assert_eq!(refined.assignment[6], None);
        // Cluster points keep their homes.
        for p in 0..3 {
            assert_eq!(refined.assignment[p], Some(0), "point {p}");
        }
        for p in 3..6 {
            assert_eq!(refined.assignment[p], Some(1), "point {p}");
        }
    }

    /// The outlier rule decouples "inside some sphere" from "nearest
    /// medoid": a point inside medoid 0's sphere of influence but
    /// strictly closer to medoid 1 (whose sphere it is *outside*) is
    /// not an outlier and goes to medoid 1 — the paper assigns
    /// non-outliers to the closest medoid, full stop.
    #[test]
    fn inside_one_sphere_but_nearest_to_another_medoid() {
        // m0 = (0,0) on dims {0}; m1 = (10,3) on dims {1}.
        let m = Matrix::from_rows(&[[0.0, 0.0], [10.0, 3.0], [6.0, 7.0], [100.0, 100.0]], 2);
        let medoids = [0usize, 1];
        let dims = vec![vec![0], vec![1]];
        let metric = DistanceKind::Manhattan;
        let spheres = spheres_of_influence(&m, &medoids, &dims, metric);
        // Δ0 = d_{D0}(m0, m1) = 10; Δ1 = d_{D1}(m1, m0) = 3.
        assert_eq!(spheres, vec![10.0, 3.0]);
        let assignment = crate::pool::with_pool(&m, metric, 1, |pool| {
            pool.refine_assign(&medoids, &dims, &spheres)
        });
        // Point 2 = (6,7): distance 6 to m0 (inside Δ0 = 10) but
        // distance 4 to m1 (outside Δ1 = 3). Non-outlier, assigned to
        // the *nearest* medoid m1, not the sphere owner m0.
        assert_eq!(assignment[2], Some(1));
        // The far point is outside both spheres: outlier.
        assert_eq!(assignment[3], None);
        // Each medoid stays home.
        assert_eq!(assignment[0], Some(0));
        assert_eq!(assignment[1], Some(1));
    }

    /// Regression: duplicate (or subspace-coincident) medoids used to
    /// produce `Δᵢ = 0`, which marked every cluster point except the
    /// medoid itself an outlier. Zero projected distances are now
    /// excluded, so a fully-duplicated medoid pair degenerates to the
    /// single-medoid rule (infinite spheres, no outliers) instead of
    /// collapsing both clusters.
    #[test]
    fn coincident_medoids_do_not_collapse_spheres() {
        // Rows 0 and 1 are byte-identical; rows 2..5 form one tight
        // group around them.
        let rows: Vec<[f64; 2]> = vec![[5.0, 5.0], [5.0, 5.0], [5.5, 5.2], [4.8, 5.1], [5.1, 4.7]];
        let m = Matrix::from_rows(&rows, 2);
        let medoids = [0usize, 1];
        let dims = vec![vec![0, 1], vec![0, 1]];
        let metric = DistanceKind::Manhattan;

        let spheres = spheres_of_influence(&m, &medoids, &dims, metric);
        assert_eq!(spheres, vec![f64::INFINITY, f64::INFINITY]);

        // With the old zero spheres, points 2..5 were all outliers.
        // Now every point lands in a cluster (ties to the lower index).
        let labels = [Some(0), Some(1), Some(0), Some(0), Some(1)];
        let refined = refine_over(&m, &medoids, &labels, 4, metric);
        assert!(
            refined.assignment.iter().all(|a| a.is_some()),
            "coincident medoids must not outlier the whole dataset: {:?}",
            refined.assignment
        );

        // Mixed case: a third, genuinely distinct medoid still bounds
        // the duplicated pair's spheres by its own non-zero distance.
        let rows: Vec<[f64; 2]> = vec![[0.0, 0.0], [0.0, 0.0], [10.0, 0.0]];
        let m = Matrix::from_rows(&rows, 2);
        let spheres = spheres_of_influence(
            &m,
            &[0, 1, 2],
            &[vec![0], vec![0], vec![0]],
            DistanceKind::Manhattan,
        );
        assert_eq!(spheres, vec![10.0, 10.0, 10.0]);
    }

    #[test]
    fn reassign_marks_outliers() {
        let rows: Vec<[f64; 2]> = vec![[0.0, 0.0], [10.0, 10.0], [500.0, 500.0]];
        let points = Matrix::from_rows(&rows, 2);
        let medoids = vec![0usize, 1];
        let dims = vec![vec![0, 1], vec![0, 1]];
        let metric = DistanceKind::Manhattan;
        let spheres = spheres_of_influence(&points, &medoids, &dims, metric);
        let out = reassign(&points, &medoids, &dims, &spheres, metric);
        assert_eq!(out, vec![Some(0), Some(1), None]);
    }

    #[test]
    fn refine_with_one_medoid_assigns_everything() {
        let rows: Vec<[f64; 2]> = vec![[0.0, 0.0], [1.0, 1.0], [900.0, 900.0]];
        let m = Matrix::from_rows(&rows, 2);
        let labels = [Some(0); 3];
        let refined = refine_over(&m, &[0], &labels, 2, DistanceKind::Manhattan);
        assert!(refined.assignment.iter().all(|a| *a == Some(0)));
        assert_eq!(refined.spheres, vec![f64::INFINITY]);
    }
}
