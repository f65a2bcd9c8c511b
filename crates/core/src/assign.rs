//! AssignPoints (Figure 5): one pass assigning every point to the
//! medoid with the smallest Manhattan segmental distance relative to
//! that medoid's dimension set.
//!
//! # Empty dimension sets are rejected
//!
//! `eval_segmental` defines the distance over an empty projection as
//! `0.0` (an empty projection carries no information). Fed into
//! assignment, that convention is a trap: a medoid with `Dᵢ = ∅` is at
//! distance zero from *every* point, so it absorbs the entire dataset —
//! and if several medoids have empty sets, the tie rule collapses
//! everything onto the lowest such index. No such input is ever
//! produced by the pipeline (FindDimensions guarantees `|Dᵢ| ≥ 2`; see
//! [`crate::dims`]), so [`assign_points`] treats an empty dimension set
//! as API misuse and panics rather than silently emitting a collapsed
//! clustering.

use proclus_math::{DistanceKind, Matrix};

/// Assign every point to its closest medoid under the per-medoid
/// segmental distances. Returns `assignment[p] = cluster index`.
///
/// Ties go to the lower cluster index (deterministic). Medoid points
/// assign to themselves (distance 0 to their own medoid; a different
/// medoid could only tie, not win).
///
/// # Panics
///
/// Panics when `medoids` is empty, when `medoids` and `dims` disagree
/// in length, or when any dimension set is empty (see the module docs).
pub fn assign_points(
    points: &Matrix,
    medoids: &[usize],
    dims: &[Vec<usize>],
    metric: DistanceKind,
) -> Vec<usize> {
    assert_eq!(medoids.len(), dims.len());
    assert!(!medoids.is_empty());
    assert!(
        dims.iter().all(|di| !di.is_empty()),
        "empty dimension set: a medoid with no dimensions is at distance 0 \
         from every point and would absorb the whole dataset (PROCLUS \
         guarantees |D_i| >= 2)"
    );
    let mut assignment = Vec::with_capacity(points.rows());
    for p in 0..points.rows() {
        let row = points.row(p);
        let mut best = 0usize;
        let mut best_dist = f64::INFINITY;
        for (i, (&m, di)) in medoids.iter().zip(dims).enumerate() {
            let dist = metric.eval_segmental(row, points.row(m), di);
            if dist < best_dist {
                best_dist = dist;
                best = i;
            }
        }
        assignment.push(best);
    }
    assignment
}

/// Group an assignment vector into per-cluster member lists.
///
/// `assignment[p]` may be `None` for outliers (produced by the
/// refinement phase); those points appear in no cluster.
pub fn group_members(assignment: &[Option<usize>], k: usize) -> Vec<Vec<usize>> {
    let mut clusters: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (p, a) in assignment.iter().enumerate() {
        if let Some(i) = *a {
            clusters[i].push(p);
        }
    }
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assigns_to_nearest_projected_medoid() {
        // Medoid 0 = row 0 with dims {0}; medoid 1 = row 1 with dims {1}.
        let rows: Vec<[f64; 2]> = vec![
            [0.0, 0.0],   // medoid 0
            [50.0, 50.0], // medoid 1
            [1.0, 90.0],  // near medoid 0 on dim 0
            [90.0, 51.0], // near medoid 1 on dim 1
        ];
        let m = Matrix::from_rows(&rows, 2);
        let a = assign_points(&m, &[0, 1], &[vec![0], vec![1]], DistanceKind::Manhattan);
        assert_eq!(a, vec![0, 1, 0, 1]);
    }

    #[test]
    fn segmental_normalization_matters() {
        // Point p: distance 10 total over medoid 0's two dims (segmental
        // 5), distance 8 on medoid 1's single dim (segmental 8).
        // With *unnormalized* Manhattan it would pick medoid 1 (8 < 10);
        // segmental picks medoid 0.
        let rows: Vec<[f64; 3]> = vec![
            [0.0, 0.0, 0.0], // medoid 0, dims {0, 1}
            [0.0, 0.0, 0.0], // medoid 1, dims {2}
            [5.0, 5.0, 8.0], // the contested point
        ];
        let m = Matrix::from_rows(&rows, 3);
        let a = assign_points(&m, &[0, 1], &[vec![0, 1], vec![2]], DistanceKind::Manhattan);
        assert_eq!(a[2], 0);
    }

    #[test]
    fn ties_break_to_lower_index() {
        let rows: Vec<[f64; 1]> = vec![[0.0], [10.0], [5.0]];
        let m = Matrix::from_rows(&rows, 1);
        let a = assign_points(&m, &[0, 1], &[vec![0], vec![0]], DistanceKind::Manhattan);
        assert_eq!(a[2], 0);
    }

    #[test]
    fn medoids_assign_to_themselves() {
        let rows: Vec<[f64; 2]> = vec![[0.0, 0.0], [100.0, 100.0], [42.0, 0.0]];
        let m = Matrix::from_rows(&rows, 2);
        let a = assign_points(
            &m,
            &[0, 1],
            &[vec![0, 1], vec![0, 1]],
            DistanceKind::Manhattan,
        );
        assert_eq!(a[0], 0);
        assert_eq!(a[1], 1);
    }

    #[test]
    fn group_members_partitions() {
        let assignment = vec![Some(0), Some(1), None, Some(0)];
        let groups = group_members(&assignment, 2);
        assert_eq!(groups[0], vec![0, 3]);
        assert_eq!(groups[1], vec![1]);
        let total: usize = groups.iter().map(Vec::len).sum();
        assert_eq!(total, 3, "outlier excluded");
    }

    /// Regression: an empty dimension set used to make its medoid tie
    /// at distance 0 with every point, collapsing the assignment to the
    /// lowest empty-set index. It is now rejected as API misuse.
    #[test]
    #[should_panic(expected = "empty dimension set")]
    fn empty_dimension_set_is_rejected() {
        let rows: Vec<[f64; 2]> = vec![[0.0, 0.0], [100.0, 100.0], [99.0, 99.0]];
        let m = Matrix::from_rows(&rows, 2);
        // Before the check, the point at (99, 99) — far from medoid 0 on
        // every real dimension — would land on cluster 0.
        let _ = assign_points(&m, &[0, 1], &[vec![], vec![0, 1]], DistanceKind::Manhattan);
    }
}
