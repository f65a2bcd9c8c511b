//! EvaluateClusters (Figure 6) and bad-medoid detection.
//!
//! The objective is the size-weighted mean, over clusters, of
//! `wᵢ = mean_{j ∈ Dᵢ} Yᵢⱼ`, where `Yᵢⱼ` is the average distance along
//! dimension `j` from the cluster's points to the cluster **centroid**
//! (which generally differs from the medoid). Lower is better.
//!
//! [`evaluate_clusters`] is the reference form of the objective: it
//! walks member index lists row by row. Production does not call it.
//! Fits score every round and the final clustering with
//! [`crate::pool::Pool::evaluate`], which runs `kernel::evaluate_tiles`
//! over the columnar tiles straight from the assignment labels. That
//! evaluator keeps one running sum per (cluster, dimension), fed the
//! members in the same ascending order as here, and interleaves only
//! *different* dimensions' sums. So its objective is bit-identical to
//! this one. The twin tests in `kernel.rs` and `tests/columnar.rs`
//! compare the two with `to_bits`.

use proclus_math::Matrix;

/// Evaluate a clustering: `Σᵢ |Cᵢ| · wᵢ / N`.
///
/// `clusters[i]` holds the member point indices of cluster `i`, `dims[i]`
/// its dimension set. `n` is the total number of points being
/// clustered (the paper's `N`); during the iterative phase every point
/// is assigned so `Σ|Cᵢ| = N`, but the function only relies on `n > 0`.
///
/// Empty clusters contribute zero (their `wᵢ` would be undefined; a
/// zero keeps the objective monotone in favor of replacing their
/// medoids, which the bad-medoid rule does anyway).
pub fn evaluate_clusters(
    points: &Matrix,
    clusters: &[Vec<usize>],
    dims: &[Vec<usize>],
    n: usize,
) -> f64 {
    debug_assert_eq!(clusters.len(), dims.len());
    if n == 0 {
        return 0.0;
    }
    let mut acc = 0.0;
    for (members, di) in clusters.iter().zip(dims) {
        if members.is_empty() || di.is_empty() {
            continue;
        }
        let centroid = points.centroid_of(members);
        // w_i = mean over j in D_i of avg |p_j - centroid_j|.
        let mut w = 0.0;
        for &j in di {
            let mut yij = 0.0;
            for &p in members {
                yij += (points.get(p, j) - centroid[j]).abs();
            }
            w += yij / members.len() as f64;
        }
        w /= di.len() as f64;
        acc += members.len() as f64 * w;
    }
    acc / n as f64
}

/// Identify the *bad* medoids of a clustering (paper §2.2):
/// the medoid of the cluster with the fewest points, plus the medoid of
/// every cluster with fewer than `(n/k) · min_deviation` points.
///
/// Returns cluster indices, sorted ascending, always at least one
/// (the smallest cluster) — except for an empty clustering, which has
/// no medoids to blame and yields an empty list. Ties for "smallest"
/// resolve to the lowest index.
pub fn bad_medoids(cluster_sizes: &[usize], n: usize, min_deviation: f64) -> Vec<usize> {
    let k = cluster_sizes.len();
    let threshold = (n as f64 / k.max(1) as f64) * min_deviation;
    let Some(smallest) = (0..k).min_by_key(|&i| (cluster_sizes[i], i)) else {
        return Vec::new();
    };
    let mut bad: Vec<usize> = (0..k)
        .filter(|&i| i == smallest || (cluster_sizes[i] as f64) < threshold)
        .collect();
    bad.sort_unstable();
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objective_is_weighted_centroid_spread() {
        // Cluster 0: points (0) and (2) on dim {0} -> centroid 1,
        // avg |p - c| = 1. Cluster 1: points (10) and (10) -> spread 0.
        let m = Matrix::from_rows(&[[0.0], [2.0], [10.0], [10.0]], 1);
        let obj = evaluate_clusters(&m, &[vec![0, 1], vec![2, 3]], &[vec![0], vec![0]], 4);
        // (2 * 1 + 2 * 0) / 4 = 0.5
        assert!((obj - 0.5).abs() < 1e-12);
    }

    #[test]
    fn objective_averages_over_dimensions() {
        // One cluster, dims {0, 1}: spread 1 on dim 0, spread 3 on dim 1.
        let m = Matrix::from_rows(&[[0.0, 0.0], [2.0, 6.0]], 2);
        let obj = evaluate_clusters(&m, &[vec![0, 1]], &[vec![0, 1]], 2);
        assert!((obj - 2.0).abs() < 1e-12); // (1 + 3) / 2
    }

    #[test]
    fn objective_ignores_unchosen_dimensions() {
        // Dim 1 is wildly spread but not in the dimension set.
        let m = Matrix::from_rows(&[[0.0, -500.0], [2.0, 900.0]], 2);
        let obj = evaluate_clusters(&m, &[vec![0, 1]], &[vec![0]], 2);
        assert!((obj - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_cluster_contributes_zero() {
        let m = Matrix::from_rows(&[[0.0], [2.0]], 1);
        // Cluster 0 (both points, spread 1) contributes 2·1; the empty
        // cluster contributes nothing: (2·1 + 0)/2 = 1.
        let obj = evaluate_clusters(&m, &[vec![0, 1], vec![]], &[vec![0], vec![0]], 2);
        assert!((obj - 1.0).abs() < 1e-12);
    }

    #[test]
    fn singleton_cluster_is_perfect() {
        let m = Matrix::from_rows(&[[7.0]], 1);
        let obj = evaluate_clusters(&m, &[vec![0]], &[vec![0]], 1);
        assert_eq!(obj, 0.0);
    }

    #[test]
    fn bad_medoids_smallest_always_included() {
        // All clusters comfortably above threshold; only the smallest
        // is bad.
        let bad = bad_medoids(&[50, 40, 60], 150, 0.1);
        assert_eq!(bad, vec![1]);
    }

    #[test]
    fn bad_medoids_below_threshold_included() {
        // n = 100, k = 4 -> threshold = 2.5 points.
        let bad = bad_medoids(&[50, 2, 46, 2], 100, 0.1);
        assert_eq!(bad, vec![1, 3]);
    }

    #[test]
    fn bad_medoids_tie_breaks_low_index() {
        let bad = bad_medoids(&[10, 10, 10], 30, 0.1);
        assert_eq!(bad, vec![0]);
    }

    #[test]
    fn bad_medoids_empty_clustering_is_empty() {
        assert!(bad_medoids(&[], 10, 0.1).is_empty());
    }

    #[test]
    fn bad_medoids_zero_min_deviation() {
        // Threshold 0: only the smallest cluster's medoid is bad, and
        // empty clusters still count as smallest.
        let bad = bad_medoids(&[3, 0, 5], 8, 0.0);
        assert_eq!(bad, vec![1]);
    }
}
