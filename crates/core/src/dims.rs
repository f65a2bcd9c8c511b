//! FindDimensions (Figure 4) and the dimension-allocation subproblem.
//!
//! For every medoid `mᵢ` and every dimension `j`, let `Xᵢⱼ` be the
//! average distance along dimension `j` from the points of a reference
//! set (the locality `Lᵢ` during the iterative phase, the cluster `Cᵢ`
//! during refinement) to `mᵢ`. Standardize per medoid:
//! `Zᵢⱼ = (Xᵢⱼ − Yᵢ)/σᵢ` with `Yᵢ = mean_j Xᵢⱼ` and `σᵢ` the sample
//! standard deviation over `j`. Strongly negative `Zᵢⱼ` means dimension
//! `j` is unusually tight around `mᵢ` — a correlated dimension.
//!
//! Choosing the `k·l` most negative `Zᵢⱼ` subject to "at least 2 per
//! medoid" is a separable convex resource allocation problem
//! (Ibaraki–Katoh); the paper solves it greedily and exactly: preallocate
//! each medoid's two smallest values, then pick the remaining
//! `k·(l − 2)` smallest among the leftovers. [`allocate_dimensions`]
//! implements exactly that (and the optimality is property-tested
//! against brute force).
//!
//! The "at least 2 per medoid" floor is not just paper fidelity — it is
//! the guarantee downstream assignment relies on: `eval_segmental`
//! defines the distance over an *empty* projection as `0.0`, so a
//! medoid with `Dᵢ = ∅` would sit at distance zero from every point
//! and absorb the entire dataset. [`crate::assign`] rejects empty
//! dimension sets outright; this module never produces one.

use proclus_math::order::total_cmp_nan_last;
use proclus_math::stats;

/// Standardize each medoid's `X` row into Z-scores:
/// `Z[i][j] = (X[i][j] − Yᵢ)/σᵢ`.
///
/// Degenerate rows standardize to all zeros rather than NaN or rounding
/// noise, making every dimension equally (un)attractive for that
/// medoid. Degeneracy is judged *relative to the row's magnitude*
/// (`σᵢ ≤ ε·|Yᵢ|`): an absolute `σ ≤ ε` cutoff would let a row of
/// large but equal-to-rounding values (say `X ≈ 4·10⁶` with spread
/// only in the last few ulps) pass as structured and blow pure
/// floating-point noise up into full-strength ±O(1) Z-scores, while a
/// row of genuinely tiny values (`X ≈ 10⁻²⁰` with 10× relative spread)
/// would be wrongly zeroed.
pub fn z_scores(x: &[Vec<f64>]) -> Vec<Vec<f64>> {
    x.iter()
        .map(|row| {
            let y = stats::mean(row);
            let sigma = stats::sample_std(row);
            // Guard with a margin over ε·|Y|: the sample std of pure
            // rounding noise on values of magnitude |Y| is itself a
            // small multiple of ε·|Y|.
            if sigma <= 8.0 * f64::EPSILON * y.abs() {
                vec![0.0; row.len()]
            } else {
                row.iter().map(|&v| (v - y) / sigma).collect()
            }
        })
        .collect()
}

/// Solve the dimension-allocation problem: choose `total` (i, j) cells
/// of `z` minimizing the sum of chosen values, with at least
/// `min_per_row` cells chosen in every row.
///
/// Returns the chosen column sets, sorted ascending per row.
///
/// # Panics
///
/// Panics when the constraints are unsatisfiable
/// (`total < k·min_per_row` or `total > k·d`).
pub fn allocate_dimensions(z: &[Vec<f64>], total: usize, min_per_row: usize) -> Vec<Vec<usize>> {
    let k = z.len();
    assert!(k > 0, "no medoids");
    let d = z[0].len();
    assert!(
        total >= k * min_per_row,
        "total {total} cannot satisfy {min_per_row} per row for {k} rows"
    );
    assert!(total <= k * d, "total {total} exceeds {k}x{d} cells");

    let mut chosen: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut taken = vec![vec![false; d]; k];

    // Both steps take the smallest cells under a strict total order
    // (value, then row, then column), so selecting them picks the same
    // set a full sort would; the rows are sorted at the end anyway.

    // Preallocate the min_per_row smallest values of every row.
    if min_per_row > 0 {
        for (i, row) in z.iter().enumerate() {
            let mut order: Vec<usize> = (0..d).collect();
            order.select_nth_unstable_by(min_per_row - 1, |&a, &b| {
                total_cmp_nan_last(row[a], row[b]).then(a.cmp(&b))
            });
            for &j in &order[..min_per_row] {
                chosen[i].push(j);
                taken[i][j] = true;
            }
        }
    }

    // Greedily pick the remaining total − k·min_per_row smallest
    // leftover cells. This greedy is exact for the separable resource
    // allocation problem (the objective is a plain sum and only lower
    // bounds constrain the rows).
    let remaining = total - k * min_per_row;
    if remaining > 0 {
        let mut rest: Vec<(usize, usize)> = (0..k)
            .flat_map(|i| (0..d).map(move |j| (i, j)))
            .filter(|&(i, j)| !taken[i][j])
            .collect();
        rest.select_nth_unstable_by(remaining - 1, |&(ia, ja), &(ib, jb)| {
            total_cmp_nan_last(z[ia][ja], z[ib][jb])
                .then(ia.cmp(&ib))
                .then(ja.cmp(&jb))
        });
        for &(i, j) in &rest[..remaining] {
            chosen[i].push(j);
        }
    }

    for row in &mut chosen {
        row.sort_unstable();
    }
    chosen
}

/// FindDimensions from already-computed average distances `X` (as
/// produced by the fused kernels in [`crate::kernel`], which accumulate
/// `X` during the locality or assignment sweep instead of a separate
/// pass): Z-scores → allocation of `total` dimensions with at least 2
/// per medoid. With `standardize = false` the raw `X` averages are
/// allocated directly — an ablation that loses the per-medoid scale
/// normalization; not part of the paper's algorithm.
pub fn find_dimensions_from_averages(
    x: &[Vec<f64>],
    total: usize,
    standardize: bool,
) -> Vec<Vec<usize>> {
    if standardize {
        let z = z_scores(x);
        allocate_dimensions(&z, total, 2)
    } else {
        allocate_dimensions(x, total, 2)
    }
}

/// The score of every *chosen* dimension — `Z[i][j]` (or raw `X[i][j]`
/// when standardization is off) for each `j ∈ chosen[i]`, parallel to
/// `chosen`. Used by the observability layer to record *why*
/// FindDimensions picked each dimension without re-deriving the scores
/// in every consumer.
pub fn chosen_scores(x: &[Vec<f64>], chosen: &[Vec<usize>], standardize: bool) -> Vec<Vec<f64>> {
    let standardized;
    let scores: &[Vec<f64>] = if standardize {
        standardized = z_scores(x);
        &standardized
    } else {
        x
    };
    chosen
        .iter()
        .enumerate()
        .map(|(i, js)| js.iter().map(|&j| scores[i][j]).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn z_scores_standardize() {
        let x = vec![vec![1.0, 2.0, 3.0]];
        let z = z_scores(&x);
        // mean 2, sample std 1.
        assert!((z[0][0] + 1.0).abs() < 1e-12);
        assert!(z[0][1].abs() < 1e-12);
        assert!((z[0][2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn z_scores_degenerate_row_is_zero() {
        let z = z_scores(&[vec![4.0, 4.0, 4.0]]);
        assert_eq!(z[0], vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn z_scores_degeneracy_is_scale_relative() {
        // A huge-magnitude row whose spread is a couple of ulps is
        // rounding noise, not structure: it must standardize to zeros
        // even though its absolute sigma is far above f64::EPSILON.
        let base = 4.0e6_f64;
        let noisy = vec![
            base,
            f64::from_bits(base.to_bits() + 2),
            f64::from_bits(base.to_bits() + 1),
        ];
        let z = z_scores(&[noisy]);
        assert_eq!(z[0], vec![0.0, 0.0, 0.0]);

        // Conversely a tiny-magnitude row with large *relative* spread
        // is genuine structure and must standardize normally (an
        // absolute cutoff at EPSILON would zero it).
        let z = z_scores(&[vec![1.0e-20, 2.0e-20, 3.0e-20]]);
        assert!((z[0][0] + 1.0).abs() < 1e-9);
        assert!(z[0][1].abs() < 1e-9);
        assert!((z[0][2] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn z_scores_are_scale_invariant() {
        let row = vec![1.0, 5.0, 2.5, 9.0];
        let scaled: Vec<f64> = row.iter().map(|v| v * 1.0e12).collect();
        let za = z_scores(&[row]);
        let zb = z_scores(&[scaled]);
        for (a, b) in za[0].iter().zip(&zb[0]) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn allocation_prefers_most_negative() {
        // Two medoids, 4 dims, total = 5, min 2 each.
        let z = vec![vec![-3.0, -1.0, 0.5, 2.0], vec![-0.2, -0.1, 1.0, -2.5]];
        let out = allocate_dimensions(&z, 5, 2);
        // Row 0 preallocates {0, 1}; row 1 preallocates {3, 0}.
        // Fifth pick: smallest leftover = row1 col1 (-0.1)?
        // Leftovers: row0: 0.5, 2.0; row1: -0.1, 1.0 -> picks (1,1).
        assert_eq!(out[0], vec![0, 1]);
        assert_eq!(out[1], vec![0, 1, 3]);
        let total: usize = out.iter().map(Vec::len).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn allocation_exact_minimum_is_two_each() {
        let z = vec![vec![0.0, 1.0, 2.0], vec![5.0, 4.0, 3.0]];
        let out = allocate_dimensions(&z, 4, 2);
        assert_eq!(out[0], vec![0, 1]);
        assert_eq!(out[1], vec![1, 2]);
    }

    #[test]
    fn allocation_full_house() {
        let z = vec![vec![0.0, 1.0], vec![2.0, 3.0]];
        let out = allocate_dimensions(&z, 4, 2);
        assert_eq!(out[0], vec![0, 1]);
        assert_eq!(out[1], vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "cannot satisfy")]
    fn allocation_rejects_total_below_min() {
        let z = vec![vec![0.0, 1.0], vec![2.0, 3.0]];
        let _ = allocate_dimensions(&z, 3, 2);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn allocation_rejects_total_above_cells() {
        let z = vec![vec![0.0, 1.0]];
        let _ = allocate_dimensions(&z, 3, 2);
    }

    /// Brute-force optimality check on small instances: the greedy
    /// allocation achieves the minimum possible sum of chosen Z values.
    #[test]
    fn allocation_is_exactly_optimal_small() {
        let cases: Vec<Vec<Vec<f64>>> = vec![
            vec![vec![-1.0, 2.0, 0.0, -0.5], vec![1.0, -2.0, 3.0, -0.1]],
            vec![vec![0.3, 0.1, 0.2, 0.4], vec![0.4, 0.3, 0.2, 0.1]],
            vec![vec![-5.0, -4.0, 10.0, 10.0], vec![-1.0, -1.0, -1.0, -1.0]],
        ];
        for z in cases {
            for total in 4..=7 {
                let got = allocate_dimensions(&z, total, 2);
                let zref = &z;
                let got_sum: f64 = got
                    .iter()
                    .enumerate()
                    .flat_map(|(i, js)| js.iter().map(move |&j| zref[i][j]))
                    .sum();
                let best = brute_force_best(&z, total, 2);
                assert!(
                    (got_sum - best).abs() < 1e-9,
                    "total {total}: greedy {got_sum} vs optimal {best} for {z:?}"
                );
            }
        }
    }

    /// Exhaustive minimum over all valid allocations (tiny instances).
    fn brute_force_best(z: &[Vec<f64>], total: usize, min_per_row: usize) -> f64 {
        let k = z.len();
        let d = z[0].len();
        // Enumerate subsets per row as bitmasks, combine recursively.
        fn rec(z: &[Vec<f64>], row: usize, left: usize, min_per_row: usize, d: usize) -> f64 {
            let k = z.len();
            if row == k {
                return if left == 0 { 0.0 } else { f64::INFINITY };
            }
            let mut best = f64::INFINITY;
            for mask in 0u32..(1 << d) {
                let cnt = mask.count_ones() as usize;
                if cnt < min_per_row || cnt > left {
                    continue;
                }
                let rows_after = k - row - 1;
                if left - cnt < rows_after * min_per_row || left - cnt > rows_after * d {
                    continue;
                }
                let sum: f64 = (0..d)
                    .filter(|j| mask & (1 << j) != 0)
                    .map(|j| z[row][j])
                    .sum();
                let rest = rec(z, row + 1, left - cnt, min_per_row, d);
                if sum + rest < best {
                    best = sum + rest;
                }
            }
            best
        }
        let _ = k;
        rec(z, 0, total, min_per_row, d)
    }

    /// Regression (tied Z-scores): exactly-equal values must break ties
    /// deterministically — by column inside a row's preallocation, then
    /// by (row, column) among the greedy leftovers — keep the ≥2 floor
    /// and exact total, and still achieve the optimal sum (any
    /// tie-break is optimal; ours must be the lexicographic one so the
    /// fit, and hence the golden event digest, is reproducible).
    #[test]
    fn allocation_breaks_exact_ties_lexicographically() {
        // Every interesting value tied: row 0 has three -1.0 cells,
        // rows 0 and 1 compete for the last pick with equal 0.0 cells.
        let z = vec![vec![-1.0, -1.0, -1.0, 0.0], vec![0.0, -2.0, 0.0, -2.0]];
        let out = allocate_dimensions(&z, 5, 2);
        // Row 0 preallocation: -1.0 tie among cols {0,1,2} → cols 0, 1.
        // Row 1 preallocation: -2.0 tie among cols {1,3} → cols 1, 3.
        // Fifth pick: four-way 0.0/-1.0 leftover tie resolved by value
        // first (-1.0 at (0,2)), so row 0 gains col 2.
        assert_eq!(out, vec![vec![0, 1, 2], vec![1, 3]]);

        // All-tied degenerate matrix (what z_scores emits for
        // degenerate rows): picks are the lexicographically first
        // cells, never a panic or an unstable order.
        let flat = vec![vec![0.0; 4], vec![0.0; 4]];
        let out = allocate_dimensions(&flat, 5, 2);
        assert_eq!(out, vec![vec![0, 1, 2], vec![0, 1]]);
        // Deterministic under repetition.
        assert_eq!(out, allocate_dimensions(&flat, 5, 2));

        // Ties never cost optimality: greedy sum still matches brute
        // force on a tie-heavy instance.
        let z = vec![vec![-1.0, -1.0, 0.0, 0.0], vec![-1.0, 0.0, -1.0, 0.0]];
        for total in 4..=6 {
            let got = allocate_dimensions(&z, total, 2);
            let got_sum: f64 = got
                .iter()
                .enumerate()
                .flat_map(|(i, js)| js.iter().map(|&j| z[i][j]).collect::<Vec<_>>())
                .sum();
            let best = brute_force_best(&z, total, 2);
            assert!((got_sum - best).abs() < 1e-12, "total {total}");
        }
    }

    /// σᵢ in FindDimensions is the *sample* standard deviation (n − 1
    /// divisor), per the paper's standardization: for X = [1, 2, 3] the
    /// sample std is exactly 1 (the population divisor would give
    /// √(2/3) ≈ 0.816 and Z[0] ≈ −1.22 instead of −1).
    #[test]
    fn z_scores_use_sample_std_n_minus_1() {
        let z = z_scores(&[vec![1.0, 2.0, 3.0]]);
        assert!((z[0][0] - (-1.0)).abs() < 1e-12, "got {}", z[0][0]);
        assert!((stats::sample_std(&[1.0, 2.0, 3.0]) - 1.0).abs() < 1e-12);
    }

    /// Regression (offset-heavy columns): `X` rows of magnitude ~1e9
    /// whose structure lives in a ~1e-3 spread. Standardization must
    /// select the same dimensions as for the un-offset rows — before
    /// the shifted two-pass mean in `stats::mean`, the naive sum's
    /// rounding at 1e9 magnitudes contaminated `Yᵢ` enough to move
    /// near-tied cross-row Z comparisons in the Figure 3 allocation.
    #[test]
    fn figure3_selection_survives_large_offsets() {
        let d = 32;
        let mk_row = |tight: [usize; 2], third: usize, third_bump: f64| -> Vec<f64> {
            (0..d)
                .map(|j| {
                    if j == tight[0] || j == tight[1] {
                        0.0
                    } else if j == third {
                        5.0e-4 + third_bump
                    } else {
                        1.0e-3 + j as f64 * 1.0e-5
                    }
                })
                .collect()
        };
        // Row 1's third-tightest cell loses to row 0's by 1e-5: the
        // fifth allocated dimension is a genuine cross-row near-tie.
        let base = vec![mk_row([0, 1], 2, 0.0), mk_row([3, 4], 5, 1.0e-5)];
        let offset: Vec<Vec<f64>> = base
            .iter()
            .map(|r| r.iter().map(|v| v + 1.0e9).collect())
            .collect();

        let want = find_dimensions_from_averages(&base, 5, true);
        assert_eq!(want, vec![vec![0, 1, 2], vec![3, 4]]);
        let got = find_dimensions_from_averages(&offset, 5, true);
        assert_eq!(got, want, "dimension selection moved under a 1e9 offset");

        // The Z-scores themselves stay close to the un-offset ones —
        // the remaining discrepancy is the irreducible representation
        // error of the row mean at 1e9 magnitude (~1 ulp / sigma).
        let (za, zb) = (z_scores(&base), z_scores(&offset));
        for (ra, rb) in za.iter().zip(&zb) {
            for (a, b) in ra.iter().zip(rb) {
                assert!((a - b).abs() < 5.0e-3, "z drifted: {a} vs {b}");
            }
        }
    }

    #[test]
    fn find_dimensions_picks_tight_axes() {
        // Medoid 0 at origin; its reference set (itself and three
        // points) is tight on dims {0, 1} and spread on dims {2, 3}:
        // `X` is the mean |diff| over the four rows.
        let x = vec![vec![0.45 / 4.0, 0.42 / 4.0, 90.0 / 4.0, 120.0 / 4.0]];
        let out = find_dimensions_from_averages(&x, 2, true);
        assert_eq!(out, vec![vec![0, 1]]);
    }
}
