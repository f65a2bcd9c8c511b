//! Property-based tests on the core invariants, driven by seeded
//! randomized case loops (the environment has no registry access, so
//! `proptest` is replaced by explicit deterministic case generation):
//!
//! * metric axioms for the distance functions,
//! * exactness of the greedy dimension allocation vs brute force,
//! * structural invariants of generated datasets,
//! * confusion-matrix marginals,
//! * PROCLUS output invariants on arbitrary (valid) inputs,
//! * CLIQUE anti-monotonicity.

use proclus::clique::units::mine_dense_units;
use proclus::core::dims::allocate_dimensions;
use proclus::math::{chebyshev, euclidean, manhattan, manhattan_segmental, minkowski, Matrix};
use proclus::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn point(rng: &mut StdRng, d: usize) -> Vec<f64> {
    (0..d).map(|_| rng.random_range(-1e3..1e3f64)).collect()
}

#[test]
fn metric_axioms_hold() {
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0xA11_0000 + case);
        let a = point(&mut rng, 8);
        let b = point(&mut rng, 8);
        let c = point(&mut rng, 8);
        for metric in [manhattan, euclidean, chebyshev] {
            let dab = metric(&a, &b);
            let dba = metric(&b, &a);
            assert!(dab >= 0.0);
            assert!((dab - dba).abs() < 1e-9, "symmetry");
            assert!(metric(&a, &a) < 1e-12, "identity");
            let dac = metric(&a, &c);
            let dcb = metric(&c, &b);
            assert!(dab <= dac + dcb + 1e-9, "triangle inequality");
        }
    }
}

#[test]
fn minkowski_monotone_in_p() {
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0xB22_0000 + case);
        let a = point(&mut rng, 6);
        let b = point(&mut rng, 6);
        // Lp norms are non-increasing in p.
        let d1 = minkowski(&a, &b, 1.0);
        let d2 = minkowski(&a, &b, 2.0);
        let d4 = minkowski(&a, &b, 4.0);
        assert!(d1 + 1e-9 >= d2);
        assert!(d2 + 1e-9 >= d4);
    }
}

#[test]
fn segmental_distance_properties() {
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0xC33_0000 + case);
        let a = point(&mut rng, 10);
        let b = point(&mut rng, 10);
        let want = rng.random_range(1..=10usize);
        let mut dims: Vec<usize> = Vec::new();
        while dims.len() < want {
            let j = rng.random_range(0..10usize);
            if !dims.contains(&j) {
                dims.push(j);
            }
        }
        dims.sort_unstable();
        let d = manhattan_segmental(&a, &b, &dims);
        assert!(d >= 0.0);
        // Symmetric.
        assert!((d - manhattan_segmental(&b, &a, &dims)).abs() < 1e-9);
        // Bounded by the largest single-dimension difference.
        let max_diff = dims
            .iter()
            .map(|&j| (a[j] - b[j]).abs())
            .fold(0.0f64, f64::max);
        assert!(d <= max_diff + 1e-9);
        // Full-set segmental = manhattan / d.
        let all: Vec<usize> = (0..10).collect();
        let full = manhattan_segmental(&a, &b, &all);
        assert!((full - manhattan(&a, &b) / 10.0).abs() < 1e-9);
    }
}

#[test]
fn allocation_is_optimal() {
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0xD44_0000 + case);
        let k = rng.random_range(2..=3usize);
        let z: Vec<Vec<f64>> = (0..k)
            .map(|_| (0..4).map(|_| rng.random_range(-10.0..10.0f64)).collect())
            .collect();
        let extra = rng.random_range(0..3usize);
        let total = 2 * k + extra;
        let chosen = allocate_dimensions(&z, total, 2);
        // Structural invariants.
        let count: usize = chosen.iter().map(Vec::len).sum();
        assert_eq!(count, total);
        for row in &chosen {
            assert!(row.len() >= 2);
            let mut sorted = row.clone();
            sorted.dedup();
            assert_eq!(sorted.len(), row.len(), "distinct dims");
        }
        // Optimality vs exhaustive search.
        let got: f64 = chosen
            .iter()
            .enumerate()
            .flat_map(|(i, js)| js.iter().map(move |&j| (i, j)))
            .map(|(i, j)| z[i][j])
            .sum();
        let best = brute_force(&z, total);
        assert!((got - best).abs() < 1e-6, "greedy {got} vs optimal {best}");
    }
}

#[test]
fn generator_invariants() {
    for case in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0xE55_0000 + case);
        let n = rng.random_range(200..1000usize);
        let d = rng.random_range(4..10usize);
        let k = rng.random_range(1..4usize);
        let seed = rng.random_range(0..1000u64);
        let spec = SyntheticSpec::new(n, d, k, 3.0).seed(seed);
        let data = spec.generate();
        assert_eq!(data.len(), n);
        assert_eq!(data.labels.len(), n);
        assert_eq!(data.clusters.len(), k);
        let sizes: usize = data.clusters.iter().map(|c| c.size).sum();
        assert_eq!(sizes + data.outlier_count(), n);
        for c in &data.clusters {
            assert!(c.dims.len() >= 2 && c.dims.len() <= d);
            assert!(c.dims.windows(2).all(|w| w[0] < w[1]));
            assert!(c.size >= 1);
        }
    }
}

#[test]
fn confusion_marginals_sum() {
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0xF66_0000 + case);
        let n = rng.random_range(1..200usize);
        let labels: Vec<(usize, usize)> = (0..n)
            .map(|_| (rng.random_range(0..4usize), rng.random_range(0..4usize)))
            .collect();
        let output: Vec<Option<usize>> =
            labels.iter().map(|&(o, _)| (o < 3).then_some(o)).collect();
        let truth: Vec<Option<usize>> = labels.iter().map(|&(_, t)| (t < 3).then_some(t)).collect();
        let cm = ConfusionMatrix::build(&output, 3, &truth, 3).unwrap();
        assert_eq!(cm.total(), labels.len());
        let row_sum: usize = (0..=3).map(|i| cm.row_total(i)).sum();
        let col_sum: usize = (0..=3).map(|j| cm.col_total(j)).sum();
        assert_eq!(row_sum, labels.len());
        assert_eq!(col_sum, labels.len());
        assert!(cm.purity() >= 0.0 && cm.purity() <= 1.0);
        assert!(cm.matched_accuracy() >= 0.0 && cm.matched_accuracy() <= 1.0);
    }
}

// Heavier cases below: fewer iterations.

#[test]
fn proclus_output_invariants() {
    for case in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0x1077_0000 + case);
        let seed = rng.random_range(0..50u64);
        let k = rng.random_range(1..4usize);
        let data = SyntheticSpec::new(600, 8, k, 3.0).seed(seed).generate();
        let model = Proclus::new(k, 3.0)
            .seed(seed)
            .fit(&data.points)
            .expect("valid parameters");
        assert_eq!(model.clusters().len(), k);
        // Partition check.
        let mut seen = vec![0u8; 600];
        for c in model.clusters() {
            for &p in &c.members {
                seen[p] += 1;
            }
        }
        for &p in model.outliers() {
            seen[p] += 1;
        }
        assert!(seen.iter().all(|&s| s == 1));
        // Dimension budget.
        let total: usize = model.clusters().iter().map(|c| c.dimensions.len()).sum();
        assert_eq!(total, k * 3);
        for c in model.clusters() {
            assert!(c.dimensions.len() >= 2);
            assert!(c.dimensions.windows(2).all(|w| w[0] < w[1]));
        }
        assert!(model.objective() >= 0.0);
    }
}

#[test]
fn clique_dense_units_antimonotone() {
    for seed in 0..8u64 {
        let data = SyntheticSpec::new(800, 6, 2, 3.0).seed(seed).generate();
        let grid = proclus::clique::grid::Grid::fit(&data.points, 8);
        let cells = grid.cells(&data.points);
        let levels = mine_dense_units(&cells, 800, 6, 8, 20, 3);
        for q in 1..levels.len() {
            for unit in &levels[q] {
                // Every (q-1)-projection must appear in the previous
                // level.
                for skip in 0..unit.dims.len() {
                    let sd: Vec<usize> = unit
                        .dims
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != skip)
                        .map(|(_, &x)| x)
                        .collect();
                    let si: Vec<u16> = unit
                        .intervals
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != skip)
                        .map(|(_, &x)| x)
                        .collect();
                    let found = levels[q - 1]
                        .iter()
                        .find(|u| u.dims == sd && u.intervals == si);
                    assert!(found.is_some());
                    // And with at least the unit's support.
                    assert!(found.unwrap().support >= unit.support);
                }
            }
        }
    }
}

/// Exhaustive optimum for the allocation problem (small instances only).
fn brute_force(z: &[Vec<f64>], total: usize) -> f64 {
    fn rec(z: &[Vec<f64>], row: usize, left: usize) -> f64 {
        let k = z.len();
        let d = z[0].len();
        if row == k {
            return if left == 0 { 0.0 } else { f64::INFINITY };
        }
        let mut best = f64::INFINITY;
        for mask in 0u32..(1 << d) {
            let cnt = mask.count_ones() as usize;
            if cnt < 2 || cnt > left {
                continue;
            }
            let rows_after = k - row - 1;
            if left - cnt < rows_after * 2 || left - cnt > rows_after * d {
                continue;
            }
            let sum: f64 = (0..d)
                .filter(|j| mask & (1 << j) != 0)
                .map(|j| z[row][j])
                .sum();
            let rest = rec(z, row + 1, left - cnt);
            if sum + rest < best {
                best = sum + rest;
            }
        }
        best
    }
    rec(z, 0, total)
}

/// The fused pooled kernel must produce bit-identical locality sizes,
/// `X` averages, dimension sets, and assignments to the serial path for
/// every thread count: the fixed block tiling defines one canonical
/// accumulation order that does not depend on how blocks are scheduled.
type RoundOutput = (Vec<usize>, Vec<Vec<f64>>, Vec<Vec<usize>>, Vec<usize>);

/// One hill-climbing round through the round cache and the pool: fused
/// locality + `X` sweep, FindDimensions, assignment — run cold, then
/// again served from cache, which must replay it exactly.
fn pooled_round(
    pool: &mut proclus::core::pool::Pool<'_>,
    medoids: &[usize],
    deltas: &[f64],
) -> RoundOutput {
    let mut cache = proclus::core::cache::RoundCache::new(medoids.len());
    let mut round = |pool: &mut proclus::core::pool::Pool<'_>| {
        let (sizes, x) = cache.fused_round(pool, medoids, deltas);
        let dims = proclus::core::dims::find_dimensions_from_averages(&x, 12, true);
        let flat = cache.assign(pool, medoids, &dims, false).0;
        (sizes, x, dims, flat)
    };
    let cold = round(pool);
    let hit = round(pool);
    assert_eq!(cold, hit, "a cache hit must replay the cold round");
    let stats = cache.stats();
    assert_eq!(stats.fused_slot_hits, medoids.len() as u64);
    assert_eq!(stats.column_hits, medoids.len() as u64);
    cold
}

#[test]
fn pooled_kernel_is_bit_identical_across_thread_counts() {
    use proclus::core::locality::medoid_deltas;
    use proclus::core::pool::with_pool;

    for case in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(0x3A1D_0000 + case);
        let seed = rng.random_range(0..50u64);
        // > 2 blocks of 1024 rows, so pooling genuinely engages.
        let data = SyntheticSpec::new(3000, 8, 3, 3.0).seed(seed).generate();
        let points = &data.points;
        let medoids = vec![1, 997, 2503];
        let metric = DistanceKind::Manhattan;
        let deltas = medoid_deltas(points, &medoids, metric);

        let reference = with_pool(points, metric, 1, |pool| {
            pooled_round(pool, &medoids, &deltas)
        });
        for threads in [2usize, 8, 64] {
            let got = with_pool(points, metric, threads, |pool| {
                pooled_round(pool, &medoids, &deltas)
            });
            assert_eq!(
                got.0, reference.0,
                "locality sizes differ at {threads} threads"
            );
            for (a, b) in got.1.iter().flatten().zip(reference.1.iter().flatten()) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "X averages not bit-identical at {threads} threads"
                );
            }
            assert_eq!(
                got.2, reference.2,
                "dimension sets differ at {threads} threads"
            );
            assert_eq!(
                got.3, reference.3,
                "assignments differ at {threads} threads"
            );
        }
    }
}

/// End-to-end: a full `fit` (restarts, hill climbing, inner
/// refinements, refinement phase) is invariant to the `threads` knob,
/// down to the bits of the objective and every sphere of influence.
#[test]
fn fit_is_invariant_to_thread_count() {
    for case in 0..2u64 {
        let mut rng = StdRng::seed_from_u64(0x3B2E_0000 + case);
        let seed = rng.random_range(0..50u64);
        let data = SyntheticSpec::new(2600, 8, 3, 3.0).seed(seed).generate();
        let reference = Proclus::new(3, 4.0)
            .seed(seed)
            .threads(1)
            .fit(&data.points)
            .expect("valid parameters");
        for threads in [2usize, 8, 64] {
            let model = Proclus::new(3, 4.0)
                .seed(seed)
                .threads(threads)
                .fit(&data.points)
                .expect("valid parameters");
            assert_eq!(
                model.assignment(),
                reference.assignment(),
                "assignment differs at {threads} threads"
            );
            assert_eq!(model.outliers(), reference.outliers());
            assert_eq!(model.objective().to_bits(), reference.objective().to_bits());
            assert_eq!(
                model.iterative_objective().to_bits(),
                reference.iterative_objective().to_bits()
            );
            for (a, b) in model.clusters().iter().zip(reference.clusters()) {
                assert_eq!(a.medoid_index, b.medoid_index);
                assert_eq!(a.dimensions, b.dimensions);
                assert_eq!(a.members, b.members);
                assert_eq!(
                    a.sphere_of_influence.to_bits(),
                    b.sphere_of_influence.to_bits()
                );
            }
        }
    }
}

// Matrix is used indirectly through the facade; keep the import honest.
#[allow(dead_code)]
fn _touch(_: &Matrix) {}
