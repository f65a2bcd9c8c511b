//! Columnar-layout equivalence tier: every pass a fit runs — the round
//! cache's passes, cold and served from cache, and the refinement's
//! reassignment — runs the dimension-major blocked kernels, and must be
//! **bit-identical** to the reference for every metric and thread count
//! — on matrices built to expose any deviation (exact distance ties,
//! duplicated rows, mixed 1e±9 magnitudes). The references are the
//! row-major kernels (run over `kernel::blocks` and merged with
//! `kernel::merge_*`) for the sums, whose block merge order defines the
//! bits, and the scalar `assign_points` and `refine::reassign` for the
//! per-point assignments.

use proclus::core::assign::{assign_points, group_members};
use proclus::core::cache::RoundCache;
use proclus::core::evaluate::evaluate_clusters;
use proclus::core::kernel;
use proclus::core::locality::medoid_deltas;
use proclus::core::pool::with_pool;
use proclus::core::refine::reassign;
use proclus::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Quantized coordinates force many exactly-equal distances, so the
/// strict-`<` lowest-index tie-breaking is exercised everywhere.
fn tie_heavy(n: usize, d: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<f64> = (0..n * d)
        .map(|_| f64::from(rng.random_range(0u32..6)))
        .collect();
    Matrix::from_vec(data, n, d)
}

/// A few prototype rows repeated across the matrix: duplicate points
/// tie on every metric simultaneously.
fn duplicate_rows(n: usize, d: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let protos: Vec<Vec<f64>> = (0..32)
        .map(|_| (0..d).map(|_| rng.random_range(0.0..10.0)).collect())
        .collect();
    let data: Vec<f64> = (0..n).flat_map(|p| protos[p % 32].clone()).collect();
    Matrix::from_vec(data, n, d)
}

/// Coordinates spanning 1e-9 .. 1e9: any reassociation of the
/// accumulation order shows up in the low bits immediately.
fn mixed_magnitude(n: usize, d: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<f64> = (0..n * d)
        .map(|i| {
            let base: f64 = rng.random_range(-1.0..1.0);
            match i % 3 {
                0 => base * 1.0e9,
                1 => base * 1.0e-9,
                _ => base,
            }
        })
        .collect();
    Matrix::from_vec(data, n, d)
}

fn assert_bits_eq(a: &[Vec<f64>], b: &[Vec<f64>], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: shape");
    for (i, (ra, rb)) in a.iter().zip(b).enumerate() {
        assert_eq!(ra.len(), rb.len(), "{ctx}: row {i} shape");
        for (j, (x, y)) in ra.iter().zip(rb).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: [{i}][{j}] {x:e} vs {y:e}");
        }
    }
}

/// The reference answer of each pass the pool runs.
struct Reference {
    fused: (Vec<usize>, Vec<Vec<f64>>),
    assign: Vec<usize>,
    cluster_x: Vec<Vec<f64>>,
    refined: Vec<Option<usize>>,
}

/// Run the row-major reference kernels block by block over
/// `kernel::blocks`, merging them in ascending block order, and the
/// scalar assignments over all points.
fn reference(
    points: &Matrix,
    metric: DistanceKind,
    medoids: &[usize],
    dims: &[Vec<usize>],
    deltas: &[f64],
    spheres: &[f64],
) -> Reference {
    let (k, d) = (medoids.len(), points.cols());
    let blocks = kernel::blocks(points.rows());
    let fused = kernel::merge_fused(
        blocks
            .iter()
            .map(|&(lo, hi)| kernel::fused_block(points, metric, medoids, deltas, lo, hi))
            .collect(),
        k,
        d,
    );
    let assign = assign_points(points, medoids, dims, metric);
    let labels: Vec<Option<usize>> = assign.iter().map(|&a| Some(a)).collect();
    let counts: Vec<usize> = group_members(&labels, k).iter().map(Vec::len).collect();
    let cluster_x = kernel::merge_cluster_x(
        blocks
            .iter()
            .map(|&(lo, hi)| kernel::cluster_x_block(points, medoids, &labels, lo, hi))
            .collect(),
        &counts,
        d,
    );
    let refined = reassign(points, medoids, dims, spheres, metric);
    Reference {
        fused,
        assign,
        cluster_x,
        refined,
    }
}

/// Every pass must equal the reference bit for bit —
/// across 3 metrics, 3 adversarial matrix families, and thread counts
/// 1/2/8. Each round-cache pass runs on a fresh cache, cold and then
/// again as a cache hit.
#[test]
fn columnar_pool_passes_are_bit_identical_to_row_major() {
    let (n, d) = (1_700usize, 6usize);
    for metric in [
        DistanceKind::Manhattan,
        DistanceKind::Euclidean,
        DistanceKind::Chebyshev,
    ] {
        for (family, points) in [
            ("tie-heavy", tie_heavy(n, d, 21)),
            ("duplicate-rows", duplicate_rows(n, d, 22)),
            ("mixed-magnitude", mixed_magnitude(n, d, 23)),
        ] {
            let medoids = vec![5usize, 800, 1_500];
            let dims = vec![vec![0, 1, 2], vec![1, 3], vec![0, 4, 5]];
            let deltas = medoid_deltas(&points, &medoids, metric);
            let spheres: Vec<f64> = deltas.iter().map(|d| d * 0.8).collect();
            let want = reference(&points, metric, &medoids, &dims, &deltas, &spheres);
            for threads in [1usize, 2, 8] {
                let ctx = format!("{family}/{metric:?}/t{threads}");
                with_pool(&points, metric, threads, |pool| {
                    let k = medoids.len();
                    let mut cache = RoundCache::new(k);
                    for pass in ["cold", "hit"] {
                        let ctx = format!("{ctx}/{pass}");
                        let fused = cache.fused_round(pool, &medoids, &deltas);
                        assert_eq!(want.fused.0, fused.0, "{ctx}: locality sizes");
                        assert_bits_eq(&want.fused.1, &fused.1, &format!("{ctx}: locality X"));
                    }
                    assert_eq!(cache.stats().fused_slot_hits, k as u64, "{ctx}: fused hit");
                    let mut cache = RoundCache::new(k);
                    for pass in ["cold", "hit"] {
                        let assign = cache.assign(pool, &medoids, &dims, false).0;
                        assert_eq!(want.assign, assign, "{ctx}/{pass}: assignment");
                    }
                    assert_eq!(cache.stats().column_hits, k as u64, "{ctx}: column hit");
                    let mut cache = RoundCache::new(k);
                    for pass in ["cold", "hit"] {
                        let ctx = format!("{ctx}/{pass}");
                        let (winners, x) = cache.assign(pool, &medoids, &dims, true);
                        assert_eq!(want.assign, winners, "{ctx}: assign+X winners");
                        let x = x.expect("X asked for");
                        assert_bits_eq(&want.cluster_x, &x, &format!("{ctx}: assign+X sums"));
                    }
                    assert_eq!(cache.stats().column_hits, k as u64, "{ctx}: assign+X hit");
                    let refined = pool.refine_assign(&medoids, &dims, &spheres);
                    assert_eq!(want.refined, refined, "{ctx}: refine assignment");
                });
            }
        }
    }
}

/// `Pool::evaluate` — the one production evaluator, for both the
/// per-round objective (flat labels) and the final objective (labels
/// with outliers) — must equal the `evaluate_clusters` oracle bit for
/// bit at threads 1/2/8, on labels that themselves match the scalar
/// references.
#[test]
fn pool_evaluator_matches_evaluate_clusters_bit_for_bit() {
    let (n, d) = (3_073usize, 7usize);
    let metric = DistanceKind::Manhattan;
    for (family, points) in [
        ("tie-heavy", tie_heavy(n, d, 31)),
        ("duplicate-rows", duplicate_rows(n, d, 32)),
        ("mixed-magnitude", mixed_magnitude(n, d, 33)),
    ] {
        let medoids = vec![5usize, 800, 1_500, 2_900];
        let dims = vec![
            vec![0, 1, 2, 3, 4, 5],
            vec![1, 3],
            vec![6, 0, 4, 5, 2],
            vec![3],
        ];
        let deltas = medoid_deltas(&points, &medoids, metric);
        let spheres: Vec<f64> = deltas.iter().map(|d| d * 0.8).collect();
        let want = reference(&points, metric, &medoids, &dims, &deltas, &spheres);
        let oracle = |labels: &[Option<usize>]| {
            let clusters = group_members(labels, dims.len());
            let sizes: Vec<usize> = clusters.iter().map(Vec::len).collect();
            (evaluate_clusters(&points, &clusters, &dims, n), sizes)
        };
        for threads in [1usize, 2, 8] {
            let ctx = format!("{family}/t{threads}");
            with_pool(&points, metric, threads, |pool| {
                let flat = RoundCache::new(dims.len())
                    .assign(pool, &medoids, &dims, false)
                    .0;
                let refined = pool.refine_assign(&medoids, &dims, &spheres);
                assert_eq!(want.assign, flat, "{ctx}: assignment");
                assert_eq!(want.refined, refined, "{ctx}: refine assignment");
                assert!(refined.iter().any(Option::is_none), "{ctx}: no outliers");
                let opt: Vec<Option<usize>> = flat.iter().map(|&a| Some(a)).collect();
                for (form, labels) in [("round", &opt), ("final", &refined)] {
                    let (want, want_sizes) = oracle(labels);
                    let got = if form == "round" {
                        pool.evaluate(&flat, &dims)
                    } else {
                        pool.evaluate(labels, &dims)
                    };
                    assert_eq!(got.sizes, want_sizes, "{ctx}/{form}: sizes");
                    assert_eq!(
                        got.objective.to_bits(),
                        want.to_bits(),
                        "{ctx}/{form}: {:e} vs {want:e}",
                        got.objective
                    );
                }
            });
        }
    }
}

/// The member sweep runs four cells side by side and a 3-, 2- or 1-wide
/// remainder group; the e2e workloads (d = 20 and 100) never reach the
/// remainders. Every dimensionality here does, for the fused pass (all
/// `d` dims), cluster-`X` (all `d` dims) and the evaluator (each
/// `|Dᵢ|`), on tie-heavy data whose last tile is partial.
/// The last medoid has a NaN coordinate, so its locality must fall
/// back to size 1 with a zero `X` row. Each round-cache pass runs cold,
/// then from cache, at threads 1 and 4.
#[test]
fn member_sweeps_match_references_at_every_remainder_width() {
    let metric = DistanceKind::Manhattan;
    for d in [1usize, 2, 3, 5, 6, 7] {
        for n in [1usize, 1023, 1025, 2049] {
            let mut points = tie_heavy(n, d, 40 + (n * d) as u64);
            let medoids: Vec<usize> = if n == 1 {
                vec![0]
            } else {
                vec![0, n / 3, 2 * n / 3, n - 1]
            };
            let k = medoids.len();
            if k > 1 {
                let mut data = points.as_slice().to_vec();
                data[(n - 1) * d + d - 1] = f64::NAN;
                points = Matrix::from_vec(data, n, d);
            }
            let mut rng = StdRng::seed_from_u64(d as u64);
            let dims: Vec<Vec<usize>> = (0..k)
                .map(|i| rand::seq::index::sample(&mut rng, d, d - i % d).into_vec())
                .collect();
            let deltas = medoid_deltas(&points, &medoids, metric);
            let spheres: Vec<f64> = deltas.iter().map(|v| v * 0.8).collect();
            let want = reference(&points, metric, &medoids, &dims, &deltas, &spheres);
            let localities =
                proclus::core::locality::localities(&points, &medoids, &deltas, metric);
            let locality_sizes: Vec<usize> = localities.iter().map(Vec::len).collect();
            assert_eq!(
                want.fused.0, locality_sizes,
                "d={d} n={n}: fused oracle sizes"
            );
            if k > 1 {
                assert_eq!(want.fused.0[k - 1], 1, "d={d} n={n}: NaN medoid size");
                assert!(
                    want.fused.1[k - 1].iter().all(|&v| v.to_bits() == 0),
                    "d={d} n={n}: NaN medoid X row"
                );
            }
            for threads in [1usize, 4] {
                let ctx = format!("d={d}/n={n}/t{threads}");
                with_pool(&points, metric, threads, |pool| {
                    let mut cache = RoundCache::new(k);
                    for pass in ["cold", "hit"] {
                        let ctx = format!("{ctx}/{pass}");
                        let (sizes, x) = cache.fused_round(pool, &medoids, &deltas);
                        assert_eq!(want.fused.0, sizes, "{ctx}: locality sizes");
                        assert_bits_eq(&want.fused.1, &x, &format!("{ctx}: locality X"));
                        let (winners, cx) = cache.assign(pool, &medoids, &dims, true);
                        assert_eq!(want.assign, winners, "{ctx}: assign+X winners");
                        let cx = cx.expect("X asked for");
                        assert_bits_eq(&want.cluster_x, &cx, &format!("{ctx}: cluster X"));
                    }
                    let stats = cache.stats();
                    assert_eq!(
                        (stats.fused_slot_hits, stats.column_hits),
                        (k as u64, k as u64)
                    );
                    let round: Vec<Option<usize>> = want.assign.iter().map(|&a| Some(a)).collect();
                    for (form, labels) in [("round", &round), ("final", &want.refined)] {
                        let clusters = group_members(labels, k);
                        let oracle = evaluate_clusters(&points, &clusters, &dims, n);
                        let got = if form == "round" {
                            pool.evaluate(&want.assign, &dims)
                        } else {
                            pool.evaluate(labels, &dims)
                        };
                        let sizes: Vec<usize> = clusters.iter().map(Vec::len).collect();
                        assert_eq!(got.sizes, sizes, "{ctx}/{form}: sizes");
                        assert!(
                            got.objective.to_bits() == oracle.to_bits()
                                || (got.objective.is_nan() && oracle.is_nan()),
                            "{ctx}/{form}: {:e} vs {oracle:e}",
                            got.objective
                        );
                    }
                });
            }
        }
    }
}
