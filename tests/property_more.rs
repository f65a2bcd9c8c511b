//! Second property-test battery: serialization, selection helpers,
//! eigensolver invariants, silhouette bounds, agreement-index sanity
//! under random inputs, and metamorphic relations of the clustering
//! algorithms themselves (permutation equivariance, scale invariance).
//! Driven by seeded randomized case loops (no registry access in the
//! build environment, so no proptest).

use proclus::data::binio::{decode, encode};
use proclus::data::Label;
use proclus::eval::{adjusted_rand_index, normalized_mutual_information, projected_silhouette};
use proclus::math::linalg::{covariance_of, jacobi_eigen};
use proclus::math::order::{k_smallest_indices, kth_smallest, ranks};
use proclus::math::{DistanceKind, Matrix};
use proclus::orclus::Orclus;
use proclus::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn binio_roundtrips_arbitrary_matrices() {
    for case in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x20AA_0000 + case);
        let rows = rng.random_range(0..20usize);
        let cols = rng.random_range(1..8usize);
        let with_labels: bool = rng.random();
        let data: Vec<f64> = (0..rows * cols)
            .map(|_| rng.random_range(-1e6..1e6f64))
            .collect();
        let m = Matrix::from_vec(data, rows, cols);
        let labels: Option<Vec<Label>> = with_labels.then(|| {
            (0..rows)
                .map(|i| {
                    if i % 5 == 0 {
                        Label::Outlier
                    } else {
                        Label::Cluster(i % 3)
                    }
                })
                .collect()
        });
        let bytes = encode(&m, labels.as_deref()).unwrap();
        let (m2, l2) = decode(&bytes).unwrap();
        assert_eq!(m, m2);
        assert_eq!(labels, l2);
    }
}

#[test]
fn binio_rejects_any_truncation() {
    for case in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x21BB_0000 + case);
        let rows = rng.random_range(1..6usize);
        let cols = rng.random_range(1..4usize);
        let cut_fraction = rng.random_range(0.0..1.0f64);
        let m = Matrix::zeros(rows, cols);
        let bytes = encode(&m, None).unwrap();
        let cut = ((bytes.len() - 1) as f64 * cut_fraction) as usize;
        assert!(decode(&bytes[..cut]).is_err());
    }
}

#[test]
fn kth_smallest_matches_sorting() {
    for case in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x22CC_0000 + case);
        let n = rng.random_range(1..60usize);
        let mut xs: Vec<f64> = (0..n).map(|_| rng.random_range(-1e6..1e6f64)).collect();
        let k_frac = rng.random_range(0.0..1.0f64);
        let k = ((xs.len() - 1) as f64 * k_frac) as usize;
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let got = kth_smallest(&mut xs, k).unwrap();
        assert_eq!(got, sorted[k]);
    }
}

#[test]
fn k_smallest_indices_are_the_k_smallest() {
    for case in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x23DD_0000 + case);
        let n = rng.random_range(1..40usize);
        let xs: Vec<f64> = (0..n).map(|_| rng.random_range(-1e6..1e6f64)).collect();
        let k_frac = rng.random_range(0.0..1.0f64);
        let k = (xs.len() as f64 * k_frac) as usize;
        let idx = k_smallest_indices(&xs, k);
        assert_eq!(idx.len(), k.min(xs.len()));
        // Every selected value <= every unselected value.
        let selected: Vec<f64> = idx.iter().map(|&i| xs[i]).collect();
        let max_sel = selected.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for (i, &v) in xs.iter().enumerate() {
            if !idx.contains(&i) {
                assert!(v >= max_sel - 1e-12);
            }
        }
    }
}

#[test]
fn ranks_are_consistent() {
    for case in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x24EE_0000 + case);
        let n = rng.random_range(0..40usize);
        let xs: Vec<f64> = (0..n)
            .map(|_| rng.random_range(-100..100i32) as f64)
            .collect();
        let r = ranks(&xs);
        for (i, &x) in xs.iter().enumerate() {
            let smaller = xs.iter().filter(|&&y| y < x).count();
            assert_eq!(r[i], smaller);
        }
    }
}

#[test]
fn agreement_indices_stay_in_range() {
    for case in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x25FF_0000 + case);
        let n = rng.random_range(2..80usize);
        let a: Vec<Option<usize>> = (0..n).map(|_| Some(rng.random_range(0..4usize))).collect();
        let b: Vec<Option<usize>> = (0..n).map(|_| Some(rng.random_range(0..4usize))).collect();
        let ari = adjusted_rand_index(&a, &b).unwrap();
        let nmi = normalized_mutual_information(&a, &b).unwrap();
        assert!((-1.0..=1.0).contains(&ari), "ARI {ari}");
        assert!((0.0..=1.0).contains(&nmi), "NMI {nmi}");
        // Self-agreement is perfect.
        assert!((adjusted_rand_index(&a, &a).unwrap() - 1.0).abs() < 1e-12);
    }
}

#[test]
fn silhouette_stays_in_range() {
    for case in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x2600_0000 + case);
        let len = rng.random_range(12..60usize);
        let coords: Vec<f64> = (0..len).map(|_| rng.random_range(0.0..100.0f64)).collect();
        let split_frac = rng.random_range(0.1..0.9f64);
        let n = coords.len() / 2;
        let m = Matrix::from_vec(coords[..n * 2].to_vec(), n, 2);
        let split = ((n as f64 * split_frac) as usize).clamp(1, n - 1);
        let clusters = vec![
            ((0..split).collect::<Vec<_>>(), vec![0, 1]),
            ((split..n).collect::<Vec<_>>(), vec![0]),
        ];
        let s = projected_silhouette(&m, &clusters, DistanceKind::Manhattan, 32);
        assert!((-1.0..=1.0).contains(&s), "silhouette {s}");
    }
}

#[test]
fn jacobi_invariants_on_random_covariances() {
    for case in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(0x2711_0000 + case);
        let n = rng.random_range(10..40usize);
        let d = rng.random_range(2..7usize);
        // Covariance of pseudo-random points: symmetric PSD.
        let data: Vec<f64> = (0..n * d)
            .map(|_| rng.random_range(0.0..100.0f64))
            .collect();
        let m = Matrix::from_vec(data, n, d);
        let members: Vec<usize> = (0..n).collect();
        let cov = covariance_of(&m, &members);
        let e = jacobi_eigen(&cov);
        // Ascending, non-negative (PSD) eigenvalues.
        for w in e.values.windows(2) {
            assert!(w[0] <= w[1] + 1e-9);
        }
        for &v in &e.values {
            assert!(v >= -1e-6, "negative eigenvalue {v}");
        }
        // Orthonormal eigenvectors.
        for i in 0..d {
            for j in 0..d {
                let dot: f64 = e
                    .vectors
                    .row(i)
                    .iter()
                    .zip(e.vectors.row(j))
                    .map(|(x, y)| x * y)
                    .sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-7);
            }
        }
        // Trace preservation: sum of eigenvalues = trace of covariance.
        let trace: f64 = (0..d).map(|i| cov.get(i, i)).sum();
        let sum: f64 = e.values.iter().sum();
        assert!((trace - sum).abs() < 1e-6 * trace.abs().max(1.0));
    }
}

// ---------------------------------------------------------------------
// Metamorphic relations of the clustering algorithms. These compare
// *discrete* outputs (assignments, chosen dimensions) exactly and
// objectives with the transformation applied, so they hold despite
// floating-point reassociation.

/// Apply a row permutation: row `p` of the result is row `perm[p]` of
/// the input.
fn permute_rows(m: &Matrix, perm: &[usize]) -> Matrix {
    let d = m.cols();
    let mut data = Vec::with_capacity(m.rows() * d);
    for &src in perm {
        data.extend_from_slice(m.row(src));
    }
    Matrix::from_vec(data, m.rows(), d)
}

/// Uniformly scale every coordinate. With a power-of-two factor the
/// scaling is *exact* in IEEE arithmetic (it only shifts exponents), so
/// every distance comparison the algorithms make is preserved bit for
/// bit and assignments must come out identical.
fn scale_rows(m: &Matrix, factor: f64) -> Matrix {
    let data: Vec<f64> = m
        .iter_rows()
        .flat_map(|r| r.iter().map(|&v| v * factor))
        .collect();
    Matrix::from_vec(data, m.rows(), m.cols())
}

/// PROCLUS is equivariant under point permutation: relabeling the rows
/// (and mapping the pinned initial medoids along) relabels the output
/// assignment the same way and chooses the same dimension sets.
#[test]
fn proclus_is_permutation_equivariant() {
    for case in 0..4u64 {
        let data = SyntheticSpec::new(800, 8, 2, 3.0)
            .seed(0x3000 + case)
            .generate();
        let n = data.points.rows();
        // A fixed derangement-ish permutation: reverse, then swap pairs.
        let mut perm: Vec<usize> = (0..n).rev().collect();
        perm.swap(0, n / 2);
        let permuted = permute_rows(&data.points, &perm);
        // perm maps new index -> old index; medoids carry old indices.
        let medoids_old = [3usize, n - 7];
        let inv = {
            let mut inv = vec![0usize; n];
            for (new, &old) in perm.iter().enumerate() {
                inv[old] = new;
            }
            inv
        };
        let medoids_new: Vec<usize> = medoids_old.iter().map(|&m| inv[m]).collect();

        // One round, no swaps: the climb is a pure function of the
        // starting medoids, so the two runs walk the same path.
        let params = Proclus::new(2, 3.0).max_rounds(1);
        let a = params
            .fit_with_initial_medoids(&data.points, &medoids_old)
            .unwrap();
        let b = params
            .fit_with_initial_medoids(&permuted, &medoids_new)
            .unwrap();

        // Same dimension sets, cluster by cluster.
        let adims: Vec<&[usize]> = a
            .clusters()
            .iter()
            .map(|c| c.dimensions.as_slice())
            .collect();
        let bdims: Vec<&[usize]> = b
            .clusters()
            .iter()
            .map(|c| c.dimensions.as_slice())
            .collect();
        assert_eq!(adims, bdims, "case {case}");
        // Equivariant assignment: new point `p` is old point `perm[p]`.
        for (new, &old) in perm.iter().enumerate() {
            assert_eq!(
                b.assignment()[new],
                a.assignment()[old],
                "case {case}: point {old} changed cluster under permutation"
            );
        }
        // Objectives agree up to summation order.
        let scale = a.objective().abs().max(1.0);
        assert!(
            (a.objective() - b.objective()).abs() < 1e-9 * scale,
            "case {case}: {} vs {}",
            a.objective(),
            b.objective()
        );
    }
}

/// Uniform power-of-two scaling leaves every PROCLUS decision intact
/// (distances scale exactly) and multiplies the objective by the same
/// factor.
#[test]
fn proclus_is_scale_invariant_up_to_objective() {
    const FACTOR: f64 = 4.0;
    for case in 0..4u64 {
        let data = SyntheticSpec::new(1_000, 9, 3, 3.0)
            .seed(0x3100 + case)
            .generate();
        let scaled = scale_rows(&data.points, FACTOR);
        let params = Proclus::new(3, 3.0).seed(11 + case).restarts(2);
        let a = params.fit(&data.points).unwrap();
        let b = params.fit(&scaled).unwrap();
        assert_eq!(a.assignment(), b.assignment(), "case {case}");
        let adims: Vec<&[usize]> = a
            .clusters()
            .iter()
            .map(|c| c.dimensions.as_slice())
            .collect();
        let bdims: Vec<&[usize]> = b
            .clusters()
            .iter()
            .map(|c| c.dimensions.as_slice())
            .collect();
        assert_eq!(adims, bdims, "case {case}");
        assert_eq!(
            a.objective() * FACTOR,
            b.objective(),
            "case {case}: objective must scale exactly with the data"
        );
    }
}

/// The same exact-scaling relation for ORCLUS: the covariance scales
/// by `FACTOR²`, which rescales eigenvalues but not the rotation
/// decisions, so assignments match and the (root-mean-square) projected
/// objective scales by `FACTOR`.
#[test]
fn orclus_is_scale_invariant_up_to_objective() {
    const FACTOR: f64 = 4.0;
    for case in 0..3u64 {
        let data = SyntheticSpec::new(600, 7, 3, 3.0)
            .seed(0x3200 + case)
            .generate();
        let scaled = scale_rows(&data.points, FACTOR);
        let a = Orclus::new(3, 3).seed(5 + case).fit(&data.points).unwrap();
        let b = Orclus::new(3, 3).seed(5 + case).fit(&scaled).unwrap();
        assert_eq!(a.assignment, b.assignment, "case {case}");
        let scale = a.objective.abs().max(1e-12);
        assert!(
            (a.objective * FACTOR - b.objective).abs() < 1e-9 * scale,
            "case {case}: {} vs {}",
            a.objective,
            b.objective
        );
    }
}

/// Tie-breaking audit: "ties go to the lower cluster index" must hold
/// identically on every assignment path — the scalar loop and the round
/// cache's argmin over distance columns at 1 and 4 threads (cold, then
/// served from cache). Quantized
/// integer coordinates make exact distance ties common (including
/// duplicated medoid rows), so any path that resolved ties by
/// evaluation order instead of cluster index would diverge here.
#[test]
fn tie_breaking_is_identical_across_all_assignment_paths() {
    use proclus::core::assign::assign_points;
    use proclus::core::cache::RoundCache;
    use proclus::core::pool::with_pool;

    for metric in [
        DistanceKind::Manhattan,
        DistanceKind::Euclidean,
        DistanceKind::Chebyshev,
    ] {
        for case in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(0x71E_0000 + case);
            let n = 300;
            let d = 5;
            // Coordinates on a tiny integer grid: ties everywhere.
            let data: Vec<f64> = (0..n * d)
                .map(|_| f64::from(rng.random_range(0u32..4)))
                .collect();
            let m = Matrix::from_vec(data, n, d);
            // Duplicated grid points mean some medoids coincide too.
            let medoids: Vec<usize> = vec![
                rng.random_range(0..n / 4),
                rng.random_range(n / 4..n / 2),
                rng.random_range(n / 2..3 * n / 4),
                rng.random_range(3 * n / 4..n),
            ];
            let dims: Vec<Vec<usize>> = (0..medoids.len())
                .map(|_| {
                    let a = rng.random_range(0..d);
                    let b = (a + 1 + rng.random_range(0..d - 1)) % d;
                    let mut v = vec![a, b];
                    v.sort_unstable();
                    v.dedup();
                    v
                })
                .collect();

            // The reference: scalar exact loop (strict `<`, first wins).
            let reference = assign_points(&m, &medoids, &dims, metric);

            // The ties must actually occur, or the test is inert.
            let tied = (0..n)
                .filter(|&p| {
                    let dists: Vec<f64> = medoids
                        .iter()
                        .zip(&dims)
                        .map(|(&md, di)| metric.eval_segmental(m.row(p), m.row(md), di))
                        .collect();
                    let min = dists.iter().cloned().fold(f64::INFINITY, f64::min);
                    dists.iter().filter(|&&x| x == min).count() > 1
                })
                .count();
            assert!(tied > 0, "{metric:?} case {case}: no ties generated");

            // Pool paths at 1 and 4 threads: the round cache computing
            // its columns, then serving them.
            for threads in [1usize, 4] {
                let (fresh, cached) = with_pool(&m, metric, threads, |pool| {
                    let mut cache = RoundCache::new(medoids.len());
                    let fresh = cache.assign(pool, &medoids, &dims, false).0;
                    let cached = cache.assign(pool, &medoids, &dims, false).0;
                    assert_eq!(cache.stats().column_hits, medoids.len() as u64);
                    (fresh, cached)
                });
                assert_eq!(
                    reference, fresh,
                    "{metric:?} case {case}: cache t={threads}"
                );
                assert_eq!(reference, cached, "{metric:?} case {case}: hit t={threads}");
            }

            // Refinement path: the sphere-gated assignment breaks its
            // nearest-medoid ties the same way on every path.
            let spheres = proclus::core::refine::spheres_of_influence(&m, &medoids, &dims, metric);
            let reference_refine = with_pool(&m, metric, 1, |pool| {
                pool.refine_assign(&medoids, &dims, &spheres)
            });
            let got = with_pool(&m, metric, 4, |pool| {
                pool.refine_assign(&medoids, &dims, &spheres)
            });
            assert_eq!(reference_refine, got, "{metric:?} case {case}: refine t=4");
            // Non-outliers follow the scalar winner exactly.
            for (p, r) in reference_refine.iter().enumerate() {
                if let Some(c) = r {
                    assert_eq!(*c, reference[p], "{metric:?} case {case}: point {p}");
                }
            }
        }
    }
}

/// k-means under exact scaling: identical assignments, cost scaled.
#[test]
fn kmeans_is_scale_invariant_up_to_cost() {
    use proclus::baselines::KMeans;
    const FACTOR: f64 = 0.25;
    for case in 0..4u64 {
        let data = SyntheticSpec::new(500, 6, 3, 3.0)
            .seed(0x3300 + case)
            .generate();
        let scaled = scale_rows(&data.points, FACTOR);
        let a = KMeans::new(3).seed(case).fit(&data.points).unwrap();
        let b = KMeans::new(3).seed(case).fit(&scaled).unwrap();
        assert_eq!(a.assignment, b.assignment, "case {case}");
        let scale = a.cost.abs().max(1e-12);
        assert!(
            (a.cost * FACTOR - b.cost).abs() < 1e-9 * scale,
            "case {case}: {} vs {}",
            a.cost,
            b.cost
        );
    }
}
