//! Columnar-layout equivalence tier: the dimension-major blocked
//! kernels must be **bit-identical** to the row-major originals for
//! every pooled pass, metric, and thread count — on matrices built to
//! expose any deviation (exact distance ties, duplicated rows, mixed
//! 1e±9 magnitudes) — and the opt-in `f32` fast path must leave the
//! recorded event stream byte-identical.

use proclus::core::assign::group_members;
use proclus::core::evaluate::evaluate_clusters;
use proclus::core::locality::medoid_deltas;
use proclus::core::pool::{with_pool_opts, PoolOptions};
use proclus::obs::JsonlRecorder;
use proclus::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("proclus-colmn-{name}-{}", std::process::id()))
}

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

/// Every pooled pass with the columnar layout on must equal the
/// row-major pool bit for bit — across 3 metrics, 3 adversarial
/// matrix families, and thread counts 1/2/8.
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
            let run = |columnar: bool, threads: usize| {
                let opts = PoolOptions {
                    columnar,
                    fast_math: false,
                };
                with_pool_opts(&points, metric, threads, opts, |pool| {
                    let fused = pool.fused_round(&medoids, &deltas);
                    let assign = pool.assign(&medoids, &dims);
                    let assign_x = pool.assign_x(&medoids, &dims);
                    let refined = pool.refine_assign(&medoids, &dims, &spheres);
                    let cluster_x = pool.cluster_x(&medoids, Arc::new(refined.clone()));
                    (fused, assign, assign_x, refined, cluster_x)
                })
            };
            let baseline = run(false, 1);
            for threads in [1usize, 2, 8] {
                let ctx = format!("{family}/{metric:?}/t{threads}");
                let got = run(true, threads);
                assert_eq!(baseline.0 .0, got.0 .0, "{ctx}: localities");
                assert_bits_eq(&baseline.0 .1, &got.0 .1, &format!("{ctx}: locality X"));
                assert_eq!(baseline.1, got.1, "{ctx}: assignment");
                assert_eq!(baseline.2 .0, got.2 .0, "{ctx}: assign+X winners");
                assert_bits_eq(&baseline.2 .1, &got.2 .1, &format!("{ctx}: assign+X sums"));
                assert_eq!(baseline.3, got.3, "{ctx}: refine assignment");
                assert_bits_eq(&baseline.4, &got.4, &format!("{ctx}: cluster X"));
            }
        }
    }
}

/// `Pool::evaluate` — the one production evaluator, for both the
/// per-round objective (flat labels) and the final objective (labels
/// with outliers) — must equal the `evaluate_clusters` oracle bit for
/// bit at threads 1/2/8, over the tiles and without them.
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
        let oracle = |labels: &[Option<usize>]| {
            let clusters = group_members(labels, dims.len());
            let sizes: Vec<usize> = clusters.iter().map(Vec::len).collect();
            (evaluate_clusters(&points, &clusters, &dims, n), sizes)
        };
        for columnar in [true, false] {
            for threads in [1usize, 2, 8] {
                let ctx = format!("{family}/columnar={columnar}/t{threads}");
                let opts = PoolOptions {
                    columnar,
                    fast_math: false,
                };
                with_pool_opts(&points, metric, threads, opts, |pool| {
                    let flat = pool.assign(&medoids, &dims);
                    let refined = pool.refine_assign(&medoids, &dims, &spheres);
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
}

/// The `f32` fast path is exactness-gated: a traced fit with
/// `fast_math(true)` must produce a byte-identical `events.jsonl` to
/// the default fit — every locality, swap, assignment, and objective
/// event equal element for element. The round cache is disabled so the
/// assignment passes evaluate distances directly and the screen
/// actually engages (with the cache on, assignment is served from
/// cached exact columns and there is no per-pair work to screen).
#[test]
fn fast_math_fit_event_stream_is_byte_identical() {
    let data = SyntheticSpec::new(1_500, 10, 3, 3.0).seed(404).generate();
    let run = |fast: bool, tag: &str| {
        let dir = tmp(tag);
        let _ = std::fs::remove_dir_all(&dir);
        let rec = JsonlRecorder::create(&dir).expect("recorder");
        Proclus::new(3, 3.0)
            .seed(17)
            .restarts(2)
            .round_cache(false)
            .fast_math(fast)
            .fit_traced(&data.points, &rec)
            .expect("fit");
        rec.finish(
            proclus::obs::json::Json::Obj(Vec::new()),
            proclus::obs::json::Json::Obj(Vec::new()),
        )
        .expect("finish");
        let events = std::fs::read(dir.join(proclus::obs::EVENTS_FILE)).expect("events");
        let manifest =
            std::fs::read_to_string(dir.join(proclus::obs::MANIFEST_FILE)).expect("manifest");
        std::fs::remove_dir_all(&dir).ok();
        (events, manifest)
    };
    let (default_events, default_manifest) = run(false, "default");
    let (fast_events, fast_manifest) = run(true, "fast");
    assert_eq!(
        default_events, fast_events,
        "fast-math changed the event stream"
    );
    // The measurement channel differs by design: the gated run reports
    // its work-saved counters, the default run must not.
    assert!(
        fast_manifest.contains("fastmath.screened"),
        "{fast_manifest}"
    );
    assert!(
        !default_manifest.contains("fastmath."),
        "{default_manifest}"
    );
    // The screen must have genuinely run: a zero screened count would
    // mean the byte-equality above proved nothing about the gate.
    let screened = counter_value(&fast_manifest, "fastmath.screened");
    let excluded = counter_value(&fast_manifest, "fastmath.excluded");
    let verified = counter_value(&fast_manifest, "fastmath.verified");
    assert!(screened > 0, "fast path never engaged: {fast_manifest}");
    assert_eq!(screened, excluded + verified, "{fast_manifest}");
}

/// Pull a `"name": <integer>` counter out of the run manifest.
fn counter_value(manifest: &str, name: &str) -> u64 {
    let key = format!("\"{name}\"");
    let at = manifest.find(&key).unwrap_or_else(|| {
        panic!("counter {name} missing from manifest: {manifest}");
    });
    manifest[at + key.len()..]
        .trim_start_matches([':', ' '])
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|e| panic!("counter {name} unparsable: {e}"))
}

/// Chebyshev exercises the `f32` max-reduction screen; the event
/// stream must still be byte-identical.
#[test]
fn fast_math_is_exact_under_chebyshev_too() {
    let data = SyntheticSpec::new(900, 8, 2, 3.0).seed(11).generate();
    let run = |fast: bool, tag: &str| {
        let dir = tmp(tag);
        let _ = std::fs::remove_dir_all(&dir);
        let rec = JsonlRecorder::create(&dir).expect("recorder");
        Proclus::new(2, 3.0)
            .seed(5)
            .restarts(1)
            .round_cache(false)
            .distance(DistanceKind::Chebyshev)
            .fast_math(fast)
            .fit_traced(&data.points, &rec)
            .expect("fit");
        rec.finish(
            proclus::obs::json::Json::Obj(Vec::new()),
            proclus::obs::json::Json::Obj(Vec::new()),
        )
        .expect("finish");
        let events = std::fs::read(dir.join(proclus::obs::EVENTS_FILE)).expect("events");
        std::fs::remove_dir_all(&dir).ok();
        events
    };
    assert_eq!(run(false, "cheb-default"), run(true, "cheb-fast"));
}
