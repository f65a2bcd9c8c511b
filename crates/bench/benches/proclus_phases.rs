//! Phase-level microbenchmarks for PROCLUS: greedy initialization,
//! locality analysis, FindDimensions, AssignPoints, and cluster
//! evaluation, each on a fixed mid-size dataset. Together these account
//! for one hill-climbing round; Figure 7/8/9 shapes follow from how
//! their costs scale in N, l, and d.
//!
//! Two further groups measure the round-level optimizations:
//!
//! * `round_pass/10k` — the historical two-sweep locality + X
//!   computation vs the fused single-sweep pass of a cold round cache,
//!   both serial.
//! * `pooled_round/100k` — one full cold hill-climbing round (fused
//!   pass → FindDimensions → assignment) through a fresh round cache
//!   and the persistent worker pool at 1, 2, 4, and 8 threads on a
//!   paper-scale dataset; the per-round speedup at `threads ≥ 4` is the
//!   pool's acceptance bar. Override the dataset size with
//!   `PROCLUS_BENCH_N`.
//! * `cached_round/*` — steady-state swap-light rounds through one
//!   round cache vs a fresh (cold) cache every round; writes
//!   `BENCH_4.json`.
//! * `columnar_round/*` — one round through the row-major reference
//!   kernels vs a cold round cache over the pool's dimension-major
//!   (columnar) kernels at N = 1M on a `projected` and a `separable`
//!   fixture; writes `BENCH_6.json`.
//! * `trace_overhead/2k` — a full `fit` with the default no-op
//!   recorder vs an explicit `fit_traced(.., &NoopRecorder)` vs a live
//!   `RingRecorder`. The first two must be indistinguishable (the
//!   no-overhead policy of DESIGN.md §Observability); the ring shows
//!   what enabling tracing costs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use proclus_core::assign::assign_points;
use proclus_core::cache::RoundCache;
use proclus_core::dims::{
    average_dimension_distances, find_dimensions, find_dimensions_from_averages,
};
use proclus_core::greedy::greedy_select;
use proclus_core::locality::{localities, medoid_deltas};
use proclus_core::pool::with_pool;
use proclus_data::SyntheticSpec;
use proclus_math::DistanceKind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_phases(c: &mut Criterion) {
    // Heavy fixtures: keep criterion's sampling modest.
    let data = SyntheticSpec::new(10_000, 20, 5, 5.0)
        .fixed_dims(vec![5; 5])
        .seed(7)
        .generate();
    let points = &data.points;
    let metric = DistanceKind::Manhattan;
    let candidates: Vec<usize> = (0..points.rows()).step_by(7).collect();

    c.bench_function("greedy_select/sample->15", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(3);
            black_box(greedy_select(points, &candidates, 15, &metric, &mut rng))
        })
    });

    // A plausible medoid set for the downstream phases.
    let mut rng = StdRng::seed_from_u64(3);
    let medoids = greedy_select(points, &candidates, 5, &metric, &mut rng);

    c.bench_function("medoid_deltas+localities/10k", |b| {
        b.iter(|| {
            let deltas = medoid_deltas(points, &medoids, metric);
            black_box(localities(points, &medoids, &deltas, metric))
        })
    });

    let deltas = medoid_deltas(points, &medoids, metric);
    let locs = localities(points, &medoids, &deltas, metric);

    c.bench_function("find_dimensions/10k", |b| {
        b.iter(|| black_box(find_dimensions(points, &medoids, &locs, 25)))
    });

    let dims = find_dimensions(points, &medoids, &locs, 25);

    c.bench_function("assign_points/10k", |b| {
        b.iter(|| black_box(assign_points(points, &medoids, &dims, metric)))
    });

    let flat = assign_points(points, &medoids, &dims, metric);

    with_pool(points, metric, 1, |pool| {
        c.bench_function("evaluate/10k", |b| {
            b.iter(|| black_box(pool.evaluate(&flat, &dims)))
        });
    });
}

/// CPUs available to this process, recorded in the BENCH files'
/// caveats (0 when the host does not say).
fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

/// Fused single-sweep locality + `X` pass vs the historical two-sweep
/// version (`localities` followed by `average_dimension_distances`),
/// both serial, so the comparison isolates the fusion itself. The
/// fused side is a cold round cache, so every iteration runs the sweep.
fn bench_fused_vs_unfused(c: &mut Criterion) {
    let data = SyntheticSpec::new(10_000, 20, 5, 5.0)
        .fixed_dims(vec![5; 5])
        .seed(7)
        .generate();
    let points = &data.points;
    let metric = DistanceKind::Manhattan;
    let candidates: Vec<usize> = (0..points.rows()).step_by(7).collect();
    let mut rng = StdRng::seed_from_u64(3);
    let medoids = greedy_select(points, &candidates, 5, &metric, &mut rng);
    let deltas = medoid_deltas(points, &medoids, metric);

    let mut group = c.benchmark_group("round_pass/10k");
    group.bench_function("unfused_two_sweeps", |b| {
        b.iter(|| {
            let locs = localities(points, &medoids, &deltas, metric);
            black_box(average_dimension_distances(points, &medoids, &locs))
        })
    });
    group.bench_function("fused_single_sweep", |b| {
        with_pool(points, metric, 1, |pool| {
            b.iter(|| {
                let mut cache = RoundCache::new(medoids.len());
                black_box(cache.fused_round(pool, &medoids, &deltas))
            })
        })
    });
    group.finish();
}

/// One full cold hill-climbing round (fused pass → FindDimensions →
/// assignment) through a fresh round cache and a persistent pool,
/// across thread counts, on a paper-scale dataset. The pool is created
/// once outside the timing loop — exactly how `fit` uses it — so the
/// numbers reflect per-round cost, not thread spawning.
fn bench_pooled_round_throughput(c: &mut Criterion) {
    let n: usize = std::env::var("PROCLUS_BENCH_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000);
    let data = SyntheticSpec::new(n, 20, 5, 5.0)
        .fixed_dims(vec![5; 5])
        .seed(7)
        .generate();
    let points = &data.points;
    let metric = DistanceKind::Manhattan;
    let candidates: Vec<usize> = (0..points.rows()).step_by(31).collect();
    let mut rng = StdRng::seed_from_u64(3);
    let medoids = greedy_select(points, &candidates, 5, &metric, &mut rng);
    let deltas = medoid_deltas(points, &medoids, metric);

    let mut group = c.benchmark_group(format!("pooled_round/{n}"));
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                with_pool(points, metric, threads, |pool| {
                    b.iter(|| {
                        let mut cache = RoundCache::new(medoids.len());
                        let (_sizes, x) = cache.fused_round(pool, &medoids, &deltas);
                        let dims = find_dimensions_from_averages(&x, 25, true);
                        black_box(cache.assign(pool, &medoids, &dims))
                    })
                })
            },
        );
    }
    group.finish();
}

/// One swap-light hill-climbing round as `fit` executes it, routed
/// through the round cache: δ recomputation, fused locality + X pass,
/// FindDimensions, fused assignment + cluster X, cluster-based
/// FindDimensions, final assignment.
fn cached_round(
    pool: &mut proclus_core::pool::Pool<'_>,
    cache: &mut RoundCache,
    points: &proclus_math::Matrix,
    medoids: &[usize],
    metric: DistanceKind,
    total_dims: usize,
) -> usize {
    let deltas = medoid_deltas(points, medoids, metric);
    let (_sizes, x) = cache.fused_round(pool, medoids, &deltas);
    let dims = find_dimensions_from_averages(&x, total_dims, true);
    let (flat, cx) = cache.assign_x(pool, medoids, &dims);
    let dims2 = find_dimensions_from_averages(&cx, total_dims, true);
    let flat2 = cache.assign(pool, medoids, &dims2);
    flat.len() + flat2[0] + flat2[flat2.len() - 1]
}

/// Cached vs uncached steady-state round cost on the swap-light
/// workload the hill climb actually produces (one bad medoid replaced
/// per round, everything else unchanged): `N` = 100k (override with
/// `PROCLUS_BENCH_N`), d = 20, k = 5. The cached side keeps one round
/// cache across rounds, as `fit` does; the uncached side starts every
/// round from a fresh cache, so each round runs cold through the same
/// kernels. Criterion reports both; the same fixture is then measured
/// manually and written to `BENCH_4.json` (override the path with
/// `PROCLUS_BENCH_OUT`) with the cached-over-uncached speedup, since
/// the vendored criterion shim has no JSON output of its own.
fn bench_cached_vs_uncached_round(c: &mut Criterion) {
    let n: usize = std::env::var("PROCLUS_BENCH_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000);
    let (d, k, total_dims) = (20usize, 5usize, 25usize);
    let data = SyntheticSpec::new(n, d, k, 5.0)
        .fixed_dims(vec![5; k])
        .seed(7)
        .generate();
    let points = &data.points;
    let metric = DistanceKind::Manhattan;
    let candidates: Vec<usize> = (0..points.rows()).step_by(31).collect();
    let mut rng = StdRng::seed_from_u64(3);
    let initial = greedy_select(points, &candidates, k, &metric, &mut rng);
    // Fresh replacement medoids for the per-round swap, disjoint from
    // the initial set.
    let fresh: Vec<usize> = (0..points.rows())
        .step_by(97)
        .filter(|p| !initial.contains(p))
        .collect();

    // One measured pass: a warm-up round to populate the cache (the
    // climb's first round — cold either way), then `rounds` rounds
    // each preceded by a single bad-medoid swap. Returns mean seconds
    // per steady-state round.
    let run_rounds = |cache_on: bool, rounds: usize| -> f64 {
        with_pool(points, metric, 1, |pool| {
            let mut cache = RoundCache::new(k);
            let mut medoids = initial.clone();
            black_box(cached_round(
                pool, &mut cache, points, &medoids, metric, total_dims,
            ));
            let start = std::time::Instant::now();
            for r in 0..rounds {
                medoids[r % k] = fresh[r % fresh.len()];
                if !cache_on {
                    cache = RoundCache::new(k);
                }
                black_box(cached_round(
                    pool, &mut cache, points, &medoids, metric, total_dims,
                ));
            }
            start.elapsed().as_secs_f64() / rounds as f64
        })
    };

    let mut group = c.benchmark_group(format!("cached_round/{n}"));
    for (label, cache_on) in [("uncached", false), ("cached", true)] {
        group.bench_function(label, |b| {
            with_pool(points, metric, 1, |pool| {
                let mut cache = RoundCache::new(k);
                let mut medoids = initial.clone();
                let mut r = 0usize;
                b.iter(|| {
                    medoids[r % k] = fresh[r % fresh.len()];
                    r += 1;
                    if !cache_on {
                        cache = RoundCache::new(k);
                    }
                    black_box(cached_round(
                        pool, &mut cache, points, &medoids, metric, total_dims,
                    ))
                })
            })
        });
    }
    group.finish();

    let rounds: usize = std::env::var("PROCLUS_BENCH_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10);
    let uncached = run_rounds(false, rounds);
    let cached = run_rounds(true, rounds);
    let speedup = uncached / cached;
    let out = std::env::var("PROCLUS_BENCH_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_4.json").to_string());
    let json = format!(
        "{{\n  \"bench\": \"cached_vs_uncached_round\",\n  \"n\": {n},\n  \
         \"d\": {d},\n  \"k\": {k},\n  \"rounds\": {rounds},\n  \
         \"swaps_per_round\": 1,\n  \"uncached_ms_per_round\": {:.3},\n  \
         \"cached_ms_per_round\": {:.3},\n  \"speedup\": {:.2},\n  \
         \"caveat\": \"wall-clock means over {rounds} steady-state swap-light \
         rounds after one warm-up round, single-threaded pool, measured on a \
         host with {} CPUs\"\n}}\n",
        uncached * 1e3,
        cached * 1e3,
        speedup,
        host_cpus(),
    );
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("warning: could not write {out}: {e}");
    } else {
        eprintln!(
            "cached_round/{n}: uncached {:.1}ms cached {:.1}ms speedup {speedup:.2}x -> {out}",
            uncached * 1e3,
            cached * 1e3,
        );
    }
}

/// Columnar (dimension-major tiled) vs row-major kernels for one full
/// round (fused locality + X pass → FindDimensions → assignment) on two
/// paper-scale fixtures, at `N` = 1M by default (override with
/// `PROCLUS_BENCH_N6`, falling back to `PROCLUS_BENCH_N`). The columnar
/// side is a cold round cache over a single-threaded pool, the path
/// every fit's first round takes; the row-major side runs the reference
/// kernels of `proclus_core::kernel` block by block on one thread —
/// `fused_block` merged exactly as the pool merges, then the
/// assignment as `columns_block` + `argmin_columns`, the reference of
/// the cache's column pass. Results go to `BENCH_6.json` (override with
/// `PROCLUS_BENCH_OUT6`).
///
/// * `projected` (d = 20) — small per-medoid dimension sets; the round
///   is dominated by the full-space locality sweep where both layouts
///   stream the same bytes. Parity (speedup ≈ 1) is the goal.
/// * `separable` (d = 100) — wide accumulations; the columnar loops
///   update a tile of independent accumulators per dimension, which
///   auto-vectorizes, while the row-major loop is one serial f64
///   dependency chain per (point, medoid). This is where the layout
///   must win.
///
/// Rounds alternate row-major and columnar over the same matrix so
/// machine-load drift hits both configurations equally. No
/// criterion group: at N = 1M criterion's sampling would swamp CI, and
/// the JSON report is the artifact that matters.
fn bench_columnar_kernels(_c: &mut Criterion) {
    use proclus_core::kernel;

    let n: usize = std::env::var("PROCLUS_BENCH_N6")
        .or_else(|_| std::env::var("PROCLUS_BENCH_N"))
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000);
    let rounds: usize = std::env::var("PROCLUS_BENCH_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);
    let metric = DistanceKind::Manhattan;
    let fixtures = [
        ("projected", 20usize, 5usize, 5usize, 25usize),
        ("separable", 100, 10, 80, 600),
    ];
    let mut rows = Vec::new();
    for (name, d, k, cluster_dims, total_dims) in fixtures {
        let data = SyntheticSpec::new(n, d, k, cluster_dims as f64)
            .fixed_dims(vec![cluster_dims; k])
            .seed(7)
            .generate();
        let points = &data.points;
        let candidates: Vec<usize> = (0..points.rows()).step_by(31).collect();
        let mut rng = StdRng::seed_from_u64(3);
        let medoids = greedy_select(points, &candidates, k, &metric, &mut rng);
        let deltas = medoid_deltas(points, &medoids, metric);

        let blocks = kernel::blocks(points.rows());
        let row_round = || {
            let fused = blocks
                .iter()
                .map(|&(lo, hi)| kernel::fused_block(points, metric, &medoids, &deltas, lo, hi))
                .collect();
            let (_sizes, x) = kernel::merge_fused(fused, k, d);
            let dims = find_dimensions_from_averages(&x, total_dims, true);
            let assign: Vec<usize> = blocks
                .iter()
                .flat_map(|&(lo, hi)| {
                    let cols = kernel::columns_block(points, metric, &medoids, &dims, lo, hi);
                    let refs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
                    kernel::argmin_columns(&refs, hi - lo)
                })
                .collect();
            black_box(assign);
        };
        let col_round = |pool: &mut proclus_core::pool::Pool<'_>| {
            let mut cache = RoundCache::new(k);
            let (_sizes, x) = cache.fused_round(pool, &medoids, &deltas);
            let dims = find_dimensions_from_averages(&x, total_dims, true);
            black_box(cache.assign(pool, &medoids, &dims));
        };
        let (rowmajor_secs, columnar_secs) = with_pool(points, metric, 1, |pool| {
            // Warm up both configurations (page-in, branch warmup).
            row_round();
            col_round(pool);
            let (mut row_secs, mut col_secs) = (0.0f64, 0.0f64);
            for _ in 0..rounds {
                let t = std::time::Instant::now();
                row_round();
                row_secs += t.elapsed().as_secs_f64();
                let t = std::time::Instant::now();
                col_round(pool);
                col_secs += t.elapsed().as_secs_f64();
            }
            (row_secs / rounds as f64, col_secs / rounds as f64)
        });
        let speedup = rowmajor_secs / columnar_secs;
        eprintln!(
            "columnar_round/{name}/{n}: row-major {:.1}ms columnar {:.1}ms speedup {speedup:.2}x",
            rowmajor_secs * 1e3,
            columnar_secs * 1e3,
        );
        rows.push(format!(
            "    {{\n      \"fixture\": \"{name}\",\n      \
             \"d\": {d},\n      \
             \"k\": {k},\n      \
             \"cluster_dims\": {cluster_dims},\n      \
             \"rowmajor_ms_per_round\": {:.3},\n      \
             \"columnar_ms_per_round\": {:.3},\n      \
             \"speedup\": {speedup:.2}\n    }}",
            rowmajor_secs * 1e3,
            columnar_secs * 1e3,
        ));
    }

    let out = std::env::var("PROCLUS_BENCH_OUT6")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_6.json").to_string());
    let json = format!(
        "{{\n  \"bench\": \"columnar_round\",\n  \"n\": {n},\n  \
         \"rounds\": {rounds},\n  \
         \"fixtures\": [\n{}\n  ],\n  \
         \"caveat\": \"wall-clock means over {rounds} interleaved rounds (fused \
         locality+X pass, FindDimensions, assignment) after one warm-up round \
         per configuration, single-threaded, measured on a host with {} CPUs; \
         the row-major side runs the reference kernels block by block and \
         both configurations are bit-identical in output (the columnar \
         layout preserves the accumulation order), so the delta is pure \
         layout/vectorization effect; absolute times on \
         shared CI/dev hardware are noisy — the interleaved speedup ratio \
         is the stable number\"\n}}\n",
        rows.join(",\n"),
        host_cpus(),
    );
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("warning: could not write {out}: {e}");
    } else {
        eprintln!("columnar_round -> {out}");
    }
}

/// The disabled-recorder path must cost nothing: `fit` (which wires in
/// `NoopRecorder` itself) and an explicit `fit_traced(.., &Noop)` are
/// the same code path, and both must match the pre-observability
/// numbers. A live `RingRecorder` is measured alongside to show what
/// tracing actually costs when switched on.
fn bench_trace_overhead(c: &mut Criterion) {
    let data = SyntheticSpec::new(2_000, 12, 4, 4.0)
        .fixed_dims(vec![4; 4])
        .seed(7)
        .generate();
    let params = proclus_core::Proclus::new(4, 4.0).seed(3).restarts(1);

    let mut group = c.benchmark_group("trace_overhead/2k");
    group.bench_function("fit_default_noop", |b| {
        b.iter(|| black_box(params.fit(&data.points).unwrap()))
    });
    group.bench_function("fit_traced_noop", |b| {
        b.iter(|| {
            black_box(
                params
                    .fit_traced(&data.points, &proclus_obs::NoopRecorder)
                    .unwrap(),
            )
        })
    });
    group.bench_function("fit_traced_ring", |b| {
        b.iter(|| {
            let rec = proclus_obs::RingRecorder::new(4096);
            black_box(params.fit_traced(&data.points, &rec).unwrap())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_phases,
    bench_fused_vs_unfused,
    bench_pooled_round_throughput,
    bench_cached_vs_uncached_round,
    bench_columnar_kernels,
    bench_trace_overhead
);
criterion_main!(benches);
