//! Phase-level microbenchmarks for PROCLUS: greedy initialization,
//! locality analysis, FindDimensions, AssignPoints, and cluster
//! evaluation, each on a fixed mid-size dataset. Together these account
//! for one hill-climbing round; Figure 7/8/9 shapes follow from how
//! their costs scale in N, l, and d.
//!
//! Two further groups:
//!
//! * `pooled_round/100k` — one full cold hill-climbing round (fused
//!   pass → FindDimensions → assignment) through a fresh round cache
//!   and the persistent worker pool at 1, 2, 4, and 8 threads on a
//!   paper-scale dataset, the one thread-scaling timing. Override the
//!   dataset size with `PROCLUS_BENCH_N`.
//! * `trace_overhead/2k` — a full `fit` with the default no-op
//!   recorder vs an explicit `fit_traced(.., &NoopRecorder)` vs a live
//!   `RingRecorder`. The first two must be indistinguishable (the
//!   no-overhead policy of DESIGN.md §Observability); the ring shows
//!   what enabling tracing costs.
//!
//! These are sizing tools, not gates: a performance claim is judged on
//! whole fits and served requests by the end-to-end benchmark
//! (`BENCHMARK.json`, `e2e --compare`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use proclus_core::assign::assign_points;
use proclus_core::cache::RoundCache;
use proclus_core::dims::{find_dimensions, find_dimensions_from_averages};
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
    bench_pooled_round_throughput,
    bench_trace_overhead
);
criterion_main!(benches);
