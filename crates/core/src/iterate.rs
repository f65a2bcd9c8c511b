//! The iterative (hill climbing) phase and the overall driver
//! (Figure 2's `Algorithm PROCLUS`).
//!
//! The search walks a graph whose vertices are k-subsets of the
//! candidate medoid set `M`: each round evaluates the current vertex
//! (localities → dimensions → assignment → objective) and, when it does
//! not improve on the best vertex seen, retries from the best vertex
//! with its *bad* medoids swapped for random unused candidates. The walk
//! stops after `max_stale_rounds` consecutive non-improving rounds (or
//! the absolute `max_rounds` cap), then hands over to the refinement
//! phase.
//!
//! # Revisited vertices
//!
//! Each swap draws from the few candidates of `M` the best vertex does
//! not use (10 at the default `B = 3`, `k = 5`), so a climb often comes
//! back to a vertex it has already scored: about half the rounds of a
//! fit on fit-d20's data. Each climb keeps a memo of the vertices it
//! has scored, keyed by the ordered medoid vector, and a round on a
//! memo vertex runs no pass.
//!
//! * **Exact.** A round reads no RNG (only `replace_bad`, after the
//!   round, does) and no cross-round state but the [`RoundCache`],
//!   whose output is bit-identical to a fresh pass. So the round is a
//!   pure function of its medoid vector, and a revisit's output is its
//!   first visit's, bit for bit.
//! * **Never an improvement.** Within a climb the best objective only
//!   falls, and the first visit already took part in it: a revisit's
//!   objective is at least the best (or NaN), so it is always
//!   `improved = false` and one more stale round.
//! * **Traced alike.** With the recorder enabled the memo also keeps
//!   each vertex's `round` payload, and a revisit replays it with the
//!   current best objective and the same semantic pass counts, so
//!   `events.jsonl` is the one every round's passes would write.
//!   Untraced fits keep only the keys. A revisit books no phase span;
//!   the `iterate.revisits` manifest counter counts them.
//! * **Bounded.** At most one entry per round, so at most `max_rounds`
//!   medoid vectors of `k` indices; the memo is dropped when the climb
//!   ends.

use crate::cache::RoundCache;
use crate::dims::{chosen_scores, find_dimensions_from_averages};
use crate::error::ProclusError;
use crate::evaluate::bad_medoids;
use crate::init::candidate_medoids;
use crate::locality::medoid_deltas;
use crate::model::{Degradation, FitDiagnostics, ProclusModel};
use crate::params::Proclus;
use crate::pool::{with_pool, Pool};
use crate::refine::refine_with_pool;
use proclus_math::Matrix;
use proclus_obs::{timed, Counter, Event, Gauge, NoopRecorder, Phase, Recorder};
use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;

/// Execute the full three-phase PROCLUS algorithm: `restarts`
/// independent climbs, keeping the run with the lowest iterative
/// objective.
pub fn run(params: &Proclus, points: &Matrix) -> Result<ProclusModel, ProclusError> {
    run_traced(params, points, &NoopRecorder)
}

/// [`run`] with a [`Recorder`] observing the fit: one `fit_start`, a
/// `restart_start` per climb, a `round` event per hill-climbing round,
/// `swap`/`refine` decisions, a closing `fit_end`, plus phase spans and
/// pool counters/gauges. With a disabled recorder (the default
/// [`NoopRecorder`]) no event payloads are built and no clocks are
/// read — the hot loops check `enabled()` once per emission site.
///
/// Event determinism: everything emitted here is a pure function of
/// `(params, points, seed)` — in particular it does **not** depend on
/// `params.threads` or on what the round cache served (the semantic
/// pass counts in `round` events are booked here, from the shape of
/// each round). Timings and queue depths go only to the
/// span/gauge channel.
pub fn run_traced(
    params: &Proclus,
    points: &Matrix,
    rec: &dyn Recorder,
) -> Result<ProclusModel, ProclusError> {
    drive(params, points, None, rec)
}

/// The one fit driver: `restarts` independent climbs keeping the run
/// with the lowest iterative objective, or — when `forced` pins the
/// first vertex — one climb from `rng_seed`.
///
/// The worker pool (see [`crate::pool`]) is created once here and
/// shared by every restart, round, and the refinement phase — no
/// per-round thread spawning.
fn drive(
    params: &Proclus,
    points: &Matrix,
    forced: Option<&[usize]>,
    rec: &dyn Recorder,
) -> Result<ProclusModel, ProclusError> {
    params.validate(points.rows(), points.cols())?;
    if let Some(initial) = forced {
        check_initial(params, points, initial)?;
    }
    let mut diag = preflight(params, points)?;
    let restarts = if forced.is_some() {
        1
    } else {
        params.restarts.max(1)
    };
    if rec.enabled() {
        rec.event(&Event::FitStart {
            algorithm: "proclus",
            n: points.rows(),
            d: points.cols(),
            k: params.k,
            l: params.l,
            seed: params.rng_seed,
            restarts,
        });
    }
    let result = with_pool(points, params.distance, params.threads, |pool| {
        // One cache for the whole fit: its entries are value-keyed, so
        // state surviving a restart is either bit-identical (and
        // served) or mismatched (and recomputed) — never stale.
        let mut cache = RoundCache::new(params.k);
        let mut best: Option<ProclusModel> = None;
        let mut last_error: Option<ProclusError> = None;
        for r in 0..restarts {
            let seed = params
                .rng_seed
                .wrapping_add((r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            diag.restarts += 1;
            if rec.enabled() {
                rec.event(&Event::RestartStart { restart: r, seed });
            }
            // A collapsed restart is a degradation, not a failure, as
            // long as some other restart produces a usable model: record
            // it and keep climbing from the remaining seeds.
            match run_once(
                params, points, seed, forced, r, pool, &mut cache, &mut diag, rec,
            ) {
                Ok(model) => {
                    if best
                        .as_ref()
                        .is_none_or(|b| model.iterative_objective() < b.iterative_objective())
                    {
                        best = Some(model);
                    }
                }
                Err(e) => {
                    diag.failed_restarts += 1;
                    diag.degradations.push(Degradation::RestartFailed {
                        restart: r,
                        reason: e.to_string(),
                    });
                    last_error = Some(e);
                }
            }
        }
        if rec.enabled() {
            // Every climb ends in exactly one refinement.
            let passes = diag.total_rounds as u64 * round_passes(params)
                + diag.restarts as u64 * REFINE_PASSES;
            record_pool_measurements(rec, pool, passes);
            record_cache_measurements(rec, &cache);
            rec.counter(Counter::IterateRevisits, diag.revisits as u64);
        }
        match best {
            Some(model) => Ok(model.with_diagnostics(diag.clone())),
            // Every restart collapsed. One restart: surface its error
            // directly; several: summarize as non-convergence.
            None => match last_error {
                Some(e) if restarts == 1 => Err(e),
                _ => Err(ProclusError::NonConvergence { restarts }),
            },
        }
    });
    record_fit_end(rec, &result);
    result
}

/// Semantic O(N·k·d) passes per hill-climbing round (Figure 2): the
/// fused locality pass, then one assignment per dimension estimate —
/// the locality-based one and one per inner refinement. The count is a
/// function of the parameters alone: the round cache may serve a pass
/// without running it, and the pool counts only what ran.
fn round_passes(params: &Proclus) -> u64 {
    2 + params.inner_refinements as u64
}

/// Semantic passes of the refinement phase (§2.3): the cluster-`X`
/// sweep and the final reassignment.
const REFINE_PASSES: u64 = 2;

/// Row blocks one semantic pass sweeps.
fn blocks_per_pass(points: &Matrix) -> u64 {
    points.rows().div_ceil(crate::kernel::BLOCK) as u64
}

/// Pool work totals → counters, scheduling-dependent facts → gauges.
///
/// `pool.dispatches`/`pool.blocks` are the semantic-pass totals booked
/// by this module, `passes` of them, each a sweep over every row block.
/// The `physical_*` pair counts the fan-outs that actually ran.
fn record_pool_measurements(rec: &dyn Recorder, pool: &Pool<'_>, passes: u64) {
    rec.counter(Counter::PoolDispatches, passes);
    rec.counter(Counter::PoolBlocks, passes * blocks_per_pass(pool.points()));
    let physical = pool.physical_stats();
    rec.counter(Counter::PoolPhysicalDispatches, physical.dispatches);
    rec.counter(Counter::PoolPhysicalBlocks, physical.blocks);
    rec.gauge(Gauge::PoolWorkers, pool.workers() as f64);
    rec.gauge(Gauge::PoolQueueHighWater, pool.queue_high_water() as f64);
}

/// Round-cache effectiveness → `cache.*` counters (manifest channel
/// only).
fn record_cache_measurements(rec: &dyn Recorder, cache: &RoundCache) {
    let stats = cache.stats();
    rec.counter(Counter::CacheFusedSlotHits, stats.fused_slot_hits);
    rec.counter(
        Counter::CacheFusedSlotRecomputes,
        stats.fused_slot_recomputes,
    );
    rec.counter(Counter::CacheColumnHits, stats.column_hits);
    rec.counter(Counter::CacheColumnRecomputes, stats.column_recomputes);
    rec.counter(Counter::CacheFullColumnHits, stats.full_column_hits);
    rec.counter(
        Counter::CacheFullColumnRecomputes,
        stats.full_column_recomputes,
    );
    rec.counter(Counter::CacheEvictions, stats.evictions);
    rec.counter(Counter::CachePeakResidentBytes, stats.peak_resident_bytes);
}

/// Emit `fit_end` for a successful fit.
fn record_fit_end(rec: &dyn Recorder, result: &Result<ProclusModel, ProclusError>) {
    if !rec.enabled() {
        return;
    }
    if let Ok(model) = result {
        rec.event(&Event::FitEnd {
            rounds: model.rounds(),
            improvements: model.improvements(),
            objective: model.objective(),
            iterative_objective: model.iterative_objective(),
            outliers: model.outliers().len(),
        });
    }
}

/// Reject data that cannot support any fit (fewer fully-finite rows
/// than medoids needed) and seed the diagnostics with the count of
/// non-finite rows the pipeline will work around.
fn preflight(params: &Proclus, points: &Matrix) -> Result<FitDiagnostics, ProclusError> {
    let n = points.rows();
    let finite = (0..n)
        .filter(|&i| points.row(i).iter().all(|v| v.is_finite()))
        .count();
    if finite < params.k {
        return Err(ProclusError::DegenerateData {
            reason: format!(
                "only {finite} of {n} rows are fully finite, but k = {} medoids are needed",
                params.k
            ),
        });
    }
    let mut diag = FitDiagnostics::default();
    if finite < n {
        diag.degradations
            .push(Degradation::NonFiniteRowsExcluded { count: n - finite });
    }
    Ok(diag)
}

/// Like [`run`] but hill climbing starts from a caller-supplied medoid
/// set instead of the sampled/greedy initialization (single climb, no
/// restarts — the start is fixed). The candidate pool for bad-medoid
/// replacement is still built by the configured initialization, with
/// the initial medoids added.
///
/// # Errors
///
/// Rejects out-of-range or duplicate medoids, a medoid count different
/// from `k`, and the same shape errors as [`run`].
pub fn run_from_medoids(
    params: &Proclus,
    points: &Matrix,
    initial: &[usize],
) -> Result<ProclusModel, ProclusError> {
    run_from_medoids_traced(params, points, initial, &NoopRecorder)
}

/// [`run_from_medoids`] with a [`Recorder`] observing the single climb
/// (same event contract as [`run_traced`]).
///
/// # Errors
///
/// Same as [`run_from_medoids`].
pub fn run_from_medoids_traced(
    params: &Proclus,
    points: &Matrix,
    initial: &[usize],
    rec: &dyn Recorder,
) -> Result<ProclusModel, ProclusError> {
    drive(params, points, Some(initial), rec)
}

/// Reject a forced start that is not `k` distinct in-range rows.
fn check_initial(params: &Proclus, points: &Matrix, initial: &[usize]) -> Result<(), ProclusError> {
    if initial.len() != params.k {
        return Err(ProclusError::InvalidParameters(format!(
            "expected {} initial medoids, got {}",
            params.k,
            initial.len()
        )));
    }
    let mut sorted = initial.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.len() != initial.len() {
        return Err(ProclusError::InvalidParameters(
            "initial medoids must be distinct".into(),
        ));
    }
    if let Some(&bad) = initial.iter().find(|&&m| m >= points.rows()) {
        return Err(ProclusError::InvalidParameters(format!(
            "initial medoid {bad} out of range (N = {})",
            points.rows()
        )));
    }
    Ok(())
}

/// One initialization + hill climb + refinement, from `seed`.
/// `forced_start` pins the first vertex of the climb. All O(N·k·d)
/// passes run through `pool`, routed via `cache` so rounds that share
/// per-medoid state with earlier rounds recompute only what a swap
/// touched, and a round whose vertex the climb has already scored runs
/// none (see the module docs); `rec` observes every round of the climb
/// (`restart` tags the events with the climb's index).
#[allow(clippy::too_many_arguments)]
fn run_once(
    params: &Proclus,
    points: &Matrix,
    seed: u64,
    forced_start: Option<&[usize]>,
    restart: usize,
    pool: &mut Pool<'_>,
    cache: &mut RoundCache,
    diag: &mut FitDiagnostics,
    rec: &dyn Recorder,
) -> Result<ProclusModel, ProclusError> {
    let n = points.rows();
    let k = params.k;
    let mut rng = StdRng::seed_from_u64(seed);

    // ---- Phase 1: initialization --------------------------------------
    let mut candidates = timed(rec, Phase::Init, || {
        candidate_medoids(params, points, &mut rng)
    });
    debug_assert!(candidates.len() >= k);

    // Starting vertex: forced, or a random k-subset of the candidates.
    let mut current: Vec<usize> = match forced_start {
        Some(m) => {
            for &medoid in m {
                if !candidates.contains(&medoid) {
                    candidates.push(medoid);
                }
            }
            m.to_vec()
        }
        None => sample(&mut rng, candidates.len(), k)
            .into_iter()
            .map(|i| candidates[i])
            .collect(),
    };

    // ---- Phase 2: hill climbing ---------------------------------------
    let mut best = current.clone();
    let mut best_objective = f64::INFINITY;
    // Dimension sets and cluster sizes of the best vertex's clustering;
    // `None` until a round improves on infinity.
    let mut best_clustering: Option<(Vec<Vec<usize>>, Vec<usize>)> = None;
    let mut rounds = 0usize;
    let mut improvements = 0usize;
    let mut stale = 0usize;
    // Every vertex this climb has scored, with its `round` payload when
    // the recorder is enabled (keys only otherwise). At most one entry
    // per round, dropped with the climb.
    let mut visited: HashMap<Vec<usize>, Option<RoundRecord>> = HashMap::new();

    loop {
        rounds += 1;
        let (record, improved) = if let Some(first) = visited.get(&current) {
            // A revisit: the round is a pure function of `current`, so
            // its first visit's output is this round's, bit for bit, and
            // `best_objective` is already at most that objective.
            diag.revisits += 1;
            stale += 1;
            debug_assert!(
                first
                    .as_ref()
                    .is_none_or(|r| r.objective >= best_objective || r.objective.is_nan()),
                "a revisited vertex improved on the best objective"
            );
            (first.clone(), false)
        } else {
            let round = score_vertex(params, points, &current, pool, cache, rec);
            let improved = round.objective < best_objective;
            if improved {
                best_objective = round.objective;
                best = current.clone();
                best_clustering = Some((round.dims.clone(), round.cluster_sizes.clone()));
                improvements += 1;
                stale = 0;
            } else {
                stale += 1;
            }
            let record = rec.enabled().then_some(round);
            visited.insert(current.clone(), record.clone());
            (record, improved)
        };

        if let Some(record) = record {
            // How many fused pairs this round actually computed: the
            // per-round cache-effectiveness gauge (measurement channel
            // only — `round` events stay cache-independent).
            rec.gauge(
                Gauge::CacheMedoidsRecomputed,
                cache.take_round_recomputed() as f64,
            );
            // This round's semantic passes. A restart's refinement
            // passes are booked in the next restart's first round.
            let carried = if restart > 0 && rounds == 1 {
                REFINE_PASSES
            } else {
                0
            };
            let passes = round_passes(params) + carried;
            rec.event(&Event::Round {
                restart,
                round: rounds,
                locality_sizes: record.locality_sizes,
                dims: record.dims,
                dim_scores: record.dim_scores,
                cluster_sizes: record.cluster_sizes,
                objective: record.objective,
                best_objective,
                improved,
                pool_dispatches: passes,
                pool_blocks: passes * blocks_per_pass(points),
            });
        }

        if stale >= params.max_stale_rounds || rounds >= params.max_rounds {
            break;
        }

        // No round has improved on infinity — the objective is NaN on
        // every vertex (degenerate data, e.g. NaN coordinates). There
        // is no best clustering to mine for bad medoids; stop climbing
        // and let refinement classify what it can.
        let Some((_, best_sizes)) = &best_clustering else {
            if !diag
                .degradations
                .contains(&Degradation::ObjectiveNeverImproved)
            {
                diag.degradations.push(Degradation::ObjectiveNeverImproved);
            }
            break;
        };

        // Replace the bad medoids of the best vertex with random unused
        // candidates to form the next vertex.
        let bad = bad_medoids(best_sizes, n, params.min_deviation);
        match replace_bad(&best, &bad, &candidates, &mut rng) {
            Some(next) => {
                diag.bad_medoid_swaps += bad.len();
                if rec.enabled() {
                    rec.event(&Event::Swap {
                        restart,
                        round: rounds,
                        bad: bad.clone(),
                        cluster_sizes: best_sizes.clone(),
                        threshold: (n as f64 / k.max(1) as f64) * params.min_deviation,
                    });
                }
                current = next;
            }
            // Candidate pool exhausted (tiny datasets): nothing new to
            // try, so stop climbing with the best vertex seen.
            None => {
                diag.degradations
                    .push(Degradation::CandidatePoolExhausted { round: rounds });
                break;
            }
        }
    }
    diag.total_rounds += rounds;

    // ---- Phase 3: refinement -------------------------------------------
    // The best clustering's X comes from its assignment pass rerun: the
    // assignment is a pure function of (medoids, dims), so these are the
    // bits of the labels the climb evaluated. A climb that never improved
    // has no clusters, and every X row stays zero.
    let refined = timed(rec, Phase::Refine, || {
        let cluster_x = best_clustering
            .and_then(|(best_dims, _)| cache.assign(pool, &best, &best_dims, true).1)
            .unwrap_or_else(|| vec![vec![0.0; points.cols()]; k]);
        refine_with_pool(
            pool,
            &best,
            &cluster_x,
            params.total_dimensions(),
            params.standardize_dimensions,
        )
    });
    let final_objective = pool.evaluate(&refined.assignment, &refined.dims).objective;

    // Total collapse: not a single point stayed assigned (every cluster
    // empty). The model would be vacuous — surface it as a typed error
    // so the restart loop can try other seeds or report it.
    if n > 0 && refined.assignment.iter().all(Option::is_none) {
        return Err(ProclusError::ClusterCollapse { rounds });
    }

    if rec.enabled() {
        rec.event(&Event::Refine {
            restart,
            medoids: best.clone(),
            dims: refined.dims.clone(),
            spheres: refined.spheres.clone(),
            outliers: refined.assignment.iter().filter(|a| a.is_none()).count(),
            objective: final_objective,
        });
    }

    Ok(ProclusModel::from_parts(
        points,
        best,
        refined.dims,
        refined.assignment,
        refined.spheres,
        (final_objective, best_objective),
        rounds,
        improvements,
        params.distance,
    ))
}

/// One round's output: what its `round` event reports, and what a
/// revisit of the same vertex replays.
#[derive(Clone)]
struct RoundRecord {
    locality_sizes: Vec<usize>,
    dims: Vec<Vec<usize>>,
    /// The score of each chosen dimension; empty when the recorder is
    /// disabled.
    dim_scores: Vec<Vec<f64>>,
    cluster_sizes: Vec<usize>,
    objective: f64,
}

/// Score the vertex `medoids`: one round of Figure 2's climb
/// (localities → dimensions → assignment → objective). It reads no RNG
/// and no cross-round state but `cache`, whose output is bit-identical
/// to a fresh pass, so it is a pure function of `medoids`.
fn score_vertex(
    params: &Proclus,
    points: &Matrix,
    medoids: &[usize],
    pool: &mut Pool<'_>,
    cache: &mut RoundCache,
    rec: &dyn Recorder,
) -> RoundRecord {
    let total_dims = params.total_dimensions();
    // Fused pass: the locality sizes and the per-dimension average
    // distances X over the localities come from a single O(N·k·d)
    // sweep (the members themselves are only needed for the X
    // reference sets, which the kernel folds in as it tests them).
    let (locality_sizes, x) = timed(rec, Phase::Locality, || {
        let deltas = medoid_deltas(points, medoids, params.distance);
        cache.fused_round(pool, medoids, &deltas)
    });
    let mut dims = timed(rec, Phase::Dims, || {
        find_dimensions_from_averages(&x, total_dims, params.standardize_dimensions)
    });
    // The score of each chosen dimension, for the round event. Kept
    // in sync with whichever averages produced the final `dims`
    // (locality X here, cluster X after an inner refinement).
    let mut dim_scores = if rec.enabled() {
        chosen_scores(&x, &dims, params.standardize_dimensions)
    } else {
        Vec::new()
    };
    // Sharpen the dimension estimates against the assigned clusters
    // (see `Proclus::inner_refinements`): localities blur together
    // in high dimensions, clusters do not. An assignment that a
    // recomputation follows also returns the cluster-based X it
    // needs, from the same sweep.
    let mut refinements = 0;
    let flat = loop {
        let with_x = refinements < params.inner_refinements;
        let (flat, cluster_x) = timed(rec, Phase::Assign, || {
            cache.assign(pool, medoids, &dims, with_x)
        });
        let Some(cx) = cluster_x else {
            break flat;
        };
        refinements += 1;
        dims = timed(rec, Phase::Dims, || {
            find_dimensions_from_averages(&cx, total_dims, params.standardize_dimensions)
        });
        if rec.enabled() {
            dim_scores = chosen_scores(&cx, &dims, params.standardize_dimensions);
        }
    };
    let eval = timed(rec, Phase::Evaluate, || pool.evaluate(&flat, &dims));
    RoundRecord {
        locality_sizes,
        dims,
        dim_scores,
        cluster_sizes: eval.sizes,
        objective: eval.objective,
    }
}

/// Build the next vertex: `base` with the medoids at positions `bad`
/// replaced by random candidates not already in the vertex. Returns
/// `None` when there are not enough unused candidates.
fn replace_bad(
    base: &[usize],
    bad: &[usize],
    candidates: &[usize],
    rng: &mut StdRng,
) -> Option<Vec<usize>> {
    let mut next = base.to_vec();
    let mut unused: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|c| !base.contains(c))
        .collect();
    if unused.len() < bad.len() {
        return None;
    }
    unused.shuffle(rng);
    for (slot, fresh) in bad.iter().zip(unused) {
        next[*slot] = fresh;
    }
    Some(next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proclus_data::SyntheticSpec;

    #[test]
    fn replace_bad_swaps_only_bad_positions() {
        let mut rng = StdRng::seed_from_u64(4);
        let base = vec![10, 20, 30];
        let candidates = vec![10, 20, 30, 40, 50, 60];
        let next = replace_bad(&base, &[1], &candidates, &mut rng).unwrap();
        assert_eq!(next[0], 10);
        assert_eq!(next[2], 30);
        assert!([40, 50, 60].contains(&next[1]));
    }

    #[test]
    fn replace_bad_exhausted_pool_returns_none() {
        let mut rng = StdRng::seed_from_u64(4);
        let base = vec![1, 2];
        assert_eq!(replace_bad(&base, &[0], &[1, 2], &mut rng), None);
    }

    #[test]
    fn replace_bad_produces_distinct_medoids() {
        let mut rng = StdRng::seed_from_u64(4);
        let base = vec![1, 2, 3];
        let candidates: Vec<usize> = (1..=10).collect();
        for _ in 0..50 {
            let next = replace_bad(&base, &[0, 2], &candidates, &mut rng).unwrap();
            let mut sorted = next.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "{next:?}");
        }
    }

    /// Regression: a NaN coordinate makes every round's objective NaN,
    /// so no round ever "improves" and there is no best clustering —
    /// the bad-medoid step used to hit `bad_medoids`'s `k > 0`
    /// assertion. The climb now stops gracefully and refinement
    /// classifies the finite points.
    #[test]
    fn fit_survives_nan_coordinates() {
        let rows: Vec<[f64; 2]> = vec![
            [0.0, 0.0],
            [f64::NAN, 1.0],
            [1.0, 0.5],
            [0.5, 0.2],
            [10.0, 10.0],
            [10.5, 10.2],
            [9.9, 10.1],
            [10.2, 9.8],
        ];
        let m = Matrix::from_rows(&rows, 2);
        for seed in 0..6 {
            let model = Proclus::new(2, 2.0)
                .seed(seed)
                .fit(&m)
                .expect("valid parameters");
            assert_eq!(model.clusters().len(), 2, "seed {seed}");
            assert_eq!(model.assignment().len(), 8, "seed {seed}");
        }
    }

    /// Pins the refinement of a climb that never improved. The NaN row
    /// makes every round's objective NaN, so there is no best clustering
    /// and the refinement starts from all-zero `X` rows: each seed's
    /// objective bits, outlier count and dimension sets must not move.
    #[test]
    fn never_improved_refinement_is_pinned() {
        let mut rows: Vec<[f64; 5]> = (0..40)
            .map(|i| {
                let i = i as f64;
                [i % 7.0, (i * 3.0) % 11.0, i / 4.0, (i * i) % 13.0, 40.0 - i]
            })
            .collect();
        rows[17] = [f64::NAN; 5];
        let m = Matrix::from_rows(&rows, 5);
        let pinned: [(u64, usize); 6] = [
            (0x3fea_4c87_d092_97fb, 16),
            (0x3ffa_5604_1893_74bb, 3),
            (0x3ff4_ca8a_8a8a_8a8b, 7),
            (0x3ff9_c568_510b_39c6, 1),
            (0x3fd5_27d2_7d27_d27e, 25),
            (0x3ff8_d718_7ca9_2ebf, 1),
        ];
        for (seed, (bits, outliers)) in (0..).zip(pinned) {
            let model = Proclus::new(2, 2.0).restarts(1).seed(seed).fit(&m).unwrap();
            assert!(
                model
                    .diagnostics()
                    .degradations
                    .contains(&Degradation::ObjectiveNeverImproved),
                "seed {seed}"
            );
            assert_eq!(model.objective().to_bits(), bits, "seed {seed}");
            assert_eq!(model.outliers().len(), outliers, "seed {seed}");
            for c in model.clusters() {
                assert_eq!(c.dimensions, vec![0, 1], "seed {seed}");
            }
        }
    }

    /// A NaN-riddled dataset with too few finite rows is rejected with
    /// a typed error, not a panic deep in the pipeline.
    #[test]
    fn fit_rejects_degenerate_data() {
        let m = Matrix::from_rows(&[[f64::NAN, f64::NAN]; 10], 2);
        let err = Proclus::new(2, 2.0).fit(&m).unwrap_err();
        assert!(matches!(err, ProclusError::DegenerateData { .. }), "{err}");
        // One finite row, k = 2: still not enough.
        let mut rows = vec![[f64::NAN, 0.0]; 5];
        rows[0] = [1.0, 1.0];
        let err = Proclus::new(2, 2.0)
            .fit(&Matrix::from_rows(&rows, 2))
            .unwrap_err();
        assert!(matches!(err, ProclusError::DegenerateData { .. }), "{err}");
    }

    /// Non-finite rows are excluded from medoid candidacy and the
    /// model's diagnostics say so.
    #[test]
    fn fit_records_non_finite_row_degradation() {
        let mut rows: Vec<[f64; 2]> = (0..40)
            .map(|i| [(i % 7) as f64, (i / 7) as f64 * 10.0])
            .collect();
        rows[5] = [f64::NAN, 3.0];
        rows[21] = [f64::INFINITY, 1.0];
        let m = Matrix::from_rows(&rows, 2);
        let model = Proclus::new(2, 2.0).seed(1).fit(&m).unwrap();
        assert!(model
            .diagnostics()
            .degradations
            .contains(&crate::model::Degradation::NonFiniteRowsExcluded { count: 2 }));
        // Neither degenerate row can be a medoid.
        for c in model.clusters() {
            assert!(c.medoid.iter().all(|v| v.is_finite()));
        }
    }

    /// Diagnostics reflect the work the restart loop actually did.
    #[test]
    fn fit_populates_diagnostics() {
        let data = SyntheticSpec::new(500, 6, 2, 3.0).seed(13).generate();
        let model = Proclus::new(2, 3.0).seed(4).fit(&data.points).unwrap();
        let d = model.diagnostics();
        assert_eq!(d.restarts, 5, "default restart count");
        assert_eq!(d.failed_restarts, 0);
        assert!(d.total_rounds >= model.rounds());
        assert!(d.total_rounds >= 5, "at least one round per restart");
    }

    /// Tiny dataset: the candidate pool runs dry, the climb stops with
    /// best-so-far, and the degradation is recorded — no panic, valid
    /// model.
    #[test]
    fn fit_records_pool_exhaustion_on_tiny_data() {
        let rows: Vec<[f64; 2]> = (0..4).map(|i| [i as f64 * 10.0, 0.0]).collect();
        let m = Matrix::from_rows(&rows, 2);
        let model = Proclus::new(4, 2.0).seed(2).fit(&m).unwrap();
        assert!(model
            .diagnostics()
            .degradations
            .iter()
            .any(|d| matches!(d, crate::model::Degradation::CandidatePoolExhausted { .. })));
        assert_eq!(model.assignment().len(), 4);
    }

    /// The traced fit is bit-identical to the untraced fit, and the
    /// event stream accounts for every round the diagnostics report.
    #[test]
    fn traced_fit_matches_untraced_and_emits_events() {
        use proclus_obs::{Event, Phase, RingRecorder};
        let data = SyntheticSpec::new(600, 8, 2, 3.0).seed(3).generate();
        let params = Proclus::new(2, 3.0).seed(5);
        let rec = RingRecorder::new(8192);
        let traced = params.fit_traced(&data.points, &rec).unwrap();
        let plain = params.fit(&data.points).unwrap();
        assert_eq!(traced.assignment(), plain.assignment());
        assert_eq!(traced.objective(), plain.objective());

        let events = rec.events();
        assert_eq!(rec.dropped(), 0);
        assert!(matches!(events.first(), Some(Event::FitStart { .. })));
        assert!(matches!(events.last(), Some(Event::FitEnd { .. })));
        let restarts = events
            .iter()
            .filter(|e| matches!(e, Event::RestartStart { .. }))
            .count();
        assert_eq!(restarts, traced.diagnostics().restarts);
        let rounds = events
            .iter()
            .filter(|e| matches!(e, Event::Round { .. }))
            .count();
        assert_eq!(rounds, traced.diagnostics().total_rounds);
        let refines = events
            .iter()
            .filter(|e| matches!(e, Event::Refine { .. }))
            .count();
        assert_eq!(
            refines,
            traced.diagnostics().restarts - traced.diagnostics().failed_restarts
        );
        // Measurements flowed through the span/counter channel.
        assert!(rec.span_stats(Phase::Init).is_some());
        assert!(rec.span_stats(Phase::Assign).is_some());
        assert!(rec.span_stats(Phase::Refine).is_some());
        assert!(rec.counter_value(Counter::PoolDispatches.name()) > 0);
    }

    /// The climb books its own semantic passes: `2 + inner_refinements`
    /// per round, each over every row block, plus the previous restart's
    /// two refinement passes in each later restart's first round. The
    /// `pool.dispatches` total adds the last restart's refinement, and
    /// the fan-outs that ran never outnumber it. Events and every
    /// manifest counter are the same at 1 and 4 threads.
    #[test]
    fn round_events_book_two_plus_inner_passes_per_round() {
        use proclus_obs::{Event, RingRecorder};
        let data = SyntheticSpec::new(2_500, 10, 3, 3.0).seed(6).generate();
        let nblocks = 3u64; // 2 500 rows in 1 024-row blocks
        for inner in 0..=2usize {
            let mut runs = Vec::new();
            for threads in [1, 4] {
                let rec = RingRecorder::new(1 << 14);
                let params = Proclus::new(3, 3.0)
                    .seed(9)
                    .restarts(3)
                    .inner_refinements(inner)
                    .threads(threads);
                params.fit_traced(&data.points, &rec).unwrap();
                let mut booked = 0u64;
                let mut first_rounds = 0;
                for event in rec.events() {
                    if let Event::Round {
                        restart,
                        round,
                        pool_dispatches,
                        pool_blocks,
                        ..
                    } = event
                    {
                        let carried = if restart > 0 && round == 1 { 2 } else { 0 };
                        first_rounds += usize::from(round == 1);
                        assert_eq!(pool_dispatches, 2 + inner as u64 + carried);
                        assert_eq!(pool_blocks, pool_dispatches * nblocks);
                        booked += pool_dispatches;
                    }
                }
                assert_eq!(first_rounds, 3, "inner {inner}");
                let count = |key: Counter| rec.counter_value(key.name());
                assert_eq!(count(Counter::PoolDispatches), booked + 2);
                assert_eq!(count(Counter::PoolBlocks), (booked + 2) * nblocks);
                // Every semantic pass runs at most one fan-out.
                let ctx = format!("inner {inner}, threads {threads}");
                let physical = count(Counter::PoolPhysicalDispatches);
                assert!(physical <= booked + 2, "{ctx}: {physical} fan-outs");
                let physical_blocks = count(Counter::PoolPhysicalBlocks);
                let blocks = count(Counter::PoolBlocks);
                assert!(physical_blocks <= blocks, "{ctx}: {physical_blocks} blocks");
                runs.push((rec.events(), rec.counters()));
            }
            assert_eq!(runs[0], runs[1], "inner {inner}: threads 1 vs 4");
        }
    }

    #[test]
    fn fit_runs_end_to_end_and_is_deterministic() {
        let data = SyntheticSpec::new(1_500, 10, 3, 3.0).seed(21).generate();
        let params = Proclus::new(3, 3.0).seed(5);
        let a = params.fit(&data.points).unwrap();
        let b = params.fit(&data.points).unwrap();
        assert_eq!(a.assignment(), b.assignment());
        assert_eq!(a.objective(), b.objective());
        assert_eq!(a.clusters().len(), 3);
        // Dimension budget: sum |D_i| == k*l, each >= 2.
        let total: usize = a.clusters().iter().map(|c| c.dimensions.len()).sum();
        assert_eq!(total, 9);
        assert!(a.clusters().iter().all(|c| c.dimensions.len() >= 2));
    }

    #[test]
    fn fit_partitions_points() {
        let data = SyntheticSpec::new(800, 8, 2, 3.0).seed(3).generate();
        let model = Proclus::new(2, 3.0).seed(1).fit(&data.points).unwrap();
        let in_clusters: usize = model.clusters().iter().map(|c| c.len()).sum();
        assert_eq!(in_clusters + model.outliers().len(), 800);
        // Assignment is consistent with membership lists.
        for (i, c) in model.clusters().iter().enumerate() {
            for &p in &c.members {
                assert_eq!(model.assignment()[p], Some(i));
            }
        }
        for &p in model.outliers() {
            assert_eq!(model.assignment()[p], None);
        }
    }

    #[test]
    fn fit_rejects_bad_shapes() {
        let data = SyntheticSpec::new(100, 5, 2, 3.0).seed(3).generate();
        assert!(Proclus::new(0, 3.0).fit(&data.points).is_err());
        assert!(Proclus::new(2, 9.0).fit(&data.points).is_err());
        assert!(Proclus::new(101, 3.0).fit(&data.points).is_err());
    }

    #[test]
    fn fit_k1_degenerates_gracefully() {
        let data = SyntheticSpec::new(300, 6, 2, 3.0).seed(9).generate();
        let model = Proclus::new(1, 3.0).seed(2).fit(&data.points).unwrap();
        assert_eq!(model.clusters().len(), 1);
        // Single medoid: infinite sphere, no outliers possible.
        assert!(model.outliers().is_empty());
        assert_eq!(model.clusters()[0].len(), 300);
    }

    #[test]
    fn different_seeds_can_differ_but_both_are_valid() {
        let data = SyntheticSpec::new(1_000, 10, 3, 3.0).seed(33).generate();
        let a = Proclus::new(3, 3.0).seed(1).fit(&data.points).unwrap();
        let b = Proclus::new(3, 3.0).seed(2).fit(&data.points).unwrap();
        for m in [&a, &b] {
            let covered: usize =
                m.clusters().iter().map(|c| c.len()).sum::<usize>() + m.outliers().len();
            assert_eq!(covered, 1_000);
        }
    }

    #[test]
    fn fit_with_initial_medoids_validates_and_runs() {
        let data = SyntheticSpec::new(600, 8, 2, 3.0).seed(3).generate();
        let params = Proclus::new(2, 3.0).seed(5);
        // Valid start.
        let model = params
            .fit_with_initial_medoids(&data.points, &[10, 500])
            .unwrap();
        assert_eq!(model.clusters().len(), 2);
        // Deterministic for a fixed start.
        let model2 = params
            .fit_with_initial_medoids(&data.points, &[10, 500])
            .unwrap();
        assert_eq!(model.assignment(), model2.assignment());
        // Wrong count.
        assert!(params
            .fit_with_initial_medoids(&data.points, &[10])
            .is_err());
        // Duplicates.
        assert!(params
            .fit_with_initial_medoids(&data.points, &[10, 10])
            .is_err());
        // Out of range.
        assert!(params
            .fit_with_initial_medoids(&data.points, &[10, 600])
            .is_err());
    }

    /// On cleanly separated projected clusters the hill climbing should
    /// essentially always find the natural clustering.
    #[test]
    fn fit_recovers_planted_clusters() {
        let data = SyntheticSpec::new(3_000, 15, 4, 4.0)
            .seed(77)
            .outlier_fraction(0.0)
            .generate();
        let model = Proclus::new(4, 4.0).seed(11).fit(&data.points).unwrap();
        // Build the confusion between truth and output, require that
        // each output cluster is dominated by one input cluster.
        let mut dominated = 0;
        for c in model.clusters() {
            let mut counts = [0usize; 4];
            for &p in &c.members {
                if let Some(t) = data.labels[p].cluster() {
                    counts[t] += 1;
                }
            }
            let max = *counts.iter().max().unwrap();
            let total: usize = counts.iter().sum();
            if total > 0 && max as f64 >= 0.9 * total as f64 {
                dominated += 1;
            }
        }
        assert!(
            dominated >= 3,
            "at least 3 of 4 output clusters should be pure, got {dominated}"
        );
    }
}
