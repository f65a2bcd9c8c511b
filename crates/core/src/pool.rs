//! A persistent worker pool that maps a closure over the columnar tiles.
//!
//! The previous parallel path spawned a fresh set of scoped threads for
//! *every* locality and assignment call — hundreds of spawn/join cycles
//! per fit. This module creates the workers **once per fit** (inside
//! [`with_pool`]) and reuses them across every hill-climbing round,
//! restart, and the refinement phase; per-round jobs flow over
//! channels.
//!
//! # Design
//!
//! * Workers live inside a [`std::thread::scope`] spanning the whole
//!   fit, so they can borrow the point matrix directly — no `unsafe`,
//!   no copying the data (the crate forbids unsafe code).
//! * The matrix is mirrored once per fit into dimension-major tiles
//!   ([`ColumnarBlocks`], one per fixed-size row block of
//!   [`crate::kernel::BLOCK`] rows). The pool has one fan-out,
//!   [`Pool::map_tiles`], which applies a closure to every tile; callers
//!   pass a columnar kernel of [`crate::kernel`] and merge its per-tile
//!   results with the matching `kernel::merge_*`. Each pass is one
//!   fan-out: the round cache's fused recompute and assignment (whose
//!   cluster-`X` sums serve the refinement too) and the refinement's
//!   reassignment ([`Pool::refine_assign`]). A shared queue lets
//!   fast workers steal the remaining tiles, so an unlucky scheduling of
//!   one tile never idles the rest of the pool.
//! * Every tile result is tagged with its tile index and returned in
//!   ascending index order. Together with the fixed tiling this makes
//!   every merged result **bit-identical for every thread count** — see
//!   [`crate::kernel`] for the argument.
//! * `threads <= 1` (or a dataset smaller than one block) skips the
//!   workers entirely; the serial path runs the *same* closure over the
//!   tiles in the same order, so it is the reference the pooled path is
//!   compared against in the property tests.
//! * The pool counts only the fan-outs that actually ran
//!   ([`Pool::physical_stats`]). It does not know which pass of the
//!   algorithm a fan-out serves: the semantic passes recorded in `round`
//!   events and the `pool.dispatches`/`pool.blocks` counters are booked
//!   by [`crate::iterate`].

use crate::kernel;
use crate::layout::{ColumnarBlocks, TileView};
use proclus_math::{DistanceKind, Matrix};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex, PoisonError};

/// One unit of work: one tile of one fan-out, which reports its result
/// over that fan-out's own channel. The point matrix and its tiles are
/// borrowed by the job, never copied.
type Job<'env> = Box<dyn FnOnce() + Send + 'env>;

enum Mode<'env> {
    /// No workers: tiles run inline, in order, on the calling thread.
    Serial,
    /// Persistent workers consuming from a shared job queue.
    Pooled { job_tx: Sender<Job<'env>> },
}

/// Physical work counters: the fan-outs that actually ran. The round
/// cache shrinks them (a pass fully served from cache runs nothing), so
/// they go only to the run-manifest counters, never the event stream.
/// They do not depend on the thread count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// [`Pool::map_tiles`] fan-outs.
    pub dispatches: u64,
    /// Tiles processed across those fan-outs.
    pub blocks: u64,
}

/// Handle to the per-fit worker pool (or its serial stand-in). Obtained
/// via [`with_pool`]; all heavy passes of the fit go through it.
pub struct Pool<'env> {
    points: &'env Matrix,
    metric: DistanceKind,
    /// The dimension-major mirror of `points`, shared with the workers.
    layout: &'env ColumnarBlocks,
    mode: Mode<'env>,
    workers: usize,
    physical: PoolStats,
    queue_high_water: u64,
}

/// Run `f` with a [`Pool`] over `points`. The columnar mirror is built
/// once here (one pass over the matrix) and shared read-only with every
/// worker. With `threads > 1` (and at least two blocks of data) the
/// workers are spawned once, live for the whole call, and are joined
/// before this function returns; otherwise `f` gets a serial pool and
/// no threads are ever created.
pub fn with_pool<R>(
    points: &Matrix,
    metric: DistanceKind,
    threads: usize,
    f: impl FnOnce(&mut Pool<'_>) -> R,
) -> R {
    let layout = ColumnarBlocks::build(points);
    // More workers than blocks would never all run; cap keeps the
    // spawn cost proportional to useful parallelism. (Results do not
    // depend on the cap — or on the thread count at all.)
    let workers = threads.min(layout.tiles().len());
    let pool = |mode, workers| Pool {
        points,
        metric,
        layout: &layout,
        mode,
        workers,
        physical: PoolStats::default(),
        queue_high_water: 0,
    };
    if workers <= 1 {
        return f(&mut pool(Mode::Serial, 0));
    }
    std::thread::scope(|s| {
        let (job_tx, job_rx) = mpsc::channel::<Job<'_>>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        for _ in 0..workers {
            let rx = Arc::clone(&job_rx);
            s.spawn(move || {
                loop {
                    // Hold the lock only to pop; run unlocked. A
                    // poisoned lock (a worker died mid-pop) is still a
                    // usable receiver — take it and keep draining.
                    let job = match rx.lock().unwrap_or_else(PoisonError::into_inner).recv() {
                        Ok(job) => job,
                        Err(_) => break, // pool dropped: fit is over
                    };
                    job();
                }
            });
        }
        // Only the workers hold the queue: if they all die, it closes,
        // its pending jobs are dropped, and `map_tiles` falls back.
        drop(job_rx);
        let mut pool = pool(Mode::Pooled { job_tx }, workers);
        let out = f(&mut pool);
        // Dropping the pool closes the job channel; every worker's next
        // recv fails and it exits, letting the scope join them.
        drop(pool);
        out
    })
}

impl<'env> Pool<'env> {
    /// The point matrix this pool's workers operate on. The returned
    /// reference outlives the pool borrow, so callers can hold it
    /// across further (mutable) pool calls and move it into
    /// [`Pool::map_tiles`] closures.
    pub fn points(&self) -> &'env Matrix {
        self.points
    }

    /// The distance kind used by every pass.
    pub fn metric(&self) -> DistanceKind {
        self.metric
    }

    /// Worker threads backing this pool (0 in serial mode). A
    /// measurement, not a search fact: manifest gauges only, never the
    /// event stream.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Cumulative physical work counters since pool creation: the
    /// [`Pool::map_tiles`] fan-outs that actually ran. Manifest counters
    /// only, never the event stream.
    pub fn physical_stats(&self) -> PoolStats {
        self.physical
    }

    /// Largest number of jobs queued by a single fan-out (0 in serial
    /// mode). Scheduling-dependent by nature: manifest gauges only.
    pub fn queue_high_water(&self) -> u64 {
        self.queue_high_water
    }

    /// Apply `f` to every tile and return the results in ascending tile
    /// order: the pool's one fan-out. Serial pools run the tiles inline;
    /// pooled ones queue one job per tile, each reporting over this
    /// call's own channel. A tile no worker reported (a hung-up pool) is
    /// computed on the calling thread, so the call always returns the
    /// exact serial result.
    pub fn map_tiles<T, F>(&mut self, f: F) -> Vec<T>
    where
        T: Send + 'env,
        F: Fn(&TileView<'env>) -> T + Send + Sync + 'env,
    {
        let tiles: Vec<TileView<'env>> = self.layout.tiles().collect();
        self.physical.dispatches += 1;
        self.physical.blocks += tiles.len() as u64;
        let Mode::Pooled { job_tx } = &self.mode else {
            return tiles.iter().map(f).collect();
        };
        let f = Arc::new(f);
        let (result_tx, result_rx) = mpsc::channel();
        let mut queued = 0u64;
        for (index, &tile) in tiles.iter().enumerate() {
            let (f, tx) = (Arc::clone(&f), result_tx.clone());
            let job: Job<'env> = Box::new(move || {
                // The receiver outlives every job of this call.
                let _ = tx.send((index, f(&tile)));
            });
            if job_tx.send(job).is_err() {
                break; // workers gone: the serial sweep below covers it
            }
            queued += 1;
        }
        self.queue_high_water = self.queue_high_water.max(queued);
        // Every job owns a sender, so the receiving loop ends once each
        // job has reported or been dropped unrun.
        drop(result_tx);
        let mut slots: Vec<Option<T>> = tiles.iter().map(|_| None).collect();
        for (index, result) in result_rx {
            slots[index] = Some(result);
        }
        slots
            .into_iter()
            .zip(&tiles)
            .map(|(slot, tile)| slot.unwrap_or_else(|| f(tile)))
            .collect()
    }

    /// EvaluateClusters over the columnar tiles: the objective and the
    /// cluster sizes of the clustering given by one label per point
    /// (`usize` in the hill climb, `Option<usize>` with outliers after
    /// refinement) and the per-cluster dimension sets. Bit-identical to
    /// [`crate::evaluate::evaluate_clusters`]; see `kernel::evaluate_tiles`
    /// for the argument.
    ///
    /// Runs on the calling thread and is not a fan-out, so it moves no
    /// pool counter.
    pub fn evaluate<L: kernel::ClusterLabel>(
        &self,
        labels: &[L],
        dims: &[Vec<usize>],
    ) -> kernel::Evaluation {
        debug_assert_eq!(labels.len(), self.points.rows());
        kernel::evaluate_tiles(self.layout, labels, dims)
    }

    /// Refinement assignment: nearest medoid, `None` outside every
    /// sphere of influence. One [`Pool::map_tiles`] fan-out of
    /// [`kernel::refine_assign_columnar`].
    pub fn refine_assign(
        &mut self,
        medoids: &[usize],
        dims: &[Vec<usize>],
        spheres: &[f64],
    ) -> Vec<Option<usize>> {
        let (points, metric) = (self.points, self.metric);
        let (medoids, dims, spheres) = (medoids.to_vec(), dims.to_vec(), spheres.to_vec());
        self.map_tiles(move |tile| {
            kernel::refine_assign_columnar(tile, points, metric, &medoids, &dims, &spheres)
        })
        .concat()
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::RoundCache;
    use crate::locality::medoid_deltas;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f64> = (0..n * d).map(|_| rng.random_range(0.0..100.0)).collect();
        Matrix::from_vec(data, n, d)
    }

    /// Every pass production runs — the round cache's fused pass and its
    /// assignment with and without `X`, cold and then served from cache,
    /// and the refinement's reassignment — must be bit-identical to the
    /// serial pool for any worker count, including counts far above the
    /// block count.
    #[test]
    fn pooled_passes_match_serial_bit_for_bit() {
        let points = random_points(3000, 6, 42);
        let medoids = vec![5usize, 700, 1800];
        let dims = vec![vec![0, 1], vec![2, 3], vec![4, 5]];
        let metric = DistanceKind::Manhattan;
        let deltas = medoid_deltas(&points, &medoids, metric);
        let spheres = crate::refine::spheres_of_influence(&points, &medoids, &dims, metric);

        let passes = |threads: usize| {
            with_pool(&points, metric, threads, |pool| {
                let mut cache = RoundCache::new(medoids.len());
                let fused = cache.fused_round(pool, &medoids, &deltas);
                let assign = cache.assign(pool, &medoids, &dims, false).0;
                let ax = RoundCache::new(medoids.len()).assign(pool, &medoids, &dims, true);
                assert_eq!(fused, cache.fused_round(pool, &medoids, &deltas));
                assert_eq!(ax, cache.assign(pool, &medoids, &dims, true));
                let stats = cache.stats();
                assert_eq!((stats.fused_slot_hits, stats.column_hits), (3, 3));
                let ra = pool.refine_assign(&medoids, &dims, &spheres);
                (fused, assign, ax, ra)
            })
        };
        let serial = passes(1);
        for threads in [2, 3, 8, 64] {
            let pooled = passes(threads);
            assert_eq!(serial.0, pooled.0, "fused, threads = {threads}");
            assert_eq!(serial.1, pooled.1, "assign, threads = {threads}");
            assert_eq!(serial.2, pooled.2, "assign with X, threads = {threads}");
            assert_eq!(serial.3, pooled.3, "refine, threads = {threads}");
        }
    }

    /// The one fan-out returns one result per tile, in ascending tile
    /// order, for any worker count, and counts one physical dispatch of
    /// every tile per call.
    #[test]
    fn map_tiles_returns_tiles_in_order_and_counts_one_dispatch() {
        let points = random_points(3500, 3, 9);
        let metric = DistanceKind::Manhattan;
        let ranges = kernel::blocks(points.rows());
        for threads in [1, 2, 3, 8] {
            with_pool(&points, metric, threads, |pool| {
                for call in 1..=3u64 {
                    let got = pool.map_tiles(|tile| (tile.lo(), tile.hi()));
                    assert_eq!(got, ranges, "threads {threads}");
                    let stats = pool.physical_stats();
                    assert_eq!(stats.dispatches, call, "threads {threads}");
                    assert_eq!(stats.blocks, call * ranges.len() as u64);
                }
            });
        }
    }

    #[test]
    fn pool_survives_many_rounds() {
        // The same workers serve repeated dispatches (the whole point of
        // the persistent pool).
        let points = random_points(2500, 4, 7);
        let metric = DistanceKind::Manhattan;
        let total = |threads: usize| {
            with_pool(&points, metric, threads, |pool| {
                let mut cache = RoundCache::new(2);
                let mut sum = 0usize;
                for round in 0..20 {
                    let medoids = vec![round, 1000 + round];
                    let dims = vec![vec![0, 1], vec![2, 3]];
                    sum += cache
                        .assign(pool, &medoids, &dims, false)
                        .0
                        .iter()
                        .sum::<usize>();
                }
                sum
            })
        };
        assert_eq!(total(4), total(1));
    }

    #[test]
    fn tiny_datasets_stay_serial() {
        // Fewer rows than one block: no workers are spawned, results
        // still correct.
        let points = random_points(50, 3, 1);
        let medoids = vec![0usize, 25];
        let dims = vec![vec![0, 1], vec![1, 2]];
        let metric = DistanceKind::Manhattan;
        let a = with_pool(&points, metric, 8, |pool| {
            assert_eq!(pool.workers(), 0);
            RoundCache::new(2).assign(pool, &medoids, &dims, false).0
        });
        let b = crate::assign::assign_points(&points, &medoids, &dims, metric);
        assert_eq!(a, b);
    }
}
