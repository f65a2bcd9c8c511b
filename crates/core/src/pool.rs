//! A persistent worker pool for the per-round O(N·k·d) passes.
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
//!   [`crate::kernel::BLOCK`] rows), and every pass runs the columnar
//!   kernel of [`crate::kernel`] over them. A shared queue lets fast
//!   workers steal the remaining tiles, so an unlucky scheduling of one
//!   tile never idles the rest of the pool.
//! * Every block result is tagged with its block index and merged on
//!   the coordinating thread in ascending index order. Together with
//!   the fixed tiling this makes the result **bit-identical for every
//!   thread count** — see [`crate::kernel`] for the argument.
//! * `threads <= 1` (or a dataset smaller than one block) skips the
//!   workers entirely; the serial path runs the *same* tile kernels in
//!   the same order, so it is the reference the pooled path is compared
//!   against in the property tests.

use crate::kernel::{self, FusedPartial};
use crate::layout::{ColumnarBlocks, TileView};
use proclus_math::{DistanceKind, Matrix};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex};

/// Owned per-round job data shipped to the workers. Small (O(k·d) plus
/// one `Arc`'d assignment for the cluster-`X` pass) — the point matrix
/// and its tiles are borrowed by the workers, never sent.
enum Task {
    Fused {
        medoids: Arc<Vec<usize>>,
        deltas: Arc<Vec<f64>>,
    },
    Columns {
        medoids: Arc<Vec<usize>>,
        dims: Arc<Vec<Vec<usize>>>,
    },
    ClusterX {
        medoids: Arc<Vec<usize>>,
        assignment: Arc<Vec<Option<usize>>>,
    },
    RefineAssign {
        medoids: Arc<Vec<usize>>,
        dims: Arc<Vec<Vec<usize>>>,
        spheres: Arc<Vec<f64>>,
    },
}

/// One unit of work: a task applied to one tile.
struct Job<'env> {
    task: Task,
    tile: TileView<'env>,
    index: usize,
}

/// A tile's partial result, matched to the [`Task`] variant.
enum Partial {
    Fused(FusedPartial),
    Columns(Vec<Vec<f64>>),
    ClusterX(Vec<Vec<f64>>),
    RefineAssign(Vec<Option<usize>>),
}

impl Task {
    /// Run the task's columnar kernel over one tile.
    fn run(&self, points: &Matrix, metric: DistanceKind, tile: &TileView<'_>) -> Partial {
        match self {
            Task::Fused { medoids, deltas } => Partial::Fused(kernel::fused_block_columnar(
                tile, points, metric, medoids, deltas,
            )),
            Task::Columns { medoids, dims } => Partial::Columns(kernel::columns_block_columnar(
                tile, points, metric, medoids, dims,
            )),
            Task::ClusterX {
                medoids,
                assignment,
            } => Partial::ClusterX(kernel::cluster_x_block_columnar(
                tile, points, medoids, assignment,
            )),
            Task::RefineAssign {
                medoids,
                dims,
                spheres,
            } => Partial::RefineAssign(kernel::refine_assign_columnar(
                tile, points, metric, medoids, dims, spheres,
            )),
        }
    }

    fn clone_refs(&self) -> Task {
        match self {
            Task::Fused { medoids, deltas } => Task::Fused {
                medoids: Arc::clone(medoids),
                deltas: Arc::clone(deltas),
            },
            Task::Columns { medoids, dims } => Task::Columns {
                medoids: Arc::clone(medoids),
                dims: Arc::clone(dims),
            },
            Task::ClusterX {
                medoids,
                assignment,
            } => Task::ClusterX {
                medoids: Arc::clone(medoids),
                assignment: Arc::clone(assignment),
            },
            Task::RefineAssign {
                medoids,
                dims,
                spheres,
            } => Task::RefineAssign {
                medoids: Arc::clone(medoids),
                dims: Arc::clone(dims),
                spheres: Arc::clone(spheres),
            },
        }
    }
}

enum Mode<'env> {
    /// No workers: tiles run inline, in order, on the calling thread.
    Serial,
    /// Persistent workers consuming from a shared job queue.
    Pooled {
        job_tx: Sender<Job<'env>>,
        result_rx: Receiver<(usize, Partial)>,
    },
}

/// Work counters maintained by the pool.
///
/// The pool keeps two of these with different contracts:
///
/// * **Logical** stats count *semantic* passes — one per round-cache
///   `fused_round`/`assign`/`assign_x` call and per refinement pass —
///   each booked as a sweep over every row block. They are
///   **deterministic**: a pure function of `(params, data, seed)`,
///   identical for every thread count and independent of what the
///   [`crate::cache::RoundCache`] held (it books a full logical pass
///   even when it serves the result from cache). Safe to embed in the
///   trace event stream, and `round` events do.
/// * **Physical** stats count the fan-outs that actually ran, which the
///   cache shrinks (a pass fully served from cache dispatches
///   nothing). Scheduling-independent too, but they depend on the
///   cache's hit pattern, so they go only to the run-manifest
///   counters, never the event stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Fan-out passes (one per semantic pass, or per physical fan-out).
    pub dispatches: u64,
    /// Row blocks processed across those passes.
    pub blocks: u64,
}

impl PoolStats {
    fn diff(self, earlier: PoolStats) -> PoolStats {
        PoolStats {
            dispatches: self.dispatches - earlier.dispatches,
            blocks: self.blocks - earlier.blocks,
        }
    }
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
    stats: PoolStats,
    physical: PoolStats,
    round_mark: PoolStats,
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
        stats: PoolStats::default(),
        physical: PoolStats::default(),
        round_mark: PoolStats::default(),
        queue_high_water: 0,
    };
    if workers <= 1 {
        return f(&mut pool(Mode::Serial, 0));
    }
    std::thread::scope(|s| {
        let (job_tx, job_rx) = mpsc::channel::<Job<'_>>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let (result_tx, result_rx) = mpsc::channel::<(usize, Partial)>();
        for _ in 0..workers {
            let rx = Arc::clone(&job_rx);
            let tx = result_tx.clone();
            s.spawn(move || {
                loop {
                    // Hold the lock only to pop; compute unlocked. A
                    // poisoned lock (a worker died mid-pop) is still a
                    // usable receiver — take it and keep draining.
                    let job = match rx
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .recv()
                    {
                        Ok(job) => job,
                        Err(_) => break, // pool dropped: fit is over
                    };
                    let partial = job.task.run(points, metric, &job.tile);
                    if tx.send((job.index, partial)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(result_tx);
        let mut pool = pool(Mode::Pooled { job_tx, result_rx }, workers);
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
    /// across further (mutable) pool calls.
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

    /// Cumulative **logical** work counters since pool creation: the
    /// canonical semantic passes, identical for every thread count and
    /// whatever the round cache served.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Cumulative **physical** work counters since pool creation: the
    /// fan-outs that actually ran. The round cache skips fan-outs it
    /// serves from cache but splits `assign_x` into two (columns, then
    /// cluster `X`), so this may be above or below [`Pool::stats`];
    /// manifest counters only, never the event stream.
    pub fn physical_stats(&self) -> PoolStats {
        self.physical
    }

    /// Book one logical pass (a full sweep over every row block)
    /// without running anything. The round cache calls this for every
    /// semantic pass it serves — fully or partially — from cache, so
    /// the logical counters embedded in `round` events do not depend on
    /// its hit pattern.
    pub(crate) fn note_logical_pass(&mut self) {
        self.stats.dispatches += 1;
        self.stats.blocks += self.points.rows().div_ceil(kernel::BLOCK) as u64;
    }

    /// Work counters accumulated since the previous call (or pool
    /// creation). The iterative phase calls this once per round to tag
    /// its `round` events with per-round pool work.
    pub fn take_round_delta(&mut self) -> PoolStats {
        let delta = self.stats.diff(self.round_mark);
        self.round_mark = self.stats;
        delta
    }

    /// Largest number of jobs queued by a single dispatch (0 in serial
    /// mode). Scheduling-dependent by nature: manifest gauges only.
    pub fn queue_high_water(&self) -> u64 {
        self.queue_high_water
    }

    /// Fan a task out over all row blocks, booking both a logical and a
    /// physical pass (the refinement passes, which the cache never sees).
    fn dispatch(&mut self, task: Task) -> Vec<Partial> {
        self.note_logical_pass();
        self.dispatch_physical(task)
    }

    /// Fan a task out over all row blocks and collect the partials in
    /// ascending block order. Books only a *physical* pass — used
    /// directly by the round cache's passes, whose logical accounting
    /// happens at the semantic-pass level instead.
    fn dispatch_physical(&mut self, task: Task) -> Vec<Partial> {
        let tiles: Vec<TileView<'env>> = self.layout.tiles().collect();
        self.physical.dispatches += 1;
        self.physical.blocks += tiles.len() as u64;
        match &self.mode {
            Mode::Serial => tiles
                .iter()
                .map(|tile| task.run(self.points, self.metric, tile))
                .collect(),
            Mode::Pooled { job_tx, result_rx } => {
                let total = tiles.len();
                let mut slots: Vec<Option<Partial>> = (0..total).map(|_| None).collect();
                let mut queued = 0usize;
                for (index, &tile) in tiles.iter().enumerate() {
                    let job = Job {
                        task: task.clone_refs(),
                        tile,
                        index,
                    };
                    if job_tx.send(job).is_err() {
                        break; // workers gone: the serial sweep below covers it
                    }
                    queued += 1;
                }
                self.queue_high_water = self.queue_high_water.max(queued as u64);
                let mut received = 0usize;
                while received < queued {
                    match result_rx.recv() {
                        Ok((index, partial)) => {
                            if slots[index].replace(partial).is_none() {
                                received += 1;
                            }
                        }
                        Err(_) => break, // all workers gone mid-dispatch
                    }
                }
                // Graceful degradation: any tile no worker reported (a
                // hung-up pool) is computed on this thread, so the pass
                // always completes with the exact serial result.
                for (slot, tile) in slots.iter_mut().zip(&tiles) {
                    if slot.is_none() {
                        *slot = Some(task.run(self.points, self.metric, tile));
                    }
                }
                slots.into_iter().flatten().collect()
            }
        }
    }

    /// The fused locality + `X` pass over the given medoid slots:
    /// locality sizes and the per-dimension average distances over the
    /// localities, from one sweep. Physical work only — the round cache
    /// calls this for the invalidated *subset* of slots: each slot's
    /// size and `X` row depend only on its own `(mᵢ, δᵢ)` pair and the
    /// fixed block tiling, so a subset pass is bit-identical to the
    /// matching slots of a full pass.
    pub(crate) fn fused_pass(
        &mut self,
        medoids: &[usize],
        deltas: &[f64],
    ) -> (Vec<usize>, Vec<Vec<f64>>) {
        let d = self.points.cols();
        let partials = self.dispatch_physical(Task::Fused {
            medoids: Arc::new(medoids.to_vec()),
            deltas: Arc::new(deltas.to_vec()),
        });
        let fused = partials
            .into_iter()
            .map(|p| match p {
                Partial::Fused(f) => f,
                _ => unreachable!("fused task returns fused partials"),
            })
            .collect();
        kernel::merge_fused(fused, medoids.len(), d)
    }

    /// Segmental-distance columns for the given medoid slots: one
    /// `Vec<f64>` of length `N` per slot, `cols[s][p]` the distance of
    /// point `p` to `medoids[s]` under `dims[s]`. Physical work only —
    /// this is the cache's column-recomputation pass; see
    /// [`crate::kernel::columns_block`] for the bit-identity argument.
    pub(crate) fn distance_columns(
        &mut self,
        medoids: &[usize],
        dims: &[Vec<usize>],
    ) -> Vec<Vec<f64>> {
        if medoids.is_empty() {
            return Vec::new();
        }
        let partials = self.dispatch_physical(Task::Columns {
            medoids: Arc::new(medoids.to_vec()),
            dims: Arc::new(dims.to_vec()),
        });
        let mut cols: Vec<Vec<f64>> = medoids
            .iter()
            .map(|_| Vec::with_capacity(self.points.rows()))
            .collect();
        for p in partials {
            match p {
                Partial::Columns(c) => {
                    for (full, mut part) in cols.iter_mut().zip(c) {
                        full.append(&mut part);
                    }
                }
                _ => unreachable!("columns task returns column partials"),
            }
        }
        cols
    }

    /// Cluster-based `X` averages for a fixed assignment (outliers —
    /// `None` — contribute nothing). Used by the refinement phase.
    pub fn cluster_x(
        &mut self,
        medoids: &[usize],
        assignment: Arc<Vec<Option<usize>>>,
    ) -> Vec<Vec<f64>> {
        self.note_logical_pass();
        self.cluster_x_pass(medoids, assignment)
    }

    /// [`Pool::cluster_x`] booking only physical work: the round
    /// cache's `assign_x` runs it over the assignment it just built.
    pub(crate) fn cluster_x_pass(
        &mut self,
        medoids: &[usize],
        assignment: Arc<Vec<Option<usize>>>,
    ) -> Vec<Vec<f64>> {
        let k = medoids.len();
        let d = self.points.cols();
        let mut counts = vec![0usize; k];
        for a in assignment.iter().flatten() {
            counts[*a] += 1;
        }
        let partials = self.dispatch_physical(Task::ClusterX {
            medoids: Arc::new(medoids.to_vec()),
            assignment,
        });
        let parts = partials
            .into_iter()
            .map(|p| match p {
                Partial::ClusterX(x) => x,
                _ => unreachable!("cluster_x task returns cluster_x partials"),
            })
            .collect();
        kernel::merge_cluster_x(parts, &counts, d)
    }

    /// EvaluateClusters over the columnar tiles: the objective and the
    /// cluster sizes of the clustering given by one label per point
    /// (`usize` in the hill climb, `Option<usize>` with outliers after
    /// refinement) and the per-cluster dimension sets. Bit-identical to
    /// [`crate::evaluate::evaluate_clusters`]; see `kernel::evaluate_tiles`
    /// for the argument.
    ///
    /// Runs on the calling thread and books no pool work: the
    /// `dispatches`/`blocks` counters embedded in `round` events stay
    /// what they were.
    pub fn evaluate<L: kernel::ClusterLabel>(
        &self,
        labels: &[L],
        dims: &[Vec<usize>],
    ) -> kernel::Evaluation {
        debug_assert_eq!(labels.len(), self.points.rows());
        kernel::evaluate_tiles(self.layout, labels, dims)
    }

    /// Refinement assignment: nearest medoid, `None` outside every
    /// sphere of influence.
    pub fn refine_assign(
        &mut self,
        medoids: &[usize],
        dims: &[Vec<usize>],
        spheres: &[f64],
    ) -> Vec<Option<usize>> {
        let partials = self.dispatch(Task::RefineAssign {
            medoids: Arc::new(medoids.to_vec()),
            dims: Arc::new(dims.to_vec()),
            spheres: Arc::new(spheres.to_vec()),
        });
        let mut flat = Vec::with_capacity(self.points.rows());
        for p in partials {
            match p {
                Partial::RefineAssign(mut a) => flat.append(&mut a),
                _ => unreachable!("refine task returns refine partials"),
            }
        }
        flat
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

    /// Every pass production runs — the round cache's fused, assign and
    /// assign+X passes, cold and then served from cache, and the
    /// refinement passes — must be bit-identical to the serial pool for
    /// any worker count, including counts far above the block count.
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
                let assign = cache.assign(pool, &medoids, &dims);
                let ax = RoundCache::new(medoids.len()).assign_x(pool, &medoids, &dims);
                assert_eq!(fused, cache.fused_round(pool, &medoids, &deltas));
                assert_eq!(ax, cache.assign_x(pool, &medoids, &dims));
                let stats = cache.stats();
                assert_eq!((stats.fused_slot_hits, stats.column_hits), (3, 3));
                let asg: Arc<Vec<Option<usize>>> =
                    Arc::new(assign.iter().map(|&a| Some(a)).collect());
                let cx = pool.cluster_x(&medoids, asg);
                let ra = pool.refine_assign(&medoids, &dims, &spheres);
                (fused, assign, ax, cx, ra)
            })
        };
        let serial = passes(1);
        for threads in [2, 3, 8, 64] {
            let pooled = passes(threads);
            assert_eq!(serial.0, pooled.0, "fused, threads = {threads}");
            assert_eq!(serial.1, pooled.1, "assign, threads = {threads}");
            assert_eq!(serial.2, pooled.2, "assign_x, threads = {threads}");
            assert_eq!(serial.3, pooled.3, "cluster_x, threads = {threads}");
            assert_eq!(serial.4, pooled.4, "refine, threads = {threads}");
        }
    }

    /// A subset fused pass (the cache's invalidation recompute) must be
    /// bit-identical to the matching slots of the full pass, and the
    /// column pass must reproduce the exact distances the assignment
    /// kernels compare.
    #[test]
    fn subset_passes_match_full_pass_slots() {
        let points = random_points(2600, 6, 17);
        let medoids = vec![5usize, 700, 1800, 2100];
        let dims = vec![vec![0, 1], vec![2, 3], vec![4, 5], vec![0, 5]];
        let metric = DistanceKind::Manhattan;
        let deltas = medoid_deltas(&points, &medoids, metric);

        for threads in [1, 4] {
            with_pool(&points, metric, threads, |pool| {
                let (full_sizes, full_x) = pool.fused_pass(&medoids, &deltas);
                for subset in [vec![1usize], vec![0, 2], vec![3, 1]] {
                    let sub_m: Vec<usize> = subset.iter().map(|&i| medoids[i]).collect();
                    let sub_d: Vec<f64> = subset.iter().map(|&i| deltas[i]).collect();
                    let (sizes, x) = pool.fused_pass(&sub_m, &sub_d);
                    for (j, &slot) in subset.iter().enumerate() {
                        assert_eq!(sizes[j], full_sizes[slot], "threads {threads} slot {slot}");
                        assert_eq!(x[j], full_x[slot], "threads {threads} slot {slot}");
                    }
                }

                let cols = pool.distance_columns(&medoids, &dims);
                for (s, (&m, di)) in medoids.iter().zip(&dims).enumerate() {
                    for (p, &got) in cols[s].iter().enumerate() {
                        let direct = metric.eval_segmental(points.row(p), points.row(m), di);
                        assert_eq!(got.to_bits(), direct.to_bits(), "slot {s} row {p}");
                    }
                }
                assert!(pool.distance_columns(&[], &[]).is_empty());
            });
        }
    }

    /// Logical stats count semantic passes over every block; physical
    /// stats count what actually ran. A pass served from cache moves
    /// only the logical needle; a bare subset pass only the physical.
    #[test]
    fn logical_and_physical_stats_diverge_on_subset_passes() {
        let points = random_points(3000, 4, 3);
        let medoids = vec![1usize, 2000];
        let metric = DistanceKind::Manhattan;
        let deltas = medoid_deltas(&points, &medoids, metric);
        with_pool(&points, metric, 1, |pool| {
            let nblocks = kernel::blocks(points.rows()).len() as u64;
            let mut cache = RoundCache::new(medoids.len());
            cache.fused_round(pool, &medoids, &deltas);
            assert_eq!(pool.stats(), pool.physical_stats());
            assert_eq!(pool.stats().dispatches, 1);
            assert_eq!(pool.stats().blocks, nblocks);

            cache.fused_round(pool, &medoids, &deltas);
            assert_eq!(pool.stats().dispatches, 2, "a hit is still a logical pass");
            assert_eq!(pool.stats().blocks, 2 * nblocks);
            assert_eq!(pool.physical_stats().dispatches, 1, "a hit runs nothing");

            pool.fused_pass(&medoids[..1], &deltas[..1]);
            assert_eq!(pool.stats().dispatches, 2, "subset pass is not logical");
            assert_eq!(pool.physical_stats().dispatches, 2);
            assert_eq!(pool.physical_stats().blocks, 2 * nblocks);
        });
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
                    sum += cache.assign(pool, &medoids, &dims).iter().sum::<usize>();
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
            RoundCache::new(2).assign(pool, &medoids, &dims)
        });
        let b = crate::assign::assign_points(&points, &medoids, &dims, metric);
        assert_eq!(a, b);
    }
}
