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
//! * Work is distributed as fixed-size row blocks
//!   ([`crate::kernel::BLOCK`]); a shared queue lets fast workers steal
//!   the remaining blocks, so an unlucky scheduling of one block never
//!   idles the rest of the pool.
//! * Every block result is tagged with its block index and merged on
//!   the coordinating thread in ascending index order. Together with
//!   the fixed tiling this makes the result **bit-identical for every
//!   thread count** — see [`crate::kernel`] for the argument.
//! * `threads <= 1` (or a dataset smaller than one block) skips the
//!   workers entirely; the serial path runs the *same* block kernels in
//!   the same order, so it is the reference the pooled path is compared
//!   against in the property tests.

use crate::index::{FusedPruneCtx, NeighborIndex, PruneStats};
use crate::kernel::{self, AssignXPartial, FusedPartial};
use crate::layout::{ColumnarBlocks, FastMathStats};
use proclus_math::{DistanceKind, Matrix};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex};

/// Owned per-round job data shipped to the workers. Small (O(k·d) plus
/// one `Arc`'d assignment for the refinement pass) — the point matrix
/// itself is borrowed by the workers, never sent.
///
/// The fused task optionally carries a shared [`FusedPruneCtx`], and
/// the assignment-style tasks a `pruned` flag; either engages the
/// pruned kernel twin ([`crate::kernel`]), which is bit-identical to
/// the plain kernel, so the choice never reaches the results — only
/// the [`PruneStats`] riding back with each partial.
enum Task {
    Fused {
        medoids: Arc<Vec<usize>>,
        deltas: Arc<Vec<f64>>,
        ctx: Option<Arc<FusedPruneCtx>>,
    },
    Assign {
        medoids: Arc<Vec<usize>>,
        dims: Arc<Vec<Vec<usize>>>,
        pruned: bool,
    },
    AssignX {
        medoids: Arc<Vec<usize>>,
        dims: Arc<Vec<Vec<usize>>>,
        pruned: bool,
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
        pruned: bool,
    },
}

/// One unit of work: a task applied to a row block.
struct Job {
    task: Task,
    block: (usize, usize),
    index: usize,
}

/// A block's partial result, matched to the [`Task`] variant.
enum Partial {
    Fused(FusedPartial),
    Assign(Vec<usize>),
    AssignX(AssignXPartial),
    Columns(Vec<Vec<f64>>),
    ClusterX(Vec<Vec<f64>>),
    RefineAssign(Vec<Option<usize>>),
}

impl Task {
    /// Run the task over one row block. The returned [`PruneStats`] are
    /// this block's index-pruning counters (zero for unpruned tasks) —
    /// per-pair decisions depend only on the pair, so the totals are
    /// scheduling-independent even though they ride back with partials.
    fn run(
        &self,
        points: &Matrix,
        metric: DistanceKind,
        layout: Option<&ColumnarBlocks>,
        fast_math: bool,
        lo: usize,
        hi: usize,
    ) -> (Partial, PruneStats, FastMathStats) {
        let mut prune = PruneStats::default();
        let mut fstats = FastMathStats::default();
        // The canonical block ranges always lie within one tile, so a
        // missing tile only happens without a layout — every arm below
        // falls back to the row-major kernel in that case.
        let tile = layout.and_then(|l| l.tile(lo, hi));
        let tile = tile.as_ref();
        let partial = match self {
            Task::Fused {
                medoids,
                deltas,
                ctx,
            } => Partial::Fused(match (ctx, tile) {
                (Some(ctx), _) => kernel::fused_block_pruned(
                    points, metric, medoids, deltas, ctx, lo, hi, &mut prune, tile,
                ),
                (None, Some(t)) => {
                    kernel::fused_block_columnar(t, points, metric, medoids, deltas, lo, hi)
                }
                (None, None) => kernel::fused_block(points, metric, medoids, deltas, lo, hi),
            }),
            Task::Assign {
                medoids,
                dims,
                pruned,
            } => Partial::Assign(if *pruned {
                kernel::assign_block_pruned(
                    points,
                    metric,
                    medoids,
                    dims,
                    lo,
                    hi,
                    &mut prune,
                    tile,
                    fast_math.then_some(&mut fstats),
                )
            } else if let Some(t) = tile {
                kernel::assign_block_columnar(
                    t,
                    points,
                    metric,
                    medoids,
                    dims,
                    lo,
                    hi,
                    fast_math.then_some(&mut fstats),
                )
            } else {
                kernel::assign_block(points, metric, medoids, dims, lo, hi)
            }),
            Task::AssignX {
                medoids,
                dims,
                pruned,
            } => Partial::AssignX(if *pruned {
                kernel::assign_x_block_pruned(
                    points,
                    metric,
                    medoids,
                    dims,
                    lo,
                    hi,
                    &mut prune,
                    tile,
                    fast_math.then_some(&mut fstats),
                )
            } else if let Some(t) = tile {
                kernel::assign_x_block_columnar(
                    t,
                    points,
                    metric,
                    medoids,
                    dims,
                    lo,
                    hi,
                    fast_math.then_some(&mut fstats),
                )
            } else {
                kernel::assign_x_block(points, metric, medoids, dims, lo, hi)
            }),
            Task::Columns { medoids, dims } => Partial::Columns(match tile {
                Some(t) => kernel::columns_block_columnar(t, points, metric, medoids, dims, lo, hi),
                None => kernel::columns_block(points, metric, medoids, dims, lo, hi),
            }),
            Task::ClusterX {
                medoids,
                assignment,
            } => Partial::ClusterX(match tile {
                Some(t) => kernel::cluster_x_block_columnar(t, points, medoids, assignment, lo, hi),
                None => kernel::cluster_x_block(points, medoids, assignment, lo, hi),
            }),
            Task::RefineAssign {
                medoids,
                dims,
                spheres,
                pruned,
            } => Partial::RefineAssign(if *pruned {
                kernel::refine_assign_block_pruned(
                    points, metric, medoids, dims, spheres, lo, hi, &mut prune, tile,
                )
            } else if let Some(t) = tile {
                kernel::refine_assign_block_columnar(
                    t, points, metric, medoids, dims, spheres, lo, hi,
                )
            } else {
                kernel::refine_assign_block(points, metric, medoids, dims, spheres, lo, hi)
            }),
        };
        (partial, prune, fstats)
    }

    fn clone_refs(&self) -> Task {
        match self {
            Task::Fused {
                medoids,
                deltas,
                ctx,
            } => Task::Fused {
                medoids: Arc::clone(medoids),
                deltas: Arc::clone(deltas),
                ctx: ctx.as_ref().map(Arc::clone),
            },
            Task::Assign {
                medoids,
                dims,
                pruned,
            } => Task::Assign {
                medoids: Arc::clone(medoids),
                dims: Arc::clone(dims),
                pruned: *pruned,
            },
            Task::AssignX {
                medoids,
                dims,
                pruned,
            } => Task::AssignX {
                medoids: Arc::clone(medoids),
                dims: Arc::clone(dims),
                pruned: *pruned,
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
                pruned,
            } => Task::RefineAssign {
                medoids: Arc::clone(medoids),
                dims: Arc::clone(dims),
                spheres: Arc::clone(spheres),
                pruned: *pruned,
            },
        }
    }
}

enum Mode {
    /// No workers: blocks run inline, in order, on the calling thread.
    Serial,
    /// Persistent workers consuming from a shared job queue.
    Pooled {
        job_tx: Sender<Job>,
        result_rx: Receiver<(usize, Partial, PruneStats, FastMathStats)>,
    },
}

/// Configuration for [`with_pool_opts`].
#[derive(Clone, Copy, Debug)]
pub struct PoolOptions {
    /// Build the dimension-major [`ColumnarBlocks`] mirror and run
    /// every pass through the columnar kernel twins (bit-identical to
    /// the row-major kernels; on by default). Off is the row-major
    /// baseline the benches and the cross-path property tests compare
    /// against.
    pub columnar: bool,
    /// Also build the `f32` mirror and engage the exactness-gated
    /// prefilter in assignment passes (off by default; requires
    /// `columnar`). Results are bit-identical either way — only the
    /// `fastmath.*` counters and the work saved change.
    pub fast_math: bool,
}

impl Default for PoolOptions {
    fn default() -> Self {
        Self {
            columnar: true,
            fast_math: false,
        }
    }
}

/// Work counters maintained by the pool.
///
/// The pool keeps two of these with different contracts:
///
/// * **Logical** stats count *semantic* passes — one per
///   `fused_round`/`assign`/… as the uncached engine would dispatch
///   them, always over every row block. They are **deterministic**: a
///   pure function of `(params, data, seed)`, identical for every
///   thread count *and* for the cached and uncached engines (the
///   [`crate::cache::RoundCache`] books a full logical pass even when
///   it serves the result from cache). Safe to embed in the trace
///   event stream, and `round` events do.
/// * **Physical** stats count the fan-outs that actually ran, which the
///   cache shrinks (a pass fully served from cache dispatches
///   nothing). Scheduling-independent too, but *engine*-dependent, so
///   they go only to the run-manifest counters, never the event
///   stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Fan-out passes executed (one per `fused_round`/`assign`/…).
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
    mode: Mode,
    workers: usize,
    stats: PoolStats,
    physical: PoolStats,
    round_mark: PoolStats,
    queue_high_water: u64,
    /// The per-fit neighbor index; `Some` engages the pruned kernel
    /// twins in every fused/assign/refine pass.
    index: Option<Arc<NeighborIndex>>,
    /// Cumulative pruning counters across all passes (manifest-only —
    /// see [`crate::index::PruneStats`]).
    prune: PruneStats,
    /// The columnar mirror shared with the workers; `Some` routes every
    /// pass through the columnar kernel twins.
    layout: Option<Arc<ColumnarBlocks>>,
    /// Whether assignment passes engage the `f32` exactness-gated
    /// screen (requires `layout` with a fast mirror).
    fast_math: bool,
    /// Cumulative fast-path counters across all passes (manifest-only).
    fstats: FastMathStats,
    /// Row blocks dispatched with / without the columnar layout
    /// (manifest-only `layout.*` counters).
    columnar_blocks: u64,
    rowmajor_blocks: u64,
}

/// Run `f` with a [`Pool`] over `points`. With `threads > 1` (and at
/// least two blocks of data) the workers are spawned once, live for the
/// whole call, and are joined before this function returns; otherwise
/// `f` gets a serial pool and no threads are ever created.
pub fn with_pool<R>(
    points: &Matrix,
    metric: DistanceKind,
    threads: usize,
    f: impl FnOnce(&mut Pool<'_>) -> R,
) -> R {
    with_pool_opts(points, metric, threads, PoolOptions::default(), f)
}

/// [`with_pool`] with explicit layout/fast-math configuration. The
/// columnar mirror is built once here (one pass over the matrix) and
/// shared read-only with every worker.
pub fn with_pool_opts<R>(
    points: &Matrix,
    metric: DistanceKind,
    threads: usize,
    opts: PoolOptions,
    f: impl FnOnce(&mut Pool<'_>) -> R,
) -> R {
    let layout = opts
        .columnar
        .then(|| Arc::new(ColumnarBlocks::build(points, opts.fast_math)));
    let fast_math = opts.fast_math && opts.columnar;
    let n_blocks = points.rows().div_ceil(kernel::BLOCK);
    // More workers than blocks would never all run; cap keeps the
    // spawn cost proportional to useful parallelism. (Results do not
    // depend on the cap — or on the thread count at all.)
    let workers = threads.min(n_blocks);
    if workers <= 1 {
        let mut pool = Pool {
            points,
            metric,
            mode: Mode::Serial,
            workers: 0,
            stats: PoolStats::default(),
            physical: PoolStats::default(),
            round_mark: PoolStats::default(),
            queue_high_water: 0,
            index: None,
            prune: PruneStats::default(),
            layout,
            fast_math,
            fstats: FastMathStats::default(),
            columnar_blocks: 0,
            rowmajor_blocks: 0,
        };
        return f(&mut pool);
    }
    std::thread::scope(|s| {
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let (result_tx, result_rx) = mpsc::channel::<(usize, Partial, PruneStats, FastMathStats)>();
        for _ in 0..workers {
            let rx = Arc::clone(&job_rx);
            let tx = result_tx.clone();
            let worker_layout = layout.clone();
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
                    let (lo, hi) = job.block;
                    let (partial, prune, fstats) =
                        job.task
                            .run(points, metric, worker_layout.as_deref(), fast_math, lo, hi);
                    if tx.send((job.index, partial, prune, fstats)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(result_tx);
        let mut pool = Pool {
            points,
            metric,
            mode: Mode::Pooled { job_tx, result_rx },
            workers,
            stats: PoolStats::default(),
            physical: PoolStats::default(),
            round_mark: PoolStats::default(),
            queue_high_water: 0,
            index: None,
            prune: PruneStats::default(),
            layout,
            fast_math,
            fstats: FastMathStats::default(),
            columnar_blocks: 0,
            rowmajor_blocks: 0,
        };
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
    /// for the cached and uncached engines.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Cumulative **physical** work counters since pool creation: the
    /// fan-outs that actually ran. With the round cache active this is
    /// at most [`Pool::stats`]; manifest counters only, never the
    /// event stream.
    pub fn physical_stats(&self) -> PoolStats {
        self.physical
    }

    /// Book one logical pass (a full sweep over every row block)
    /// without running anything. The round cache calls this for every
    /// semantic pass it serves — fully or partially — from cache, so
    /// the logical counters embedded in `round` events stay identical
    /// to the uncached engine's.
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

    /// Install (or remove) the neighbor index. With an index set, every
    /// fused, assignment, and refinement pass runs its pruned kernel
    /// twin; results are bit-identical either way.
    pub fn set_index(&mut self, index: Option<Arc<NeighborIndex>>) {
        self.index = index;
    }

    /// Whether a neighbor index is installed.
    pub fn index_enabled(&self) -> bool {
        self.index.is_some()
    }

    /// Cumulative index-pruning counters since pool creation.
    /// Scheduling-independent (per-pair decisions depend only on the
    /// pair) but engine-dependent: manifest counters only, never the
    /// event stream.
    pub fn prune_stats(&self) -> PruneStats {
        self.prune
    }

    /// Whether the columnar layout is installed (every pass then runs
    /// the columnar kernel twins).
    pub fn layout_enabled(&self) -> bool {
        self.layout.is_some()
    }

    /// Whether assignment passes engage the `f32` exactness-gated
    /// screen.
    pub fn fast_math_enabled(&self) -> bool {
        self.fast_math
    }

    /// Cumulative fast-path counters since pool creation
    /// (manifest-only, like [`Pool::prune_stats`]).
    pub fn fast_math_stats(&self) -> FastMathStats {
        self.fstats
    }

    /// Row blocks dispatched `(with, without)` the columnar layout
    /// since pool creation (manifest-only `layout.*` counters).
    pub fn layout_block_counts(&self) -> (u64, u64) {
        (self.columnar_blocks, self.rowmajor_blocks)
    }

    /// Fan a task out over all row blocks, booking both a logical and a
    /// physical pass (the default for the uncached full passes).
    fn dispatch(&mut self, task: Task) -> Vec<Partial> {
        self.note_logical_pass();
        self.dispatch_physical(task)
    }

    /// Fan a task out over all row blocks and collect the partials in
    /// ascending block order. Books only a *physical* pass — used
    /// directly by the cache's subset recomputations, whose logical
    /// accounting happens at the semantic-pass level instead.
    fn dispatch_physical(&mut self, task: Task) -> Vec<Partial> {
        let blocks = kernel::blocks(self.points.rows());
        self.physical.dispatches += 1;
        self.physical.blocks += blocks.len() as u64;
        if self.layout.is_some() {
            self.columnar_blocks += blocks.len() as u64;
        } else {
            self.rowmajor_blocks += blocks.len() as u64;
        }
        match &self.mode {
            Mode::Serial => blocks
                .into_iter()
                .map(|(lo, hi)| {
                    let (partial, prune, fstats) = task.run(
                        self.points,
                        self.metric,
                        self.layout.as_deref(),
                        self.fast_math,
                        lo,
                        hi,
                    );
                    self.prune.merge(prune);
                    self.fstats.merge(fstats);
                    partial
                })
                .collect(),
            Mode::Pooled { job_tx, result_rx } => {
                let total = blocks.len();
                let mut slots: Vec<Option<Partial>> = (0..total).map(|_| None).collect();
                let mut queued = 0usize;
                for (index, &block) in blocks.iter().enumerate() {
                    let job = Job {
                        task: task.clone_refs(),
                        block,
                        index,
                    };
                    if job_tx.send(job).is_err() {
                        break; // workers gone: the serial sweep below covers it
                    }
                    queued += 1;
                }
                self.queue_high_water = self.queue_high_water.max(queued as u64);
                let mut received = 0usize;
                let mut prune = PruneStats::default();
                let mut fstats = FastMathStats::default();
                while received < queued {
                    match result_rx.recv() {
                        Ok((index, partial, block_prune, block_fstats)) => {
                            if slots[index].replace(partial).is_none() {
                                received += 1;
                                prune.merge(block_prune);
                                fstats.merge(block_fstats);
                            }
                        }
                        Err(_) => break, // all workers gone mid-dispatch
                    }
                }
                // Graceful degradation: any block no worker reported
                // (a hung-up pool) is computed on this thread, so the
                // pass always completes with the exact serial result.
                for (slot, &(lo, hi)) in slots.iter_mut().zip(&blocks) {
                    if slot.is_none() {
                        let (partial, block_prune, block_fstats) = task.run(
                            self.points,
                            self.metric,
                            self.layout.as_deref(),
                            self.fast_math,
                            lo,
                            hi,
                        );
                        *slot = Some(partial);
                        prune.merge(block_prune);
                        fstats.merge(block_fstats);
                    }
                }
                self.prune.merge(prune);
                self.fstats.merge(fstats);
                slots.into_iter().flatten().collect()
            }
        }
    }

    /// The fused locality + `X` pass: localities of every medoid and
    /// the per-dimension average distances over them, from one sweep.
    pub fn fused_round(
        &mut self,
        medoids: &[usize],
        deltas: &[f64],
    ) -> (Vec<Vec<usize>>, Vec<Vec<f64>>) {
        self.note_logical_pass();
        self.fused_pass(medoids, deltas)
    }

    /// [`Pool::fused_round`] booking only physical work. The cache uses
    /// this to recompute the invalidated *subset* of medoid slots: each
    /// slot's locality and `X` row depend only on its own `(mᵢ, δᵢ)`
    /// pair and the fixed block tiling, so a subset pass is bit-identical
    /// to the matching slots of the full pass.
    pub(crate) fn fused_pass(
        &mut self,
        medoids: &[usize],
        deltas: &[f64],
    ) -> (Vec<Vec<usize>>, Vec<Vec<f64>>) {
        let d = self.points.cols();
        // O(k²·d + k·R) per pass — amortized over the O(N·k·d) sweep it
        // prunes. Built fresh each pass because the medoid set changes.
        let ctx = self.index.as_ref().map(|idx| {
            Arc::new(FusedPruneCtx::new(
                Arc::clone(idx),
                self.points,
                medoids,
                self.metric,
            ))
        });
        let partials = self.dispatch_physical(Task::Fused {
            medoids: Arc::new(medoids.to_vec()),
            deltas: Arc::new(deltas.to_vec()),
            ctx,
        });
        let fused = partials
            .into_iter()
            .map(|p| match p {
                Partial::Fused(f) => f,
                _ => unreachable!("fused task returns fused partials"),
            })
            .collect();
        kernel::merge_fused(fused, medoids, d)
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

    /// Plain assignment pass (no `X` accumulation).
    pub fn assign(&mut self, medoids: &[usize], dims: &[Vec<usize>]) -> Vec<usize> {
        let pruned = self.index.is_some();
        let partials = self.dispatch(Task::Assign {
            medoids: Arc::new(medoids.to_vec()),
            dims: Arc::new(dims.to_vec()),
            pruned,
        });
        let mut flat = Vec::with_capacity(self.points.rows());
        for p in partials {
            match p {
                Partial::Assign(mut a) => flat.append(&mut a),
                _ => unreachable!("assign task returns assign partials"),
            }
        }
        flat
    }

    /// Assignment fused with the cluster-based `X` averages of the
    /// resulting clusters (consumed by the next inner refinement).
    pub fn assign_x(
        &mut self,
        medoids: &[usize],
        dims: &[Vec<usize>],
    ) -> (Vec<usize>, Vec<Vec<f64>>) {
        let k = medoids.len();
        let d = self.points.cols();
        let pruned = self.index.is_some();
        let partials = self.dispatch(Task::AssignX {
            medoids: Arc::new(medoids.to_vec()),
            dims: Arc::new(dims.to_vec()),
            pruned,
        });
        let parts = partials
            .into_iter()
            .map(|p| match p {
                Partial::AssignX(a) => a,
                _ => unreachable!("assign_x task returns assign_x partials"),
            })
            .collect();
        kernel::merge_assign_x(parts, k, d)
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

    /// [`Pool::cluster_x`] booking only physical work. The cache uses
    /// this with a *masked* assignment (`Some` only for the clusters
    /// whose membership or medoid changed) to recompute just the
    /// invalidated cluster-`X` rows: each cluster's row accumulates its
    /// own members in the same block-grouped ascending order either
    /// way, so the subset rows are bit-identical to the full pass.
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
    /// what they were. Without a columnar layout (row-major benches)
    /// the tiles are built for the call.
    pub fn evaluate<L: kernel::ClusterLabel>(
        &self,
        labels: &[L],
        dims: &[Vec<usize>],
    ) -> kernel::Evaluation {
        debug_assert_eq!(labels.len(), self.points.rows());
        match &self.layout {
            Some(layout) => kernel::evaluate_tiles(layout, labels, dims),
            None => {
                kernel::evaluate_tiles(&ColumnarBlocks::build(self.points, false), labels, dims)
            }
        }
    }

    /// Refinement assignment: nearest medoid, `None` outside every
    /// sphere of influence.
    pub fn refine_assign(
        &mut self,
        medoids: &[usize],
        dims: &[Vec<usize>],
        spheres: &[f64],
    ) -> Vec<Option<usize>> {
        let pruned = self.index.is_some();
        let partials = self.dispatch(Task::RefineAssign {
            medoids: Arc::new(medoids.to_vec()),
            dims: Arc::new(dims.to_vec()),
            spheres: Arc::new(spheres.to_vec()),
            pruned,
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
    use crate::locality::medoid_deltas;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f64> = (0..n * d).map(|_| rng.random_range(0.0..100.0)).collect();
        Matrix::from_vec(data, n, d)
    }

    /// Every pooled pass must be bit-identical to the serial pool for
    /// any worker count, including counts far above the block count.
    #[test]
    fn pooled_passes_match_serial_bit_for_bit() {
        let points = random_points(3000, 6, 42);
        let medoids = vec![5usize, 700, 1800];
        let dims = vec![vec![0, 1], vec![2, 3], vec![4, 5]];
        let metric = DistanceKind::Manhattan;
        let deltas = medoid_deltas(&points, &medoids, metric);
        let spheres = crate::refine::spheres_of_influence(&points, &medoids, &dims, metric);

        let serial = with_pool(&points, metric, 1, |pool| {
            let fused = pool.fused_round(&medoids, &deltas);
            let assign = pool.assign(&medoids, &dims);
            let ax = pool.assign_x(&medoids, &dims);
            let asg: Arc<Vec<Option<usize>>> = Arc::new(assign.iter().map(|&a| Some(a)).collect());
            let cx = pool.cluster_x(&medoids, asg);
            let ra = pool.refine_assign(&medoids, &dims, &spheres);
            (fused, assign, ax, cx, ra)
        });

        for threads in [2, 3, 8, 64] {
            let pooled = with_pool(&points, metric, threads, |pool| {
                let fused = pool.fused_round(&medoids, &deltas);
                let assign = pool.assign(&medoids, &dims);
                let ax = pool.assign_x(&medoids, &dims);
                let asg: Arc<Vec<Option<usize>>> =
                    Arc::new(assign.iter().map(|&a| Some(a)).collect());
                let cx = pool.cluster_x(&medoids, asg);
                let ra = pool.refine_assign(&medoids, &dims, &spheres);
                (fused, assign, ax, cx, ra)
            });
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
                let (full_locs, full_x) = pool.fused_round(&medoids, &deltas);
                for subset in [vec![1usize], vec![0, 2], vec![3, 1]] {
                    let sub_m: Vec<usize> = subset.iter().map(|&i| medoids[i]).collect();
                    let sub_d: Vec<f64> = subset.iter().map(|&i| deltas[i]).collect();
                    let (locs, x) = pool.fused_pass(&sub_m, &sub_d);
                    for (j, &slot) in subset.iter().enumerate() {
                        assert_eq!(locs[j], full_locs[slot], "threads {threads} slot {slot}");
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
    /// stats count what actually ran. A subset pass moves only the
    /// physical needle.
    #[test]
    fn logical_and_physical_stats_diverge_on_subset_passes() {
        let points = random_points(3000, 4, 3);
        let medoids = vec![1usize, 2000];
        let metric = DistanceKind::Manhattan;
        let deltas = medoid_deltas(&points, &medoids, metric);
        with_pool(&points, metric, 1, |pool| {
            let nblocks = kernel::blocks(points.rows()).len() as u64;
            pool.fused_round(&medoids, &deltas);
            assert_eq!(pool.stats(), pool.physical_stats());
            assert_eq!(pool.stats().dispatches, 1);
            assert_eq!(pool.stats().blocks, nblocks);

            pool.fused_pass(&medoids[..1], &deltas[..1]);
            assert_eq!(pool.stats().dispatches, 1, "subset pass is not logical");
            assert_eq!(pool.physical_stats().dispatches, 2);

            pool.note_logical_pass();
            assert_eq!(pool.stats().dispatches, 2);
            assert_eq!(pool.stats().blocks, 2 * nblocks);
            assert_eq!(pool.physical_stats().dispatches, 2);
        });
    }

    #[test]
    fn pool_survives_many_rounds() {
        // The same workers serve repeated dispatches (the whole point of
        // the persistent pool).
        let points = random_points(2500, 4, 7);
        let metric = DistanceKind::Manhattan;
        let total = with_pool(&points, metric, 4, |pool| {
            let mut sum = 0usize;
            for round in 0..20 {
                let medoids = vec![round, 1000 + round];
                let dims = vec![vec![0, 1], vec![2, 3]];
                sum += pool.assign(&medoids, &dims).iter().sum::<usize>();
            }
            sum
        });
        let serial_total = with_pool(&points, metric, 1, |pool| {
            let mut sum = 0usize;
            for round in 0..20 {
                let medoids = vec![round, 1000 + round];
                let dims = vec![vec![0, 1], vec![2, 3]];
                sum += pool.assign(&medoids, &dims).iter().sum::<usize>();
            }
            sum
        });
        assert_eq!(total, serial_total);
    }

    /// Installing the neighbor index must not move a single bit of any
    /// pass result — only the prune counters — at any thread count.
    #[test]
    fn indexed_pool_passes_match_unindexed_bit_for_bit() {
        let points = random_points(3000, 6, 42);
        let medoids = vec![5usize, 700, 1800];
        let dims = vec![vec![0, 1], vec![2, 3], vec![4, 5]];
        let metric = DistanceKind::Manhattan;
        let deltas = medoid_deltas(&points, &medoids, metric);
        let spheres = crate::refine::spheres_of_influence(&points, &medoids, &dims, metric);

        let run = |threads: usize, indexed: bool| {
            with_pool(&points, metric, threads, |pool| {
                if indexed {
                    pool.set_index(Some(Arc::new(NeighborIndex::build(&points, metric))));
                    assert!(pool.index_enabled());
                }
                let fused = pool.fused_round(&medoids, &deltas);
                let assign = pool.assign(&medoids, &dims);
                let ax = pool.assign_x(&medoids, &dims);
                let ra = pool.refine_assign(&medoids, &dims, &spheres);
                let pruned = {
                    let s = pool.prune_stats();
                    s.range_sketch_pruned
                        + s.range_triangle_pruned
                        + s.range_prefix_pruned
                        + s.nearest_pruned
                };
                (fused, assign, ax, ra, pruned)
            })
        };

        let plain = run(1, false);
        assert_eq!(plain.4, 0, "unindexed pool must not count prunes");
        for threads in [1, 4] {
            let indexed = run(threads, true);
            assert_eq!(plain.0, indexed.0, "fused, threads {threads}");
            assert_eq!(plain.1, indexed.1, "assign, threads {threads}");
            assert_eq!(plain.2, indexed.2, "assign_x, threads {threads}");
            assert_eq!(plain.3, indexed.3, "refine, threads {threads}");
            assert!(indexed.4 > 0, "index inert at threads {threads}");
        }
        // The counters themselves are scheduling-independent.
        assert_eq!(run(1, true).4, run(4, true).4);
    }

    #[test]
    fn tiny_datasets_stay_serial() {
        // Fewer rows than one block: no workers are spawned, results
        // still correct.
        let points = random_points(50, 3, 1);
        let medoids = vec![0usize, 25];
        let dims = vec![vec![0, 1], vec![1, 2]];
        let metric = DistanceKind::Manhattan;
        let a = with_pool(&points, metric, 8, |pool| pool.assign(&medoids, &dims));
        let b = crate::assign::assign_points(&points, &medoids, &dims, metric);
        assert_eq!(a, b);
    }
}
