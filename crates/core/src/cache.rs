//! The cross-round iteration cache ([`RoundCache`]) — the engine of
//! every hill-climbing round.
//!
//! PROCLUS's hill climb replaces only the *bad* medoids between rounds
//! (Figure 2), so most of a round's per-medoid state is unchanged from
//! the round before. This module caches that state and recomputes only
//! what a swap actually touched, **bit-identically** to recomputing
//! everything (pinned by `tests/determinism.rs` and the whole-fit
//! digests of `tests/invariants.rs`).
//!
//! # What is cached, and its invalidation key
//!
//! * **Fused locality + `X` slots** — for each medoid slot, the
//!   locality size `|Lᵢ|` and the per-dimension average distances
//!   `Xᵢⱼ`, keyed by `(mᵢ, δᵢ)` (the δ value compared *bitwise*). The
//!   members themselves are never kept: a round reads only the size
//!   and `X`. A slot's
//!   fused result depends only on its own medoid and radius: swapping
//!   medoid `j` invalidates slot `j` directly and exactly those slots
//!   whose nearest-other-medoid distance changed — which is precisely a
//!   δ bit-change, since `medoid_deltas` is recomputed (cheaply,
//!   O(k²·d)) every round from the same code path.
//! * **Distance columns** — for each slot, up to two columns of
//!   per-point segmental distances keyed by `(mᵢ, Dᵢ)` (two, because a
//!   round queries each slot under the locality-derived dimensions and
//!   then the cluster-refined ones). A column is a pure per-point
//!   function of its key, so value-keying is exact: the global greedy
//!   dimension allocation may reshuffle another slot's `Dᵢ` after a
//!   swap, and that slot's column then misses and recomputes.
//!
//! The per-cluster `X` rows the inner refinement consumes are *not*
//! cached: almost every round moves some point between clusters, so
//! they are recomputed for all `k` clusters in one pass.
//!
//! # Why determinism survives
//!
//! Every recomputation runs the *same block kernels over the same
//! fixed tiling* as a full pass, restricted to the invalidated slots;
//! per-slot results are independent in those kernels (see
//! [`crate::kernel`]), so a cached value and a recomputed one are the
//! same bits. The assignment is rebuilt from columns by
//! [`crate::kernel::argmin_columns`], whose loop is literally the
//! comparison loop of the scalar [`crate::assign::assign_points`].
//! The cache books no semantic passes: [`crate::iterate`] counts those
//! (`pool_dispatches`/`pool_blocks` in `round` events) from the shape
//! of each round, so the event stream does not depend on what the
//! cache held. Its recomputes are [`Pool::map_tiles`] fan-outs, which
//! the pool counts as physical work; a slot served from cache runs
//! nothing.
//!
//! Cache effectiveness is observable through the `cache.*` manifest
//! counters and the per-round `cache.medoids_recomputed` gauge — both
//! flow through the measurement channel only, never the event stream.

use crate::kernel;
use crate::pool::Pool;
use std::sync::Arc;

/// Monotone cache-effectiveness counters, exported to the run manifest
/// as `cache.*` (measurement channel only — never the event stream).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Fused locality/`X` slots served from cache.
    pub fused_slot_hits: u64,
    /// Fused locality/`X` slots recomputed after invalidation.
    pub fused_slot_recomputes: u64,
    /// Distance columns served from cache.
    pub column_hits: u64,
    /// Distance columns recomputed after invalidation.
    pub column_recomputes: u64,
}

/// One cached fused slot: the locality size `|Lᵢ|` and `X` row of a
/// `(mᵢ, δᵢ)` pair.
struct FusedSlot {
    medoid: usize,
    delta_bits: u64,
    size: usize,
    x: Vec<f64>,
}

/// One cached distance column for a `(mᵢ, Dᵢ)` pair.
struct ColumnEntry {
    medoid: usize,
    dims: Vec<usize>,
    col: Vec<f64>,
}

/// Columns kept per slot: the two dimension sets a round queries
/// (locality-derived, then cluster-refined).
const COLUMNS_PER_SLOT: usize = 2;

/// Per-fit incremental state for the hill-climbing rounds. Create one
/// per fit (it spans restarts — the value keys make stale state
/// harmless) and route every round's heavy pass through it.
pub struct RoundCache {
    fused: Vec<Option<FusedSlot>>,
    columns: Vec<Vec<ColumnEntry>>,
    stats: CacheStats,
    round_recomputed: u64,
}

impl RoundCache {
    /// An empty cache for fits with `k` medoid slots (the tables grow
    /// if a call brings more).
    pub fn new(k: usize) -> Self {
        RoundCache {
            fused: (0..k).map(|_| None).collect(),
            columns: (0..k).map(|_| Vec::new()).collect(),
            stats: CacheStats::default(),
            round_recomputed: 0,
        }
    }

    /// Cumulative effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Fused slots recomputed since the previous call — the per-round
    /// "medoids recomputed" gauge.
    pub fn take_round_recomputed(&mut self) -> u64 {
        std::mem::take(&mut self.round_recomputed)
    }

    /// The fused locality + `X` pass, serving unchanged `(mᵢ, δᵢ)`
    /// slots from cache and recomputing the rest in one subset pass.
    /// Returns the locality sizes `|Lᵢ|` and the `X` averages,
    /// bit-identical to [`crate::kernel::fused_block`] over
    /// [`crate::kernel::blocks`], merged by [`crate::kernel::merge_fused`].
    pub fn fused_round(
        &mut self,
        pool: &mut Pool<'_>,
        medoids: &[usize],
        deltas: &[f64],
    ) -> (Vec<usize>, Vec<Vec<f64>>) {
        self.grow_to(medoids.len());
        let missing: Vec<usize> = medoids
            .iter()
            .zip(deltas)
            .enumerate()
            .filter(|&(i, (&m, &delta))| {
                !matches!(
                    &self.fused[i],
                    Some(s) if s.medoid == m && s.delta_bits == delta.to_bits()
                )
            })
            .map(|(i, _)| i)
            .collect();
        self.stats.fused_slot_hits += (medoids.len() - missing.len()) as u64;
        self.stats.fused_slot_recomputes += missing.len() as u64;
        self.round_recomputed += missing.len() as u64;
        if !missing.is_empty() {
            // Each slot's size and `X` row depend only on its own
            // `(mᵢ, δᵢ)` and the fixed tiling, so a pass over the missing
            // slots alone is bit-identical to those slots of a full pass.
            let (points, metric) = (pool.points(), pool.metric());
            let sub_m: Vec<usize> = missing.iter().map(|&i| medoids[i]).collect();
            let sub_d: Vec<f64> = missing.iter().map(|&i| deltas[i]).collect();
            let partials = pool.map_tiles(move |tile| {
                kernel::fused_block_columnar(tile, points, metric, &sub_m, &sub_d)
            });
            let (sizes, x) = kernel::merge_fused(partials, missing.len(), points.cols());
            for ((&slot, size), xi) in missing.iter().zip(sizes).zip(x) {
                self.fused[slot] = Some(FusedSlot {
                    medoid: medoids[slot],
                    delta_bits: deltas[slot].to_bits(),
                    size,
                    x: xi,
                });
            }
        }
        self.fused
            .iter()
            .take(medoids.len())
            .flatten()
            .map(|s| (s.size, s.x.clone()))
            .unzip()
    }

    /// Assignment fused with the per-cluster `X` averages (the inner
    /// refinement's input): the assignment from cached columns, then
    /// one cluster-`X` pass over all `k` clusters. Bit-identical to
    /// [`crate::assign::assign_points`], then
    /// [`crate::kernel::cluster_x_block`] over [`crate::kernel::blocks`]
    /// merged by [`crate::kernel::merge_cluster_x`].
    pub fn assign_x(
        &mut self,
        pool: &mut Pool<'_>,
        medoids: &[usize],
        dims: &[Vec<usize>],
    ) -> (Vec<usize>, Vec<Vec<f64>>) {
        let flat = self.assign(pool, medoids, dims);
        let labels: Vec<Option<usize>> = flat.iter().map(|&a| Some(a)).collect();
        let x = pool.cluster_x(medoids, Arc::new(labels));
        (flat, x)
    }

    /// Plain assignment pass via cached distance columns, bit-identical
    /// to [`crate::assign::assign_points`]: a column per slot for
    /// `(medoids[i], dims[i])`, misses recomputed in one subset pass,
    /// then every point goes to its argmin slot.
    pub fn assign(
        &mut self,
        pool: &mut Pool<'_>,
        medoids: &[usize],
        dims: &[Vec<usize>],
    ) -> Vec<usize> {
        let k = medoids.len();
        self.grow_to(k);
        // `at[i]` indexes slot `i`'s column for `(medoids[i], dims[i])`:
        // found now for a hit, set below when a miss pushes it.
        let mut at = vec![0usize; k];
        let mut missing = Vec::new();
        for (i, slot_at) in at.iter_mut().enumerate() {
            match self.columns[i]
                .iter()
                .position(|e| e.medoid == medoids[i] && e.dims == dims[i])
            {
                Some(e) => *slot_at = e,
                None => missing.push(i),
            }
        }
        self.stats.column_hits += (k - missing.len()) as u64;
        self.stats.column_recomputes += missing.len() as u64;
        let (points, metric) = (pool.points(), pool.metric());
        let n = points.rows();
        let mut fresh: Vec<Vec<f64>> = missing.iter().map(|_| Vec::with_capacity(n)).collect();
        if !missing.is_empty() {
            let sub_m: Vec<usize> = missing.iter().map(|&i| medoids[i]).collect();
            let sub_d: Vec<Vec<usize>> = missing.iter().map(|&i| dims[i].clone()).collect();
            let parts = pool.map_tiles(move |tile| {
                kernel::columns_block_columnar(tile, points, metric, &sub_m, &sub_d)
            });
            for part in parts {
                for (col, mut piece) in fresh.iter_mut().zip(part) {
                    col.append(&mut piece);
                }
            }
        }
        for (&slot, col) in missing.iter().zip(fresh) {
            let entries = &mut self.columns[slot];
            if entries.len() >= COLUMNS_PER_SLOT {
                entries.remove(0);
            }
            entries.push(ColumnEntry {
                medoid: medoids[slot],
                dims: dims[slot].clone(),
                col,
            });
            at[slot] = entries.len() - 1;
        }
        let refs: Vec<&[f64]> = at
            .iter()
            .zip(&self.columns)
            .map(|(&e, entries)| entries[e].col.as_slice())
            .collect();
        kernel::argmin_columns(&refs, n)
    }

    /// Grow the per-slot tables to at least `k` slots (`run_once` is
    /// called with a fixed `k`, but the cache does not assume it).
    fn grow_to(&mut self, k: usize) {
        while self.fused.len() < k {
            self.fused.push(None);
        }
        while self.columns.len() < k {
            self.columns.push(Vec::new());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locality::medoid_deltas;
    use crate::pool::with_pool;
    use proclus_math::{DistanceKind, Matrix};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Quantized coordinates force plenty of exact distance ties, so the
    /// tie-breaking of every path is exercised, not just the generic
    /// ordering.
    fn tie_heavy_points(n: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f64> = (0..n * d)
            .map(|_| f64::from(rng.random_range(0u32..6)))
            .collect();
        Matrix::from_vec(data, n, d)
    }

    fn random_points(n: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f64> = (0..n * d).map(|_| rng.random_range(0.0..100.0)).collect();
        Matrix::from_vec(data, n, d)
    }

    /// One round of the reference kernels: the row-major fused pass
    /// over [`crate::kernel::blocks`], the scalar assignment, and the
    /// assignment's row-major cluster-`X` rows.
    #[allow(clippy::type_complexity)]
    fn reference_round(
        points: &Matrix,
        metric: DistanceKind,
        medoids: &[usize],
        deltas: &[f64],
        dims: &[Vec<usize>],
    ) -> ((Vec<usize>, Vec<Vec<f64>>), Vec<usize>, Vec<Vec<f64>>) {
        use crate::kernel;
        let d = points.cols();
        let blocks = kernel::blocks(points.rows());
        let fused = kernel::merge_fused(
            blocks
                .iter()
                .map(|&(lo, hi)| kernel::fused_block(points, metric, medoids, deltas, lo, hi))
                .collect(),
            medoids.len(),
            d,
        );
        let flat = crate::assign::assign_points(points, medoids, dims, metric);
        let labels: Vec<Option<usize>> = flat.iter().map(|&a| Some(a)).collect();
        let mut counts = vec![0usize; medoids.len()];
        flat.iter().for_each(|&a| counts[a] += 1);
        let cluster_x = kernel::merge_cluster_x(
            blocks
                .iter()
                .map(|&(lo, hi)| kernel::cluster_x_block(points, medoids, &labels, lo, hi))
                .collect(),
            &counts,
            d,
        );
        (fused, flat, cluster_x)
    }

    /// S1 cross-path equivalence property test: the scalar
    /// `assign_points` and the cached column-argmin path (cold, then
    /// served from cache) must agree bit for bit over seeded random
    /// matrices — including tie-heavy ones where quantized coordinates
    /// make many distances exactly equal — for every metric and thread
    /// count tried.
    #[test]
    fn all_assignment_paths_agree_on_seeded_matrices() {
        for metric in [
            DistanceKind::Manhattan,
            DistanceKind::Euclidean,
            DistanceKind::Chebyshev,
        ] {
            for seed in [1u64, 2, 3] {
                for points in [
                    tie_heavy_points(1500, 5, seed),
                    random_points(1500, 5, seed),
                ] {
                    let medoids = vec![4usize, 600, 1100];
                    let dims = vec![vec![0, 1], vec![1, 2, 3], vec![0, 4]];
                    let scalar = crate::assign::assign_points(&points, &medoids, &dims, metric);
                    for threads in [1usize, 4] {
                        let (cached, cached_again) = with_pool(&points, metric, threads, |pool| {
                            let mut cache = RoundCache::new(medoids.len());
                            let cached = cache.assign(pool, &medoids, &dims);
                            assert_eq!(cache.stats().column_hits, 0);
                            // Second call is served from cache.
                            let again = cache.assign(pool, &medoids, &dims);
                            assert_eq!(cache.stats().column_hits, 3);
                            (cached, again)
                        });
                        assert_eq!(scalar, cached, "{metric:?} seed {seed} t{threads}: cached");
                        assert_eq!(scalar, cached_again, "{metric:?} seed {seed}: cache hit");
                    }
                }
            }
        }
    }

    /// A swap-style workload: cached rounds must be bit-identical to
    /// the reference kernels while actually hitting the cache.
    #[test]
    fn cached_rounds_match_row_major_rounds_bit_for_bit() {
        let points = random_points(4000, 8, 11);
        let metric = DistanceKind::Manhattan;
        let mut medoids = vec![10usize, 900, 2100, 3300];
        let total_dims = 12;

        let stats = with_pool(&points, metric, 1, |pool| {
            let mut cache = RoundCache::new(medoids.len());
            for round in 0..6 {
                // Swap one slot every other round, like the bad-medoid
                // step; the rounds between re-evaluate an unchanged vertex.
                if round % 2 == 1 {
                    let slot = round % medoids.len();
                    medoids[slot] = 123 * round + 17;
                }
                let deltas = medoid_deltas(&points, &medoids, metric);
                let (sizes, x) = cache.fused_round(pool, &medoids, &deltas);
                let dims = crate::dims::find_dimensions_from_averages(&x, total_dims, true);
                let (flat, cx) = cache.assign_x(pool, &medoids, &dims);
                let dims2 = crate::dims::find_dimensions_from_averages(&cx, total_dims, true);
                let flat2 = cache.assign(pool, &medoids, &dims2);

                let (want_fused, want_flat, want_cx) =
                    reference_round(&points, metric, &medoids, &deltas, &dims);
                assert_eq!((sizes, x), want_fused, "round {round}: fused pass");
                assert_eq!(flat, want_flat, "round {round}: assignment");
                assert_eq!(cx, want_cx, "round {round}: cluster X");
                let (_, want_flat2, _) =
                    reference_round(&points, metric, &medoids, &deltas, &dims2);
                assert_eq!(flat2, want_flat2, "round {round}: refined assignment");
            }
            cache.stats()
        });
        assert!(
            stats.fused_slot_hits > 0 && stats.column_hits > 0,
            "workload must exercise the cache: {stats:?}"
        );
    }

    /// The pool counts only fan-outs that ran: a pass served from cache
    /// runs none, a recompute of a subset of slots runs one over every
    /// tile, and a round that re-evaluates an unchanged vertex runs only
    /// its cluster-`X` pass. Recomputed slots match the same slots of a
    /// full pass bit for bit.
    #[test]
    fn fan_outs_count_only_what_the_cache_recomputes() {
        let points = random_points(3000, 6, 3);
        let metric = DistanceKind::Manhattan;
        let nblocks = crate::kernel::blocks(points.rows()).len() as u64;
        let total_dims = 8;
        for threads in [1, 4] {
            with_pool(&points, metric, threads, |pool| {
                let mut medoids = vec![1usize, 900, 2000, 2700];
                let mut cache = RoundCache::new(medoids.len());
                let deltas = medoid_deltas(&points, &medoids, metric);
                let full = cache.fused_round(pool, &medoids, &deltas);
                assert_eq!(cache.take_round_recomputed(), 4);
                assert_eq!(pool.physical_stats().dispatches, 1);
                assert_eq!(pool.physical_stats().blocks, nblocks);

                assert_eq!(cache.fused_round(pool, &medoids, &deltas), full);
                assert_eq!(cache.take_round_recomputed(), 0);
                assert_eq!(pool.physical_stats().dispatches, 1, "a hit runs nothing");

                // A swap recomputes the swapped slot and the slots whose
                // δ it moved, not all of them.
                medoids[3] = 2100;
                let deltas2 = medoid_deltas(&points, &medoids, metric);
                let (sizes, x) = cache.fused_round(pool, &medoids, &deltas2);
                let recomputed = cache.take_round_recomputed();
                assert!((1..4).contains(&recomputed), "{recomputed}");
                assert_eq!(pool.physical_stats().dispatches, 2, "a subset pass is one");
                assert_eq!(pool.physical_stats().blocks, 2 * nblocks);
                let want = RoundCache::new(medoids.len()).fused_round(pool, &medoids, &deltas2);
                assert_eq!((sizes, x.clone()), want, "threads {threads}");

                let dims = crate::dims::find_dimensions_from_averages(&x, total_dims, true);
                let (_, cx) = cache.assign_x(pool, &medoids, &dims);
                let dims2 = crate::dims::find_dimensions_from_averages(&cx, total_dims, true);
                cache.assign(pool, &medoids, &dims2);
                let before = pool.physical_stats().dispatches;
                cache.fused_round(pool, &medoids, &deltas2);
                cache.assign_x(pool, &medoids, &dims);
                cache.assign(pool, &medoids, &dims2);
                assert_eq!(
                    pool.physical_stats().dispatches - before,
                    1,
                    "an unchanged vertex runs only the cluster-X pass"
                );
            });
        }
    }
}
