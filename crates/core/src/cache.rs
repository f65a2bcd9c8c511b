//! The cross-round iteration cache ([`RoundCache`]) — the engine of
//! every hill-climbing round.
//!
//! PROCLUS's hill climb replaces only the *bad* medoids between rounds
//! (Figure 2), and it swaps them for other points of the candidate set
//! `M`, so most of a round's per-medoid state is unchanged from the
//! round before, and a medoid or `(mᵢ, Dᵢ)` pair swapped out often
//! comes back in a later vertex. This module caches that state and
//! recomputes only what a swap actually touched, **bit-identically** to
//! recomputing everything (pinned by `tests/determinism.rs` and the
//! whole-fit digests of `tests/invariants.rs`).
//!
//! A round on a whole vertex the climb has already scored never gets
//! here: [`crate::iterate`] replays it from its per-restart vertex
//! memo. So the cache serves only the partial overlaps between
//! different vertices, and its hit ratios are lower than they were
//! when revisits ran every pass again.
//!
//! # What is cached, and its key
//!
//! * **Fused locality + `X` results** — the locality size `|Lᵢ|` and
//!   the per-dimension average distances `Xᵢⱼ` of every `(mᵢ, δᵢ)` pair
//!   the fit has computed, in one map keyed by the pair's value (δ
//!   compared *bitwise*) and tied to no slot. The members themselves are
//!   never kept: a round reads only the size and `X`. A pair's result
//!   depends only on its own medoid and radius, so a medoid that leaves
//!   and comes back with the same δ, or a pair that reappears in another
//!   slot, is served again. A swap recomputes the swapped-in medoid and
//!   exactly the medoids whose nearest-other-medoid distance changed —
//!   which is precisely a δ bit-change, since `medoid_deltas` is
//!   recomputed (cheaply, O(k²·d)) every round from the same code path.
//!   The map is never evicted. It holds one entry of `d + 1` numbers per
//!   fused recompute and is dropped with the per-fit cache, so its size
//!   is bounded by the fit's recompute count, which does not depend on
//!   the thread count (148 entries on a fit-d20 fit, 274 on fit-d100).
//! * **The column store** — one LRU of whole-`N` `f64` columns under
//!   two value keys, tied to no slot:
//!   - `Full(m)`: the finalized full-space segmental distances to
//!     medoid `m`. A fused pair that misses while its medoid's column is
//!     resident skips the `N·d` distance sweep and runs only the δ
//!     threshold and the `X` sums over the stored slice, so a δ-only
//!     change costs exactly that. A miss without it sweeps, and the
//!     same tile pass hands back the distances to store.
//!   - `Seg(m, D)`: the segmental distances to `m` over the dimension
//!     set `D`, which the assignment argmins.
//!
//!   A column is a pure per-point function of its key, so value-keying
//!   is exact: a medoid swapped out and back in, or a slot whose `Dᵢ`
//!   the global greedy allocation reshuffles and then restores, finds
//!   its columns again.
//!
//! The per-cluster `X` rows are *not* cached: almost every round moves
//! some point between clusters. An assignment asked for them sums them
//! in its own tile pass, for the inner refinement and the refinement
//! phase alike.
//!
//! # Budget and eviction
//!
//! Resident column bytes stay at most half the bytes of the points,
//! `N·d·8 / 2`, with a floor of `2k + 1` columns (a round's two
//! assignments read `2k`). The rule derives from the data; nothing sets
//! it. On fit-d100 (3 000 × 100, k = 10, one thread on a 2-vCPU x86-64
//! host) half the points took the median fit from about 620 to 440 ms
//! for 0.6 MB more peak RSS (+5%). A whole-dataset budget took it to
//! about 390 ms, but for +15% peak RSS; a quarter of one to about
//! 480 ms.
//!
//! A store that is full evicts the least recently used column that the
//! current call has not touched: the columns a call reads or stores are
//! pinned until it returns. A call pins at most `k` columns, which the
//! floor always leaves room for, so the budget holds. LRU order depends
//! only on the sequence of calls, so the evictions — like every other
//! counter here — do not depend on the thread count.
//!
//! # Why determinism survives
//!
//! Every recomputation runs the *same block kernels over the same
//! fixed tiling* as a full pass, restricted to the invalidated slots;
//! per-slot results are independent in those kernels (see
//! [`crate::kernel`]), so a cached value and a recomputed one are the
//! same bits. A stored `Full` slice is thresholded and summed by the
//! very loop that thresholds freshly swept distances. Each tile of an
//! assignment picks its labels from its column slices, stored or fresh,
//! with [`crate::kernel::argmin_columns`], whose branch-free select
//! keeps every rule of the comparison loop of the scalar
//! [`crate::assign::assign_points`]; its `X` partials are merged in tile
//! order.
//! The cache books no semantic passes: [`crate::iterate`] counts those
//! (`pool_dispatches`/`pool_blocks` in `round` events) from the shape
//! of each round, so the event stream does not depend on what the
//! cache held. The pool counts the [`Pool::map_tiles`] fan-outs that
//! ran as physical work: one per assignment, one per fused recompute,
//! and none for a fused pass served from cache.
//!
//! Cache effectiveness is observable through the `cache.*` manifest
//! counters and the per-round `cache.medoids_recomputed` gauge — both
//! flow through the measurement channel only, never the event stream.

use crate::kernel;
use crate::layout::TileView;
use crate::pool::Pool;
use proclus_math::Matrix;
use std::collections::HashMap;
use std::sync::Arc;

/// Monotone cache-effectiveness counters, exported to the run manifest
/// as `cache.*` (measurement channel only — never the event stream).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Fused locality/`X` lookups served from the map (or from a pair
    /// repeated earlier in the same call).
    pub fused_slot_hits: u64,
    /// Fused locality/`X` lookups computed: one per distinct pair the
    /// map missed, so also the number of map entries.
    pub fused_slot_recomputes: u64,
    /// Fused recomputes that read their medoid's stored `Full` column.
    pub full_column_hits: u64,
    /// Fused recomputes that swept (and stored) the `Full` column.
    pub full_column_recomputes: u64,
    /// Assignment columns served from the store.
    pub column_hits: u64,
    /// Assignment columns recomputed.
    pub column_recomputes: u64,
    /// Columns evicted to keep the store within its budget.
    pub evictions: u64,
    /// Most column bytes resident at once.
    pub peak_resident_bytes: u64,
}

/// The value key of a stored column.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum ColumnKey {
    /// Full-space segmental distances to medoid `m`.
    Full(usize),
    /// Segmental distances to medoid `m` over the dimensions `D`.
    Seg(usize, Vec<usize>),
}

/// A stored column and the clock value of its last use. The values sit
/// behind an `Arc` so a fan-out's tiles can read them on the workers.
struct Column {
    values: Arc<Vec<f64>>,
    last_use: u64,
}

/// Bytes of a column of `n` distances.
fn column_bytes(n: usize) -> usize {
    n * std::mem::size_of::<f64>()
}

/// The store's byte budget for `k` slots over `points`: half the bytes
/// of the points, and never fewer than `2k + 1` columns.
fn column_budget(points: &Matrix, k: usize) -> usize {
    let column = column_bytes(points.rows());
    (column * points.cols() / 2).max((2 * k + 1) * column)
}

/// One LRU of whole-`N` columns under value keys.
#[derive(Default)]
struct ColumnStore {
    columns: HashMap<ColumnKey, Column>,
    /// Advances on every use, so `last_use` values are unique and the
    /// LRU order is total.
    clock: u64,
    /// `clock` when the current call began: a column used since then is
    /// pinned.
    call_start: u64,
    resident_bytes: usize,
}

impl ColumnStore {
    /// Start a call: the columns it uses from here on are pinned.
    fn begin_call(&mut self) {
        self.call_start = self.clock;
    }

    /// The column under `key`, marked used.
    fn get(&mut self, key: &ColumnKey) -> Option<Arc<Vec<f64>>> {
        let column = self.columns.get_mut(key)?;
        column.last_use = self.clock;
        self.clock += 1;
        Some(Arc::clone(&column.values))
    }

    /// Store `values` under `key`, first evicting the least recently
    /// used unpinned columns until it fits in `budget` bytes (or only
    /// pinned ones are left).
    fn insert(
        &mut self,
        key: ColumnKey,
        values: Vec<f64>,
        budget: usize,
        stats: &mut CacheStats,
    ) -> Arc<Vec<f64>> {
        let bytes = column_bytes(values.len());
        while self.resident_bytes + bytes > budget {
            // `last_use` values are unique, so the map's iteration order
            // never decides the victim.
            let lru = self
                .columns
                .iter()
                .filter(|(_, c)| c.last_use < self.call_start)
                .min_by_key(|(_, c)| c.last_use)
                .map(|(key, _)| key.clone());
            let Some(column) = lru.and_then(|key| self.columns.remove(&key)) else {
                break;
            };
            self.resident_bytes -= column_bytes(column.values.len());
            stats.evictions += 1;
        }
        let values = Arc::new(values);
        let column = Column {
            values: Arc::clone(&values),
            last_use: self.clock,
        };
        self.clock += 1;
        self.resident_bytes += bytes;
        // A medoid repeated within one call stores its key twice.
        if let Some(old) = self.columns.insert(key, column) {
            self.resident_bytes -= column_bytes(old.values.len());
        }
        stats.peak_resident_bytes = stats.peak_resident_bytes.max(self.resident_bytes as u64);
        values
    }
}

/// Column `c` of every tile's pieces, concatenated in tile order into
/// one whole-`N` column.
fn gather(tiles: &[Vec<Vec<f64>>], c: usize, n: usize) -> Vec<f64> {
    let mut column = Vec::with_capacity(n);
    for pieces in tiles {
        column.extend_from_slice(&pieces[c]);
    }
    column
}

/// Per-fit incremental state for the hill-climbing rounds. Create one
/// per fit (it spans restarts — the value keys make stale state
/// harmless) and route every round's heavy pass through it.
pub struct RoundCache {
    /// The locality size `|Lᵢ|` and `X` row of every `(mᵢ, δᵢ bits)`
    /// pair computed in this fit.
    fused: HashMap<(usize, u64), (usize, Vec<f64>)>,
    /// Medoid slots per round; sizes the column store's floor.
    k: usize,
    store: ColumnStore,
    stats: CacheStats,
    round_recomputed: u64,
}

impl RoundCache {
    /// An empty cache for fits with `k` medoid slots.
    pub fn new(k: usize) -> Self {
        RoundCache {
            fused: HashMap::new(),
            k,
            store: ColumnStore::default(),
            stats: CacheStats::default(),
            round_recomputed: 0,
        }
    }

    /// Cumulative effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Fused pairs computed since the previous call — the per-round
    /// "medoids recomputed" gauge.
    pub fn take_round_recomputed(&mut self) -> u64 {
        std::mem::take(&mut self.round_recomputed)
    }

    /// The fused locality + `X` pass, serving every `(mᵢ, δᵢ)` pair
    /// computed before and computing the rest, each distinct pair once,
    /// in one subset pass. Returns the locality sizes `|Lᵢ|` and the `X`
    /// averages, bit-identical to [`crate::kernel::fused_block`] over
    /// [`crate::kernel::blocks`], merged by [`crate::kernel::merge_fused`].
    pub fn fused_round(
        &mut self,
        pool: &mut Pool<'_>,
        medoids: &[usize],
        deltas: &[f64],
    ) -> (Vec<usize>, Vec<Vec<f64>>) {
        let keys: Vec<(usize, u64)> = medoids
            .iter()
            .zip(deltas)
            .map(|(&m, &delta)| (m, delta.to_bits()))
            .collect();
        let mut missing: Vec<usize> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            if !self.fused.contains_key(key) && missing.iter().all(|&j| keys[j] != *key) {
                missing.push(i);
            }
        }
        self.stats.fused_slot_hits += (keys.len() - missing.len()) as u64;
        self.stats.fused_slot_recomputes += missing.len() as u64;
        self.round_recomputed += missing.len() as u64;
        if !missing.is_empty() {
            self.recompute_fused(pool, medoids, deltas, &missing);
        }
        keys.iter()
            .map(|key| {
                let (size, x) = &self.fused[key];
                (*size, x.clone())
            })
            .unzip()
    }

    /// Compute the `missing` slots' fused results in one tile pass and
    /// keep them under their `(mᵢ, δᵢ bits)` keys. Each slot's size and
    /// `X` row depend only on its own `(mᵢ, δᵢ)` and the fixed tiling,
    /// so a pass over the missing slots alone is bit-identical to those
    /// slots of a full pass. Slots whose medoid has a stored `Full`
    /// column read it; the rest sweep, and their distances are stored.
    fn recompute_fused(
        &mut self,
        pool: &mut Pool<'_>,
        medoids: &[usize],
        deltas: &[f64],
        missing: &[usize],
    ) {
        let (points, metric) = (pool.points(), pool.metric());
        let sub_m: Vec<usize> = missing.iter().map(|&i| medoids[i]).collect();
        let sub_d: Vec<f64> = missing.iter().map(|&i| deltas[i]).collect();
        let keys: Vec<ColumnKey> = sub_m.iter().map(|&m| ColumnKey::Full(m)).collect();
        let (partials, hits) = self.column_pass(pool, &keys, move |tile, stored| {
            kernel::fused_block_columnar(tile, points, metric, &sub_m, &sub_d, stored)
        });
        self.stats.full_column_hits += hits;
        self.stats.full_column_recomputes += keys.len() as u64 - hits;
        let (sizes, x) = kernel::merge_fused(partials, missing.len(), points.cols());
        for ((&slot, size), xi) in missing.iter().zip(sizes).zip(x) {
            let key = (medoids[slot], deltas[slot].to_bits());
            self.fused.insert(key, (size, xi));
        }
    }

    /// The assignment pass, bit-identical to
    /// [`crate::assign::assign_points`]: one tile pass argmins every
    /// point over the `Seg` column of `(medoids[i], dims[i])` per slot,
    /// computing and storing the columns the store misses. With
    /// `with_x` the same pass returns the per-cluster `X` averages (the
    /// input of the inner refinement and of the refinement phase),
    /// bit-identical to [`crate::kernel::cluster_x_block`] over
    /// [`crate::kernel::blocks`] merged by
    /// [`crate::kernel::merge_cluster_x`].
    pub fn assign(
        &mut self,
        pool: &mut Pool<'_>,
        medoids: &[usize],
        dims: &[Vec<usize>],
        with_x: bool,
    ) -> (Vec<usize>, Option<Vec<Vec<f64>>>) {
        let (points, metric) = (pool.points(), pool.metric());
        let keys: Vec<ColumnKey> = medoids
            .iter()
            .zip(dims)
            .map(|(&m, di)| ColumnKey::Seg(m, di.clone()))
            .collect();
        let (medoids, dims) = (medoids.to_vec(), dims.to_vec());
        let (partials, hits) = self.column_pass(pool, &keys, move |tile, stored| {
            kernel::assign_block_columnar(tile, points, metric, &medoids, &dims, stored, with_x)
        });
        self.stats.column_hits += hits;
        self.stats.column_recomputes += keys.len() as u64 - hits;
        let mut labels = Vec::with_capacity(points.rows());
        let mut counts = vec![0usize; keys.len()];
        let mut xsums = Vec::new();
        for part in partials {
            labels.extend(part.labels);
            if let Some((tile_counts, tile_x)) = part.x {
                counts
                    .iter_mut()
                    .zip(tile_counts)
                    .for_each(|(c, t)| *c += t);
                xsums.push(tile_x);
            }
        }
        let x = with_x.then(|| kernel::merge_cluster_x(xsums, &counts, points.cols()));
        (labels, x)
    }

    /// One tile pass over the columns under `keys`: each is looked up in
    /// order, `tile_pass` gets every tile with the stored slices (`None`
    /// for a miss) and returns its partial and one piece per missed
    /// column, in key order; the missed columns are then gathered and
    /// stored in that order. Returns the partials in tile order and the
    /// number of keys the store served.
    fn column_pass<'env, T, F>(
        &mut self,
        pool: &mut Pool<'env>,
        keys: &[ColumnKey],
        tile_pass: F,
    ) -> (Vec<T>, u64)
    where
        T: Send + 'env,
        F: Fn(&TileView<'env>, &[Option<&[f64]>]) -> (T, Vec<Vec<f64>>) + Send + Sync + 'env,
    {
        let budget = column_budget(pool.points(), self.k);
        let n = pool.points().rows();
        self.store.begin_call();
        let stored: Vec<Option<Arc<Vec<f64>>>> =
            keys.iter().map(|key| self.store.get(key)).collect();
        let missed: Vec<ColumnKey> = keys
            .iter()
            .zip(&stored)
            .filter(|(_, s)| s.is_none())
            .map(|(key, _)| key.clone())
            .collect();
        let hits = (keys.len() - missed.len()) as u64;
        let parts = pool.map_tiles(move |tile| {
            let slices: Vec<Option<&[f64]>> = stored
                .iter()
                .map(|s| s.as_deref().map(|c| &c[tile.lo()..tile.hi()]))
                .collect();
            tile_pass(tile, &slices)
        });
        let (partials, pieces): (Vec<T>, Vec<_>) = parts.into_iter().unzip();
        for (c, key) in missed.into_iter().enumerate() {
            let column = gather(&pieces, c, n);
            self.store.insert(key, column, budget, &mut self.stats);
        }
        (partials, hits)
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
                            let cached = cache.assign(pool, &medoids, &dims, false).0;
                            assert_eq!(cache.stats().column_hits, 0);
                            // Second call is served from cache.
                            let again = cache.assign(pool, &medoids, &dims, false).0;
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

    /// Run `vertices` through one cache as hill-climb rounds — the
    /// fused pass, an assignment with cluster `X`, and a refined
    /// assignment — and assert every round equals the reference kernels
    /// bit for bit. Returns the cache's counters.
    fn check_cached_rounds(
        points: &Matrix,
        threads: usize,
        total_dims: usize,
        vertices: &[Vec<usize>],
    ) -> CacheStats {
        let metric = DistanceKind::Manhattan;
        with_pool(points, metric, threads, |pool| {
            let mut cache = RoundCache::new(vertices[0].len());
            for (round, medoids) in vertices.iter().enumerate() {
                let deltas = medoid_deltas(points, medoids, metric);
                let (sizes, x) = cache.fused_round(pool, medoids, &deltas);
                let dims = crate::dims::find_dimensions_from_averages(&x, total_dims, true);
                let (flat, cx) = cache.assign(pool, medoids, &dims, true);
                let cx = cx.expect("X asked for");
                let dims2 = crate::dims::find_dimensions_from_averages(&cx, total_dims, true);
                let (flat2, none) = cache.assign(pool, medoids, &dims2, false);
                assert!(none.is_none(), "X not asked for");

                let (want_fused, want_flat, want_cx) =
                    reference_round(points, metric, medoids, &deltas, &dims);
                let ctx = format!("threads {threads} round {round}");
                assert_eq!((sizes, x), want_fused, "{ctx}: fused pass");
                assert_eq!(flat, want_flat, "{ctx}: assignment");
                assert_eq!(cx, want_cx, "{ctx}: cluster X");
                let (_, want_flat2, _) = reference_round(points, metric, medoids, &deltas, &dims2);
                assert_eq!(flat2, want_flat2, "{ctx}: refined assignment");
            }
            cache.stats()
        })
    }

    /// Swap-style workloads: cached rounds must be bit-identical to the
    /// reference kernels while actually hitting the cache. At `d = 3`
    /// the `2k + 1` floor is the store's budget, medoids leave and come
    /// back, and the store must evict.
    #[test]
    fn cached_rounds_match_row_major_rounds_bit_for_bit() {
        // One slot swapped every other round; the rounds between
        // re-evaluate an unchanged vertex.
        let mut medoids = vec![10usize, 900, 2100, 3300];
        let vertices: Vec<Vec<usize>> = (0..6)
            .map(|round| {
                if round % 2 == 1 {
                    medoids[round % 4] = 123 * round + 17;
                }
                medoids.clone()
            })
            .collect();
        let stats = check_cached_rounds(&random_points(4000, 8, 11), 1, 12, &vertices);
        assert!(
            stats.fused_slot_hits > 0 && stats.column_hits > 0,
            "workload must exercise the cache: {stats:?}"
        );

        // Slot `round % 4` takes one of four candidates in turn.
        let candidates = [10usize, 900, 2100, 2900, 450, 1500, 2500, 60];
        let vertices: Vec<Vec<usize>> = (0..16)
            .map(|round| {
                let mut medoids = candidates[..4].to_vec();
                medoids[round % 4] = candidates[4 + round % 4];
                medoids
            })
            .collect();
        let points = random_points(3000, 3, 5);
        for threads in [1, 4] {
            let stats = check_cached_rounds(&points, threads, 8, &vertices);
            assert!(stats.evictions > 0, "threads {threads}: {stats:?}");
            assert!(
                stats.full_column_hits > 0 && stats.column_hits > 0,
                "threads {threads}: {stats:?}"
            );
        }
    }

    /// The pool counts only fan-outs that ran: a fused pass served from
    /// cache runs none, a recompute of a subset of slots runs one over
    /// every tile, and every assignment runs exactly one, so a round that
    /// re-evaluates an unchanged vertex runs its two assignments only.
    /// Recomputed slots match the same slots of a full pass bit for bit.
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
                let before = pool.physical_stats().dispatches;
                let (_, cx) = cache.assign(pool, &medoids, &dims, true);
                let dims2 =
                    crate::dims::find_dimensions_from_averages(&cx.unwrap(), total_dims, true);
                cache.assign(pool, &medoids, &dims2, false);
                assert_eq!(
                    pool.physical_stats().dispatches - before,
                    2,
                    "one per assignment"
                );
                let before = pool.physical_stats();
                cache.fused_round(pool, &medoids, &deltas2);
                cache.assign(pool, &medoids, &dims, true);
                cache.assign(pool, &medoids, &dims2, false);
                let after = pool.physical_stats();
                assert_eq!(
                    after.dispatches - before.dispatches,
                    2,
                    "an unchanged vertex runs only its two assignments"
                );
                assert_eq!(after.blocks - before.blocks, 2 * nblocks);
            });
        }
    }

    /// Fused results are keyed by `(m, δ bits)`, not by slot: a medoid
    /// that leaves and comes back with the same δ, and the same pairs in
    /// permuted slots, are served without a fan-out and equal a fresh
    /// cache bit for bit. Each distinct pair of the script is computed
    /// exactly once.
    #[test]
    fn fused_results_are_keyed_by_value_not_by_slot() {
        let points = random_points(3000, 6, 13);
        let metric = DistanceKind::Manhattan;
        let bits = |(sizes, x): (Vec<usize>, Vec<Vec<f64>>)| {
            let x: Vec<Vec<u64>> = x
                .iter()
                .map(|row| row.iter().map(|v| v.to_bits()).collect())
                .collect();
            (sizes, x)
        };
        // (vertex, whether every pair of it was computed before)
        let script: [(&[usize], bool); 6] = [
            (&[10, 900, 2100], false),
            (&[10, 900, 2500], false), // 2100 leaves ...
            (&[10, 900, 2100], true),  // ... and comes back
            (&[2100, 10, 900], true),  // the same pairs, permuted
            (&[900, 2100, 10], true),
            (&[2500, 10, 900], true),
        ];
        for threads in [1, 4] {
            with_pool(&points, metric, threads, |pool| {
                let mut cache = RoundCache::new(3);
                let mut distinct = std::collections::HashSet::new();
                for (round, &(medoids, seen)) in script.iter().enumerate() {
                    let ctx = format!("threads {threads} round {round}");
                    let deltas = medoid_deltas(&points, medoids, metric);
                    let new_pairs = medoids
                        .iter()
                        .zip(&deltas)
                        .filter(|&(&m, &delta)| distinct.insert((m, delta.to_bits())))
                        .count();
                    assert_eq!(new_pairs == 0, seen, "{ctx}: the script's premise");
                    let before = pool.physical_stats();
                    let got = bits(cache.fused_round(pool, medoids, &deltas));
                    assert_eq!(cache.take_round_recomputed(), new_pairs as u64, "{ctx}");
                    if seen {
                        assert_eq!(pool.physical_stats(), before, "{ctx}: ran a fan-out");
                    }
                    let want = bits(RoundCache::new(3).fused_round(pool, medoids, &deltas));
                    assert_eq!(got, want, "{ctx}");
                }
                assert_eq!(
                    cache.stats().fused_slot_recomputes,
                    distinct.len() as u64,
                    "threads {threads}"
                );
            });
        }
    }

    /// A δ-only change with the medoid's `Full` column resident runs one
    /// fan-out, counts a full-column hit and sweeps no distances, and
    /// gives the bits of a cold recompute.
    #[test]
    fn delta_only_recompute_reads_the_stored_full_column() {
        let points = random_points(3000, 6, 8);
        let metric = DistanceKind::Euclidean;
        let nblocks = crate::kernel::blocks(points.rows()).len() as u64;
        for threads in [1, 4] {
            with_pool(&points, metric, threads, |pool| {
                let medoids = vec![7usize, 1300, 2600];
                let mut cache = RoundCache::new(medoids.len());
                let deltas = medoid_deltas(&points, &medoids, metric);
                cache.fused_round(pool, &medoids, &deltas);
                assert_eq!(cache.stats().full_column_recomputes, 3);
                let before = pool.physical_stats();

                let mut shrunk = deltas.clone();
                shrunk[1] *= 0.75;
                let got = cache.fused_round(pool, &medoids, &shrunk);
                let stats = cache.stats();
                assert_eq!(stats.fused_slot_recomputes, 4);
                assert_eq!(stats.full_column_hits, 1);
                assert_eq!(stats.full_column_recomputes, 3);
                let after = pool.physical_stats();
                assert_eq!(after.dispatches - before.dispatches, 1);
                assert_eq!(after.blocks - before.blocks, nblocks);
                let want = RoundCache::new(medoids.len()).fused_round(pool, &medoids, &shrunk);
                assert_eq!(got, want, "threads {threads}");
            });
        }
    }

    /// Resident column bytes never pass the budget: the floor leaves
    /// room for every column one call pins. Both rules bind somewhere:
    /// the `2k + 1` floor at `d = 4`, half the points at `d = 40`.
    #[test]
    fn resident_bytes_stay_within_the_budget() {
        for (d, k, floor_binds) in [(4usize, 3usize, true), (40, 2, false)] {
            let points = random_points(2500, d, 21);
            let metric = DistanceKind::Manhattan;
            let budget = column_budget(&points, k) as u64;
            let column = column_bytes(points.rows()) as u64;
            assert_eq!(budget == (2 * k as u64 + 1) * column, floor_binds, "d {d}");
            let stats = with_pool(&points, metric, 1, |pool| {
                let mut cache = RoundCache::new(k);
                for round in 0..40usize {
                    let medoids: Vec<usize> =
                        (0..k).map(|s| (round * 37 + s * 811) % 2500).collect();
                    let deltas = medoid_deltas(&points, &medoids, metric);
                    let (_, x) = cache.fused_round(pool, &medoids, &deltas);
                    let dims = crate::dims::find_dimensions_from_averages(&x, 2 * k, true);
                    cache.assign(pool, &medoids, &dims, true);
                    assert!(
                        cache.stats().peak_resident_bytes <= budget,
                        "d {d} round {round}"
                    );
                }
                cache.stats()
            });
            assert!(stats.evictions > 0, "d {d}: {stats:?}");
            assert_eq!(stats.peak_resident_bytes, budget, "d {d}");
        }
    }
}
