//! Block-level compute kernels for the O(N·k·d) passes of a
//! hill-climbing round, shared by the serial path and the worker pool
//! ([`crate::pool`]).
//!
//! # The fused pass
//!
//! A round of the iterative phase needs two things from each locality
//! `Lᵢ` (Figures 2–3): its size `|Lᵢ|` and the per-dimension average
//! distances `Xᵢⱼ` over its members. Both come from the same
//! `|p_j − m_j|` values, so [`fused_block`] computes them once per
//! (point, medoid) pair: the locality test folds the differences into
//! the full-space segmental distance, and a point inside the locality
//! is counted and its differences are added into the `Xᵢⱼ` sums. The
//! pass yields **counts and `X` sums**, never member lists: nothing
//! downstream reads which points a locality holds
//! ([`crate::locality::localities`] stays as the membership oracle).
//!
//! # Member sweeps
//!
//! Every per-member sum of the engine — the fused pass's `X` sums, the
//! cluster-based `X` sums of the inner refinement, and both passes of
//! the tile evaluator — goes through one primitive, `sweep_members`: a
//! list of ascending tile-local `u32` member offsets, and up to four
//! cells fed side by side. Each cell stays one running sum that gets
//! its members in ascending order, so the side-by-side walk only hides
//! the add latency; it never reassociates a sum.
//!
//! # Determinism
//!
//! All kernels operate on fixed-size row blocks of [`BLOCK`] points.
//! A block's partial result depends only on the block's rows, never on
//! which thread ran it, and partials are merged on the coordinating
//! thread in ascending block order. Floating-point accumulation order
//! is therefore *canonical*: every thread count (including the serial
//! path, which runs the identical per-block code) produces bit-identical
//! locality sizes, `X` sums, dimension sets, and assignments.
//!
//! The segmental distances computed from the scratch buffer are
//! bit-identical to [`DistanceKind::eval_segmental`] over the full
//! dimension list: the summation order is the same, and for the
//! Euclidean kind `|x|·|x|` equals `x·x` bitwise (taking the absolute
//! value only clears the sign bit).
//!
//! # Reference and production kernels
//!
//! The row-major kernels ([`fused_block`], [`cluster_x_block`]) loop
//! points outermost and read `points.row(p)` directly; with the
//! `merge_*` functions they are the **test oracle** of the passes whose
//! block merge order defines the bits. Production runs only the
//! columnar twins (`*_columnar`, below), which callers map over the
//! tiles of [`crate::layout::ColumnarBlocks`] with
//! [`crate::pool::Pool::map_tiles`]. Passes without a cross-row sum
//! are checked against scalar code instead: every distance column of
//! [`columns_block_columnar`] against
//! [`DistanceKind::eval_segmental`], the hill climb's assignment, which
//! the round cache ([`crate::cache`]) builds with [`argmin_columns`]
//! from those columns, against [`crate::assign::assign_points`], and
//! the refinement's [`refine_assign_columnar`] against
//! [`crate::refine::reassign`]. Every production kernel is
//! bit-identical to its reference (asserted by the agreement tests
//! below and by `tests/columnar.rs`).

use crate::layout::{ColumnarBlocks, TileView};
use proclus_math::{DistanceKind, Matrix};

/// Rows per work block. Large enough that per-block dispatch overhead
/// vanishes, small enough that a round over 100k points yields ~100
/// blocks for load balancing.
pub const BLOCK: usize = 1024;

/// Contiguous `(start, end)` row ranges of at most [`BLOCK`] rows
/// covering `0..n`. This tiling is *fixed* for a given `n` — it defines
/// the canonical accumulation grouping and must not depend on the
/// thread count.
pub fn blocks(n: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::with_capacity(n.div_ceil(BLOCK));
    let mut lo = 0;
    while lo < n {
        let hi = (lo + BLOCK).min(n);
        out.push((lo, hi));
        lo = hi;
    }
    out
}

/// Partial result of the fused locality + `X` pass over one block:
/// per medoid slot, how many of the block's points lie in the locality
/// and the sums of their differences.
#[derive(Clone, Debug, PartialEq)]
pub struct FusedPartial {
    /// Per-medoid count of this block's locality members.
    pub counts: Vec<usize>,
    /// Per-medoid, per-dimension sums of `|p_j − m_j|` over this
    /// block's locality members.
    pub xsums: Vec<Vec<f64>>,
}

/// Fold a scratch buffer of absolute per-dimension differences into the
/// full-space segmental distance, bit-identical to
/// `metric.eval_segmental(a, b, &[0, 1, …, d-1])`.
#[inline]
fn segmental_from_diffs(metric: DistanceKind, diffs: &[f64]) -> f64 {
    match metric {
        DistanceKind::Manhattan => diffs.iter().sum::<f64>() / diffs.len() as f64,
        DistanceKind::Euclidean => {
            let sum: f64 = diffs.iter().map(|&v| v * v).sum();
            (sum / diffs.len() as f64).sqrt()
        }
        DistanceKind::Chebyshev => diffs.iter().copied().fold(0.0, f64::max),
    }
}

/// The fused pass over rows `lo..hi`: for every medoid, the number of
/// points inside its locality plus the `Xᵢⱼ` partial sums over those
/// points, from a single computation of the `|p_j − m_j|` differences.
pub fn fused_block(
    points: &Matrix,
    metric: DistanceKind,
    medoids: &[usize],
    deltas: &[f64],
    lo: usize,
    hi: usize,
) -> FusedPartial {
    let d = points.cols();
    let k = medoids.len();
    let mut counts = vec![0usize; k];
    let mut xsums = vec![vec![0.0; d]; k];
    let mut diffs = vec![0.0; d];
    for p in lo..hi {
        let prow = points.row(p);
        for (i, &m) in medoids.iter().enumerate() {
            let mrow = points.row(m);
            for j in 0..d {
                diffs[j] = (prow[j] - mrow[j]).abs();
            }
            if segmental_from_diffs(metric, &diffs) <= deltas[i] {
                counts[i] += 1;
                let xi = &mut xsums[i];
                for j in 0..d {
                    xi[j] += diffs[j];
                }
            }
        }
    }
    FusedPartial { counts, xsums }
}

/// Merge fused partials (given in ascending block order) into the
/// locality sizes `|Lᵢ|` and the `X` averages (`Xᵢⱼ` = mean over
/// locality `i` of `|p_j − m_j|`).
///
/// An empty locality — only reachable when a medoid's coordinates are
/// non-finite, since a finite medoid is always within `δᵢ ≥ 0` of
/// itself — falls back to the singleton `Lᵢ = {mᵢ}`: size 1 with an
/// all-zero `X` row (`|m_j − m_j| = 0` in exact arithmetic; pinning the
/// row avoids poisoning FindDimensions with NaN differences). The same
/// fallback lives in [`crate::locality::localities`], so the fused and
/// scalar paths stay identical.
pub fn merge_fused(partials: Vec<FusedPartial>, k: usize, d: usize) -> (Vec<usize>, Vec<Vec<f64>>) {
    let mut sizes = vec![0usize; k];
    let mut x = vec![vec![0.0; d]; k];
    for part in partials {
        for (size, count) in sizes.iter_mut().zip(&part.counts) {
            *size += count;
        }
        for (xi, pi) in x.iter_mut().zip(&part.xsums) {
            for (a, b) in xi.iter_mut().zip(pi) {
                *a += b;
            }
        }
    }
    for (xi, size) in x.iter_mut().zip(sizes.iter_mut()) {
        if *size == 0 {
            *size = 1;
            for v in xi.iter_mut() {
                *v = 0.0;
            }
        } else {
            let inv = 1.0 / *size as f64;
            for v in xi.iter_mut() {
                *v *= inv;
            }
        }
    }
    (sizes, x)
}

/// Assignment from per-slot distance columns: for every row, the slot
/// with the smallest distance, ties (and the all-NaN degenerate case)
/// to the lower slot index.
///
/// Iterates slots in ascending order with a strict `<` comparison —
/// exactly the loop of [`crate::assign::assign_points`] — so feeding it
/// columns produced by [`columns_block_columnar`] (cached or fresh)
/// reproduces the direct assignment bit for bit, including the NaN
/// behavior (a NaN distance never wins; a row whose every distance is
/// NaN lands on slot 0).
///
/// The loop stays point-outer with a branch on purpose: it keeps each
/// row's `best` pair in registers. Two column-outer, branch-free select
/// variants were measured on fit-d20 (20k × 20, k = 5, one thread on a
/// 2-vCPU x86-64 host) and both made the assign phase slower: a select
/// over all `N` rows per column took it from 171–185 to 262 ms per fit,
/// and the same select in 256-row chunks to 268–277 ms per fit.
pub fn argmin_columns(columns: &[&[f64]], n: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(n);
    for p in 0..n {
        let mut best = 0usize;
        let mut best_dist = f64::INFINITY;
        for (i, col) in columns.iter().enumerate() {
            let dist = col[p];
            if dist < best_dist {
                best_dist = dist;
                best = i;
            }
        }
        out.push(best);
    }
    out
}

/// Cluster-based `X` partial sums over rows `lo..hi` for a fixed
/// assignment (`None` entries — outliers — contribute to no cluster).
/// Used by the refinement phase, where the reference sets are the final
/// iterative clusters rather than a just-computed assignment.
pub fn cluster_x_block(
    points: &Matrix,
    medoids: &[usize],
    assignment: &[Option<usize>],
    lo: usize,
    hi: usize,
) -> Vec<Vec<f64>> {
    let d = points.cols();
    let mut xsums = vec![vec![0.0; d]; medoids.len()];
    for (p, a) in assignment.iter().enumerate().take(hi).skip(lo) {
        let Some(i) = *a else { continue };
        let row = points.row(p);
        let mrow = points.row(medoids[i]);
        let xi = &mut xsums[i];
        for j in 0..d {
            xi[j] += (row[j] - mrow[j]).abs();
        }
    }
    xsums
}

/// Merge cluster-`X` partials into averages, dividing by the reference
/// set sizes (`counts[i]` = number of points assigned to cluster `i`).
pub fn merge_cluster_x(partials: Vec<Vec<Vec<f64>>>, counts: &[usize], d: usize) -> Vec<Vec<f64>> {
    let mut x = vec![vec![0.0; d]; counts.len()];
    for part in partials {
        for (xi, pi) in x.iter_mut().zip(&part) {
            for (a, b) in xi.iter_mut().zip(pi) {
                *a += b;
            }
        }
    }
    for (xi, &c) in x.iter_mut().zip(counts) {
        if c > 0 {
            let inv = 1.0 / c as f64;
            for v in xi.iter_mut() {
                *v *= inv;
            }
        }
    }
    x
}

// ---------------------------------------------------------------------
// Columnar twins.
//
// Every kernel above loops points outermost and dimensions innermost:
// per (point, candidate) pair the distance accumulator is a serial
// dependency chain the compiler must not reassociate, so the loops stay
// scalar. The twins below consume the dimension-major tiles of
// [`crate::layout::ColumnarBlocks`] and loop dimensions outermost over
// a whole block of points: each inner iteration updates `w`
// *independent* accumulators (one per point), a branch-free form the
// auto-vectorizer handles — while every individual accumulator still
// receives exactly the same additions in exactly the same
// (dimension-ascending) order as its row-major twin. Together with the
// facts that `|x|·|x| == x·x` bitwise and that `f64::max` is the very
// function the row-major fold uses, every distance, membership flag,
// winner, and `X` cell is bit-identical (asserted by the agreement
// tests below and by `tests/columnar.rs`).

/// Divide/fold the raw per-point accumulators of a full- or
/// projected-space sweep into final segmental distances, matching the
/// tail arithmetic of [`segmental_from_diffs`] / `eval_segmental`
/// element for element (plain division, not a reciprocal multiply).
#[inline]
fn finalize_segmental(metric: DistanceKind, dist: &mut [f64], len: usize) {
    if len == 0 {
        // eval_segmental defines the empty projection as 0.0 for the
        // summing metrics; the accumulators already hold 0.0.
        return;
    }
    let len = len as f64;
    match metric {
        DistanceKind::Manhattan => {
            for v in dist.iter_mut() {
                *v /= len;
            }
        }
        DistanceKind::Euclidean => {
            for v in dist.iter_mut() {
                *v = (*v / len).sqrt();
            }
        }
        DistanceKind::Chebyshev => {}
    }
}

/// Raw full-space accumulators of `metric` between medoid row `mrow`
/// and tile rows `lo..hi`, one per point, dimension-outer. The raw
/// value per point is bit-identical to the fold over a row-major
/// `diffs` buffer because each point's accumulator sees its dimensions
/// in the same ascending order.
fn raw_full_distances_columnar(
    tile: &TileView<'_>,
    metric: DistanceKind,
    mrow: &[f64],
    dist: &mut Vec<f64>,
) {
    dist.clear();
    dist.resize(tile.width(), 0.0);
    match metric {
        DistanceKind::Manhattan => {
            for (j, &mj) in mrow.iter().enumerate() {
                let col = tile.col(j);
                for (acc, &x) in dist.iter_mut().zip(col) {
                    *acc += (x - mj).abs();
                }
            }
        }
        DistanceKind::Euclidean => {
            for (j, &mj) in mrow.iter().enumerate() {
                let col = tile.col(j);
                for (acc, &x) in dist.iter_mut().zip(col) {
                    let dv = x - mj;
                    *acc += dv * dv;
                }
            }
        }
        DistanceKind::Chebyshev => {
            for (j, &mj) in mrow.iter().enumerate() {
                let col = tile.col(j);
                for (acc, &x) in dist.iter_mut().zip(col) {
                    *acc = f64::max(*acc, (x - mj).abs());
                }
            }
        }
    }
}

/// Projected segmental distances of one (medoid, dimension-set) slot
/// over the tile's rows, written into `out[p − tile.lo()]` —
/// bit-identical to `metric.eval_segmental(points.row(p), mrow, di)`
/// per point.
fn segmental_column_columnar(
    tile: &TileView<'_>,
    metric: DistanceKind,
    mrow: &[f64],
    di: &[usize],
    out: &mut [f64],
) {
    for v in out.iter_mut() {
        *v = 0.0;
    }
    match metric {
        DistanceKind::Manhattan => {
            for &j in di {
                let mj = mrow[j];
                let col = tile.col(j);
                for (acc, &x) in out.iter_mut().zip(col) {
                    *acc += (x - mj).abs();
                }
            }
        }
        DistanceKind::Euclidean => {
            for &j in di {
                let mj = mrow[j];
                let col = tile.col(j);
                for (acc, &x) in out.iter_mut().zip(col) {
                    let dv = x - mj;
                    *acc += dv * dv;
                }
            }
        }
        DistanceKind::Chebyshev => {
            for &j in di {
                let mj = mrow[j];
                let col = tile.col(j);
                for (acc, &x) in out.iter_mut().zip(col) {
                    *acc = f64::max(*acc, (x - mj).abs());
                }
            }
        }
    }
    finalize_segmental(metric, out, di.len());
}

// ---------------------------------------------------------------------
// Member sweeps
// ---------------------------------------------------------------------
//
// Walking the members once per cell makes every add wait on the one
// before it; walking them once per group of four cells runs four
// independent chains side by side. Splitting one cell into partial
// sums instead would reassociate it and move every digest.

/// `|x − c|`, the per-member term of every `X` sum and of the
/// evaluator's spread.
#[inline(always)]
fn abs_diff(x: f64, c: f64) -> f64 {
    (x - c).abs()
}

/// Feed `W` accumulators — one per dimension column in `cols` — the
/// values `f(x, center)` of the listed members, in member order. Each
/// accumulator stays a single running sum; the `W` chains only run side
/// by side.
#[inline(always)]
fn accumulate_group<const W: usize>(
    cols: [&[f64]; W],
    centers: [f64; W],
    members: &[u32],
    acc: &mut [f64],
    f: impl Fn(f64, f64) -> f64,
) {
    let mut a: [f64; W] = [0.0; W];
    a.copy_from_slice(&acc[..W]);
    for &o in members {
        let o = o as usize;
        for g in 0..W {
            a[g] += f(cols[g][o], centers[g]);
        }
    }
    acc[..W].copy_from_slice(&a);
}

/// The one member sweep: for every position `g` of `acc`, `acc[g] +=
/// f(col(g)[o], centers[g])` over the tile-local member offsets `o`, in
/// list order — four positions side by side, then a 3-, 2- or 1-wide
/// remainder group.
fn sweep_members<'t>(
    col: impl Fn(usize) -> &'t [f64],
    centers: &[f64],
    members: &[u32],
    acc: &mut [f64],
    f: impl Fn(f64, f64) -> f64 + Copy,
) {
    if members.is_empty() {
        return;
    }
    let len = acc.len();
    let mut g = 0;
    while g + 4 <= len {
        let cols = [col(g), col(g + 1), col(g + 2), col(g + 3)];
        let cen = [centers[g], centers[g + 1], centers[g + 2], centers[g + 3]];
        accumulate_group(cols, cen, members, &mut acc[g..], f);
        g += 4;
    }
    let rest = &mut acc[g..];
    match len - g {
        3 => accumulate_group(
            [col(g), col(g + 1), col(g + 2)],
            [centers[g], centers[g + 1], centers[g + 2]],
            members,
            rest,
            f,
        ),
        2 => accumulate_group(
            [col(g), col(g + 1)],
            [centers[g], centers[g + 1]],
            members,
            rest,
            f,
        ),
        1 => accumulate_group([col(g)], [centers[g]], members, rest, f),
        _ => {}
    }
}

/// Columnar twin of [`fused_block`]. Each slot's distances are tested
/// against `δᵢ` without a branch: every row offset is written at the
/// member cursor, which advances only for a member (a NaN distance
/// never passes `<=`, so it never joins). The member list then feeds
/// the slot's `X` sums through `sweep_members`.
///
/// `stored[s]`, when present, holds slot `s`'s finalized full-space
/// distances over the tile's rows, and the distance sweep is skipped
/// for it. Every other slot runs the sweep, and the distances it
/// finalized come back beside the partial, one tile piece per such slot
/// in slot order. Both routes threshold the same bits, so a stored
/// slot's counts and sums equal a swept slot's.
pub fn fused_block_columnar(
    tile: &TileView<'_>,
    points: &Matrix,
    metric: DistanceKind,
    medoids: &[usize],
    deltas: &[f64],
    stored: &[Option<&[f64]>],
) -> (FusedPartial, Vec<Vec<f64>>) {
    let d = points.cols();
    let k = medoids.len();
    let mut counts = vec![0usize; k];
    let mut xsums = vec![vec![0.0; d]; k];
    let mut swept = Vec::new();
    let mut members = vec![0u32; tile.width()];
    for (((&m, &delta), &stored), (count, xi)) in medoids
        .iter()
        .zip(deltas)
        .zip(stored)
        .zip(counts.iter_mut().zip(xsums.iter_mut()))
    {
        let mrow = points.row(m);
        let mut fresh = Vec::new();
        let dist = match stored {
            Some(dist) => dist,
            None => {
                raw_full_distances_columnar(tile, metric, mrow, &mut fresh);
                finalize_segmental(metric, &mut fresh, d);
                &fresh
            }
        };
        let mut n = 0usize;
        for (o, &dv) in dist.iter().enumerate() {
            // Tile-local offsets are < BLOCK, so they fit in u32; the
            // cursor never passes `o`, so the write stays in bounds.
            members[n] = o as u32;
            n += usize::from(dv <= delta);
        }
        *count = n;
        sweep_members(|j| tile.col(j), mrow, &members[..n], xi, abs_diff);
        if stored.is_none() {
            swept.push(fresh);
        }
    }
    (FusedPartial { counts, xsums }, swept)
}

/// Per-slot segmental-distance columns over one tile:
/// `out[s][o] = metric.eval_segmental(row, points.row(medoids[s]),
/// &dims[s])` for the tile's row at offset `o`.
///
/// Each value is exactly the scalar [`crate::assign::assign_points`]
/// compares — there is no accumulation across rows — so a column
/// computed here and cached across rounds is bit-identical to
/// recomputing the distance.
pub fn columns_block_columnar(
    tile: &TileView<'_>,
    points: &Matrix,
    metric: DistanceKind,
    medoids: &[usize],
    dims: &[Vec<usize>],
) -> Vec<Vec<f64>> {
    medoids
        .iter()
        .zip(dims)
        .map(|(&m, di)| {
            let mut col = vec![0.0f64; tile.width()];
            segmental_column_columnar(tile, metric, points.row(m), di, &mut col);
            col
        })
        .collect()
}

/// Columnar twin of [`cluster_x_block`]: each cluster's members in
/// the tile, as ascending tile-local offsets, feed its `X` sums through
/// `sweep_members`.
pub fn cluster_x_block_columnar(
    tile: &TileView<'_>,
    points: &Matrix,
    medoids: &[usize],
    assignment: &[Option<usize>],
) -> Vec<Vec<f64>> {
    let d = points.cols();
    let mut xsums = vec![vec![0.0; d]; medoids.len()];
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); medoids.len()];
    for (o, a) in assignment[tile.lo()..tile.hi()].iter().enumerate() {
        if let Some(i) = *a {
            // Tile-local offsets are < BLOCK, so they fit in u32.
            members[i].push(o as u32);
        }
    }
    for ((&m, mem), xi) in medoids.iter().zip(&members).zip(xsums.iter_mut()) {
        sweep_members(|j| tile.col(j), points.row(m), mem, xi, abs_diff);
    }
    xsums
}

/// Refinement assignment over one tile: nearest medoid under the
/// per-medoid dimension sets, `None` when the point lies inside no
/// medoid's sphere of influence — bit-identical per point to
/// [`crate::refine::reassign`].
pub fn refine_assign_columnar(
    tile: &TileView<'_>,
    points: &Matrix,
    metric: DistanceKind,
    medoids: &[usize],
    dims: &[Vec<usize>],
    spheres: &[f64],
) -> Vec<Option<usize>> {
    let w = tile.width();
    let mut best = vec![0usize; w];
    let mut best_dist = vec![f64::INFINITY; w];
    let mut inside = vec![false; w];
    let mut col = vec![0.0f64; w];
    for (i, (&m, di)) in medoids.iter().zip(dims).enumerate() {
        segmental_column_columnar(tile, metric, points.row(m), di, &mut col);
        let sphere = spheres[i];
        for (((bd, b), ins), &dv) in best_dist
            .iter_mut()
            .zip(best.iter_mut())
            .zip(inside.iter_mut())
            .zip(col.iter())
        {
            if dv <= sphere {
                *ins = true;
            }
            if dv < *bd {
                *bd = dv;
                *b = i;
            }
        }
    }
    inside
        .iter()
        .zip(&best)
        .map(|(&ins, &b)| ins.then_some(b))
        .collect()
}

// ---------------------------------------------------------------------
// EvaluateClusters over the tiles
// ---------------------------------------------------------------------
//
// The objective (Figure 6) needs, per cluster `i` and chosen dimension
// `j ∈ Dᵢ`, the centroid coordinate `cᵢⱼ = (Σ_p x_pj)·(1/|Cᵢ|)` and the
// spread `Yᵢⱼ = Σ_p |x_pj − cᵢⱼ|`. The oracle
// [`crate::evaluate::evaluate_clusters`] forms each of those sums as one
// running accumulator fed the members in ascending order. The tile
// evaluator keeps exactly that: every (cluster, position-in-`Dᵢ`)
// accumulator is a single running sum that receives its members tile
// after tile, ascending within each tile. Latency is hidden by walking
// up to four *different* dimensions' accumulators side by side per
// member — never by splitting one sum into partials, which would
// reassociate it and move the objective's bits.

/// A point's cluster label as the evaluator reads it: the hill climb's
/// flat `usize` labels, or the refinement's `Option<usize>` with `None`
/// for outliers. Labels `≥ k` are treated as outliers too.
pub trait ClusterLabel: Copy {
    /// The cluster this point belongs to, if any.
    fn cluster(self) -> Option<usize>;
}

impl ClusterLabel for usize {
    #[inline]
    fn cluster(self) -> Option<usize> {
        Some(self)
    }
}

impl ClusterLabel for Option<usize> {
    #[inline]
    fn cluster(self) -> Option<usize> {
        self
    }
}

/// Objective and cluster sizes of one clustering, from
/// [`crate::pool::Pool::evaluate`].
#[derive(Clone, Debug, PartialEq)]
pub struct Evaluation {
    /// `Σᵢ |Cᵢ| · wᵢ / N`, bit-identical to
    /// [`crate::evaluate::evaluate_clusters`].
    pub objective: f64,
    /// `|Cᵢ|` per cluster (outliers belong to none).
    pub sizes: Vec<usize>,
}

/// Cluster members grouped tile by tile: the members of cluster `i` in
/// tile `t` are `offsets[starts[t·k + i] .. starts[t·k + i + 1]]`, as
/// ascending tile-local row offsets.
struct TileMembers {
    tiles: Vec<(usize, usize)>,
    starts: Vec<usize>,
    offsets: Vec<u32>,
    sizes: Vec<usize>,
}

impl TileMembers {
    /// Counting sort of each tile's rows by label (two passes over the
    /// labels, stable, so members stay ascending).
    fn group<L: ClusterLabel>(labels: &[L], k: usize) -> Self {
        let tiles = blocks(labels.len());
        let mut starts = Vec::with_capacity(tiles.len() * k + 1);
        let mut offsets = vec![0u32; labels.len()];
        let mut sizes = vec![0usize; k];
        let mut cursor = vec![0usize; k];
        let mut base = 0usize;
        let cluster_of = |l: &L| l.cluster().filter(|&i| i < k);
        for &(lo, hi) in &tiles {
            let tile_labels = &labels[lo..hi];
            for i in tile_labels.iter().filter_map(cluster_of) {
                cursor[i] += 1;
            }
            for (c, size) in cursor.iter_mut().zip(sizes.iter_mut()) {
                let count = *c;
                starts.push(base);
                *size += count;
                *c = base;
                base += count;
            }
            for (o, l) in tile_labels.iter().enumerate() {
                if let Some(i) = cluster_of(l) {
                    // Tile-local offsets are < BLOCK, so they fit in u32.
                    offsets[cursor[i]] = o as u32;
                    cursor[i] += 1;
                }
            }
            cursor.iter_mut().for_each(|c| *c = 0);
        }
        starts.push(base);
        offsets.truncate(base);
        Self {
            tiles,
            starts,
            offsets,
            sizes,
        }
    }

    /// Members of cluster `i` in tile `t`.
    #[inline]
    fn of(&self, t: usize, i: usize) -> &[u32] {
        let k = self.sizes.len();
        &self.offsets[self.starts[t * k + i]..self.starts[t * k + i + 1]]
    }
}

/// One sweep over every tile: for each cluster, `acc[i][t] += f(x_pj,
/// centers[i][t])` over its members `p` (ascending, tile after tile)
/// for each position `t` of `j` in `dims[i]`.
fn sweep_clusters(
    layout: &ColumnarBlocks,
    members: &TileMembers,
    dims: &[Vec<usize>],
    centers: &[Vec<f64>],
    acc: &mut [Vec<f64>],
    f: impl Fn(f64, f64) -> f64 + Copy,
) {
    for (t, &(lo, hi)) in members.tiles.iter().enumerate() {
        let Some(tile) = layout.tile(lo, hi) else {
            return;
        };
        for (i, di) in dims.iter().enumerate() {
            let col = |g: usize| tile.col(di[g]);
            sweep_members(col, &centers[i], members.of(t, i), &mut acc[i], f);
        }
    }
}

/// EvaluateClusters (Figure 6) over the columnar tiles, from one label
/// per point: returns the objective `Σᵢ |Cᵢ| · wᵢ / N` with `N =
/// labels.len()`, bit-identical to
/// [`crate::evaluate::evaluate_clusters`] over the same grouping, and
/// the cluster sizes. `dims[i]` is cluster `i`'s dimension set (`k =
/// dims.len()`); clusters without members or dimensions contribute
/// zero. `labels` must cover exactly the rows `layout` mirrors.
///
/// Pass 1 sums each cluster's centroid over `Dᵢ` only; pass 2 sums
/// `Yᵢⱼ = Σ|x_pj − cᵢⱼ|` over the same members. Both read the members
/// through per-tile lists built once per call (`N` `u32` offsets).
pub(crate) fn evaluate_tiles<L: ClusterLabel>(
    layout: &ColumnarBlocks,
    labels: &[L],
    dims: &[Vec<usize>],
) -> Evaluation {
    let n = labels.len();
    let members = TileMembers::group(labels, dims.len());
    let zeros = |di: &Vec<usize>| vec![0.0f64; di.len()];
    let mut centers: Vec<Vec<f64>> = dims.iter().map(zeros).collect();
    let ignored = centers.clone();
    sweep_clusters(layout, &members, dims, &ignored, &mut centers, |x, _| x);
    for (c, &size) in centers.iter_mut().zip(&members.sizes) {
        if size > 0 {
            let inv = 1.0 / size as f64;
            c.iter_mut().for_each(|v| *v *= inv);
        }
    }
    let mut spread: Vec<Vec<f64>> = dims.iter().map(zeros).collect();
    sweep_clusters(layout, &members, dims, &centers, &mut spread, abs_diff);
    let mut objective = 0.0;
    if n > 0 {
        for (y, &size) in spread.iter().zip(&members.sizes) {
            if size == 0 || y.is_empty() {
                continue;
            }
            let mut w = 0.0;
            for &yij in y {
                w += yij / size as f64;
            }
            w /= y.len() as f64;
            objective += size as f64 * w;
        }
        objective /= n as f64;
    }
    Evaluation {
        objective,
        sizes: members.sizes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::ColumnarBlocks;
    use crate::locality::{localities, medoid_deltas};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f64> = (0..n * d).map(|_| rng.random_range(0.0..100.0)).collect();
        Matrix::from_vec(data, n, d)
    }

    /// The oracle's answer for `labels`: group the members, then
    /// `evaluate_clusters` over all `N` points.
    fn oracle(points: &Matrix, labels: &[Option<usize>], dims: &[Vec<usize>]) -> Evaluation {
        let clusters = crate::assign::group_members(labels, dims.len());
        Evaluation {
            objective: crate::evaluate::evaluate_clusters(points, &clusters, dims, points.rows()),
            sizes: clusters.iter().map(Vec::len).collect(),
        }
    }

    /// The tile evaluator must match the oracle bit for bit, in the
    /// `Option` form and — without outliers — in the flat form too.
    fn assert_evaluation_twin(
        points: &Matrix,
        labels: &[Option<usize>],
        dims: &[Vec<usize>],
        ctx: &str,
    ) {
        let cb = ColumnarBlocks::build(points);
        let want = oracle(points, labels, dims);
        let got = evaluate_tiles(&cb, labels, dims);
        assert_eq!(got.sizes, want.sizes, "{ctx}: sizes");
        assert_eq!(
            got.objective.to_bits(),
            want.objective.to_bits(),
            "{ctx}: {:e} vs {:e}",
            got.objective,
            want.objective
        );
        if labels.iter().all(Option::is_some) {
            let flat: Vec<usize> = labels.iter().flatten().copied().collect();
            let got = evaluate_tiles(&cb, &flat, dims);
            assert_eq!(got.sizes, want.sizes, "{ctx}: flat sizes");
            assert_eq!(
                got.objective.to_bits(),
                want.objective.to_bits(),
                "{ctx}: flat"
            );
        }
    }

    /// Nine clusters with `|Dᵢ| = i + 1` (so groups of 1–9 dims: the
    /// 4-wide group, its remainders, and both together), unsorted dims;
    /// cluster 3 empty, cluster 5 a singleton, and `outliers` of the
    /// rows labeled `None`.
    fn twin_labels(
        n: usize,
        d: usize,
        outliers: bool,
        seed: u64,
    ) -> (Vec<Option<usize>>, Vec<Vec<usize>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dims: Vec<Vec<usize>> = (0..9)
            .map(|i| rand::seq::index::sample(&mut rng, d, i + 1).into_vec())
            .collect();
        let mut labels: Vec<Option<usize>> = (0..n)
            .map(|_| match rng.random_range(0..12usize) {
                3 | 5 => Some(0),
                c if c >= 9 && outliers => None,
                c => Some(c % 9),
            })
            .collect();
        labels[n / 2] = Some(5);
        (labels, dims)
    }

    #[test]
    fn tile_evaluator_is_bitwise_twin_of_evaluate_clusters() {
        let d = 10;
        for n in [1usize, 1023, 1024, 1025, 3073] {
            let mut rng = StdRng::seed_from_u64(n as u64);
            let protos: Vec<Vec<f64>> = (0..7)
                .map(|_| (0..d).map(|_| rng.random_range(-5.0..5.0)).collect())
                .collect();
            let families = [
                ("uniform", random_points(n, d, 40 + n as u64)),
                (
                    "duplicate-rows",
                    Matrix::from_vec((0..n).flat_map(|p| protos[p % 7].clone()).collect(), n, d),
                ),
                (
                    "magnitude-1e9",
                    Matrix::from_vec(
                        (0..n * d)
                            .map(|i| {
                                let v: f64 = rng.random_range(-1.0..1.0);
                                if i % 3 == 0 {
                                    v * 1.0e9
                                } else {
                                    v
                                }
                            })
                            .collect(),
                        n,
                        d,
                    ),
                ),
            ];
            for (family, points) in &families {
                for outliers in [false, true] {
                    let (labels, dims) = twin_labels(n, d, outliers, 7 + n as u64);
                    let ctx = format!("{family}/n={n}/outliers={outliers}");
                    assert_evaluation_twin(points, &labels, &dims, &ctx);
                }
            }
        }
    }

    #[test]
    fn tile_evaluator_propagates_nan_like_the_oracle() {
        let (n, d) = (1_500, 10);
        let mut data: Vec<f64> = random_points(n, d, 3).as_slice().to_vec();
        let (labels, dims) = twin_labels(n, d, true, 11);
        // A NaN on a chosen dimension of a clustered point.
        let p = (0..n).find(|&p| labels[p] == Some(8)).unwrap();
        data[p * d + dims[8][0]] = f64::NAN;
        let points = Matrix::from_vec(data, n, d);
        let cb = ColumnarBlocks::build(&points);
        let want = oracle(&points, &labels, &dims);
        let got = evaluate_tiles(&cb, &labels, &dims);
        assert!(want.objective.is_nan() && got.objective.is_nan());
        assert_eq!(got.sizes, want.sizes);
    }

    #[test]
    fn tile_evaluator_edge_shapes() {
        let points = random_points(5, 3, 1);
        let cb = ColumnarBlocks::build(&points);
        // No clusters, and no dimensions: objective 0.
        let none: Vec<usize> = vec![0; 5];
        assert_eq!(evaluate_tiles(&cb, &none, &[]).objective, 0.0);
        let e = evaluate_tiles(&cb, &none, &[vec![]]);
        assert_eq!((e.objective, e.sizes), (0.0, vec![5]));
        // Every point an outlier, or labeled out of range.
        let out: Vec<Option<usize>> = vec![None, Some(2), None, Some(7), None];
        let e = evaluate_tiles(&cb, &out, &[vec![0], vec![1, 2]]);
        assert_eq!((e.objective, e.sizes), (0.0, vec![0, 0]));
        // No points at all.
        let empty = Matrix::from_vec(Vec::new(), 0, 3);
        let e = evaluate_tiles(&ColumnarBlocks::build(&empty), &[] as &[usize], &[vec![0]]);
        assert_eq!((e.objective, e.sizes), (0.0, vec![0]));
    }

    #[test]
    fn blocks_tile_exactly() {
        for n in [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 5 * BLOCK + 17] {
            let bs = blocks(n);
            if n == 0 {
                assert!(bs.is_empty());
                continue;
            }
            assert_eq!(bs[0].0, 0);
            assert_eq!(bs.last().unwrap().1, n);
            for w in bs.windows(2) {
                assert_eq!(w[0].1, w[1].0);
            }
            assert!(bs.iter().all(|&(a, b)| b > a && b - a <= BLOCK));
        }
    }

    #[test]
    fn fused_localities_match_legacy_exactly() {
        for metric in [
            DistanceKind::Manhattan,
            DistanceKind::Euclidean,
            DistanceKind::Chebyshev,
        ] {
            let points = random_points(700, 6, 11);
            let medoids = vec![3usize, 99, 402];
            let deltas = medoid_deltas(&points, &medoids, metric);
            let legacy = localities(&points, &medoids, &deltas, metric);
            let partials: Vec<FusedPartial> = blocks(points.rows())
                .into_iter()
                .map(|(lo, hi)| fused_block(&points, metric, &medoids, &deltas, lo, hi))
                .collect();
            let (sizes, _) = merge_fused(partials, medoids.len(), points.cols());
            let legacy_sizes: Vec<usize> = legacy.iter().map(Vec::len).collect();
            assert_eq!(sizes, legacy_sizes, "{metric:?}");
        }
    }

    #[test]
    fn fused_x_matches_direct_blocked_sum() {
        // The X averages must equal the blocked accumulation over the
        // merged localities (the canonical order), independent of how
        // rows are grouped into fused calls.
        let points = random_points(300, 4, 5);
        let medoids = vec![0usize, 150];
        let metric = DistanceKind::Manhattan;
        let deltas = medoid_deltas(&points, &medoids, metric);
        let one_block = fused_block(&points, metric, &medoids, &deltas, 0, 300);
        let (sizes_a, x_a) = merge_fused(vec![one_block], 2, 4);
        let partials: Vec<FusedPartial> = [(0, 77), (77, 200), (200, 300)]
            .into_iter()
            .map(|(lo, hi)| fused_block(&points, metric, &medoids, &deltas, lo, hi))
            .collect();
        let (sizes_b, x_b) = merge_fused(partials, 2, 4);
        assert_eq!(sizes_a, sizes_b);
        // Note: different groupings may differ in the last ulp of the
        // sums; the canonical tiling is fixed, so production paths never
        // regroup. Here the values should still be essentially equal.
        for (ra, rb) in x_a.iter().zip(&x_b) {
            for (a, b) in ra.iter().zip(rb) {
                assert!((a - b).abs() <= 1e-12 * a.abs().max(1.0));
            }
        }
    }

    #[test]
    fn columns_match_direct_evaluation_and_argmin_matches_assign() {
        for metric in [
            DistanceKind::Manhattan,
            DistanceKind::Euclidean,
            DistanceKind::Chebyshev,
        ] {
            let points = random_points(600, 5, 23);
            let cb = ColumnarBlocks::build(&points);
            let medoids = vec![2usize, 170, 444];
            let dims = vec![vec![0, 1], vec![2, 3], vec![1, 4]];
            let cols: Vec<Vec<f64>> = blocks(points.rows()).into_iter().fold(
                vec![Vec::new(); medoids.len()],
                |mut acc, (lo, hi)| {
                    let t = cb.tile(lo, hi).unwrap();
                    for (full, part) in acc
                        .iter_mut()
                        .zip(columns_block_columnar(&t, &points, metric, &medoids, &dims))
                    {
                        full.extend(part);
                    }
                    acc
                },
            );
            for (s, (&m, di)) in medoids.iter().zip(&dims).enumerate() {
                for (p, &got) in cols[s].iter().enumerate() {
                    let direct = metric.eval_segmental(points.row(p), points.row(m), di);
                    assert_eq!(got.to_bits(), direct.to_bits(), "{metric:?} {s} {p}");
                }
            }
            let refs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
            let via_cols = argmin_columns(&refs, points.rows());
            let direct = crate::assign::assign_points(&points, &medoids, &dims, metric);
            assert_eq!(via_cols, direct, "{metric:?}");
        }
    }

    #[test]
    fn argmin_columns_nan_rows_fall_to_slot_zero() {
        let a = [f64::NAN, 1.0, f64::NAN];
        let b = [f64::NAN, 2.0, 0.5];
        let out = argmin_columns(&[&a, &b], 3);
        // Row 0: all NaN -> slot 0. Row 1: 1.0 < 2.0 -> slot 0.
        // Row 2: NaN never beats 0.5 -> slot 1.
        assert_eq!(out, vec![0, 0, 1]);
    }

    /// A medoid with non-finite coordinates has a NaN distance to every
    /// point (including itself), so its locality would come out empty;
    /// the merge falls back to the singleton {mᵢ} with a zero `X` row.
    #[test]
    fn merge_fused_empty_locality_falls_back_to_medoid_singleton() {
        let rows: Vec<[f64; 2]> = vec![[0.0, 0.0], [f64::NAN, 1.0], [2.0, 2.0]];
        let points = Matrix::from_rows(&rows, 2);
        let medoids = vec![0usize, 1];
        let metric = DistanceKind::Manhattan;
        let deltas = crate::locality::medoid_deltas(&points, &medoids, metric);
        let partials = vec![fused_block(&points, metric, &medoids, &deltas, 0, 3)];
        let (sizes, x) = merge_fused(partials, 2, 2);
        assert_eq!(sizes[1], 1, "empty locality becomes {{medoid}}");
        assert_eq!(x[1], vec![0.0, 0.0], "fallback X row is pinned to zero");
        assert!(sizes[0] >= 1);
    }

    #[test]
    fn cluster_x_skips_outliers() {
        let rows: Vec<[f64; 2]> = vec![[0.0, 0.0], [1.0, 3.0], [900.0, 900.0]];
        let points = Matrix::from_rows(&rows, 2);
        let assignment = vec![Some(0), Some(0), None];
        let partial = cluster_x_block(&points, &[0], &assignment, 0, 3);
        let x = merge_cluster_x(vec![partial], &[2], 2);
        // Members {0, 1}: mean |diff| = (0 + 1)/2 and (0 + 3)/2.
        assert_eq!(x, vec![vec![0.5, 1.5]]);
    }

    /// Matrices chosen to stress the bit-identity contract: exact
    /// distance ties, duplicated rows, and mixed 1e±9 magnitudes where
    /// any reassociation of the accumulation order would show up.
    fn tricky_matrices() -> Vec<(&'static str, Matrix)> {
        let mut rng = StdRng::seed_from_u64(77);
        let (n, d) = (1_400usize, 6usize); // spans two canonical tiles
        let tie: Vec<f64> = (0..n * d)
            .map(|_| f64::from(rng.random_range(0u32..6)))
            .collect();
        let protos: Vec<Vec<f64>> = (0..40)
            .map(|_| (0..d).map(|_| rng.random_range(0.0..10.0)).collect())
            .collect();
        let dup: Vec<f64> = (0..n).flat_map(|p| protos[p % 40].clone()).collect();
        let huge: Vec<f64> = (0..n * d)
            .map(|i| {
                let base: f64 = rng.random_range(-1.0..1.0);
                match i % 3 {
                    0 => base * 1.0e9,
                    1 => base * 1.0e-9,
                    _ => base,
                }
            })
            .collect();
        // NaN coordinates on scattered rows and on two of the medoids
        // used below (700 in the full space only, 1200 on a projected
        // dimension too): a NaN distance never wins or joins a
        // locality, on either kernel.
        let mut nan = tie.clone();
        for p in (0..n).step_by(97) {
            nan[p * d + p % d] = f64::NAN;
        }
        nan[700 * d] = f64::NAN;
        nan[1_200 * d + 4] = f64::NAN;
        vec![
            ("tie-heavy", Matrix::from_vec(tie, n, d)),
            ("duplicate-rows", Matrix::from_vec(dup, n, d)),
            ("mixed-magnitude", Matrix::from_vec(huge, n, d)),
            ("nan-coordinates", Matrix::from_vec(nan, n, d)),
        ]
    }

    fn assert_bits(a: &[Vec<f64>], b: &[Vec<f64>], ctx: &str) {
        assert_eq!(a.len(), b.len(), "{ctx}: shape");
        for (i, (ra, rb)) in a.iter().zip(b).enumerate() {
            assert_eq!(ra.len(), rb.len(), "{ctx}: row {i} shape");
            for (j, (x, y)) in ra.iter().zip(rb).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: [{i}][{j}] {x:e} vs {y:e}");
            }
        }
    }

    /// Every columnar kernel must be bit-identical to its reference —
    /// the row-major fused and cluster-`X` kernels, `eval_segmental`
    /// for the distance columns, and the scalar assignment and
    /// reassignment — across all three metrics on
    /// tie-heavy, duplicate-row, mixed-magnitude and NaN-carrying
    /// matrices.
    #[test]
    fn columnar_kernels_are_bit_identical_to_references() {
        for (name, points) in tricky_matrices() {
            let cb = ColumnarBlocks::build(&points);
            let medoids = vec![3usize, 700, 1_200];
            let dims = vec![vec![0, 1, 2], vec![1, 3], vec![0, 4, 5]];
            for metric in [
                DistanceKind::Manhattan,
                DistanceKind::Euclidean,
                DistanceKind::Chebyshev,
            ] {
                let deltas = medoid_deltas(&points, &medoids, metric);
                let spheres: Vec<f64> = deltas.iter().map(|d| d * 0.8).collect();
                let assigned = crate::assign::assign_points(&points, &medoids, &dims, metric);
                let refined = crate::refine::reassign(&points, &medoids, &dims, &spheres, metric);
                for (lo, hi) in blocks(points.rows()) {
                    let ctx = format!("{name}/{metric:?}/[{lo},{hi})");
                    let t = cb.tile(lo, hi).unwrap();
                    let fa = fused_block(&points, metric, &medoids, &deltas, lo, hi);
                    let (fb, swept) =
                        fused_block_columnar(&t, &points, metric, &medoids, &deltas, &[None; 3]);
                    assert_eq!(fa.counts, fb.counts, "{ctx}: fused counts");
                    assert_bits(&fa.xsums, &fb.xsums, &format!("{ctx}: fused X"));
                    // The distances a sweep returns, fed back as stored
                    // ones, give the same partial and sweep nothing.
                    let stored: Vec<Option<&[f64]>> =
                        swept.iter().map(|c| Some(c.as_slice())).collect();
                    let (fc, none) =
                        fused_block_columnar(&t, &points, metric, &medoids, &deltas, &stored);
                    assert!(none.is_empty(), "{ctx}: stored slots swept");
                    assert_eq!(fa.counts, fc.counts, "{ctx}: stored counts");
                    assert_bits(&fa.xsums, &fc.xsums, &format!("{ctx}: stored X"));
                    let cols = columns_block_columnar(&t, &points, metric, &medoids, &dims);
                    let direct: Vec<Vec<f64>> = medoids
                        .iter()
                        .zip(&dims)
                        .map(|(&m, di)| {
                            (lo..hi)
                                .map(|p| metric.eval_segmental(points.row(p), points.row(m), di))
                                .collect()
                        })
                        .collect();
                    assert_bits(&direct, &cols, &format!("{ctx}: columns"));
                    let refs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
                    assert_eq!(
                        assigned[lo..hi],
                        argmin_columns(&refs, hi - lo),
                        "{ctx}: assign"
                    );
                    assert_eq!(
                        refined[lo..hi],
                        refine_assign_columnar(&t, &points, metric, &medoids, &dims, &spheres),
                        "{ctx}: refine"
                    );
                    assert_bits(
                        &cluster_x_block(&points, &medoids, &refined, lo, hi),
                        &cluster_x_block_columnar(&t, &points, &medoids, &refined),
                        &format!("{ctx}: cluster X"),
                    );
                }
            }
        }
    }
}
