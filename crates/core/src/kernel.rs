//! Block-level compute kernels for the O(N·k·d) passes of a
//! hill-climbing round, shared by the serial path and the worker pool
//! ([`crate::pool`]).
//!
//! # The fused pass
//!
//! A round of the iterative phase historically made two sweeps over the
//! data: one to test every point against every medoid's locality radius
//! (full-space segmental distance) and one to accumulate the
//! per-dimension average distances `Xᵢⱼ` over each locality. Both need
//! the same `|p_j − m_j|` values, so [`fused_block`] computes them once
//! per (point, medoid) pair: the absolute differences fill a scratch
//! buffer, the locality test folds them into the segmental distance,
//! and — when the point is inside the locality — the very same buffer
//! is added into the `Xᵢⱼ` accumulator. One O(N·k·d) sweep instead of
//! two.
//!
//! # Determinism
//!
//! All kernels operate on fixed-size row blocks of [`BLOCK`] points.
//! A block's partial result depends only on the block's rows, never on
//! which thread ran it, and partials are merged on the coordinating
//! thread in ascending block order. Floating-point accumulation order
//! is therefore *canonical*: every thread count (including the serial
//! path, which runs the identical per-block code) produces bit-identical
//! localities, `X` sums, dimension sets, and assignments.
//!
//! The segmental distances computed from the scratch buffer are
//! bit-identical to [`DistanceKind::eval_segmental`] over the full
//! dimension list: the summation order is the same, and for the
//! Euclidean kind `|x|·|x|` equals `x·x` bitwise (taking the absolute
//! value only clears the sign bit).
//!
//! # Pruned variants
//!
//! Each assignment-style kernel has a `*_pruned` twin that consults the
//! neighbor index ([`crate::index`]) to skip exact evaluations whose
//! outcome is already decided — a certified lower bound above the
//! locality radius (range queries) or a monotone prefix value at or
//! above the current best (nearest-medoid queries). Pruning never
//! changes which evaluations *matter*: a pruned candidate is provably a
//! non-member / non-winner, every surviving evaluation runs the exact
//! code in the exact order, and the `X` accumulations add exactly the
//! member rows the unpruned kernel would add. The pruned kernels are
//! therefore bit-identical to their twins (asserted by the agreement
//! tests below), and the per-block [`PruneStats`] they fill count work
//! saved, not results changed.

use crate::index::{
    raw_gt_threshold, raw_len_factor, raw_tbase, segmental_bounded, FusedPruneCtx, PruneStats,
    NEAREST_MIN_DIMS, PREFIX_KEEP_DEN, PREFIX_KEEP_NUM, PROBE_DISABLE_SHIFT, PROBE_POINTS,
    PRUNE_CHUNK,
};
use crate::layout::{ColumnarBlocks, FastMathStats, TileView, FAST_MATH_TOLERANCE_SCALE};
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

/// Partial result of the fused locality + `X` pass over one block.
#[derive(Clone, Debug, PartialEq)]
pub struct FusedPartial {
    /// Per-medoid locality members found in this block (ascending).
    pub locs: Vec<Vec<usize>>,
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

/// The fused pass over rows `lo..hi`: locality membership for every
/// (point, medoid) pair plus the `Xᵢⱼ` partial sums over the members,
/// from a single computation of the `|p_j − m_j|` differences.
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
    let mut locs: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut xsums = vec![vec![0.0; d]; k];
    let mut diffs = vec![0.0; d];
    fused_range(
        points, metric, medoids, deltas, lo, hi, &mut locs, &mut xsums, &mut diffs,
    );
    FusedPartial { locs, xsums }
}

/// The plain fused scan over rows `lo..hi`, continuing accumulation
/// into existing `locs`/`xsums`. Kept separate so the pruned kernel can
/// hand the post-probe tail of a block to the exact plain loop (same
/// codegen, same summation order) when its adaptive gates turn the
/// pruning machinery off.
#[allow(clippy::too_many_arguments)]
fn fused_range(
    points: &Matrix,
    metric: DistanceKind,
    medoids: &[usize],
    deltas: &[f64],
    lo: usize,
    hi: usize,
    locs: &mut [Vec<usize>],
    xsums: &mut [Vec<f64>],
    diffs: &mut [f64],
) {
    let d = points.cols();
    for p in lo..hi {
        let prow = points.row(p);
        for (i, &m) in medoids.iter().enumerate() {
            let mrow = points.row(m);
            for j in 0..d {
                diffs[j] = (prow[j] - mrow[j]).abs();
            }
            if segmental_from_diffs(metric, diffs) <= deltas[i] {
                locs[i].push(p);
                let xi = &mut xsums[i];
                for j in 0..d {
                    xi[j] += diffs[j];
                }
            }
        }
    }
}

/// Merge fused partials (given in ascending block order) into the final
/// localities and the `X` averages (`Xᵢⱼ` = mean over locality `i` of
/// `|p_j − m_j|`).
///
/// An empty locality — only reachable when a medoid's coordinates are
/// non-finite, since a finite medoid is always within `δᵢ ≥ 0` of
/// itself — falls back to the singleton `Lᵢ = {mᵢ}` with an all-zero
/// `X` row (`|m_j − m_j| = 0` in exact arithmetic; pinning the row
/// avoids poisoning FindDimensions with NaN differences). The same
/// fallback lives in [`crate::locality::localities`], so the fused and
/// legacy paths stay identical.
pub fn merge_fused(
    partials: Vec<FusedPartial>,
    medoids: &[usize],
    d: usize,
) -> (Vec<Vec<usize>>, Vec<Vec<f64>>) {
    let k = medoids.len();
    let mut locs: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut x = vec![vec![0.0; d]; k];
    for mut part in partials {
        for (i, local) in part.locs.iter_mut().enumerate() {
            locs[i].append(local);
        }
        for (xi, pi) in x.iter_mut().zip(&part.xsums) {
            for (a, b) in xi.iter_mut().zip(pi) {
                *a += b;
            }
        }
    }
    for ((xi, li), &m) in x.iter_mut().zip(locs.iter_mut()).zip(medoids) {
        if li.is_empty() {
            li.push(m);
            for v in xi.iter_mut() {
                *v = 0.0;
            }
        } else {
            let inv = 1.0 / li.len() as f64;
            for v in xi.iter_mut() {
                *v *= inv;
            }
        }
    }
    (locs, x)
}

/// Assignment over rows `lo..hi`: each point goes to the medoid with the
/// smallest segmental distance under that medoid's dimension set, ties
/// to the lower index — bit-identical to
/// [`crate::assign::assign_points`] restricted to the block.
pub fn assign_block(
    points: &Matrix,
    metric: DistanceKind,
    medoids: &[usize],
    dims: &[Vec<usize>],
    lo: usize,
    hi: usize,
) -> Vec<usize> {
    let mut out = Vec::with_capacity(hi - lo);
    for p in lo..hi {
        let row = points.row(p);
        let mut best = 0usize;
        let mut best_dist = f64::INFINITY;
        for (i, (&m, di)) in medoids.iter().zip(dims).enumerate() {
            let dist = metric.eval_segmental(row, points.row(m), di);
            if dist < best_dist {
                best_dist = dist;
                best = i;
            }
        }
        out.push(best);
    }
    out
}

/// Per-slot segmental-distance columns over rows `lo..hi`:
/// `out[s][p − lo] = metric.eval_segmental(points.row(p),
/// points.row(medoids[s]), &dims[s])`.
///
/// Each value is exactly the scalar the assignment kernels compare —
/// there is no accumulation across rows — so a column computed here and
/// cached across rounds is bit-identical to recomputing the distance
/// inside [`assign_block`].
pub fn columns_block(
    points: &Matrix,
    metric: DistanceKind,
    medoids: &[usize],
    dims: &[Vec<usize>],
    lo: usize,
    hi: usize,
) -> Vec<Vec<f64>> {
    let mut out: Vec<Vec<f64>> = vec![Vec::with_capacity(hi - lo); medoids.len()];
    for p in lo..hi {
        let row = points.row(p);
        for ((&m, di), col) in medoids.iter().zip(dims).zip(out.iter_mut()) {
            col.push(metric.eval_segmental(row, points.row(m), di));
        }
    }
    out
}

/// Assignment from per-slot distance columns: for every row, the slot
/// with the smallest distance, ties (and the all-NaN degenerate case)
/// to the lower slot index.
///
/// Iterates slots in ascending order with a strict `<` comparison —
/// exactly the loop of [`assign_block`]/[`crate::assign::assign_points`]
/// — so feeding it columns produced by [`columns_block`] (cached or
/// fresh) reproduces the direct assignment bit for bit, including the
/// NaN behavior (a NaN distance never wins; a row whose every distance
/// is NaN lands on slot 0).
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

/// Partial result of the fused assign + cluster-`X` pass.
#[derive(Clone, Debug, PartialEq)]
pub struct AssignXPartial {
    /// Winning medoid per row of the block.
    pub assignment: Vec<usize>,
    /// Per-cluster, per-dimension sums of `|p_j − m_j|` to the winning
    /// medoid, over this block's rows.
    pub xsums: Vec<Vec<f64>>,
}

/// Assignment fused with the cluster-based `X` accumulation the inner
/// refinement loop needs: once a point's winning medoid is known, its
/// full-dimensional `|p_j − m_j|` differences are added to that
/// cluster's `X` sums in the same sweep, saving the separate O(N·d)
/// pass over the freshly formed clusters.
pub fn assign_x_block(
    points: &Matrix,
    metric: DistanceKind,
    medoids: &[usize],
    dims: &[Vec<usize>],
    lo: usize,
    hi: usize,
) -> AssignXPartial {
    let d = points.cols();
    let mut xsums = vec![vec![0.0; d]; medoids.len()];
    let mut assignment = Vec::with_capacity(hi - lo);
    assign_x_range(
        points,
        metric,
        medoids,
        dims,
        lo,
        hi,
        &mut xsums,
        &mut assignment,
    );
    AssignXPartial { assignment, xsums }
}

/// The plain assign + `X` scan over rows `lo..hi`, continuing
/// accumulation into existing `xsums`/`assignment` — the tail loop the
/// pruned kernel falls back to when its adaptive gate turns abandonment
/// off, preserving the plain codegen and the exact `X` summation order.
#[allow(clippy::too_many_arguments)]
fn assign_x_range(
    points: &Matrix,
    metric: DistanceKind,
    medoids: &[usize],
    dims: &[Vec<usize>],
    lo: usize,
    hi: usize,
    xsums: &mut [Vec<f64>],
    assignment: &mut Vec<usize>,
) {
    let d = points.cols();
    for p in lo..hi {
        let row = points.row(p);
        let mut best = 0usize;
        let mut best_dist = f64::INFINITY;
        for (i, (&m, di)) in medoids.iter().zip(dims).enumerate() {
            let dist = metric.eval_segmental(row, points.row(m), di);
            if dist < best_dist {
                best_dist = dist;
                best = i;
            }
        }
        assignment.push(best);
        let mrow = points.row(medoids[best]);
        let xi = &mut xsums[best];
        for j in 0..d {
            xi[j] += (row[j] - mrow[j]).abs();
        }
    }
}

/// Merge assign-`X` partials (ascending block order) into the flat
/// assignment and the per-cluster `X` averages.
pub fn merge_assign_x(
    partials: Vec<AssignXPartial>,
    k: usize,
    d: usize,
) -> (Vec<usize>, Vec<Vec<f64>>) {
    let mut flat = Vec::new();
    let mut x = vec![vec![0.0; d]; k];
    for mut part in partials {
        flat.append(&mut part.assignment);
        for (xi, pi) in x.iter_mut().zip(&part.xsums) {
            for (a, b) in xi.iter_mut().zip(pi) {
                *a += b;
            }
        }
    }
    let mut counts = vec![0usize; k];
    for &a in &flat {
        counts[a] += 1;
    }
    for (xi, &c) in x.iter_mut().zip(&counts) {
        if c > 0 {
            let inv = 1.0 / c as f64;
            for v in xi.iter_mut() {
                *v *= inv;
            }
        }
    }
    (flat, x)
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

/// Refinement assignment over rows `lo..hi`: nearest medoid under the
/// per-medoid dimension sets, `None` when the point lies inside no
/// medoid's sphere of influence — bit-identical to the loop in
/// [`crate::refine::refine_opt`] restricted to the block.
pub fn refine_assign_block(
    points: &Matrix,
    metric: DistanceKind,
    medoids: &[usize],
    dims: &[Vec<usize>],
    spheres: &[f64],
    lo: usize,
    hi: usize,
) -> Vec<Option<usize>> {
    let mut out = Vec::with_capacity(hi - lo);
    for p in lo..hi {
        let row = points.row(p);
        let mut best = 0usize;
        let mut best_dist = f64::INFINITY;
        let mut inside_any = false;
        for (i, (&m, di)) in medoids.iter().zip(dims).enumerate() {
            let dist = metric.eval_segmental(row, points.row(m), di);
            if dist <= spheres[i] {
                inside_any = true;
            }
            if dist < best_dist {
                best_dist = dist;
                best = i;
            }
        }
        out.push(inside_any.then_some(best));
    }
    out
}

/// Fill `diffs` with `|a_j − b_j|` while accumulating the segmental
/// raw value, abandoning as soon as the prefix accumulator reaches
/// `raw_threshold` — a raw-unit encoding of "the final distance is
/// certainly `> δᵢ`" (see [`crate::index::raw_gt_threshold`]). The
/// threshold is checked at [`PRUNE_CHUNK`] boundaries, like
/// [`segmental_bounded`], to keep the compare off the accumulator's
/// per-element dependency chain. On completion the buffer *and* the
/// returned distance are bit-identical to the plain fill +
/// [`segmental_from_diffs`]: same element order, same summation order,
/// `|x|·|x|` equals `x·x` bitwise.
#[inline]
fn fill_diffs_bounded(
    metric: DistanceKind,
    a: &[f64],
    b: &[f64],
    diffs: &mut [f64],
    raw_threshold: f64,
) -> Option<f64> {
    // Fill exactly like the plain path — one flat, vectorizable loop
    // with no interleaved control flow — then fold with chunk-boundary
    // abandonment checks. An abandoned pair wastes its (cheap, SIMD)
    // fill but skips the tail of the serial accumulation chain, which
    // is the latency bottleneck; a completed fold visits the elements
    // in the plain order and is bit-identical.
    for ((&x, &y), dv) in a.iter().zip(b).zip(diffs.iter_mut()) {
        *dv = (x - y).abs();
    }
    let len = diffs.len() as f64;
    match metric {
        DistanceKind::Manhattan => {
            let mut sum = 0.0f64;
            for dc in diffs.chunks(PRUNE_CHUNK) {
                for &v in dc {
                    sum += v;
                }
                if sum >= raw_threshold {
                    return None;
                }
            }
            Some(sum / len)
        }
        DistanceKind::Euclidean => {
            let mut sum = 0.0f64;
            for dc in diffs.chunks(PRUNE_CHUNK) {
                for &v in dc {
                    sum += v * v;
                }
                if sum >= raw_threshold {
                    return None;
                }
            }
            Some((sum / len).sqrt())
        }
        DistanceKind::Chebyshev => {
            let mut worst = 0.0f64;
            for dc in diffs.chunks(PRUNE_CHUNK) {
                for &v in dc {
                    worst = worst.max(v);
                }
                if worst >= raw_threshold {
                    return None;
                }
            }
            Some(worst)
        }
    }
}

/// [`fused_block`] with index pruning: candidates whose sketch or
/// triangle lower bound proves them outside `δᵢ` skip the exact
/// evaluation entirely, and the surviving evaluations abandon mid-sum
/// once their prefix accumulator certifies `dist > δᵢ`. Members, their
/// order, and the `X` sums are bit-identical to the unpruned kernel — a
/// pruned or abandoned pair is certainly a non-member, so it would have
/// contributed nothing either way, and a member's evaluation never
/// abandons (its accumulator stays below the threshold throughout).
#[allow(clippy::too_many_arguments)]
pub fn fused_block_pruned(
    points: &Matrix,
    metric: DistanceKind,
    medoids: &[usize],
    deltas: &[f64],
    ctx: &FusedPruneCtx,
    lo: usize,
    hi: usize,
    stats: &mut PruneStats,
    tile: Option<&TileView<'_>>,
) -> FusedPartial {
    let d = points.cols();
    let k = medoids.len();
    let mut locs: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut xsums = vec![vec![0.0; d]; k];
    let mut diffs = vec![0.0; d];
    // Raw-unit "certainly outside δᵢ" thresholds, one per slot.
    let rt_member: Vec<f64> = deltas
        .iter()
        .map(|&delta| raw_gt_threshold(metric, delta, d))
        .collect();
    // Exact distances of the current point to the slots already
    // verified this sweep — the triangle-bound anchors. NaN marks a
    // pruned or abandoned slot (a NaN anchor yields a NaN bound and
    // never prunes).
    let mut evaluated = vec![f64::NAN; k];
    // Adaptive gates: probe the first PROBE_POINTS rows with the full
    // machinery, then disable (a) the whole-pair bounds if too few
    // probed pairs pruned, and (b) the prefix device if too few reached
    // evaluations abandoned (see `crate::index`). The decisions depend
    // only on the block's rows, so counters and results stay
    // independent of thread count.
    let probe_end = (lo + PROBE_POINTS).min(hi);
    let base_bounds = stats.range_sketch_pruned + stats.range_triangle_pruned;
    let base_prefix = stats.range_prefix_pruned;
    let base_verified = stats.range_verified;
    let mut probing = true;
    let mut bounds_on = true;
    let mut prefix_on = true;
    for p in lo..hi {
        if probing && p == probe_end {
            probing = false;
            let pruned = stats.range_sketch_pruned + stats.range_triangle_pruned - base_bounds;
            let probed = ((probe_end - lo) * k) as u64;
            bounds_on = pruned >= probed >> PROBE_DISABLE_SHIFT;
            let abandoned = stats.range_prefix_pruned - base_prefix;
            let reached = abandoned + (stats.range_verified - base_verified);
            prefix_on = abandoned * PREFIX_KEEP_DEN >= reached * PREFIX_KEEP_NUM;
            if !bounds_on && !prefix_on {
                // Nothing left of the pruning machinery: hand the rest
                // of the block to the plain loop — columnar when the
                // layout is available — continuing the same
                // accumulators so membership order and `X` summation
                // order stay bit-identical.
                stats.range_verified += ((hi - p) * k) as u64;
                match tile {
                    Some(t) => fused_range_columnar(
                        t, points, metric, medoids, deltas, p, hi, &mut locs, &mut xsums,
                    ),
                    None => fused_range(
                        points, metric, medoids, deltas, p, hi, &mut locs, &mut xsums, &mut diffs,
                    ),
                }
                return FusedPartial { locs, xsums };
            }
        }
        let prow = points.row(p);
        for e in evaluated.iter_mut() {
            *e = f64::NAN;
        }
        for (i, &m) in medoids.iter().enumerate() {
            if bounds_on && ctx.prunes(p, i, deltas[i], &evaluated[..i], stats) {
                continue;
            }
            let mrow = points.row(m);
            let dist = if prefix_on {
                match fill_diffs_bounded(metric, prow, mrow, &mut diffs, rt_member[i]) {
                    Some(dist) => dist,
                    None => {
                        stats.range_prefix_pruned += 1;
                        continue;
                    }
                }
            } else {
                for j in 0..d {
                    diffs[j] = (prow[j] - mrow[j]).abs();
                }
                segmental_from_diffs(metric, &diffs)
            };
            evaluated[i] = dist;
            stats.range_verified += 1;
            if dist <= deltas[i] {
                locs[i].push(p);
                let xi = &mut xsums[i];
                for j in 0..d {
                    xi[j] += diffs[j];
                }
            }
        }
    }
    FusedPartial { locs, xsums }
}

/// [`assign_block`] with monotone prefix pruning: a candidate's
/// evaluation is abandoned once its running segmental prefix reaches
/// the incumbent best distance — the prefix is a certified lower bound
/// (see [`crate::index`]), and `prefix ≥ best` already decides the
/// strict `<` comparison against it. Winners are bit-identical.
#[allow(clippy::too_many_arguments)]
pub fn assign_block_pruned(
    points: &Matrix,
    metric: DistanceKind,
    medoids: &[usize],
    dims: &[Vec<usize>],
    lo: usize,
    hi: usize,
    stats: &mut PruneStats,
    tile: Option<&TileView<'_>>,
    mut fast: Option<&mut FastMathStats>,
) -> Vec<usize> {
    // When every projection is tiny, evaluating is cheaper than
    // reasoning about abandoning (see `NEAREST_MIN_DIMS`) — run the
    // plain kernel (columnar when the layout is available) unchanged
    // and count everything as verified.
    if dims.iter().all(|di| di.len() < NEAREST_MIN_DIMS) {
        stats.nearest_verified += ((hi - lo) * medoids.len()) as u64;
        return match tile {
            Some(t) => assign_block_columnar(
                t,
                points,
                metric,
                medoids,
                dims,
                lo,
                hi,
                fast.as_deref_mut(),
            ),
            None => assign_block(points, metric, medoids, dims, lo, hi),
        };
    }
    // Hoisted threshold halves: the per-candidate raw threshold is the
    // single multiply `tbase · lens[i]` (see `raw_tbase`).
    let lens: Vec<f64> = dims
        .iter()
        .map(|di| raw_len_factor(metric, di.len()))
        .collect();
    // Adaptive gate: probe the first PROBE_POINTS rows with abandonment
    // enabled, then keep it only when most reached evaluations abandon
    // (see `crate::index::PREFIX_KEEP_NUM`). Only slots with large
    // projections ever consult the device.
    let big_slots = dims
        .iter()
        .filter(|di| di.len() >= NEAREST_MIN_DIMS)
        .count() as u64;
    let probe_end = (lo + PROBE_POINTS).min(hi);
    let base_pruned = stats.nearest_pruned;
    let mut out = Vec::with_capacity(hi - lo);
    for p in lo..hi {
        if p == probe_end {
            let abandoned = stats.nearest_pruned - base_pruned;
            let reached = ((probe_end - lo) as u64) * big_slots;
            if abandoned * PREFIX_KEEP_DEN < reached * PREFIX_KEEP_NUM {
                // Abandonment is not paying for its branches: hand the
                // rest of the block to the plain loop (columnar when
                // the layout is available).
                stats.nearest_verified += ((hi - p) * medoids.len()) as u64;
                match tile {
                    Some(t) => assign_range_columnar(
                        t,
                        points,
                        metric,
                        medoids,
                        dims,
                        p,
                        hi,
                        &mut out,
                        fast.as_deref_mut(),
                    ),
                    None => out.extend(assign_block(points, metric, medoids, dims, p, hi)),
                }
                return out;
            }
        }
        let row = points.row(p);
        let mut best = 0usize;
        let mut best_dist = f64::INFINITY;
        // raw_tbase(metric, ∞) = ∞ for every metric.
        let mut tbase = f64::INFINITY;
        for (i, ((&m, di), &lf)) in medoids.iter().zip(dims).zip(&lens).enumerate() {
            // Tiny projections are cheaper to evaluate than to reason
            // about abandoning (see `NEAREST_MIN_DIMS`).
            let verdict = if di.len() < NEAREST_MIN_DIMS {
                Some(metric.eval_segmental(row, points.row(m), di))
            } else {
                segmental_bounded(metric, row, points.row(m), di, tbase * lf)
            };
            match verdict {
                Some(dist) => {
                    stats.nearest_verified += 1;
                    if dist < best_dist {
                        best_dist = dist;
                        best = i;
                        tbase = raw_tbase(metric, dist);
                    }
                }
                None => stats.nearest_pruned += 1,
            }
        }
        out.push(best);
    }
    out
}

/// [`assign_x_block`] with the same prefix pruning as
/// [`assign_block_pruned`]. The `X` accumulation only ever reads the
/// *winning* medoid's full-dimensional differences, which are computed
/// outside the pruned comparison, so the sums are untouched by pruning.
#[allow(clippy::too_many_arguments)]
pub fn assign_x_block_pruned(
    points: &Matrix,
    metric: DistanceKind,
    medoids: &[usize],
    dims: &[Vec<usize>],
    lo: usize,
    hi: usize,
    stats: &mut PruneStats,
    tile: Option<&TileView<'_>>,
    mut fast: Option<&mut FastMathStats>,
) -> AssignXPartial {
    if dims.iter().all(|di| di.len() < NEAREST_MIN_DIMS) {
        stats.nearest_verified += ((hi - lo) * medoids.len()) as u64;
        return match tile {
            Some(t) => assign_x_block_columnar(
                t,
                points,
                metric,
                medoids,
                dims,
                lo,
                hi,
                fast.as_deref_mut(),
            ),
            None => assign_x_block(points, metric, medoids, dims, lo, hi),
        };
    }
    let d = points.cols();
    let lens: Vec<f64> = dims
        .iter()
        .map(|di| raw_len_factor(metric, di.len()))
        .collect();
    let big_slots = dims
        .iter()
        .filter(|di| di.len() >= NEAREST_MIN_DIMS)
        .count() as u64;
    let probe_end = (lo + PROBE_POINTS).min(hi);
    let base_pruned = stats.nearest_pruned;
    let mut xsums = vec![vec![0.0; d]; medoids.len()];
    let mut assignment = Vec::with_capacity(hi - lo);
    for p in lo..hi {
        if p == probe_end {
            let abandoned = stats.nearest_pruned - base_pruned;
            let reached = ((probe_end - lo) as u64) * big_slots;
            if abandoned * PREFIX_KEEP_DEN < reached * PREFIX_KEEP_NUM {
                // Hand the rest of the block to the plain loop
                // (columnar when the layout is available), continuing
                // the same accumulators so the `X` summation order
                // stays bit-identical.
                stats.nearest_verified += ((hi - p) * medoids.len()) as u64;
                match tile {
                    Some(t) => assign_x_range_columnar(
                        t,
                        points,
                        metric,
                        medoids,
                        dims,
                        p,
                        hi,
                        &mut xsums,
                        &mut assignment,
                        fast.as_deref_mut(),
                    ),
                    None => assign_x_range(
                        points,
                        metric,
                        medoids,
                        dims,
                        p,
                        hi,
                        &mut xsums,
                        &mut assignment,
                    ),
                }
                return AssignXPartial { assignment, xsums };
            }
        }
        let row = points.row(p);
        let mut best = 0usize;
        let mut best_dist = f64::INFINITY;
        let mut tbase = f64::INFINITY;
        for (i, ((&m, di), &lf)) in medoids.iter().zip(dims).zip(&lens).enumerate() {
            let verdict = if di.len() < NEAREST_MIN_DIMS {
                Some(metric.eval_segmental(row, points.row(m), di))
            } else {
                segmental_bounded(metric, row, points.row(m), di, tbase * lf)
            };
            match verdict {
                Some(dist) => {
                    stats.nearest_verified += 1;
                    if dist < best_dist {
                        best_dist = dist;
                        best = i;
                        tbase = raw_tbase(metric, dist);
                    }
                }
                None => stats.nearest_pruned += 1,
            }
        }
        assignment.push(best);
        let mrow = points.row(medoids[best]);
        let xi = &mut xsums[best];
        for j in 0..d {
            xi[j] += (row[j] - mrow[j]).abs();
        }
    }
    AssignXPartial { assignment, xsums }
}

/// [`refine_assign_block`] with prefix pruning. A candidate here feeds
/// *two* comparisons — `dist ≤ spheres[i]` (inside any sphere?) and
/// `dist < best` (nearest?) — so an evaluation may only be abandoned
/// when the prefix already decides **both**: `dist > spheres[i]`
/// forces the membership test false, and `dist ≥ best` forces the
/// nearest test false. Both conditions are "accumulator reaches a raw
/// threshold", so their conjunction is the *larger* threshold (a NaN
/// sphere threshold — an unconditionally-inside `∞` sphere — makes the
/// conjunction unreachable). Outlier flags and winners are
/// bit-identical.
#[allow(clippy::too_many_arguments)]
pub fn refine_assign_block_pruned(
    points: &Matrix,
    metric: DistanceKind,
    medoids: &[usize],
    dims: &[Vec<usize>],
    spheres: &[f64],
    lo: usize,
    hi: usize,
    stats: &mut PruneStats,
    tile: Option<&TileView<'_>>,
) -> Vec<Option<usize>> {
    if dims.iter().all(|di| di.len() < NEAREST_MIN_DIMS) {
        stats.nearest_verified += ((hi - lo) * medoids.len()) as u64;
        return match tile {
            Some(t) => {
                refine_assign_block_columnar(t, points, metric, medoids, dims, spheres, lo, hi)
            }
            None => refine_assign_block(points, metric, medoids, dims, spheres, lo, hi),
        };
    }
    // Raw-unit "certainly outside the sphere" thresholds, one per slot
    // (spheres and dimension sets are fixed for the whole block).
    let rt_sphere: Vec<f64> = spheres
        .iter()
        .zip(dims)
        .map(|(&sphere, di)| raw_gt_threshold(metric, sphere, di.len()))
        .collect();
    let lens: Vec<f64> = dims
        .iter()
        .map(|di| raw_len_factor(metric, di.len()))
        .collect();
    let big_slots = dims
        .iter()
        .filter(|di| di.len() >= NEAREST_MIN_DIMS)
        .count() as u64;
    let probe_end = (lo + PROBE_POINTS).min(hi);
    let base_pruned = stats.nearest_pruned;
    let mut out = Vec::with_capacity(hi - lo);
    for p in lo..hi {
        if p == probe_end {
            let abandoned = stats.nearest_pruned - base_pruned;
            let reached = ((probe_end - lo) as u64) * big_slots;
            if abandoned * PREFIX_KEEP_DEN < reached * PREFIX_KEEP_NUM {
                // Hand the rest of the block to the plain loop
                // (columnar when the layout is available).
                stats.nearest_verified += ((hi - p) * medoids.len()) as u64;
                match tile {
                    Some(t) => refine_assign_range_columnar(
                        t, points, metric, medoids, dims, spheres, p, hi, &mut out,
                    ),
                    None => out.extend(refine_assign_block(
                        points, metric, medoids, dims, spheres, p, hi,
                    )),
                }
                return out;
            }
        }
        let row = points.row(p);
        let mut best = 0usize;
        let mut best_dist = f64::INFINITY;
        let mut tbase = f64::INFINITY;
        let mut inside_any = false;
        for (i, ((&m, di), &lf)) in medoids.iter().zip(dims).zip(&lens).enumerate() {
            let rt_best = tbase * lf;
            // Once some sphere already contains the point, later
            // candidates only matter for the nearest test.
            let rt = if inside_any {
                rt_best
            } else if rt_sphere[i].is_nan() {
                f64::NAN
            } else {
                rt_best.max(rt_sphere[i])
            };
            let verdict = if di.len() < NEAREST_MIN_DIMS {
                Some(metric.eval_segmental(row, points.row(m), di))
            } else {
                segmental_bounded(metric, row, points.row(m), di, rt)
            };
            match verdict {
                Some(dist) => {
                    stats.nearest_verified += 1;
                    if dist <= spheres[i] {
                        inside_any = true;
                    }
                    if dist < best_dist {
                        best_dist = dist;
                        best = i;
                        tbase = raw_tbase(metric, dist);
                    }
                }
                None => stats.nearest_pruned += 1,
            }
        }
        out.push(inside_any.then_some(best));
    }
    out
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
    lo: usize,
    hi: usize,
    dist: &mut Vec<f64>,
) {
    let w = hi - lo;
    dist.clear();
    dist.resize(w, 0.0);
    match metric {
        DistanceKind::Manhattan => {
            for (j, &mj) in mrow.iter().enumerate() {
                let col = tile.col(j, lo, hi);
                for (acc, &x) in dist.iter_mut().zip(col) {
                    *acc += (x - mj).abs();
                }
            }
        }
        DistanceKind::Euclidean => {
            for (j, &mj) in mrow.iter().enumerate() {
                let col = tile.col(j, lo, hi);
                for (acc, &x) in dist.iter_mut().zip(col) {
                    let dv = x - mj;
                    *acc += dv * dv;
                }
            }
        }
        DistanceKind::Chebyshev => {
            for (j, &mj) in mrow.iter().enumerate() {
                let col = tile.col(j, lo, hi);
                for (acc, &x) in dist.iter_mut().zip(col) {
                    *acc = f64::max(*acc, (x - mj).abs());
                }
            }
        }
    }
}

/// Projected segmental distances of one (medoid, dimension-set) slot
/// over tile rows `lo..hi`, written into `out[p − lo]` — bit-identical
/// to `metric.eval_segmental(points.row(p), mrow, di)` per point.
fn segmental_column_columnar(
    tile: &TileView<'_>,
    metric: DistanceKind,
    mrow: &[f64],
    di: &[usize],
    lo: usize,
    hi: usize,
    out: &mut [f64],
) {
    for v in out.iter_mut() {
        *v = 0.0;
    }
    match metric {
        DistanceKind::Manhattan => {
            for &j in di {
                let mj = mrow[j];
                let col = tile.col(j, lo, hi);
                for (acc, &x) in out.iter_mut().zip(col) {
                    *acc += (x - mj).abs();
                }
            }
        }
        DistanceKind::Euclidean => {
            for &j in di {
                let mj = mrow[j];
                let col = tile.col(j, lo, hi);
                for (acc, &x) in out.iter_mut().zip(col) {
                    let dv = x - mj;
                    *acc += dv * dv;
                }
            }
        }
        DistanceKind::Chebyshev => {
            for &j in di {
                let mj = mrow[j];
                let col = tile.col(j, lo, hi);
                for (acc, &x) in out.iter_mut().zip(col) {
                    *acc = f64::max(*acc, (x - mj).abs());
                }
            }
        }
    }
    finalize_segmental(metric, out, di.len());
}

/// Add each listed member's `|p_j − m_j|` row into the cluster's `X`
/// sums, dimension-outer. Per `X` cell the members are visited in the
/// same ascending order as the row-major kernels, and the local
/// read-accumulate-writeback is bitwise the sequential in-place adds.
fn accumulate_members_columnar(
    tile: &TileView<'_>,
    mrow: &[f64],
    members: &[usize],
    lo: usize,
    hi: usize,
    xi: &mut [f64],
) {
    if members.is_empty() {
        return;
    }
    for (j, &mj) in mrow.iter().enumerate() {
        let col = tile.col(j, lo, hi);
        let mut s = xi[j];
        for &gp in members {
            s += (col[gp - lo] - mj).abs();
        }
        xi[j] = s;
    }
}

/// Columnar twin of `fused_range`: continues accumulation into existing
/// `locs`/`xsums`, so the pruned kernel can hand it a gate-off tail.
#[allow(clippy::too_many_arguments)]
fn fused_range_columnar(
    tile: &TileView<'_>,
    points: &Matrix,
    metric: DistanceKind,
    medoids: &[usize],
    deltas: &[f64],
    lo: usize,
    hi: usize,
    locs: &mut [Vec<usize>],
    xsums: &mut [Vec<f64>],
) {
    if hi == lo {
        return;
    }
    let d = points.cols();
    let mut dist = Vec::new();
    for (i, &m) in medoids.iter().enumerate() {
        let mrow = points.row(m);
        raw_full_distances_columnar(tile, metric, mrow, lo, hi, &mut dist);
        finalize_segmental(metric, &mut dist, d);
        let delta = deltas[i];
        let li = &mut locs[i];
        let start = li.len();
        for (o, &dv) in dist.iter().enumerate() {
            if dv <= delta {
                li.push(lo + o);
            }
        }
        let (li, xi) = (&locs[i][start..], &mut xsums[i]);
        accumulate_members_columnar(tile, mrow, li, lo, hi, xi);
    }
}

/// Columnar twin of [`fused_block`].
pub fn fused_block_columnar(
    tile: &TileView<'_>,
    points: &Matrix,
    metric: DistanceKind,
    medoids: &[usize],
    deltas: &[f64],
    lo: usize,
    hi: usize,
) -> FusedPartial {
    let d = points.cols();
    let k = medoids.len();
    let mut locs: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut xsums = vec![vec![0.0; d]; k];
    fused_range_columnar(
        tile, points, metric, medoids, deltas, lo, hi, &mut locs, &mut xsums,
    );
    FusedPartial { locs, xsums }
}

/// The `f32` prefilter's per-pair tolerance coefficient: multiply by
/// `‖p‖₁ + ‖m‖₁` for the absolute error bound τ(p, m) (see
/// [`FAST_MATH_TOLERANCE_SCALE`] for the derivation).
#[inline]
fn fast_tau_coefficient(d: usize) -> f64 {
    FAST_MATH_TOLERANCE_SCALE * (d as f64 + 4.0) * (f32::EPSILON as f64)
}

/// `f32`-screened argmin over one tile range: approximate distances
/// give each candidate a conservative interval `[d₃₂ − τ, d₃₂ + τ]`; a
/// candidate whose lower bound exceeds the smallest upper bound cannot
/// win the strict-`<` lowest-index argmin and is excluded without `f64`
/// work, every survivor is evaluated exactly (ascending index, same
/// comparison), so the winners are bit-identical to the plain kernels.
/// Any NaN/inf — in the data, the approximation, or the tolerance —
/// fails the strict exclusion comparison and falls through to the
/// exact path.
#[allow(clippy::too_many_arguments)]
fn assign_range_columnar_fast(
    tile: &TileView<'_>,
    points: &Matrix,
    metric: DistanceKind,
    medoids: &[usize],
    dims: &[Vec<usize>],
    lo: usize,
    hi: usize,
    out: &mut Vec<usize>,
    fstats: &mut FastMathStats,
) {
    let w = hi - lo;
    let k = medoids.len();
    let tau_coeff = fast_tau_coefficient(points.cols());
    // k approximate distance columns plus the per-medoid magnitudes.
    let mut approx = vec![0.0f32; k * w];
    let mut mag_m = vec![0.0f64; k];
    let mut m32: Vec<f32> = Vec::new();
    for (i, (&m, di)) in medoids.iter().zip(dims).enumerate() {
        let mrow = points.row(m);
        mag_m[i] = tile.mag(m);
        m32.clear();
        m32.extend(di.iter().map(|&j| mrow[j] as f32));
        let acc = &mut approx[i * w..(i + 1) * w];
        match metric {
            DistanceKind::Chebyshev => {
                for (&j, &mj) in di.iter().zip(&m32) {
                    if let Some(col) = tile.col32(j, lo, hi) {
                        for (a, &x) in acc.iter_mut().zip(col) {
                            *a = f32::max(*a, (x - mj).abs());
                        }
                    }
                }
            }
            // Manhattan (Euclidean never reaches the fast path).
            _ => {
                for (&j, &mj) in di.iter().zip(&m32) {
                    if let Some(col) = tile.col32(j, lo, hi) {
                        for (a, &x) in acc.iter_mut().zip(col) {
                            *a += (x - mj).abs();
                        }
                    }
                }
                let len = di.len() as f32;
                if len > 0.0 {
                    for a in acc.iter_mut() {
                        *a /= len;
                    }
                }
            }
        }
    }
    for o in 0..w {
        let p = lo + o;
        let mag_p = tile.mag(p);
        let mut min_hi = f64::INFINITY;
        for i in 0..k {
            let hi_bound = approx[i * w + o] as f64 + tau_coeff * (mag_p + mag_m[i]);
            if hi_bound < min_hi {
                min_hi = hi_bound;
            }
        }
        let row = points.row(p);
        let mut best = 0usize;
        let mut best_dist = f64::INFINITY;
        for (i, (&m, di)) in medoids.iter().zip(dims).enumerate() {
            fstats.screened += 1;
            let lo_bound = approx[i * w + o] as f64 - tau_coeff * (mag_p + mag_m[i]);
            if lo_bound > min_hi {
                fstats.excluded += 1;
                continue;
            }
            fstats.verified += 1;
            let dist = metric.eval_segmental(row, points.row(m), di);
            if dist < best_dist {
                best_dist = dist;
                best = i;
            }
        }
        out.push(best);
    }
}

/// Columnar argmin over rows `lo..hi`, appending winners to `out`. With
/// `fast` set (and an `f32` mirror present, and a metric whose
/// segmental distance the screen's error model covers — Euclidean's
/// squared accumulators need a different bound and simply take the
/// exact columnar path), candidates are screened through
/// [`assign_range_columnar_fast`] first; either way the winners are
/// bit-identical to [`assign_block`].
#[allow(clippy::too_many_arguments)]
fn assign_range_columnar(
    tile: &TileView<'_>,
    points: &Matrix,
    metric: DistanceKind,
    medoids: &[usize],
    dims: &[Vec<usize>],
    lo: usize,
    hi: usize,
    out: &mut Vec<usize>,
    fast: Option<&mut FastMathStats>,
) {
    let w = hi - lo;
    if w == 0 {
        return;
    }
    if let Some(fstats) = fast {
        if tile.has_fast() && !matches!(metric, DistanceKind::Euclidean) {
            assign_range_columnar_fast(tile, points, metric, medoids, dims, lo, hi, out, fstats);
            return;
        }
    }
    let mut best = vec![0usize; w];
    let mut best_dist = vec![f64::INFINITY; w];
    let mut col = vec![0.0f64; w];
    for (i, (&m, di)) in medoids.iter().zip(dims).enumerate() {
        segmental_column_columnar(tile, metric, points.row(m), di, lo, hi, &mut col);
        for ((bd, b), &dv) in best_dist.iter_mut().zip(best.iter_mut()).zip(col.iter()) {
            if dv < *bd {
                *bd = dv;
                *b = i;
            }
        }
    }
    out.extend_from_slice(&best);
}

/// Columnar twin of [`assign_block`] (winners bit-identical; `fast`
/// engages the `f32` exactness-gated screen).
#[allow(clippy::too_many_arguments)]
pub fn assign_block_columnar(
    tile: &TileView<'_>,
    points: &Matrix,
    metric: DistanceKind,
    medoids: &[usize],
    dims: &[Vec<usize>],
    lo: usize,
    hi: usize,
    fast: Option<&mut FastMathStats>,
) -> Vec<usize> {
    let mut out = Vec::with_capacity(hi - lo);
    assign_range_columnar(tile, points, metric, medoids, dims, lo, hi, &mut out, fast);
    out
}

/// Columnar twin of `assign_x_range`: winners first (optionally `f32`-
/// screened), then the per-cluster `X` sums accumulated dimension-outer
/// over each cluster's members in ascending order — the same per-cell
/// addition sequence as the row-major sweep.
#[allow(clippy::too_many_arguments)]
fn assign_x_range_columnar(
    tile: &TileView<'_>,
    points: &Matrix,
    metric: DistanceKind,
    medoids: &[usize],
    dims: &[Vec<usize>],
    lo: usize,
    hi: usize,
    xsums: &mut [Vec<f64>],
    assignment: &mut Vec<usize>,
    fast: Option<&mut FastMathStats>,
) {
    let start = assignment.len();
    assign_range_columnar(
        tile, points, metric, medoids, dims, lo, hi, assignment, fast,
    );
    let winners = &assignment[start..];
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); medoids.len()];
    for (o, &wi) in winners.iter().enumerate() {
        members[wi].push(lo + o);
    }
    for ((&m, mem), xi) in medoids.iter().zip(&members).zip(xsums.iter_mut()) {
        accumulate_members_columnar(tile, points.row(m), mem, lo, hi, xi);
    }
}

/// Columnar twin of [`assign_x_block`].
#[allow(clippy::too_many_arguments)]
pub fn assign_x_block_columnar(
    tile: &TileView<'_>,
    points: &Matrix,
    metric: DistanceKind,
    medoids: &[usize],
    dims: &[Vec<usize>],
    lo: usize,
    hi: usize,
    fast: Option<&mut FastMathStats>,
) -> AssignXPartial {
    let d = points.cols();
    let mut xsums = vec![vec![0.0; d]; medoids.len()];
    let mut assignment = Vec::with_capacity(hi - lo);
    assign_x_range_columnar(
        tile,
        points,
        metric,
        medoids,
        dims,
        lo,
        hi,
        &mut xsums,
        &mut assignment,
        fast,
    );
    AssignXPartial { assignment, xsums }
}

/// Columnar twin of [`columns_block`].
pub fn columns_block_columnar(
    tile: &TileView<'_>,
    points: &Matrix,
    metric: DistanceKind,
    medoids: &[usize],
    dims: &[Vec<usize>],
    lo: usize,
    hi: usize,
) -> Vec<Vec<f64>> {
    medoids
        .iter()
        .zip(dims)
        .map(|(&m, di)| {
            let mut col = vec![0.0f64; hi - lo];
            segmental_column_columnar(tile, metric, points.row(m), di, lo, hi, &mut col);
            col
        })
        .collect()
}

/// Columnar twin of [`cluster_x_block`].
pub fn cluster_x_block_columnar(
    tile: &TileView<'_>,
    points: &Matrix,
    medoids: &[usize],
    assignment: &[Option<usize>],
    lo: usize,
    hi: usize,
) -> Vec<Vec<f64>> {
    let d = points.cols();
    let mut xsums = vec![vec![0.0; d]; medoids.len()];
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); medoids.len()];
    for (p, a) in assignment.iter().enumerate().take(hi).skip(lo) {
        if let Some(i) = *a {
            members[i].push(p);
        }
    }
    for ((&m, mem), xi) in medoids.iter().zip(&members).zip(xsums.iter_mut()) {
        accumulate_members_columnar(tile, points.row(m), mem, lo, hi, xi);
    }
    xsums
}

/// Columnar twin of `refine_assign_block` for a sub-range, appending to
/// `out` — the gate-off tail of the pruned refine kernel.
#[allow(clippy::too_many_arguments)]
fn refine_assign_range_columnar(
    tile: &TileView<'_>,
    points: &Matrix,
    metric: DistanceKind,
    medoids: &[usize],
    dims: &[Vec<usize>],
    spheres: &[f64],
    lo: usize,
    hi: usize,
    out: &mut Vec<Option<usize>>,
) {
    let w = hi - lo;
    if w == 0 {
        return;
    }
    let mut best = vec![0usize; w];
    let mut best_dist = vec![f64::INFINITY; w];
    let mut inside = vec![false; w];
    let mut col = vec![0.0f64; w];
    for (i, (&m, di)) in medoids.iter().zip(dims).enumerate() {
        segmental_column_columnar(tile, metric, points.row(m), di, lo, hi, &mut col);
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
    out.extend(inside.iter().zip(&best).map(|(&ins, &b)| ins.then_some(b)));
}

/// Columnar twin of [`refine_assign_block`].
#[allow(clippy::too_many_arguments)]
pub fn refine_assign_block_columnar(
    tile: &TileView<'_>,
    points: &Matrix,
    metric: DistanceKind,
    medoids: &[usize],
    dims: &[Vec<usize>],
    spheres: &[f64],
    lo: usize,
    hi: usize,
) -> Vec<Option<usize>> {
    let mut out = Vec::with_capacity(hi - lo);
    refine_assign_range_columnar(
        tile, points, metric, medoids, dims, spheres, lo, hi, &mut out,
    );
    out
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

/// One sweep over every tile: for each cluster with members and
/// dimensions, `acc[i][t] += f(x_pj, centers[i][t])` over its members
/// `p` (ascending, tile after tile) for each position `t` of `j` in
/// `dims[i]`, four positions at a time plus a narrower remainder group.
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
        let col = |j: usize| tile.col(j, lo, hi);
        for (i, di) in dims.iter().enumerate() {
            let mem = members.of(t, i);
            if mem.is_empty() {
                continue;
            }
            let (ci, ai) = (&centers[i], &mut acc[i]);
            let mut g = 0;
            while g + 4 <= di.len() {
                let cols = [col(di[g]), col(di[g + 1]), col(di[g + 2]), col(di[g + 3])];
                let cen = [ci[g], ci[g + 1], ci[g + 2], ci[g + 3]];
                accumulate_group(cols, cen, mem, &mut ai[g..], f);
                g += 4;
            }
            let rest = &mut ai[g..];
            match di.len() - g {
                3 => accumulate_group(
                    [col(di[g]), col(di[g + 1]), col(di[g + 2])],
                    [ci[g], ci[g + 1], ci[g + 2]],
                    mem,
                    rest,
                    f,
                ),
                2 => accumulate_group(
                    [col(di[g]), col(di[g + 1])],
                    [ci[g], ci[g + 1]],
                    mem,
                    rest,
                    f,
                ),
                1 => accumulate_group([col(di[g])], [ci[g]], mem, rest, f),
                _ => {}
            }
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
    sweep_clusters(layout, &members, dims, &centers, &mut spread, |x, c| {
        (x - c).abs()
    });
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
    use crate::index::NeighborIndex;
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
        let cb = ColumnarBlocks::build(points, false);
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
        let cb = ColumnarBlocks::build(&points, false);
        let want = oracle(&points, &labels, &dims);
        let got = evaluate_tiles(&cb, &labels, &dims);
        assert!(want.objective.is_nan() && got.objective.is_nan());
        assert_eq!(got.sizes, want.sizes);
    }

    #[test]
    fn tile_evaluator_edge_shapes() {
        let points = random_points(5, 3, 1);
        let cb = ColumnarBlocks::build(&points, false);
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
        let e = evaluate_tiles(
            &ColumnarBlocks::build(&empty, false),
            &[] as &[usize],
            &[vec![0]],
        );
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
            let (locs, _) = merge_fused(partials, &medoids, points.cols());
            assert_eq!(locs, legacy, "{metric:?}");
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
        let (locs_a, x_a) = merge_fused(vec![one_block], &medoids, 4);
        let partials: Vec<FusedPartial> = [(0, 77), (77, 200), (200, 300)]
            .into_iter()
            .map(|(lo, hi)| fused_block(&points, metric, &medoids, &deltas, lo, hi))
            .collect();
        let (locs_b, x_b) = merge_fused(partials, &medoids, 4);
        assert_eq!(locs_a, locs_b);
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
    fn assign_block_matches_assign_points() {
        let points = random_points(500, 5, 9);
        let medoids = vec![0usize, 100, 300];
        let dims = vec![vec![0, 1], vec![2, 3], vec![1, 4]];
        let metric = DistanceKind::Manhattan;
        let legacy = crate::assign::assign_points(&points, &medoids, &dims, metric);
        let flat: Vec<usize> = blocks(points.rows())
            .into_iter()
            .flat_map(|(lo, hi)| assign_block(&points, metric, &medoids, &dims, lo, hi))
            .collect();
        assert_eq!(flat, legacy);
    }

    #[test]
    fn assign_x_assignment_matches_plain_assign() {
        let points = random_points(400, 5, 13);
        let medoids = vec![7usize, 200];
        let dims = vec![vec![0, 2], vec![1, 3]];
        let metric = DistanceKind::Manhattan;
        let partials: Vec<AssignXPartial> = blocks(points.rows())
            .into_iter()
            .map(|(lo, hi)| assign_x_block(&points, metric, &medoids, &dims, lo, hi))
            .collect();
        let (flat, x) = merge_assign_x(partials, 2, 5);
        assert_eq!(
            flat,
            crate::assign::assign_points(&points, &medoids, &dims, metric)
        );
        // X must equal the cluster-based average_dimension_distances up
        // to accumulation-order rounding.
        let opt: Vec<Option<usize>> = flat.iter().map(|&a| Some(a)).collect();
        let clusters = crate::assign::group_members(&opt, 2);
        let legacy = crate::dims::average_dimension_distances(&points, &medoids, &clusters);
        for (ra, rb) in x.iter().zip(&legacy) {
            for (a, b) in ra.iter().zip(rb) {
                assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn refine_assign_block_marks_outliers() {
        let rows: Vec<[f64; 2]> = vec![[0.0, 0.0], [10.0, 10.0], [500.0, 500.0]];
        let points = Matrix::from_rows(&rows, 2);
        let medoids = vec![0usize, 1];
        let dims = vec![vec![0, 1], vec![0, 1]];
        let metric = DistanceKind::Manhattan;
        let spheres = crate::refine::spheres_of_influence(&points, &medoids, &dims, metric);
        let out = refine_assign_block(&points, metric, &medoids, &dims, &spheres, 0, 3);
        assert_eq!(out, vec![Some(0), Some(1), None]);
    }

    #[test]
    fn columns_match_direct_evaluation_and_argmin_matches_assign() {
        for metric in [
            DistanceKind::Manhattan,
            DistanceKind::Euclidean,
            DistanceKind::Chebyshev,
        ] {
            let points = random_points(600, 5, 23);
            let medoids = vec![2usize, 170, 444];
            let dims = vec![vec![0, 1], vec![2, 3], vec![1, 4]];
            let cols: Vec<Vec<f64>> = blocks(points.rows()).into_iter().fold(
                vec![Vec::new(); medoids.len()],
                |mut acc, (lo, hi)| {
                    for (full, part) in acc
                        .iter_mut()
                        .zip(columns_block(&points, metric, &medoids, &dims, lo, hi))
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
        let (locs, x) = merge_fused(partials, &medoids, 2);
        assert_eq!(locs[1], vec![1], "empty locality becomes {{medoid}}");
        assert_eq!(x[1], vec![0.0, 0.0], "fallback X row is pinned to zero");
        assert!(!locs[0].is_empty());
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

    /// The pruned fused kernel must be **bit-identical** to the plain
    /// one — members, order, and X sums — across all metrics, and
    /// actually prune something on clustered data.
    #[test]
    fn fused_block_pruned_is_bit_identical_to_plain() {
        for metric in [
            DistanceKind::Manhattan,
            DistanceKind::Euclidean,
            DistanceKind::Chebyshev,
        ] {
            for seed in [11u64, 29] {
                let points = random_points(900, 7, seed);
                let medoids = vec![3usize, 99, 402, 777];
                let deltas = medoid_deltas(&points, &medoids, metric);
                let index = std::sync::Arc::new(NeighborIndex::build(&points, metric));
                let ctx = FusedPruneCtx::new(index, &points, &medoids, metric);
                let mut stats = PruneStats::default();
                for (lo, hi) in blocks(points.rows()) {
                    let plain = fused_block(&points, metric, &medoids, &deltas, lo, hi);
                    let pruned = fused_block_pruned(
                        &points, metric, &medoids, &deltas, &ctx, lo, hi, &mut stats, None,
                    );
                    assert_eq!(plain.locs, pruned.locs, "{metric:?} seed {seed}");
                    for (a, b) in plain.xsums.iter().zip(&pruned.xsums) {
                        let ab: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
                        let bb: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(ab, bb, "{metric:?} seed {seed}: X bits moved");
                    }
                }
                assert!(
                    stats.range_sketch_pruned + stats.range_triangle_pruned > 0,
                    "{metric:?} seed {seed}: range pruning inert"
                );
            }
        }
    }

    /// The pruned assignment kernels must reproduce the plain winners
    /// (and X sums, and outlier flags) bit for bit.
    #[test]
    fn pruned_assignment_kernels_are_bit_identical_to_plain() {
        for metric in [
            DistanceKind::Manhattan,
            DistanceKind::Euclidean,
            DistanceKind::Chebyshev,
        ] {
            // Dimension sets must reach NEAREST_MIN_DIMS for the
            // bounded path to engage at all; a couple of small sets
            // exercise the mixed small/large case.
            let points = random_points(800, 12, 31);
            let medoids = vec![2usize, 170, 444, 650];
            let dims = vec![
                (0..10).collect::<Vec<_>>(),
                (1..11).collect(),
                (2..12).collect(),
                vec![0, 5],
            ];
            let spheres = crate::refine::spheres_of_influence(&points, &medoids, &dims, metric);
            let mut stats = PruneStats::default();
            for (lo, hi) in blocks(points.rows()) {
                assert_eq!(
                    assign_block(&points, metric, &medoids, &dims, lo, hi),
                    assign_block_pruned(
                        &points, metric, &medoids, &dims, lo, hi, &mut stats, None, None
                    ),
                    "{metric:?} assign"
                );
                let plain = assign_x_block(&points, metric, &medoids, &dims, lo, hi);
                let pruned = assign_x_block_pruned(
                    &points, metric, &medoids, &dims, lo, hi, &mut stats, None, None,
                );
                assert_eq!(plain.assignment, pruned.assignment, "{metric:?} assign_x");
                for (a, b) in plain.xsums.iter().zip(&pruned.xsums) {
                    let ab: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
                    let bb: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(ab, bb, "{metric:?} assign_x X bits moved");
                }
                assert_eq!(
                    refine_assign_block(&points, metric, &medoids, &dims, &spheres, lo, hi),
                    refine_assign_block_pruned(
                        &points, metric, &medoids, &dims, &spheres, lo, hi, &mut stats, None
                    ),
                    "{metric:?} refine"
                );
            }
            assert!(stats.nearest_pruned > 0, "{metric:?}: prefix pruning inert");
        }
    }

    /// Pruned kernels preserve the NaN semantics of the plain path (a
    /// NaN-coordinate medoid never wins, all-NaN rows land on slot 0).
    #[test]
    fn pruned_kernels_preserve_nan_semantics() {
        let rows: Vec<[f64; 2]> = vec![[0.0, 0.0], [f64::NAN, 1.0], [2.0, 2.0], [50.0, 50.0]];
        let points = Matrix::from_rows(&rows, 2);
        let medoids = vec![1usize, 3];
        let dims = vec![vec![0, 1], vec![0, 1]];
        let metric = DistanceKind::Manhattan;
        let mut stats = PruneStats::default();
        assert_eq!(
            assign_block(&points, metric, &medoids, &dims, 0, 4),
            assign_block_pruned(&points, metric, &medoids, &dims, 0, 4, &mut stats, None, None),
        );
        let deltas = medoid_deltas(&points, &medoids, metric);
        let index = std::sync::Arc::new(NeighborIndex::build(&points, metric));
        let ctx = FusedPruneCtx::new(index, &points, &medoids, metric);
        let plain = fused_block(&points, metric, &medoids, &deltas, 0, 4);
        let pruned = fused_block_pruned(
            &points, metric, &medoids, &deltas, &ctx, 0, 4, &mut stats, None,
        );
        assert_eq!(plain, pruned);
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
        vec![
            ("tie-heavy", Matrix::from_vec(tie, n, d)),
            ("duplicate-rows", Matrix::from_vec(dup, n, d)),
            ("mixed-magnitude", Matrix::from_vec(huge, n, d)),
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

    /// Every columnar twin must be bit-identical to its row-major
    /// original — localities, X sums, assignments, distance columns,
    /// refine outcomes — across all three metrics on tie-heavy,
    /// duplicate-row, and mixed-magnitude matrices.
    #[test]
    fn columnar_kernels_are_bit_identical_to_row_major() {
        for (name, points) in tricky_matrices() {
            let cb = ColumnarBlocks::build(&points, false);
            let medoids = vec![3usize, 700, 1_200];
            let dims = vec![vec![0, 1, 2], vec![1, 3], vec![0, 4, 5]];
            for metric in [
                DistanceKind::Manhattan,
                DistanceKind::Euclidean,
                DistanceKind::Chebyshev,
            ] {
                let deltas = medoid_deltas(&points, &medoids, metric);
                let spheres: Vec<f64> = deltas.iter().map(|d| d * 0.8).collect();
                let refined: Vec<Option<usize>> = blocks(points.rows())
                    .into_iter()
                    .flat_map(|(lo, hi)| {
                        refine_assign_block(&points, metric, &medoids, &dims, &spheres, lo, hi)
                    })
                    .collect();
                for (lo, hi) in blocks(points.rows()) {
                    let ctx = format!("{name}/{metric:?}/[{lo},{hi})");
                    let t = cb.tile(lo, hi).unwrap();
                    let fa = fused_block(&points, metric, &medoids, &deltas, lo, hi);
                    let fb = fused_block_columnar(&t, &points, metric, &medoids, &deltas, lo, hi);
                    assert_eq!(fa.locs, fb.locs, "{ctx}: fused locs");
                    assert_bits(&fa.xsums, &fb.xsums, &format!("{ctx}: fused X"));
                    assert_eq!(
                        assign_block(&points, metric, &medoids, &dims, lo, hi),
                        assign_block_columnar(&t, &points, metric, &medoids, &dims, lo, hi, None),
                        "{ctx}: assign"
                    );
                    let xa = assign_x_block(&points, metric, &medoids, &dims, lo, hi);
                    let xb =
                        assign_x_block_columnar(&t, &points, metric, &medoids, &dims, lo, hi, None);
                    assert_eq!(xa.assignment, xb.assignment, "{ctx}: assign+X winners");
                    assert_bits(&xa.xsums, &xb.xsums, &format!("{ctx}: assign+X sums"));
                    assert_bits(
                        &columns_block(&points, metric, &medoids, &dims, lo, hi),
                        &columns_block_columnar(&t, &points, metric, &medoids, &dims, lo, hi),
                        &format!("{ctx}: columns"),
                    );
                    assert_eq!(
                        refine_assign_block(&points, metric, &medoids, &dims, &spheres, lo, hi),
                        refine_assign_block_columnar(
                            &t, &points, metric, &medoids, &dims, &spheres, lo, hi,
                        ),
                        "{ctx}: refine"
                    );
                    assert_bits(
                        &cluster_x_block(&points, &medoids, &refined, lo, hi),
                        &cluster_x_block_columnar(&t, &points, &medoids, &refined, lo, hi),
                        &format!("{ctx}: cluster X"),
                    );
                }
            }
        }
    }

    /// The `f32` screen must never change a winner: gated assignment
    /// equals the plain kernels element-wise, the counters balance, and
    /// the screen actually engages for Manhattan/Chebyshev while
    /// Euclidean falls through to the exact columnar path.
    #[test]
    fn fast_gated_assignment_matches_plain_winners_exactly() {
        for (name, points) in tricky_matrices() {
            let cb = ColumnarBlocks::build(&points, true);
            let medoids = vec![3usize, 700, 1_200];
            let dims = vec![vec![0, 1, 2], vec![1, 3], vec![0, 4, 5]];
            for metric in [
                DistanceKind::Manhattan,
                DistanceKind::Euclidean,
                DistanceKind::Chebyshev,
            ] {
                let mut fs = FastMathStats::default();
                for (lo, hi) in blocks(points.rows()) {
                    let ctx = format!("{name}/{metric:?}/[{lo},{hi})");
                    let t = cb.tile(lo, hi).unwrap();
                    assert_eq!(
                        assign_block(&points, metric, &medoids, &dims, lo, hi),
                        assign_block_columnar(
                            &t,
                            &points,
                            metric,
                            &medoids,
                            &dims,
                            lo,
                            hi,
                            Some(&mut fs),
                        ),
                        "{ctx}: gated assign"
                    );
                    let xa = assign_x_block(&points, metric, &medoids, &dims, lo, hi);
                    let xb = assign_x_block_columnar(
                        &t,
                        &points,
                        metric,
                        &medoids,
                        &dims,
                        lo,
                        hi,
                        Some(&mut fs),
                    );
                    assert_eq!(xa.assignment, xb.assignment, "{ctx}: gated assign+X");
                    assert_bits(&xa.xsums, &xb.xsums, &format!("{ctx}: gated assign+X sums"));
                }
                assert_eq!(
                    fs.screened,
                    fs.excluded + fs.verified,
                    "{name}/{metric:?}: counter balance"
                );
                if metric == DistanceKind::Euclidean {
                    assert_eq!(fs.screened, 0, "{name}: Euclidean must not be screened");
                } else {
                    assert!(fs.screened > 0, "{name}/{metric:?}: screen never engaged");
                }
            }
        }
    }

    /// NaN rows fall through the `f32` screen to the exact path and
    /// keep the plain kernels' NaN semantics.
    #[test]
    fn fast_gate_preserves_nan_semantics() {
        let rows: Vec<[f64; 2]> = vec![[0.0, 0.0], [f64::NAN, 1.0], [2.0, 2.0], [50.0, 50.0]];
        let points = Matrix::from_rows(&rows, 2);
        let cb = ColumnarBlocks::build(&points, true);
        let t = cb.tile(0, 4).unwrap();
        let medoids = vec![1usize, 3];
        let dims = vec![vec![0, 1], vec![0, 1]];
        for metric in [DistanceKind::Manhattan, DistanceKind::Chebyshev] {
            let mut fs = FastMathStats::default();
            assert_eq!(
                assign_block(&points, metric, &medoids, &dims, 0, 4),
                assign_block_columnar(&t, &points, metric, &medoids, &dims, 0, 4, Some(&mut fs),),
                "{metric:?}"
            );
        }
    }
}
