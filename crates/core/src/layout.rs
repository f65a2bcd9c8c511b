//! SoA/columnar blocked mirror of the point matrix.
//!
//! The row-major [`Matrix`] is ideal for per-point work (`points.row(p)`
//! is one contiguous slice) but hostile to the hill-climb's hot kernels:
//! a per-point distance loop over dimensions is a serial dependency
//! chain on one accumulator, so the compiler cannot vectorize it without
//! reassociating floating-point adds — which would break the
//! bit-identical determinism contract.
//!
//! [`ColumnarBlocks`] stores the same values dimension-major *within
//! each fixed [`BLOCK`]-row tile*: `tile[j·w + (p − lo)]` for a tile of
//! width `w = hi − lo`. A kernel that loops dimensions outermost and
//! points innermost then updates `w` independent accumulators per
//! iteration — a trivially vectorizable form — while every individual
//! accumulator still receives exactly the same additions in exactly the
//! same (dimension-ascending) order as the row-major kernel. The tile
//! width (≤ 1024 rows × 8 bytes = 8 KiB per dimension column) keeps the
//! working set of a few columns plus accumulators L1/L2-resident.
//!
//! The layout is built once per fit (one pass over the matrix) and
//! shared read-only across pool workers.

use crate::kernel::{blocks, BLOCK};
use proclus_math::Matrix;

/// One dimension-major tile: all values of rows `lo..hi`, stored as `d`
/// contiguous columns of width `hi − lo`.
#[derive(Clone, Debug)]
struct Tile {
    lo: usize,
    hi: usize,
    /// `d · (hi − lo)` values, column `j` at `j·w .. (j+1)·w`.
    data: Vec<f64>,
}

/// The full columnar mirror: one [`Tile`] per canonical
/// [`blocks`]-defined row range.
#[derive(Clone, Debug)]
pub struct ColumnarBlocks {
    d: usize,
    tiles: Vec<Tile>,
}

impl ColumnarBlocks {
    /// Transpose `points` into dimension-major tiles.
    pub fn build(points: &Matrix) -> Self {
        let d = points.cols();
        let tiles = blocks(points.rows())
            .into_iter()
            .map(|(lo, hi)| {
                let w = hi - lo;
                let mut data = vec![0.0; d * w];
                for p in lo..hi {
                    for (j, &v) in points.row(p).iter().enumerate() {
                        data[j * w + (p - lo)] = v;
                    }
                }
                Tile { lo, hi, data }
            })
            .collect();
        Self { d, tiles }
    }

    /// Dimensionality of the mirrored matrix.
    #[inline]
    pub fn dims(&self) -> usize {
        self.d
    }

    /// Every tile in row order — one per canonical [`blocks`] range.
    pub fn tiles(&self) -> impl ExactSizeIterator<Item = TileView<'_>> {
        self.tiles.iter().map(|tile| TileView { tile })
    }

    /// View of the tile containing rows `lo..hi`. `lo..hi` must lie
    /// within one canonical [`BLOCK`] tile (the pool only dispatches
    /// such ranges); out-of-range requests return `None`.
    pub fn tile(&self, lo: usize, hi: usize) -> Option<TileView<'_>> {
        let t = self.tiles.get(lo / BLOCK)?;
        if lo < t.lo || hi > t.hi {
            return None;
        }
        Some(TileView { tile: t })
    }
}

/// Borrowed view of one tile, exposing its columns.
#[derive(Clone, Copy)]
pub struct TileView<'a> {
    tile: &'a Tile,
}

impl<'a> TileView<'a> {
    /// First row of the tile.
    #[inline]
    pub fn lo(&self) -> usize {
        self.tile.lo
    }

    /// One-past-last row of the tile.
    #[inline]
    pub fn hi(&self) -> usize {
        self.tile.hi
    }

    /// Tile width in rows.
    #[inline]
    pub fn width(&self) -> usize {
        self.tile.hi - self.tile.lo
    }

    /// Column `j`: dimension `j` of the tile's rows, in row order.
    #[inline]
    pub fn col(&self, j: usize) -> &'a [f64] {
        let w = self.width();
        &self.tile.data[j * w..(j + 1) * w]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize, d: usize) -> Matrix {
        let data: Vec<f64> = (0..n * d).map(|i| (i as f64).sin() * 10.0).collect();
        Matrix::from_vec(data, n, d)
    }

    #[test]
    fn columns_mirror_the_matrix_exactly() {
        let m = sample(2_500, 7);
        let cb = ColumnarBlocks::build(&m);
        assert_eq!(cb.dims(), 7);
        assert_eq!(cb.tiles().len(), blocks(m.rows()).len());
        for (t, (lo, hi)) in cb.tiles().zip(blocks(m.rows())) {
            assert_eq!((t.lo(), t.hi(), t.width()), (lo, hi, hi - lo));
            assert_eq!(cb.tile(lo, hi).map(|v| v.lo()), Some(lo));
            for j in 0..7 {
                let col = t.col(j);
                assert_eq!(col.len(), hi - lo);
                for p in lo..hi {
                    assert_eq!(col[p - lo].to_bits(), m.row(p)[j].to_bits());
                }
            }
        }
    }

    #[test]
    fn out_of_tile_requests_are_none() {
        let m = sample(100, 2);
        let cb = ColumnarBlocks::build(&m);
        assert!(cb.tile(0, 100).is_some());
        assert!(cb.tile(0, 101).is_none());
        assert!(cb.tile(1024, 1025).is_none());
    }
}
