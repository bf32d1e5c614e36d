//! The one pass over the nonzeros that every representation is built
//! from.
//!
//! All three [`crate::ReprKind`]s bin each nonzero by `(row, col)` onto
//! a fixed grid with the paper's map `idx * grid / extent`. [`AxisMap`]
//! computes that map without a hardware division, and [`sweep`] walks
//! the sorted coordinate arrays in runs of constant row band, so the
//! per-nonzero work is the column side only.

use crate::{CancelCheck, CANCEL_STRIDE};

/// The map `idx -> idx * grid / extent` of one axis (`idx < extent`),
/// i.e. which of `grid` bands an index of an `extent`-long axis falls
/// into.
///
/// With `magic = floor(2^64 / extent) + 1` the high half of
/// `(idx * grid) * magic` equals the quotient whenever
/// `extent^2 * grid < 2^64` (the error term `x * (magic * extent - 2^64)`
/// stays below `2^64` for every `x < extent * grid`). Outside that
/// range, and for `extent == 1` where `magic` does not fit, `magic` is 0
/// and [`AxisMap::index`] divides.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AxisMap {
    extent: u64,
    grid: u64,
    magic: u64,
}

impl AxisMap {
    pub(crate) fn new(extent: usize, grid: usize) -> Self {
        assert!(extent > 0 && grid > 0, "axis map needs a positive shape");
        let (extent, grid) = (extent as u64, grid as u64);
        let exact = extent > 1
            && extent
                .checked_mul(extent)
                .and_then(|sq| sq.checked_mul(grid))
                .is_some();
        Self {
            extent,
            grid,
            magic: if exact { u64::MAX / extent + 1 } else { 0 },
        }
    }

    /// `idx * grid / extent`, exactly.
    #[inline(always)]
    pub(crate) fn index(&self, idx: u32) -> usize {
        let x = idx as u64 * self.grid;
        if self.magic != 0 {
            ((x as u128 * self.magic as u128) >> 64) as usize
        } else {
            (x / self.extent) as usize
        }
    }

    /// First index that maps to `band <= grid` or beyond: `ceil(band *
    /// extent / grid)`. `start(b + 1) - start(b)` is the number of
    /// indices in band `b`.
    pub(crate) fn start(&self, band: usize) -> usize {
        (band as u64 * self.extent).div_ceil(self.grid) as usize
    }
}

/// Walks the nonzeros `(rows[i], cols[i])`, `rows` sorted ascending, and
/// hands them to `visit(band, rows_run, cols_run)` in runs that share
/// one row band of `row_map`. Polls `cancel` once per [`CANCEL_STRIDE`]
/// nonzeros (before the first of each stride) and returns `false` as
/// soon as it reports `true`.
pub(crate) fn sweep(
    rows: &[u32],
    cols: &[u32],
    row_map: &AxisMap,
    cancel: CancelCheck,
    mut visit: impl FnMut(usize, &[u32], &[u32]),
) -> bool {
    assert_eq!(rows.len(), cols.len(), "one column per row index");
    for (rows, cols) in rows.chunks(CANCEL_STRIDE).zip(cols.chunks(CANCEL_STRIDE)) {
        if cancel() {
            return false;
        }
        let mut lo = 0;
        while lo < rows.len() {
            let band = row_map.index(rows[lo]);
            let next = row_map.start(band + 1);
            let hi = lo + rows[lo..].partition_point(|&r| (r as usize) < next);
            assert!(hi > lo, "row {} lies in band {band}", rows[lo]);
            visit(band, &rows[lo..hi], &cols[lo..hi]);
            lo = hi;
        }
    }
    true
}

/// `u32` counts as the `f32` pixels of an image: exact below 2^24,
/// rounded to nearest above.
pub(crate) fn counts_to_f32(counts: &[u32]) -> Vec<f32> {
    counts.iter().map(|&c| c as f32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_and_start_agree_with_division_on_both_paths() {
        // (extent, grid, divides): the reciprocal path, then both fallbacks.
        let max = u32::MAX as usize;
        for (extent, grid, divides) in [
            (48, 64, false),
            (1000, 7, false),
            (65_521, 50, false),
            (1 << 28, 128, false),
            (1, 8, true),
            (max, 64, true),
        ] {
            let map = AxisMap::new(extent, grid);
            assert_eq!(map.magic == 0, divides, "{extent} onto {grid}");
            assert_eq!((map.start(0), map.start(grid)), (0, extent));
            let probes = [0, 1, extent / 3, extent / 2, extent - 1];
            for idx in probes.into_iter().filter(|&idx| idx < extent) {
                let band = map.index(idx as u32);
                assert_eq!(band, idx * grid / extent);
                assert!(map.start(band) <= idx && idx < map.start(band + 1));
            }
        }
    }
}
