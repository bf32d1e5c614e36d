//! Block-sampling representations: binary and density maps.
//!
//! Both map the `m x n` matrix onto an `s x s` grid of blocks; entry
//! `(r, c)` lands in cell `(r*s/m, c*s/n)`. For matrices smaller than
//! the grid this spreads entries over a sparse sub-grid (the analogue
//! of interpolation for upscaled images); for larger matrices it is the
//! paper's down-sampling.

use crate::image::Image;
use crate::sweep::{counts_to_f32, sweep, AxisMap};
use crate::CancelCheck;
use dnnspmv_sparse::{CooMatrix, Scalar};
use std::ops::Range;

/// Adds the nonzeros `(rows[i], cols[i])` (sorted by row) of an
/// `nrows x ncols` matrix to the `size x size` grid of per-block counts
/// that both maps derive from. `false` means cancelled.
///
/// Cells are `u32` counters, so a block keeps counting past 2^24, where
/// the `f32 += 1.0` of earlier versions stopped.
pub(crate) fn add_to_blocks(
    (nrows, ncols): (usize, usize),
    (rows, cols): (&[u32], &[u32]),
    size: usize,
    counts: &mut [u32],
    cancel: CancelCheck,
) -> bool {
    let (row_map, col_map) = (AxisMap::new(nrows, size), AxisMap::new(ncols, size));
    sweep(rows, cols, &row_map, cancel, |band, _, cs| {
        let row_cells = &mut counts[band * size..][..size];
        for &c in cs {
            row_cells[col_map.index(c)] += 1;
        }
    })
}

/// The `size x size` per-block counts of the nonzeros of `matrix` with
/// storage indices in `nonzeros`; `None` once `cancel` reports `true`.
pub(crate) fn block_counts<S: Scalar>(
    matrix: &CooMatrix<S>,
    nonzeros: Range<usize>,
    size: usize,
    cancel: CancelCheck,
) -> Option<Vec<u32>> {
    assert!(size > 0, "representation size must be positive");
    let mut counts = vec![0u32; size * size];
    add_to_blocks(
        (matrix.nrows(), matrix.ncols()),
        (
            &matrix.row_indices()[nonzeros.clone()],
            &matrix.col_indices()[nonzeros],
        ),
        size,
        &mut counts,
        cancel,
    )
    .then_some(counts)
}

/// The block counts of the whole matrix.
fn all_block_counts<S: Scalar>(matrix: &CooMatrix<S>, size: usize) -> Vec<u32> {
    block_counts(matrix, 0..matrix.nnz(), size, &|| false).expect("never cancelled")
}

/// The binary map of a grid of block counts.
pub(crate) fn binary_of(counts: &[u32], size: usize) -> Image {
    let cells = counts.iter().map(|&c| f32::from(c > 0)).collect();
    Image::from_vec(size, size, cells)
}

/// The density map of an `nrows x ncols` matrix's grid of block counts.
pub(crate) fn density_of(counts: &[u32], size: usize, (nrows, ncols): (usize, usize)) -> Image {
    // Exact block areas: the number of source rows/cols mapping to each
    // grid index (uneven when the extent does not divide the grid).
    let band_sizes = |extent: usize| -> Vec<f32> {
        let map = AxisMap::new(extent, size);
        (0..size)
            .map(|b| (map.start(b + 1) - map.start(b)) as f32)
            .collect()
    };
    let (row_sizes, col_sizes) = (band_sizes(nrows), band_sizes(ncols));
    let mut cells = counts_to_f32(counts);
    for (row, &rs) in cells.chunks_mut(size).zip(&row_sizes) {
        for (cell, &cs) in row.iter_mut().zip(&col_sizes) {
            let area = rs * cs;
            if area > 0.0 {
                *cell /= area;
            }
        }
    }
    Image::from_vec(size, size, cells)
}

/// Binary down-sampling (Figure 4b): cell is 1 iff its block contains
/// at least one nonzero.
pub fn binary<S: Scalar>(matrix: &CooMatrix<S>, size: usize) -> Image {
    let counts = all_block_counts(matrix, size);
    binary_of(&counts, size)
}

/// Density map (Figure 5a): cell holds `nnz(block) / |block|`, a value
/// in `[0, 1]` capturing within-block variation the binary map loses.
pub fn density<S: Scalar>(matrix: &CooMatrix<S>, size: usize) -> Image {
    let counts = all_block_counts(matrix, size);
    density_of(&counts, size, (matrix.nrows(), matrix.ncols()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 8x8 example of Figure 4a: an irregular near-diagonal matrix
    /// (reconstructed so Figures 4b, 5a and 5b all come out exactly).
    fn figure4a() -> CooMatrix<f32> {
        CooMatrix::from_triplets(
            8,
            8,
            &[
                (0, 0, 45.0),
                (1, 1, -25.0),
                (2, 2, 89.0),
                (2, 3, 37.0),
                (3, 2, 43.0),
                (3, 3, 94.0),
                (4, 0, 77.0),
                (4, 5, 15.0),
                (5, 4, 78.0),
                (5, 5, 36.0),
                (6, 7, 23.0),
                (7, 3, 17.0),
                (7, 6, 11.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn binary_reproduces_figure_4b() {
        // Down-sampling 8x8 -> 4x4 turns Figure 4a into the "perfect
        // diagonal-ish" Figure 4b — the information loss the paper
        // calls out.
        let im = binary(&figure4a(), 4);
        let expect = [
            1.0, 0.0, 0.0, 0.0, //
            0.0, 1.0, 0.0, 0.0, //
            1.0, 0.0, 1.0, 0.0, //
            0.0, 1.0, 0.0, 1.0,
        ];
        assert_eq!(im.data(), &expect);
    }

    #[test]
    fn density_reproduces_figure_5a() {
        let im = density(&figure4a(), 4);
        let expect = [
            0.5, 0.0, 0.0, 0.0, //
            0.0, 1.0, 0.0, 0.0, //
            0.25, 0.0, 0.75, 0.0, //
            0.0, 0.25, 0.0, 0.5,
        ];
        for (got, want) in im.data().iter().zip(&expect) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
    }

    #[test]
    fn binary_values_are_zero_or_one() {
        let m = figure4a();
        let im = binary(&m, 3);
        assert!(im.data().iter().all(|&v| v == 0.0 || v == 1.0));
    }

    #[test]
    fn density_bounded_by_one_even_with_uneven_blocks() {
        // 5x5 over a 3x3 grid: uneven block areas (2,2,1 bands).
        let t: Vec<_> = (0..5)
            .flat_map(|i| (0..5).map(move |j| (i, j, 1.0f32)))
            .collect();
        let dense = CooMatrix::from_triplets(5, 5, &t).unwrap();
        let im = density(&dense, 3);
        for &v in im.data() {
            assert!(
                (v - 1.0).abs() < 1e-6,
                "fully dense block should be 1, got {v}"
            );
        }
    }

    #[test]
    fn small_matrix_upscales_onto_sparse_grid() {
        // 2x2 identity onto an 8x8 grid: exactly two pixels set.
        let m = CooMatrix::from_triplets(2, 2, &[(0, 0, 1.0f32), (1, 1, 1.0)]).unwrap();
        let im = binary(&m, 8);
        assert_eq!(im.count_nonzero(), 2);
        assert_eq!(im.get(0, 0), 1.0);
        assert_eq!(im.get(4, 4), 1.0);
    }

    #[test]
    fn rectangular_matrices_map_both_axes() {
        let m = CooMatrix::from_triplets(4, 16, &[(3, 15, 1.0f32), (0, 0, 1.0)]).unwrap();
        let im = binary(&m, 4);
        assert_eq!(im.get(0, 0), 1.0);
        assert_eq!(im.get(3, 3), 1.0);
        assert_eq!(im.count_nonzero(), 2);
    }

    #[test]
    fn empty_matrix_gives_blank_images() {
        let m = CooMatrix::<f32>::empty(10, 10).unwrap();
        assert_eq!(binary(&m, 4).sum(), 0.0);
        assert_eq!(density(&m, 4).sum(), 0.0);
    }
}
