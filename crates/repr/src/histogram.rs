//! Distance-histogram representation (Algorithm 1 of the paper).
//!
//! Each nonzero contributes to a 2-D histogram indexed by (a) which
//! band of rows (or columns) it lies in and (b) the binned distance
//! `|row - col|` from the main diagonal. Because the second axis is a
//! *distance*, diagonal structure is represented exactly at any output
//! size — the property the block-sampling representations lack — and
//! the two axes (row bands x distance bins) can be sized independently
//! (the paper uses 128 x 50).

use crate::image::Image;
use crate::sweep::{counts_to_f32, sweep, AxisMap};
use crate::CancelCheck;
use dnnspmv_sparse::{CooMatrix, Scalar};
use std::ops::Range;

/// Algorithm 1 for both channels in one sweep: adds the nonzeros
/// `(rows[i], cols[i])` (sorted by row) of an `nrows x ncols` matrix to
/// the raw `bands x bins` histograms over row bands (`by_rows`) and over
/// column bands (`by_cols`). `false` means cancelled.
///
/// Cells are `u32` counters, so a cell keeps counting past 2^24, where
/// the `f32 += 1.0` of earlier versions stopped (and a huge banded
/// matrix then normalised against a saturated bin 0).
pub(crate) fn add_to_histograms(
    (nrows, ncols): (usize, usize),
    (rows, cols): (&[u32], &[u32]),
    bins: usize,
    by_rows: &mut [u32],
    by_cols: &mut [u32],
    cancel: CancelCheck,
) -> bool {
    let bands = by_rows.len() / bins;
    let (row_map, col_map) = (AxisMap::new(nrows, bands), AxisMap::new(ncols, bands));
    let dist_map = AxisMap::new(nrows.max(ncols), bins);
    sweep(rows, cols, &row_map, cancel, |band, rs, cs| {
        let row_hist = &mut by_rows[band * bins..][..bins];
        for (&r, &c) in rs.iter().zip(cs) {
            let bin = dist_map.index(r.abs_diff(c));
            row_hist[bin] += 1;
            by_cols[col_map.index(c) * bins + bin] += 1;
        }
    })
}

/// The raw histograms `by_rows ++ by_cols`, each `bands x bins`, of the
/// nonzeros of `matrix` with storage indices in `nonzeros`; `None` once
/// `cancel` reports `true`.
pub(crate) fn histogram_counts<S: Scalar>(
    matrix: &CooMatrix<S>,
    nonzeros: Range<usize>,
    (bands, bins): (usize, usize),
    cancel: CancelCheck,
) -> Option<Vec<u32>> {
    assert!(bands > 0 && bins > 0, "histogram shape must be positive");
    let mut counts = vec![0u32; 2 * bands * bins];
    let (by_rows, by_cols) = counts.split_at_mut(bands * bins);
    add_to_histograms(
        (matrix.nrows(), matrix.ncols()),
        (
            &matrix.row_indices()[nonzeros.clone()],
            &matrix.col_indices()[nonzeros],
        ),
        bins,
        by_rows,
        by_cols,
        cancel,
    )
    .then_some(counts)
}

/// The raw `[row, column]` histogram images of the counts
/// `by_rows ++ by_cols`, each `bands x bins`.
pub(crate) fn histogram_images(counts: &[u32], (bands, bins): (usize, usize)) -> [Image; 2] {
    let (by_rows, by_cols) = counts.split_at(bands * bins);
    [by_rows, by_cols].map(|c| Image::from_vec(bands, bins, counts_to_f32(c)))
}

/// Both raw histograms of the whole matrix.
fn whole_histograms<S: Scalar>(matrix: &CooMatrix<S>, grid: (usize, usize)) -> [Image; 2] {
    let counts =
        histogram_counts(matrix, 0..matrix.nnz(), grid, &|| false).expect("never cancelled");
    histogram_images(&counts, grid)
}

/// Raw (unnormalised) row histogram: `R[row_band][dist_bin]` counts the
/// nonzeros of that row band at that diagonal distance (Algorithm 1).
pub fn row_histogram_counts<S: Scalar>(matrix: &CooMatrix<S>, bands: usize, bins: usize) -> Image {
    let [by_rows, _] = whole_histograms(matrix, (bands, bins));
    by_rows
}

/// Raw column histogram: the same construction over column bands.
pub fn col_histogram_counts<S: Scalar>(matrix: &CooMatrix<S>, bands: usize, bins: usize) -> Image {
    let [_, by_cols] = whole_histograms(matrix, (bands, bins));
    by_cols
}

/// Row histogram normalised to `[0, 1]` by its maximum (the form fed to
/// the CNN).
pub fn row_histogram<S: Scalar>(matrix: &CooMatrix<S>, bands: usize, bins: usize) -> Image {
    let mut by_rows = row_histogram_counts(matrix, bands, bins);
    by_rows.normalize_max();
    by_rows
}

/// Column histogram normalised to `[0, 1]` by its maximum.
pub fn col_histogram<S: Scalar>(matrix: &CooMatrix<S>, bands: usize, bins: usize) -> Image {
    let mut by_cols = col_histogram_counts(matrix, bands, bins);
    by_cols.normalize_max();
    by_cols
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Same Figure 4a fixture as `sample::tests`.
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
    fn row_histogram_reproduces_figure_5b() {
        let im = row_histogram_counts(&figure4a(), 4, 4);
        let expect = [
            2.0, 0.0, 0.0, 0.0, //
            4.0, 0.0, 0.0, 0.0, //
            3.0, 0.0, 1.0, 0.0, //
            2.0, 0.0, 1.0, 0.0,
        ];
        assert_eq!(im.data(), &expect);
    }

    #[test]
    fn algorithm1_worked_example_from_section_4() {
        // "Row 6 contains only one non-zero element (23) at distance 1;
        // bin floor(1/2) = 0 -> R[3][0] += 1. Row 7 has elements at
        // distances 4 and 1 -> bins 2 and 0. Bottom row of R is
        // [2, 0, 1, 0]."
        let im = row_histogram_counts(&figure4a(), 4, 4);
        assert_eq!(&im.data()[12..16], &[2.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn histogram_total_equals_nnz() {
        let m = figure4a();
        let r = row_histogram_counts(&m, 4, 4);
        let c = col_histogram_counts(&m, 4, 4);
        assert_eq!(r.sum(), m.nnz() as f64);
        assert_eq!(c.sum(), m.nnz() as f64);
    }

    #[test]
    fn normalised_histogram_peaks_at_one() {
        let im = row_histogram(&figure4a(), 4, 4);
        let max = im.data().iter().copied().fold(0.0f32, f32::max);
        assert_eq!(max, 1.0);
    }

    #[test]
    fn pure_diagonal_uses_only_bin_zero() {
        let t: Vec<_> = (0..64).map(|i| (i, i, 1.0f32)).collect();
        let m = CooMatrix::from_triplets(64, 64, &t).unwrap();
        let im = row_histogram_counts(&m, 8, 8);
        for band in 0..8 {
            assert_eq!(im.get(band, 0), 8.0);
            for bin in 1..8 {
                assert_eq!(im.get(band, bin), 0.0);
            }
        }
    }

    #[test]
    fn anti_diagonal_spreads_across_bins() {
        let n = 64;
        let t: Vec<_> = (0..n).map(|i| (i, n - 1 - i, 1.0f32)).collect();
        let m = CooMatrix::from_triplets(n, n, &t).unwrap();
        let im = row_histogram_counts(&m, 8, 8);
        // Distances |i - (n-1-i)| cover 1..=63 -> many distinct bins.
        let used_bins: usize = (0..8)
            .map(|bin| ((0..8).any(|band| im.get(band, bin) > 0.0)) as usize)
            .sum();
        assert!(used_bins >= 7, "only {used_bins} bins used");
        // Crucially, this differs from the pure diagonal: the selector
        // can tell them apart even at tiny sizes — unlike binary
        // down-sampling which confuses them (Figure 4).
    }

    #[test]
    fn rectangular_matrix_bins_stay_in_range() {
        let m = CooMatrix::from_triplets(4, 100, &[(0, 99, 1.0f32), (3, 0, 1.0)]).unwrap();
        let rh = row_histogram_counts(&m, 4, 10);
        let ch = col_histogram_counts(&m, 4, 10);
        assert_eq!(rh.sum(), 2.0);
        assert_eq!(ch.sum(), 2.0);
    }

    #[test]
    fn column_histogram_is_row_histogram_of_transpose() {
        let m = figure4a();
        let t = m.transpose();
        assert_eq!(
            col_histogram_counts(&m, 4, 4),
            row_histogram_counts(&t, 4, 4)
        );
    }

    #[test]
    fn empty_matrix_gives_zero_histogram() {
        let m = CooMatrix::<f32>::empty(10, 10).unwrap();
        assert_eq!(row_histogram(&m, 4, 4).sum(), 0.0);
    }
}
