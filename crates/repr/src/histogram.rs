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
use crate::{CancelCheck, CANCEL_STRIDE};
use dnnspmv_sparse::{CooMatrix, Scalar};

/// Shared Algorithm 1 loop over row bands (`by_cols == false`) or
/// column bands (`by_cols == true`), with a cancellation checkpoint
/// every [`CANCEL_STRIDE`] nonzeros.
fn histogram_counts_impl<S: Scalar>(
    matrix: &CooMatrix<S>,
    bands: usize,
    bins: usize,
    by_cols: bool,
    cancel: CancelCheck,
) -> Option<Image> {
    assert!(bands > 0 && bins > 0, "histogram shape must be positive");
    let mut im = Image::zeros(bands, bins);
    let max_dim = matrix.nrows().max(matrix.ncols());
    let extent = if by_cols {
        matrix.ncols()
    } else {
        matrix.nrows()
    };
    for (i, (r, c, _)) in matrix.iter().enumerate() {
        if i % CANCEL_STRIDE == 0 && cancel() {
            return None;
        }
        let pos = if by_cols { c } else { r };
        let band = (pos * bands / extent).min(bands - 1);
        let dist = r.abs_diff(c);
        let bin = (dist * bins / max_dim).min(bins - 1);
        *im.get_mut(band, bin) += 1.0;
    }
    Some(im)
}

/// Raw (unnormalised) row histogram: `R[row_band][dist_bin]` counts the
/// nonzeros of that row band at that diagonal distance. This is
/// Algorithm 1 verbatim.
pub fn row_histogram_counts<S: Scalar>(matrix: &CooMatrix<S>, bands: usize, bins: usize) -> Image {
    histogram_counts_impl(matrix, bands, bins, false, &|| false).expect("never cancelled")
}

/// Raw column histogram: the same construction over column bands.
pub fn col_histogram_counts<S: Scalar>(matrix: &CooMatrix<S>, bands: usize, bins: usize) -> Image {
    histogram_counts_impl(matrix, bands, bins, true, &|| false).expect("never cancelled")
}

/// Row histogram normalised to `[0, 1]` by its maximum (the form fed to
/// the CNN).
pub fn row_histogram<S: Scalar>(matrix: &CooMatrix<S>, bands: usize, bins: usize) -> Image {
    histogram_impl(matrix, bands, bins, false, &|| false).expect("never cancelled")
}

/// Column histogram normalised to `[0, 1]` by its maximum.
pub fn col_histogram<S: Scalar>(matrix: &CooMatrix<S>, bands: usize, bins: usize) -> Image {
    histogram_impl(matrix, bands, bins, true, &|| false).expect("never cancelled")
}

/// The normalised row (`by_cols == false`) or column histogram under a
/// cancellation checkpoint; `None` once `cancel` reports `true`.
pub(crate) fn histogram_impl<S: Scalar>(
    matrix: &CooMatrix<S>,
    bands: usize,
    bins: usize,
    by_cols: bool,
    cancel: CancelCheck,
) -> Option<Image> {
    let mut im = histogram_counts_impl(matrix, bands, bins, by_cols, cancel)?;
    im.normalize_max();
    Some(im)
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
