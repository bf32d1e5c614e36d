//! ELLPACK (ELL) format — fixed-width padded rows.
//!
//! Every row is padded to the width of the longest row, giving perfectly
//! regular access (vectorises well on CPUs, coalesces on GPUs). It wins
//! when row lengths are uniform — the paper notes that "matrices
//! favoring ELL tend to have rows with similar numbers of non-zeros" —
//! and loses badly when one long row inflates the padding.
//!
//! Layout is row-major: `cols[r * width + k]` / `vals[r * width + k]`.
//! Padding slots store column 0 with value zero, which contributes
//! nothing to SpMV.

use crate::coo::CooMatrix;
use crate::error::SparseError;
use crate::scalar::Scalar;
use crate::spmv::Spmv;
use serde::{Deserialize, Serialize};

/// Default cap on the padded row width (`max_row_nnz`). Conversions
/// needing more return [`SparseError::RowTooWide`].
pub const DEFAULT_MAX_WIDTH: usize = 4096;

/// Sparse matrix in ELLPACK form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EllMatrix<S: Scalar> {
    nrows: usize,
    ncols: usize,
    nnz: usize,
    width: usize,
    cols: Vec<u32>,
    vals: Vec<S>,
}

impl<S: Scalar> EllMatrix<S> {
    /// Converts from COO with the default width cap.
    pub fn from_coo(coo: &CooMatrix<S>) -> Result<Self, SparseError> {
        Self::from_coo_with_limit(coo, DEFAULT_MAX_WIDTH)
    }

    /// Converts from COO, failing if the longest row exceeds `max_width`.
    pub fn from_coo_with_limit(coo: &CooMatrix<S>, max_width: usize) -> Result<Self, SparseError> {
        let ptr = coo.row_offsets();
        let width = ptr.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        if width > max_width {
            return Err(SparseError::RowTooWide {
                width,
                limit: max_width,
            });
        }
        let nrows = coo.nrows();
        let mut cols = vec![0u32; nrows * width];
        let mut vals = vec![S::ZERO; nrows * width];
        // `max(1)`: a chunk size must be positive; at width 0 there is
        // nothing to chunk.
        let padded = cols
            .chunks_exact_mut(width.max(1))
            .zip(vals.chunks_exact_mut(width.max(1)));
        for ((row_cols, row_vals), w) in padded.zip(ptr.windows(2)) {
            let len = w[1] - w[0];
            row_cols[..len].copy_from_slice(&coo.col_indices()[w[0]..w[1]]);
            row_vals[..len].copy_from_slice(&coo.values()[w[0]..w[1]]);
        }
        Ok(Self {
            nrows,
            ncols: coo.ncols(),
            nnz: coo.nnz(),
            width,
            cols,
            vals,
        })
    }

    /// Converts back to canonical COO (padding dropped).
    pub fn to_coo(&self) -> CooMatrix<S> {
        let mut b = crate::coo::CooBuilder::new(self.nrows, self.ncols)
            .expect("shape validated at construction");
        b.reserve(self.nnz);
        for r in 0..self.nrows {
            for k in 0..self.width {
                let v = self.vals[r * self.width + k];
                if v != S::ZERO {
                    b.push(r, self.cols[r * self.width + k] as usize, v)
                        .expect("index in range");
                }
            }
        }
        b.build()
    }

    /// Padded row width (`max_r nnz(r)`).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of logically stored nonzeros (excludes padding).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Bytes occupied by the padded index+value arrays.
    pub fn storage_bytes(&self) -> usize {
        self.cols.len() * 4 + self.vals.len() * S::BYTES
    }
}

impl<S: Scalar> Spmv<S> for EllMatrix<S> {
    fn nrows(&self) -> usize {
        self.nrows
    }

    fn ncols(&self) -> usize {
        self.ncols
    }

    fn spmv(&self, x: &[S], y: &mut [S]) {
        assert_eq!(x.len(), self.ncols, "x length must equal ncols");
        assert_eq!(y.len(), self.nrows, "y length must equal nrows");
        padded_rows_spmv(self.width, &self.cols, &self.vals, x, y);
    }
}

/// `y = A x` over row-major padded rows of `width` slots (ELL, and
/// HYB's ELL section). Each row is one `chunks_exact` slice of (col,
/// val) pairs zipped, padding included, so the `x` gather is the only
/// per-slot bounds check. At width 0 every row is empty (and a zero
/// chunk size would panic).
pub(crate) fn padded_rows_spmv<S: Scalar>(
    width: usize,
    cols: &[u32],
    vals: &[S],
    x: &[S],
    y: &mut [S],
) {
    if width == 0 {
        y.fill(S::ZERO);
        return;
    }
    assert!(
        cols.len() == y.len() * width && vals.len() == y.len() * width,
        "padded storage must cover every row"
    );
    let rows = cols.chunks_exact(width).zip(vals.chunks_exact(width));
    for (out, (row_cols, row_vals)) in y.iter_mut().zip(rows) {
        let mut acc = S::ZERO;
        for (v, c) in row_vals.iter().zip(row_cols) {
            acc += *v * x[*c as usize];
        }
        *out = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1() -> CooMatrix<f64> {
        CooMatrix::from_triplets(
            4,
            4,
            &[
                (0, 0, 1.0),
                (0, 1, 5.0),
                (1, 1, 2.0),
                (1, 2, 6.0),
                (2, 0, 8.0),
                (2, 2, 3.0),
                (2, 3, 7.0),
                (3, 1, 9.0),
                (3, 3, 4.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn width_is_longest_row() {
        let ell = EllMatrix::from_coo(&figure1()).unwrap();
        assert_eq!(ell.width(), 3); // row 2 has 3 entries
        assert_eq!(ell.nnz(), 9);
    }

    #[test]
    fn round_trip_through_coo() {
        let coo = figure1();
        let ell = EllMatrix::from_coo(&coo).unwrap();
        assert_eq!(ell.to_coo(), coo);
    }

    #[test]
    fn spmv_matches_coo() {
        let coo = figure1();
        let ell = EllMatrix::from_coo(&coo).unwrap();
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(ell.spmv_alloc(&x), coo.spmv_alloc(&x));
    }

    #[test]
    fn fill_ratio_penalises_skew() {
        // Uniform rows: perfect fill.
        let t: Vec<_> = (0..8)
            .flat_map(|i| [(i, i, 1.0), (i, (i + 1) % 8, 2.0)])
            .collect();
        let coo = CooMatrix::from_triplets(8, 8, &t).unwrap();
        let ell = EllMatrix::from_coo(&coo).unwrap();
        assert_eq!(ell.vals.len(), ell.nnz, "no padded slot");
        // One dense row of 8 forces width 8 for everyone.
        let mut t: Vec<_> = (1..8).map(|i| (i, i, 1.0)).collect();
        t.extend((0..8).map(|j| (0, j, 1.0)));
        let coo = CooMatrix::from_triplets(8, 8, &t).unwrap();
        let ell = EllMatrix::from_coo(&coo).unwrap();
        assert_eq!(ell.width(), 8);
        assert!(
            ell.nnz * 4 < ell.vals.len(),
            "under a quarter of the slots hold nonzeros"
        );
    }

    #[test]
    fn width_limit_enforced() {
        let t: Vec<_> = (0..32).map(|j| (0, j, 1.0)).collect();
        let coo = CooMatrix::from_triplets(4, 32, &t).unwrap();
        let e = EllMatrix::from_coo_with_limit(&coo, 16).unwrap_err();
        assert!(matches!(
            e,
            SparseError::RowTooWide {
                width: 32,
                limit: 16
            }
        ));
    }

    #[test]
    fn empty_matrix_has_zero_width() {
        let coo = CooMatrix::<f64>::empty(3, 3).unwrap();
        let ell = EllMatrix::from_coo(&coo).unwrap();
        assert_eq!(ell.width(), 0);
        assert_eq!(ell.spmv_alloc(&[1.0; 3]), vec![0.0; 3]);
    }
}
