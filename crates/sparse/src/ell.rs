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
use rayon::prelude::*;
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

    /// Fraction of padded slots holding real nonzeros; ELL is
    /// competitive only when this is close to 1.
    pub fn fill_ratio(&self) -> f64 {
        if self.vals.is_empty() {
            return 0.0;
        }
        self.nnz as f64 / self.vals.len() as f64
    }

    /// Bytes occupied by the padded index+value arrays.
    pub fn storage_bytes(&self) -> usize {
        self.cols.len() * 4 + self.vals.len() * S::BYTES
    }

    #[inline]
    fn row_dot(&self, r: usize, x: &[S]) -> S {
        let base = r * self.width;
        let mut acc = S::ZERO;
        for k in 0..self.width {
            acc += self.vals[base + k] * x[self.cols[base + k] as usize];
        }
        acc
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
        for (r, out) in y.iter_mut().enumerate() {
            *out = self.row_dot(r, x);
        }
    }

    fn spmv_par(&self, x: &[S], y: &mut [S]) {
        assert_eq!(x.len(), self.ncols, "x length must equal ncols");
        assert_eq!(y.len(), self.nrows, "y length must equal nrows");
        if self.vals.len() < 1 << 14 {
            self.spmv(x, y);
            return;
        }
        // Rows all cost the same in ELL, so plain chunking balances.
        let chunk = crate::spmv::par_chunk_rows(self.nrows, 4);
        y.par_chunks_mut(chunk).enumerate().for_each(|(ci, ys)| {
            let base = ci * chunk;
            for (i, out) in ys.iter_mut().enumerate() {
                *out = self.row_dot(base + i, x);
            }
        });
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
        assert_eq!(ell.fill_ratio(), 1.0);
        // One dense row of 8 forces width 8 for everyone.
        let mut t: Vec<_> = (1..8).map(|i| (i, i, 1.0)).collect();
        t.extend((0..8).map(|j| (0, j, 1.0)));
        let coo = CooMatrix::from_triplets(8, 8, &t).unwrap();
        let ell = EllMatrix::from_coo(&coo).unwrap();
        assert_eq!(ell.width(), 8);
        assert!(ell.fill_ratio() < 0.25);
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

    #[test]
    fn parallel_matches_sequential() {
        let n = 2048;
        let mut t = Vec::new();
        for i in 0..n {
            for k in 0..9usize {
                t.push((i, (i + k * 5) % n, (k as f64) - 4.0));
            }
        }
        let coo = CooMatrix::from_triplets(n, n, &t).unwrap();
        let ell = EllMatrix::from_coo(&coo).unwrap();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).cos()).collect();
        let mut y1 = vec![0.0; n];
        let mut y2 = vec![0.0; n];
        ell.spmv(&x, &mut y1);
        ell.spmv_par(&x, &mut y2);
        for (a, b) in y1.iter().zip(&y2) {
            assert!(a.approx_eq(*b, 1e-12));
        }
    }
}
