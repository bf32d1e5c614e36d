//! Compressed Sparse Row (CSR) — the default general-purpose format.
//!
//! CSR compresses COO's row array into `nrows + 1` offsets. Its SpMV
//! iterates rows, one dot product each; this is the baseline format
//! ("default CSR" in the paper's speedup comparisons).

use crate::coo::CooMatrix;
use crate::scalar::Scalar;
use crate::spmv::Spmv;
use serde::{Deserialize, Serialize};

/// Sparse matrix in compressed sparse row form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CsrMatrix<S: Scalar> {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<S>,
}

impl<S: Scalar> CsrMatrix<S> {
    /// Converts from canonical COO. O(nrows + nnz).
    pub fn from_coo(coo: &CooMatrix<S>) -> Self {
        Self {
            nrows: coo.nrows(),
            ncols: coo.ncols(),
            row_ptr: coo.row_offsets(),
            cols: coo.col_indices().to_vec(),
            vals: coo.values().to_vec(),
        }
    }

    /// Converts back to canonical COO.
    pub fn to_coo(&self) -> CooMatrix<S> {
        let mut rows = Vec::with_capacity(self.vals.len());
        for r in 0..self.nrows {
            for _ in self.row_ptr[r]..self.row_ptr[r + 1] {
                rows.push(r as u32);
            }
        }
        CooMatrix::from_sorted_parts(
            self.nrows,
            self.ncols,
            rows,
            self.cols.clone(),
            self.vals.clone(),
        )
        .expect("CSR invariants imply valid COO")
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Row pointer array of length `nrows + 1`.
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column indices.
    #[inline]
    pub fn col_indices(&self) -> &[u32] {
        &self.cols
    }

    /// Stored values.
    #[inline]
    pub fn values(&self) -> &[S] {
        &self.vals
    }

    /// Column indices and values of one row.
    pub fn row(&self, r: usize) -> (&[u32], &[S]) {
        let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
        (&self.cols[lo..hi], &self.vals[lo..hi])
    }

    /// Bytes occupied by the index+value arrays (used by cost models).
    pub fn storage_bytes(&self) -> usize {
        self.row_ptr.len() * std::mem::size_of::<usize>()
            + self.cols.len() * 4
            + self.vals.len() * S::BYTES
    }

    #[inline]
    fn row_dot(&self, r: usize, x: &[S]) -> S {
        let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
        let mut acc = S::ZERO;
        for i in lo..hi {
            acc += self.vals[i] * x[self.cols[i] as usize];
        }
        acc
    }
}

impl<S: Scalar> Spmv<S> for CsrMatrix<S> {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_coo() -> CooMatrix<f64> {
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
    fn from_coo_matches_figure_1_arrays() {
        let csr = CsrMatrix::from_coo(&sample_coo());
        // Figure 1 of the paper: ptr = [0 2 4 7 (9)], cols as listed.
        assert_eq!(csr.row_ptr(), &[0, 2, 4, 7, 9]);
        assert_eq!(csr.col_indices(), &[0, 1, 1, 2, 0, 2, 3, 1, 3]);
        assert_eq!(csr.values(), &[1.0, 5.0, 2.0, 6.0, 8.0, 3.0, 7.0, 9.0, 4.0]);
    }

    #[test]
    fn round_trip_through_coo() {
        let coo = sample_coo();
        let csr = CsrMatrix::from_coo(&coo);
        assert_eq!(csr.to_coo(), coo);
    }

    #[test]
    fn spmv_matches_coo() {
        let coo = sample_coo();
        let csr = CsrMatrix::from_coo(&coo);
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(csr.spmv_alloc(&x), coo.spmv_alloc(&x));
    }

    #[test]
    fn empty_rows_are_handled() {
        let coo = CooMatrix::from_triplets(3, 3, &[(2, 0, 1.0)]).unwrap();
        let csr = CsrMatrix::from_coo(&coo);
        assert_eq!(csr.spmv_alloc(&[2.0, 0.0, 0.0]), vec![0.0, 0.0, 2.0]);
    }

    #[test]
    fn row_accessor_returns_slices() {
        let csr = CsrMatrix::from_coo(&sample_coo());
        let (cols, vals) = csr.row(2);
        assert_eq!(cols, &[0, 2, 3]);
        assert_eq!(vals, &[8.0, 3.0, 7.0]);
    }

    #[test]
    fn storage_bytes_is_positive_and_scales() {
        let csr = CsrMatrix::from_coo(&sample_coo());
        let b = csr.storage_bytes();
        assert!(b >= 9 * (4 + 8));
    }

    #[test]
    #[should_panic(expected = "x length")]
    fn wrong_x_length_panics() {
        let csr = CsrMatrix::from_coo(&sample_coo());
        let mut y = vec![0.0; 4];
        csr.spmv(&[1.0; 3], &mut y);
    }
}
