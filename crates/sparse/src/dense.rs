//! Small dense matrix used as the ground-truth reference in tests and
//! by the CNN input representations (which are tiny dense images).

use crate::coo::CooMatrix;
use crate::scalar::Scalar;
use crate::spmv::Spmv;
use serde::{Deserialize, Serialize};

/// Row-major dense matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseMatrix<S: Scalar> {
    nrows: usize,
    ncols: usize,
    data: Vec<S>,
}

impl<S: Scalar> DenseMatrix<S> {
    /// Zero-filled matrix.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        assert!(nrows > 0 && ncols > 0, "dimensions must be positive");
        Self {
            nrows,
            ncols,
            data: vec![S::ZERO; nrows * ncols],
        }
    }

    /// Builds from a row-major slice.
    ///
    /// # Panics
    /// Panics if `data.len() != nrows * ncols`.
    pub fn from_row_major(nrows: usize, ncols: usize, data: Vec<S>) -> Self {
        assert_eq!(data.len(), nrows * ncols, "data length must match shape");
        assert!(nrows > 0 && ncols > 0, "dimensions must be positive");
        Self { nrows, ncols, data }
    }

    /// Densifies a sparse matrix.
    pub fn from_coo(coo: &CooMatrix<S>) -> Self {
        Self::from_row_major(coo.nrows(), coo.ncols(), coo.to_dense())
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> S {
        self.data[r * self.ncols + c]
    }

    /// Raw row-major data.
    #[inline]
    pub fn data(&self) -> &[S] {
        &self.data
    }

    /// Count of exactly-zero elements' complement.
    pub fn nnz(&self) -> usize {
        self.data.iter().filter(|&&v| v != S::ZERO).count()
    }
}

impl<S: Scalar> Spmv<S> for DenseMatrix<S> {
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
            let row = &self.data[r * self.ncols..(r + 1) * self.ncols];
            let mut acc = S::ZERO;
            for (a, b) in row.iter().zip(x) {
                acc += *a * *b;
            }
            *out = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn densify_and_multiply_matches_sparse() {
        let coo = CooMatrix::from_triplets(3, 2, &[(0, 0, 1.0), (1, 1, 2.0), (2, 0, 3.0)]).unwrap();
        let d = DenseMatrix::from_coo(&coo);
        assert_eq!(d.nnz(), 3);
        let x = [2.0, 5.0];
        assert_eq!(d.spmv_alloc(&x), coo.spmv_alloc(&x));
    }

    #[test]
    fn get_reads_row_major() {
        let d = DenseMatrix::<f32>::from_row_major(2, 2, vec![0.0, 0.0, 4.5, 0.0]);
        assert_eq!(d.get(1, 0), 4.5);
        assert_eq!(d.get(0, 0), 0.0);
        assert_eq!(DenseMatrix::<f32>::zeros(2, 2).data(), &[0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn bad_shape_panics() {
        let _ = DenseMatrix::from_row_major(2, 2, vec![1.0f64; 3]);
    }
}
