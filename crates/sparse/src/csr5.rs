//! CSR5-style tiled segmented-sum format (after Liu & Vinter, ICS'15).
//!
//! CSR5 partitions the *nonzeros* (not the rows) into equal-size tiles
//! and runs a segmented sum within each tile, so execution time is
//! insensitive to row-length skew — the property that makes it win on
//! power-law matrices where row-parallel CSR suffers load imbalance and
//! (on GPUs) warp divergence.
//!
//! This implementation keeps the defining storage — equal-nnz tiles and
//! per-tile start-row metadata computed at construction, which
//! `storage_bytes` counts — but runs one kernel, a sequential row scan:
//! with a single worker the tiled segmented sum degenerates to exactly
//! that. The *load-balance* behaviour lives in the cost models, which
//! price the tiles; a span-parallel driver would split at tile starts.

use crate::coo::CooMatrix;
use crate::scalar::Scalar;
use crate::spmv::Spmv;
use serde::{Deserialize, Serialize};

/// Default nonzeros per tile (ω·σ in CSR5 terms).
pub const DEFAULT_TILE_NNZ: usize = 256;

/// Sparse matrix in CSR5-style tiled form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Csr5Matrix<S: Scalar> {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<S>,
    tile_nnz: usize,
    /// Row containing the first entry of each tile.
    tile_start_row: Vec<u32>,
}

impl<S: Scalar> Csr5Matrix<S> {
    /// Converts from COO with the default tile size.
    pub fn from_coo(coo: &CooMatrix<S>) -> Self {
        Self::from_coo_with_tile(coo, DEFAULT_TILE_NNZ)
    }

    /// Converts from COO with an explicit nonzeros-per-tile.
    ///
    /// # Panics
    /// Panics if `tile_nnz == 0`.
    pub fn from_coo_with_tile(coo: &CooMatrix<S>, tile_nnz: usize) -> Self {
        assert!(tile_nnz > 0, "tile size must be positive");
        let row_ptr = coo.row_offsets();
        let nnz = coo.nnz();
        let ntiles = nnz.div_ceil(tile_nnz);
        let mut tile_start_row = Vec::with_capacity(ntiles);
        for t in 0..ntiles {
            let first = t * tile_nnz;
            // Row r owns entry `first` iff row_ptr[r] <= first < row_ptr[r+1].
            let r = row_ptr.partition_point(|&p| p <= first) - 1;
            tile_start_row.push(r as u32);
        }
        Self {
            nrows: coo.nrows(),
            ncols: coo.ncols(),
            row_ptr,
            cols: coo.col_indices().to_vec(),
            vals: coo.values().to_vec(),
            tile_nnz,
            tile_start_row,
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
        .expect("CSR5 invariants imply valid COO")
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Number of equal-nnz tiles.
    #[inline]
    pub fn ntiles(&self) -> usize {
        self.tile_start_row.len()
    }

    /// Nonzeros per tile.
    #[inline]
    pub fn tile_nnz(&self) -> usize {
        self.tile_nnz
    }

    /// Bytes occupied by all arrays including tile metadata.
    pub fn storage_bytes(&self) -> usize {
        self.row_ptr.len() * std::mem::size_of::<usize>()
            + self.cols.len() * 4
            + self.vals.len() * S::BYTES
            + self.tile_start_row.len() * 4
    }
}

impl<S: Scalar> Spmv<S> for Csr5Matrix<S> {
    fn nrows(&self) -> usize {
        self.nrows
    }

    fn ncols(&self) -> usize {
        self.ncols
    }

    fn spmv(&self, x: &[S], y: &mut [S]) {
        assert_eq!(x.len(), self.ncols, "x length must equal ncols");
        assert_eq!(y.len(), self.nrows, "y length must equal nrows");
        // Sequentially the tiled traversal degenerates to a CSR scan.
        for (r, yr) in y.iter_mut().enumerate() {
            let mut acc = S::ZERO;
            for i in self.row_ptr[r]..self.row_ptr[r + 1] {
                acc += self.vals[i] * x[self.cols[i] as usize];
            }
            *yr = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skewed(n: usize) -> CooMatrix<f64> {
        // Power-law-ish: row i has ~n/(i+1) entries.
        let mut t = Vec::new();
        for i in 0..n {
            let len = (n / (i + 1)).max(1);
            for k in 0..len {
                t.push((i, (i + k * 3) % n, 1.0 + (k % 7) as f64));
            }
        }
        CooMatrix::from_triplets(n, n, &t).unwrap()
    }

    #[test]
    fn tiles_cover_all_nonzeros() {
        let coo = skewed(64);
        let m = Csr5Matrix::from_coo_with_tile(&coo, 16);
        assert_eq!(m.ntiles(), m.nnz().div_ceil(16));
    }

    #[test]
    fn tile_start_rows_are_monotonic() {
        let coo = skewed(64);
        let m = Csr5Matrix::from_coo_with_tile(&coo, 16);
        for w in m.tile_start_row.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(m.tile_start_row[0], 0);
    }

    #[test]
    fn round_trip_through_coo() {
        let coo = skewed(32);
        let m = Csr5Matrix::from_coo(&coo);
        assert_eq!(m.to_coo(), coo);
    }

    #[test]
    fn sequential_spmv_matches_coo() {
        let coo = skewed(50);
        let m = Csr5Matrix::from_coo(&coo);
        let x: Vec<f64> = (0..50).map(|i| (i as f64) * 0.25 - 3.0).collect();
        let y1 = m.spmv_alloc(&x);
        let y2 = coo.spmv_alloc(&x);
        for (a, b) in y1.iter().zip(&y2) {
            assert!(a.approx_eq(*b, 1e-12));
        }
    }

    #[test]
    fn empty_rows_are_skipped_in_tiles() {
        let coo = CooMatrix::from_triplets(6, 6, &[(0, 0, 1.0), (5, 5, 2.0)]).unwrap();
        let m = Csr5Matrix::from_coo_with_tile(&coo, 1);
        assert_eq!(m.tile_start_row.as_slice(), &[0, 5]);
        let x = vec![1.0; 6];
        assert_eq!(m.spmv_alloc(&x), vec![1.0, 0.0, 0.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "tile size must be positive")]
    fn zero_tile_panics() {
        let coo = CooMatrix::from_triplets(2, 2, &[(0, 0, 1.0)]).unwrap();
        let _ = Csr5Matrix::from_coo_with_tile(&coo, 0);
    }
}
