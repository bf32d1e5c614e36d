//! Single-pass structural statistics of a sparse matrix.
//!
//! These drive both the analytic platform cost models (which formats
//! pay for padding, imbalance, and irregularity) and the SMAT-style
//! feature vector of the decision-tree baseline.

use crate::coo::CooMatrix;
use crate::scalar::Scalar;
use serde::{Deserialize, Serialize};

/// Block edge used for the BSR-related statistics (matches
/// [`crate::bsr::DEFAULT_BLOCK_SIZE`]).
const STAT_BLOCK: usize = 4;

/// Structural summary of a sparse matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatrixStats {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Number of stored nonzeros.
    pub nnz: usize,
    /// `nnz / (nrows * ncols)`.
    pub density: f64,
    /// Shortest row (in nonzeros).
    pub row_min: usize,
    /// Longest row (in nonzeros).
    pub row_max: usize,
    /// Mean nonzeros per row.
    pub row_mean: f64,
    /// Standard deviation of nonzeros per row.
    pub row_std: f64,
    /// Coefficient of variation of row lengths (`row_std / row_mean`,
    /// 0 for empty matrices). The canonical "ELL will hate this" signal.
    pub row_cv: f64,
    /// Rows with no nonzeros at all.
    pub empty_rows: usize,
    /// Number of distinct occupied diagonals.
    pub ndiags: usize,
    /// `nnz / (ndiags * nrows)` — DIA lane utilisation.
    pub dia_fill: f64,
    /// `nnz / (nrows * row_max)` — ELL slot utilisation.
    pub ell_fill: f64,
    /// Number of occupied 4x4 blocks.
    pub nblocks: usize,
    /// `nnz / (nblocks * 16)` — BSR payload utilisation.
    pub bsr_fill: f64,
    /// Maximum |col - row| over all entries (0 for empty matrices).
    pub bandwidth: usize,
    /// Mean |col - row| over all entries.
    pub mean_diag_distance: f64,
    /// Fraction of nonzeros lying exactly on the main diagonal.
    pub main_diag_fraction: f64,
}

impl MatrixStats {
    /// Computes all statistics. O(nrows + ncols + nnz) time and
    /// O(nrows + ncols) memory.
    pub fn compute<S: Scalar>(coo: &CooMatrix<S>) -> Self {
        let (nrows, ncols, nnz) = (coo.nrows(), coo.ncols(), coo.nnz());
        let ptr = coo.row_offsets();
        let mut row_min = usize::MAX;
        let mut row_max = 0usize;
        let mut empty_rows = 0usize;
        let mut sum = 0usize;
        let mut sumsq = 0f64;
        for r in 0..nrows {
            let len = ptr[r + 1] - ptr[r];
            row_min = row_min.min(len);
            row_max = row_max.max(len);
            if len == 0 {
                empty_rows += 1;
            }
            sum += len;
            sumsq += (len * len) as f64;
        }
        if nrows == 0 {
            row_min = 0;
        }
        let row_mean = sum as f64 / nrows as f64;
        let var = (sumsq / nrows as f64 - row_mean * row_mean).max(0.0);
        let row_std = var.sqrt();
        let row_cv = if row_mean > 0.0 {
            row_std / row_mean
        } else {
            0.0
        };

        // Diagonal occupancy via a dense offset table (offset range is
        // -(nrows-1) ..= (ncols-1)). Occupied 4x4 blocks in the same
        // pass: the nonzeros of one block row are contiguous in the
        // sorted order, so a block is new iff its block column does not
        // carry the current block row's stamp yet.
        let mut diag_seen = vec![false; nrows + ncols - 1];
        let mut block_stamp = vec![0u32; ncols.div_ceil(STAT_BLOCK)];
        let mut nblocks = 0usize;
        let mut bandwidth = 0usize;
        let mut dist_sum = 0f64;
        let mut on_main = 0usize;
        for (r, c, _) in coo.iter() {
            let off = c as i64 - r as i64;
            diag_seen[(off + nrows as i64 - 1) as usize] = true;
            let dist = off.unsigned_abs() as usize;
            bandwidth = bandwidth.max(dist);
            dist_sum += dist as f64;
            if off == 0 {
                on_main += 1;
            }
            let stamp = (r / STAT_BLOCK) as u32 + 1;
            let seen = &mut block_stamp[c / STAT_BLOCK];
            nblocks += usize::from(*seen != stamp);
            *seen = stamp;
        }
        let ndiags = diag_seen.iter().filter(|&&b| b).count();

        let nnzf = nnz as f64;
        Self {
            nrows,
            ncols,
            nnz,
            density: nnzf / (nrows as f64 * ncols as f64),
            row_min,
            row_max,
            row_mean,
            row_std,
            row_cv,
            empty_rows,
            ndiags,
            dia_fill: if ndiags > 0 {
                nnzf / (ndiags as f64 * nrows as f64)
            } else {
                0.0
            },
            ell_fill: if row_max > 0 {
                nnzf / (nrows as f64 * row_max as f64)
            } else {
                0.0
            },
            nblocks,
            bsr_fill: if nblocks > 0 {
                nnzf / (nblocks as f64 * (STAT_BLOCK * STAT_BLOCK) as f64)
            } else {
                0.0
            },
            bandwidth,
            mean_diag_distance: if nnz > 0 { dist_sum / nnzf } else { 0.0 },
            main_diag_fraction: if nnz > 0 { on_main as f64 / nnzf } else { 0.0 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tridiagonal_stats() {
        let n = 64;
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
            }
        }
        let coo = CooMatrix::from_triplets(n, n, &t).unwrap();
        let s = MatrixStats::compute(&coo);
        assert_eq!(s.ndiags, 3);
        assert_eq!(s.bandwidth, 1);
        assert_eq!(s.row_max, 3);
        assert_eq!(s.row_min, 2);
        assert_eq!(s.empty_rows, 0);
        assert!(s.dia_fill > 0.98);
        assert!(s.main_diag_fraction > 0.3);
        // Row lengths nearly uniform -> tiny CV.
        assert!(s.row_cv < 0.1, "cv = {}", s.row_cv);
    }

    #[test]
    fn skewed_rows_have_high_cv() {
        let mut t: Vec<_> = (1..64).map(|i| (i, i, 1.0)).collect();
        t.extend((0..64).map(|j| (0usize, j, 1.0)));
        let coo = CooMatrix::from_triplets(64, 64, &t).unwrap();
        let s = MatrixStats::compute(&coo);
        assert_eq!(s.row_max, 64);
        assert!(s.row_cv > 2.0);
        assert!(s.ell_fill < 0.05);
    }

    #[test]
    fn dense_block_matrix_has_high_bsr_fill() {
        let mut t = Vec::new();
        for b in 0..8usize {
            for i in 0..4 {
                for j in 0..4 {
                    t.push((b * 4 + i, b * 4 + j, 1.0));
                }
            }
        }
        let coo = CooMatrix::from_triplets(32, 32, &t).unwrap();
        let s = MatrixStats::compute(&coo);
        assert_eq!(s.nblocks, 8);
        assert_eq!(s.bsr_fill, 1.0);
    }

    #[test]
    fn scattered_matrix_has_low_fills() {
        // Anti-diagonal: worst case for DIA.
        let n = 32;
        let t: Vec<_> = (0..n).map(|i| (i, n - 1 - i, 1.0)).collect();
        let coo = CooMatrix::from_triplets(n, n, &t).unwrap();
        let s = MatrixStats::compute(&coo);
        assert_eq!(s.ndiags, n);
        assert!(s.dia_fill < 0.05);
        assert_eq!(s.bandwidth, n - 1);
        assert_eq!(s.main_diag_fraction, 0.0);
    }

    #[test]
    fn empty_rows_counted() {
        let coo = CooMatrix::from_triplets(10, 10, &[(0, 0, 1.0), (9, 9, 1.0)]).unwrap();
        let s = MatrixStats::compute(&coo);
        assert_eq!(s.empty_rows, 8);
        assert_eq!(s.row_min, 0);
        assert_eq!(s.row_max, 1);
    }

    #[test]
    fn empty_matrix_is_all_zeros_not_nan() {
        let coo = CooMatrix::<f64>::empty(5, 5).unwrap();
        let s = MatrixStats::compute(&coo);
        assert_eq!(s.nnz, 0);
        assert_eq!(s.ndiags, 0);
        assert_eq!(s.dia_fill, 0.0);
        assert_eq!(s.ell_fill, 0.0);
        assert_eq!(s.bsr_fill, 0.0);
        assert_eq!(s.row_cv, 0.0);
        assert!(!s.mean_diag_distance.is_nan());
    }

    #[test]
    fn rectangular_matrix_diag_table_is_large_enough() {
        // Entry in the extreme corners exercises the offset table bounds.
        let coo = CooMatrix::from_triplets(3, 7, &[(2, 0, 1.0), (0, 6, 1.0)]).unwrap();
        let s = MatrixStats::compute(&coo);
        assert_eq!(s.ndiags, 2);
        assert_eq!(s.bandwidth, 6);
    }
}
