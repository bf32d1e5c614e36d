//! Structural statistics of a sparse matrix, from one store-only sweep.
//!
//! [`StructureCounts::count`] is the only place row lengths and diagonal
//! occupancy are counted: it reads the index arrays once, never the
//! values, and is all the decision-tree baseline's SMAT features need.
//! [`MatrixStats::compute`] adds one loop for what only the analytic
//! cost models read (bandwidth, diagonal distance, 4x4 block fill).

use crate::coo::CooMatrix;
use crate::scalar::Scalar;
use serde::{Deserialize, Serialize};

/// Block edge of the BSR statistics (`nblocks`, `bsr_fill`): the paper's
/// GPU experiments price BSR with `4 x 4` blocks. BSR has no storage
/// type, so this is the one place the edge is set.
const STAT_BLOCK: usize = 4;

/// Row lengths and diagonal occupancy; the ratios derived from them are
/// the same-named [`MatrixStats`] fields. `row_len_sq_sum` is exact, and
/// converted once equals a row-by-row `f64` sum while below 2^53.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StructureCounts {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Number of stored nonzeros.
    pub nnz: usize,
    /// Shortest row (in nonzeros).
    pub row_min: usize,
    /// Longest row (in nonzeros).
    pub row_max: usize,
    /// Rows with no nonzeros at all.
    pub empty_rows: usize,
    /// Sum over rows of the squared row length.
    pub row_len_sq_sum: u128,
    /// Number of distinct occupied diagonals.
    pub ndiags: usize,
}

impl StructureCounts {
    /// Counts the structure: O(nrows + ncols + nnz) time, two tables.
    pub fn count<S: Scalar>(coo: &CooMatrix<S>) -> Self {
        let (nrows, ncols) = (coo.nrows(), coo.ncols());
        // Two plain stores per nonzero: rows are sorted, so a row's last
        // nonzero leaves the row's end behind (0 marks an empty row), and
        // any nonzero on a diagonal (offsets -(nrows-1) ..= ncols-1) sets it.
        let mut row_end = vec![0usize; nrows];
        let mut diag_seen = vec![false; nrows + ncols - 1];
        let rows_cols = coo.row_indices().iter().zip(coo.col_indices());
        for (i, (&r, &c)) in rows_cols.enumerate() {
            row_end[r as usize] = i + 1;
            diag_seen[c as usize + nrows - 1 - r as usize] = true;
        }
        let mut row_min = if nrows == 0 { 0 } else { usize::MAX };
        let (mut row_max, mut empty_rows, mut row_len_sq_sum) = (0, 0, 0u128);
        let mut start = 0;
        for &end in &row_end {
            // An empty row (0) ends where the row before it did: a mask,
            // not a branch, which mispredicts on scattered rows.
            let end = end | (start & usize::from(end == 0).wrapping_neg());
            let len = end - start;
            start = end;
            row_min = row_min.min(len);
            row_max = row_max.max(len);
            empty_rows += usize::from(len == 0);
            row_len_sq_sum += (len * len) as u128;
        }
        Self {
            nrows,
            ncols,
            nnz: coo.nnz(),
            row_min,
            row_max,
            empty_rows,
            row_len_sq_sum,
            ndiags: diag_seen.iter().filter(|&&seen| seen).count(),
        }
    }

    /// `nnz / (nrows * ncols)`.
    pub fn density(&self) -> f64 {
        self.nnz as f64 / (self.nrows as f64 * self.ncols as f64)
    }

    /// Mean, standard deviation and coefficient of variation of the row
    /// lengths (the CV is 0 for an empty matrix).
    pub fn row_moments(&self) -> (f64, f64, f64) {
        let rows = self.nrows as f64;
        let mean = self.nnz as f64 / rows;
        let std = (self.row_len_sq_sum as f64 / rows - mean * mean)
            .max(0.0)
            .sqrt();
        (mean, std, if mean > 0.0 { std / mean } else { 0.0 })
    }

    /// `nnz / (ndiags * nrows)`, 0 without diagonals.
    pub fn dia_fill(&self) -> f64 {
        fill(self.nnz, self.ndiags as f64 * self.nrows as f64)
    }

    /// `nnz / (nrows * row_max)`, 0 without nonzeros.
    pub fn ell_fill(&self) -> f64 {
        fill(self.nnz, self.nrows as f64 * self.row_max as f64)
    }
}

/// `nnz / slots`, 0 when there are no slots.
fn fill(nnz: usize, slots: f64) -> f64 {
    if slots > 0.0 {
        nnz as f64 / slots
    } else {
        0.0
    }
}

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
    /// Computes all statistics: [`StructureCounts::count`] plus one loop
    /// over the index arrays, O(nrows + ncols + nnz). The distance sum is
    /// exact, and equals an `f64` running sum while below 2^53.
    pub fn compute<S: Scalar>(coo: &CooMatrix<S>) -> Self {
        let counts = StructureCounts::count(coo);
        // Occupied 4x4 blocks: the nonzeros of one block row are
        // contiguous in the sorted order, so a block is new iff its
        // block column does not carry the current block row's stamp yet.
        let mut block_stamp = vec![0u32; counts.ncols.div_ceil(STAT_BLOCK)];
        let (mut nblocks, mut bandwidth, mut dist_sum, mut on_main) = (0, 0, 0u128, 0);
        for (&r, &c) in coo.row_indices().iter().zip(coo.col_indices()) {
            let dist = r.abs_diff(c) as usize;
            bandwidth = bandwidth.max(dist);
            dist_sum += dist as u128;
            on_main += usize::from(dist == 0);
            let stamp = r / STAT_BLOCK as u32 + 1;
            let seen = &mut block_stamp[c as usize / STAT_BLOCK];
            nblocks += usize::from(*seen != stamp);
            *seen = stamp;
        }
        let (row_mean, row_std, row_cv) = counts.row_moments();
        let nnz = counts.nnz;
        let per_nonzero = |n: f64| if nnz > 0 { n / nnz as f64 } else { 0.0 };
        Self {
            nrows: counts.nrows,
            ncols: counts.ncols,
            nnz,
            density: counts.density(),
            row_min: counts.row_min,
            row_max: counts.row_max,
            row_mean,
            row_std,
            row_cv,
            empty_rows: counts.empty_rows,
            ndiags: counts.ndiags,
            dia_fill: counts.dia_fill(),
            ell_fill: counts.ell_fill(),
            nblocks,
            bsr_fill: fill(nnz, nblocks as f64 * (STAT_BLOCK * STAT_BLOCK) as f64),
            bandwidth,
            mean_diag_distance: per_nonzero(dist_sum as f64),
            main_diag_fraction: per_nonzero(on_main as f64),
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
