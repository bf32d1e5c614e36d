//! HYB (hybrid ELL + COO) format, after Bell & Garland's cuSPARSE design.
//!
//! The "typical" number of nonzeros per row goes into a regular ELL
//! section; the overflow from unusually long rows spills into a small
//! COO tail. This keeps ELL's coalescing-friendly regularity without
//! paying its worst-case padding, which is why HYB wins on matrices with
//! a mostly-uniform row-length distribution plus a few heavy rows.

use crate::coo::{CooBuilder, CooMatrix};
use crate::error::SparseError;
use crate::scalar::Scalar;
use crate::spmv::Spmv;
use serde::{Deserialize, Serialize};

/// Sparse matrix in hybrid ELL + COO form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HybMatrix<S: Scalar> {
    nrows: usize,
    ncols: usize,
    nnz: usize,
    /// ELL section width (first `ell_width` entries of each row).
    ell_width: usize,
    ell_cols: Vec<u32>,
    ell_vals: Vec<S>,
    /// COO tail, sorted by (row, col).
    coo_rows: Vec<u32>,
    coo_cols: Vec<u32>,
    coo_vals: Vec<S>,
}

impl<S: Scalar> HybMatrix<S> {
    /// Converts from COO, choosing the ELL width that minimises total
    /// storage bytes (the classic HYB auto-tuning heuristic).
    pub fn from_coo(coo: &CooMatrix<S>) -> Self {
        let ptr = coo.row_offsets();
        let max_len = (0..coo.nrows())
            .map(|r| ptr[r + 1] - ptr[r])
            .max()
            .unwrap_or(0);
        // Histogram of row lengths -> rows_with_len_at_least.
        let mut hist = vec![0usize; max_len + 2];
        for r in 0..coo.nrows() {
            hist[ptr[r + 1] - ptr[r]] += 1;
        }
        let mut at_least = vec![0usize; max_len + 2];
        for len in (0..=max_len).rev() {
            at_least[len] = at_least[len + 1] + hist[len];
        }
        // ELL slots hold 4-byte col + value; COO tail entries hold two
        // 4-byte indices + value.
        let ell_cost = (4 + S::BYTES) as f64;
        let coo_cost = (8 + S::BYTES) as f64;
        let mut best_k = 0usize;
        let mut best = f64::INFINITY;
        for k in 0..=max_len {
            // Entries covered by an ELL of width k.
            let covered: usize = (1..=k).map(|len| at_least[len]).sum();
            let overflow = coo.nnz() - covered;
            let cost = (coo.nrows() * k) as f64 * ell_cost + overflow as f64 * coo_cost;
            if cost < best {
                best = cost;
                best_k = k;
            }
        }
        Self::from_coo_with_width(coo, best_k)
    }

    /// Converts from COO with an explicit ELL section width.
    pub fn from_coo_with_width(coo: &CooMatrix<S>, ell_width: usize) -> Self {
        let ptr = coo.row_offsets();
        let nrows = coo.nrows();
        let ccols = coo.col_indices();
        let cvals = coo.values();
        let mut ell_cols = vec![0u32; nrows * ell_width];
        let mut ell_vals = vec![S::ZERO; nrows * ell_width];
        let mut coo_rows = Vec::new();
        let mut coo_cols = Vec::new();
        let mut coo_vals = Vec::new();
        for r in 0..nrows {
            for (k, i) in (ptr[r]..ptr[r + 1]).enumerate() {
                if k < ell_width {
                    ell_cols[r * ell_width + k] = ccols[i];
                    ell_vals[r * ell_width + k] = cvals[i];
                } else {
                    coo_rows.push(r as u32);
                    coo_cols.push(ccols[i]);
                    coo_vals.push(cvals[i]);
                }
            }
        }
        Self {
            nrows,
            ncols: coo.ncols(),
            nnz: coo.nnz(),
            ell_width,
            ell_cols,
            ell_vals,
            coo_rows,
            coo_cols,
            coo_vals,
        }
    }

    /// Converts back to canonical COO.
    pub fn to_coo(&self) -> Result<CooMatrix<S>, SparseError> {
        let mut b = CooBuilder::new(self.nrows, self.ncols)?;
        b.reserve(self.nnz);
        for r in 0..self.nrows {
            for k in 0..self.ell_width {
                let v = self.ell_vals[r * self.ell_width + k];
                if v != S::ZERO {
                    b.push(r, self.ell_cols[r * self.ell_width + k] as usize, v)?;
                }
            }
        }
        for i in 0..self.coo_vals.len() {
            b.push(
                self.coo_rows[i] as usize,
                self.coo_cols[i] as usize,
                self.coo_vals[i],
            )?;
        }
        Ok(b.build())
    }

    /// Width of the regular ELL section.
    #[inline]
    pub fn ell_width(&self) -> usize {
        self.ell_width
    }

    /// Entries spilled to the COO tail.
    #[inline]
    pub fn coo_nnz(&self) -> usize {
        self.coo_vals.len()
    }

    /// Total logically stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Bytes occupied by both sections.
    pub fn storage_bytes(&self) -> usize {
        self.ell_cols.len() * 4
            + self.ell_vals.len() * S::BYTES
            + self.coo_rows.len() * 4
            + self.coo_cols.len() * 4
            + self.coo_vals.len() * S::BYTES
    }
}

impl<S: Scalar> Spmv<S> for HybMatrix<S> {
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
            let base = r * self.ell_width;
            let mut acc = S::ZERO;
            for k in 0..self.ell_width {
                acc += self.ell_vals[base + k] * x[self.ell_cols[base + k] as usize];
            }
            *out = acc;
        }
        for i in 0..self.coo_vals.len() {
            y[self.coo_rows[i] as usize] += self.coo_vals[i] * x[self.coo_cols[i] as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skewed() -> CooMatrix<f64> {
        // 7 rows with 2 entries, one row with 8 entries.
        let mut t: Vec<_> = (1..8)
            .flat_map(|i| [(i, i, i as f64), (i, (i + 3) % 8, 1.0)])
            .collect();
        t.extend((0..8).map(|j| (0usize, j, 0.5)));
        CooMatrix::from_triplets(8, 8, &t).unwrap()
    }

    #[test]
    fn auto_width_splits_heavy_row() {
        let hyb = HybMatrix::from_coo(&skewed());
        // Storage-minimising width should be the common row length (2),
        // spilling the heavy row's remaining 6 entries.
        assert_eq!(hyb.ell_width(), 2);
        assert_eq!(hyb.coo_nnz(), 6);
        assert_eq!(hyb.nnz(), 22);
    }

    #[test]
    fn round_trip_through_coo() {
        let coo = skewed();
        let hyb = HybMatrix::from_coo(&coo);
        assert_eq!(hyb.to_coo().unwrap(), coo);
    }

    #[test]
    fn spmv_matches_coo() {
        let coo = skewed();
        let hyb = HybMatrix::from_coo(&coo);
        let x = [1.0, -1.0, 2.0, 0.0, 3.0, 1.0, -2.0, 0.5];
        let y1 = hyb.spmv_alloc(&x);
        let y2 = coo.spmv_alloc(&x);
        for (a, b) in y1.iter().zip(&y2) {
            assert!(a.approx_eq(*b, 1e-12));
        }
    }

    #[test]
    fn explicit_width_zero_is_pure_coo() {
        let coo = skewed();
        let hyb = HybMatrix::from_coo_with_width(&coo, 0);
        assert_eq!(hyb.coo_nnz(), coo.nnz());
        assert_eq!(hyb.to_coo().unwrap(), coo);
    }

    #[test]
    fn explicit_width_max_is_pure_ell() {
        let coo = skewed();
        let hyb = HybMatrix::from_coo_with_width(&coo, 8);
        assert_eq!(hyb.coo_nnz(), 0);
        assert_eq!(hyb.to_coo().unwrap(), coo);
    }

    #[test]
    fn uniform_rows_get_full_ell() {
        let t: Vec<_> = (0..16)
            .flat_map(|i| [(i, i, 1.0), (i, (i + 1) % 16, 2.0), (i, (i + 5) % 16, 3.0)])
            .collect();
        let coo = CooMatrix::from_triplets(16, 16, &t).unwrap();
        let hyb = HybMatrix::from_coo(&coo);
        assert_eq!(hyb.ell_width(), 3);
        assert_eq!(hyb.coo_nnz(), 0);
    }
}
