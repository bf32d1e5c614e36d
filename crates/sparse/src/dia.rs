//! Diagonal (DIA) format — stores whole diagonals densely.
//!
//! DIA keeps one dense lane per occupied diagonal plus an `offsets`
//! array (`offset = col - row`). It is extremely fast for banded
//! matrices (no column indices to read, perfectly strided access) and
//! catastrophically wasteful when nonzeros scatter across many
//! diagonals — which is exactly why format *selection* matters and why
//! naive image-scaling of a matrix (which fabricates diagonals,
//! Figure 4 of the paper) misleads a learned selector.
//!
//! Layout: `data[d * nrows + i]` holds `A[i, i + offsets[d]]`.

use crate::coo::CooMatrix;
use crate::error::SparseError;
use crate::scalar::Scalar;
use crate::spmv::Spmv;
use serde::{Deserialize, Serialize};

/// Default cap on materialised diagonals: conversions needing more
/// return [`SparseError::TooManyDiagonals`] instead of allocating
/// O(ndiags * nrows) memory for a matrix that DIA could never win on.
pub const DEFAULT_MAX_DIAGS: usize = 8192;

/// Sparse matrix in diagonal form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiaMatrix<S: Scalar> {
    nrows: usize,
    ncols: usize,
    nnz: usize,
    /// Sorted diagonal offsets (`col - row`).
    offsets: Vec<i64>,
    /// `offsets.len() * nrows` elements, lane-major.
    data: Vec<S>,
}

impl<S: Scalar> DiaMatrix<S> {
    /// Converts from COO with the default diagonal cap.
    pub fn from_coo(coo: &CooMatrix<S>) -> Result<Self, SparseError> {
        Self::from_coo_with_limit(coo, DEFAULT_MAX_DIAGS)
    }

    /// Converts from COO, failing if more than `max_diags` distinct
    /// diagonals would be materialised.
    pub fn from_coo_with_limit(coo: &CooMatrix<S>, max_diags: usize) -> Result<Self, SparseError> {
        let (nrows, ncols) = (coo.nrows(), coo.ncols());
        let (rows, cols) = (coo.row_indices(), coo.col_indices());
        // One slot per possible diagonal, indexed by `col - row + nrows - 1`:
        // marked when occupied, then overwritten with the diagonal's lane.
        let slot = |r: u32, c: u32| c as usize + (nrows - 1) - r as usize;
        let mut lane_of = vec![0u32; nrows + ncols - 1];
        for (&r, &c) in rows.iter().zip(cols) {
            lane_of[slot(r, c)] = 1;
        }
        let mut offsets = Vec::new();
        for (k, lane) in lane_of.iter_mut().enumerate() {
            if *lane != 0 {
                *lane = offsets.len() as u32;
                offsets.push(k as i64 - (nrows as i64 - 1));
            }
        }
        if offsets.len() > max_diags {
            return Err(SparseError::TooManyDiagonals {
                ndiags: offsets.len(),
                limit: max_diags,
            });
        }
        assert!(offsets.len() <= u32::MAX as usize, "lanes are u32");
        let mut data = vec![S::ZERO; offsets.len() * nrows];
        for ((&r, &c), &v) in rows.iter().zip(cols).zip(coo.values()) {
            data[lane_of[slot(r, c)] as usize * nrows + r as usize] = v;
        }
        Ok(Self {
            nrows,
            ncols: coo.ncols(),
            nnz: coo.nnz(),
            offsets,
            data,
        })
    }

    /// Converts back to canonical COO (zero padding entries dropped).
    pub fn to_coo(&self) -> CooMatrix<S> {
        let mut b = crate::coo::CooBuilder::new(self.nrows, self.ncols)
            .expect("shape validated at construction");
        b.reserve(self.nnz);
        for (d, &off) in self.offsets.iter().enumerate() {
            for i in 0..self.nrows {
                let j = i as i64 + off;
                if j < 0 || j >= self.ncols as i64 {
                    continue;
                }
                let v = self.data[d * self.nrows + i];
                if v != S::ZERO {
                    b.push(i, j as usize, v).expect("index in range");
                }
            }
        }
        b.build()
    }

    /// Number of materialised diagonals.
    #[inline]
    pub fn ndiags(&self) -> usize {
        self.offsets.len()
    }

    /// Number of logically stored nonzeros (excludes padding).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Diagonal offsets, sorted ascending.
    #[inline]
    pub fn offsets(&self) -> &[i64] {
        &self.offsets
    }

    /// Fraction of the materialised lanes that holds real nonzeros;
    /// DIA is competitive only when this is close to 1.
    pub fn fill_ratio(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.nnz as f64 / self.data.len() as f64
    }

    /// Bytes occupied by offsets plus lane data.
    pub fn storage_bytes(&self) -> usize {
        self.offsets.len() * 8 + self.data.len() * S::BYTES
    }
}

impl<S: Scalar> Spmv<S> for DiaMatrix<S> {
    fn nrows(&self) -> usize {
        self.nrows
    }

    fn ncols(&self) -> usize {
        self.ncols
    }

    fn spmv(&self, x: &[S], y: &mut [S]) {
        assert_eq!(x.len(), self.ncols, "x length must equal ncols");
        assert_eq!(y.len(), self.nrows, "y length must equal nrows");
        // Lane-major traversal: stream each diagonal contiguously, the
        // access pattern DIA is designed for.
        y.fill(S::ZERO);
        for (d, &off) in self.offsets.iter().enumerate() {
            let istart = (-off).max(0) as usize;
            let iend = (self.nrows as i64).min(self.ncols as i64 - off).max(0) as usize;
            let lane = &self.data[d * self.nrows..(d + 1) * self.nrows];
            for i in istart..iend {
                y[i] += lane[i] * x[(i as i64 + off) as usize];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The DIA example from Figure 1 of the paper (4x4, offsets -2, 0, 1).
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
    fn figure1_has_three_diagonals() {
        let dia = DiaMatrix::from_coo(&figure1()).unwrap();
        assert_eq!(dia.offsets(), &[-2, 0, 1]);
        assert_eq!(dia.ndiags(), 3);
        assert_eq!(dia.nnz(), 9);
    }

    #[test]
    fn round_trip_through_coo() {
        let coo = figure1();
        let dia = DiaMatrix::from_coo(&coo).unwrap();
        assert_eq!(dia.to_coo(), coo);
    }

    #[test]
    fn spmv_matches_coo() {
        let coo = figure1();
        let dia = DiaMatrix::from_coo(&coo).unwrap();
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(dia.spmv_alloc(&x), coo.spmv_alloc(&x));
    }

    #[test]
    fn rectangular_matrices_work() {
        // Wide matrix: diagonals extend past nrows.
        let coo = CooMatrix::from_triplets(2, 5, &[(0, 0, 1.0), (0, 4, 2.0), (1, 3, 3.0)]).unwrap();
        let dia = DiaMatrix::from_coo(&coo).unwrap();
        assert_eq!(dia.to_coo(), coo);
        let x = [1.0, 1.0, 1.0, 1.0, 1.0];
        assert_eq!(dia.spmv_alloc(&x), coo.spmv_alloc(&x));
        // Tall matrix: negative offsets dominate.
        let coo = CooMatrix::from_triplets(5, 2, &[(4, 0, 1.0), (0, 1, 2.0)]).unwrap();
        let dia = DiaMatrix::from_coo(&coo).unwrap();
        assert_eq!(dia.to_coo(), coo);
    }

    #[test]
    fn diagonal_limit_enforced() {
        // Anti-diagonal matrix: every entry on its own diagonal.
        let n = 16;
        let t: Vec<_> = (0..n).map(|i| (i, n - 1 - i, 1.0)).collect();
        let coo = CooMatrix::from_triplets(n, n, &t).unwrap();
        let e = DiaMatrix::from_coo_with_limit(&coo, 8).unwrap_err();
        assert!(matches!(
            e,
            SparseError::TooManyDiagonals {
                ndiags: 16,
                limit: 8
            }
        ));
    }

    #[test]
    fn fill_ratio_reflects_padding() {
        // Perfect main diagonal: every lane slot used.
        let t: Vec<_> = (0..8).map(|i| (i, i, 1.0)).collect();
        let coo = CooMatrix::from_triplets(8, 8, &t).unwrap();
        let dia = DiaMatrix::from_coo(&coo).unwrap();
        assert_eq!(dia.fill_ratio(), 1.0);
        // Single off-corner entry: 1 of 8 slots used.
        let coo = CooMatrix::from_triplets(8, 8, &[(7, 0, 1.0)]).unwrap();
        let dia = DiaMatrix::from_coo(&coo).unwrap();
        assert_eq!(dia.fill_ratio(), 1.0 / 8.0);
    }

    #[test]
    fn storage_counts_padding() {
        let coo = CooMatrix::from_triplets(8, 8, &[(7, 0, 1.0)]).unwrap();
        let dia = DiaMatrix::from_coo(&coo).unwrap();
        // One lane of 8 doubles plus one i64 offset.
        assert_eq!(dia.storage_bytes(), 8 + 8 * 8);
    }
}
