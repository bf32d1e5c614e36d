//! Block Sparse Row (BSR) format — CSR over dense `b x b` blocks.
//!
//! BSR amortises index storage over whole blocks and turns the inner
//! kernel into a tiny dense matrix–vector product, which vectorises well
//! and (on GPUs) coalesces. It wins on matrices with genuine block
//! structure (FEM with multiple degrees of freedom per node) and loses
//! when blocks are mostly padding. The paper's GPU evaluation uses a
//! `4 x 4` block size; that is the default here.

use crate::coo::{CooBuilder, CooMatrix};
use crate::error::SparseError;
use crate::scalar::Scalar;
use crate::spmv::Spmv;
use serde::{Deserialize, Serialize};

/// Block edge length used by the paper's GPU experiments.
pub const DEFAULT_BLOCK_SIZE: usize = 4;

/// Maximum materialised payload elements per stored nonzero accepted by
/// [`BsrMatrix::from_coo`]. A matrix whose blocks are emptier than
/// `1/DEFAULT_MAX_EXPANSION` can never win with BSR — padding dominates
/// both memory and the dense inner kernel — so refusing it early guards
/// the conversion path against hostile scatter patterns that would
/// otherwise allocate `nnz * block^2` elements. Mirrors DIA's
/// `DEFAULT_MAX_DIAGS` and ELL's `DEFAULT_MAX_WIDTH`.
pub const DEFAULT_MAX_EXPANSION: usize = 8;

/// Payload sizes at or below this many elements (8 MiB of `f64`) are
/// always accepted: small matrices cannot blow memory up no matter how
/// scattered they are, and the expansion cap only matters at scale.
pub const PAYLOAD_GUARD_FLOOR: usize = 1 << 20;

/// Sparse matrix in block sparse row form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BsrMatrix<S: Scalar> {
    nrows: usize,
    ncols: usize,
    nnz: usize,
    /// Block edge length `b`.
    block: usize,
    /// Number of block rows (`ceil(nrows / b)`).
    mb: usize,
    /// Row pointer over block rows, length `mb + 1`.
    row_ptr: Vec<usize>,
    /// Block column index per stored block.
    block_cols: Vec<u32>,
    /// Dense block payloads, `b * b` row-major values per block.
    blocks: Vec<S>,
}

impl<S: Scalar> BsrMatrix<S> {
    /// Converts from COO with the paper's default `4 x 4` blocks.
    ///
    /// Refuses (with [`SparseError::TooManyBlocks`]) inputs whose block
    /// payload would exceed [`DEFAULT_MAX_EXPANSION`] elements per
    /// stored nonzero once past [`PAYLOAD_GUARD_FLOOR`] — the cap is
    /// checked *before* the payload is allocated, so a hostile scatter
    /// pattern cannot OOM the conversion path.
    pub fn from_coo(coo: &CooMatrix<S>) -> Result<Self, SparseError> {
        Self::from_coo_with_block(coo, DEFAULT_BLOCK_SIZE)
    }

    /// Converts from COO with an explicit block edge length and the
    /// default payload cap (see [`BsrMatrix::from_coo`]).
    ///
    /// # Panics
    /// Panics if `block == 0`.
    pub fn from_coo_with_block(coo: &CooMatrix<S>, block: usize) -> Result<Self, SparseError> {
        let cap = PAYLOAD_GUARD_FLOOR.max(coo.nnz().saturating_mul(DEFAULT_MAX_EXPANSION));
        Self::from_coo_with_limit(coo, block, cap)
    }

    /// Converts from COO, refusing to materialise more than
    /// `max_payload` block-payload elements (`nblocks * block^2`).
    ///
    /// # Panics
    /// Panics if `block == 0`.
    pub fn from_coo_with_limit(
        coo: &CooMatrix<S>,
        block: usize,
        max_payload: usize,
    ) -> Result<Self, SparseError> {
        assert!(block > 0, "block size must be positive");
        let nrows = coo.nrows();
        let ncols = coo.ncols();
        let mb = nrows.div_ceil(block);
        // COO is sorted by (row, col), so blocks keyed by
        // (row / b, col / b) arrive *grouped by block row* but not sorted
        // within it; collect per-block-row, then sort block columns.
        let mut per_browk: Vec<Vec<u32>> = vec![Vec::new(); mb];
        for (r, c, _) in coo.iter() {
            per_browk[r / block].push((c / block) as u32);
        }
        let mut row_ptr = vec![0usize; mb + 1];
        for br in 0..mb {
            per_browk[br].sort_unstable();
            per_browk[br].dedup();
            row_ptr[br + 1] = row_ptr[br] + per_browk[br].len();
        }
        let nblocks = row_ptr[mb];
        if nblocks.saturating_mul(block * block) > max_payload {
            return Err(SparseError::TooManyBlocks {
                nblocks,
                limit: max_payload / (block * block),
            });
        }
        let mut block_cols = Vec::with_capacity(nblocks);
        for cols in &per_browk {
            block_cols.extend_from_slice(cols);
        }
        let mut blocks = vec![S::ZERO; nblocks * block * block];
        for (r, c, v) in coo.iter() {
            let (br, bc) = (r / block, (c / block) as u32);
            let local = per_browk[br]
                .binary_search(&bc)
                .expect("block collected above");
            let bidx = row_ptr[br] + local;
            blocks[bidx * block * block + (r % block) * block + (c % block)] = v;
        }
        Ok(Self {
            nrows,
            ncols,
            nnz: coo.nnz(),
            block,
            mb,
            row_ptr,
            block_cols,
            blocks,
        })
    }

    /// Converts back to canonical COO (padding dropped).
    pub fn to_coo(&self) -> Result<CooMatrix<S>, SparseError> {
        let b = self.block;
        let mut builder = CooBuilder::new(self.nrows, self.ncols)?;
        builder.reserve(self.nnz);
        for br in 0..self.mb {
            for k in self.row_ptr[br]..self.row_ptr[br + 1] {
                let bc = self.block_cols[k] as usize;
                for i in 0..b {
                    for j in 0..b {
                        let v = self.blocks[k * b * b + i * b + j];
                        if v != S::ZERO {
                            builder.push(br * b + i, bc * b + j, v)?;
                        }
                    }
                }
            }
        }
        Ok(builder.build())
    }

    /// Block edge length.
    #[inline]
    pub fn block_size(&self) -> usize {
        self.block
    }

    /// Number of stored dense blocks.
    #[inline]
    pub fn nblocks(&self) -> usize {
        self.block_cols.len()
    }

    /// Number of logically stored nonzeros (excludes padding).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Fraction of block payload slots holding real nonzeros.
    pub fn fill_ratio(&self) -> f64 {
        if self.blocks.is_empty() {
            return 0.0;
        }
        self.nnz as f64 / self.blocks.len() as f64
    }

    /// Bytes occupied by pointers, block columns, and payloads.
    pub fn storage_bytes(&self) -> usize {
        self.row_ptr.len() * std::mem::size_of::<usize>()
            + self.block_cols.len() * 4
            + self.blocks.len() * S::BYTES
    }

    /// Computes one block row of the product into `yrow`
    /// (`yrow.len() == min(b, nrows - br*b)`).
    fn block_row_dot(&self, br: usize, x: &[S], yrow: &mut [S]) {
        let b = self.block;
        yrow.fill(S::ZERO);
        let ilim = yrow.len();
        for k in self.row_ptr[br]..self.row_ptr[br + 1] {
            let bc = self.block_cols[k] as usize;
            let jlim = b.min(self.ncols - bc * b);
            let payload = &self.blocks[k * b * b..(k + 1) * b * b];
            for (i, out) in yrow.iter_mut().enumerate().take(ilim) {
                let row = &payload[i * b..i * b + jlim];
                let xs = &x[bc * b..bc * b + jlim];
                let mut acc = S::ZERO;
                for j in 0..jlim {
                    acc += row[j] * xs[j];
                }
                *out += acc;
            }
        }
    }
}

impl<S: Scalar> Spmv<S> for BsrMatrix<S> {
    fn nrows(&self) -> usize {
        self.nrows
    }

    fn ncols(&self) -> usize {
        self.ncols
    }

    fn spmv(&self, x: &[S], y: &mut [S]) {
        assert_eq!(x.len(), self.ncols, "x length must equal ncols");
        assert_eq!(y.len(), self.nrows, "y length must equal nrows");
        let b = self.block;
        for br in 0..self.mb {
            let lo = br * b;
            let hi = (lo + b).min(self.nrows);
            self.block_row_dot(br, x, &mut y[lo..hi]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocky() -> CooMatrix<f64> {
        // Two dense 2x2 blocks on the diagonal plus one off-diagonal entry.
        CooMatrix::from_triplets(
            5,
            5,
            &[
                (0, 0, 1.0),
                (0, 1, 2.0),
                (1, 0, 3.0),
                (1, 1, 4.0),
                (2, 2, 5.0),
                (2, 3, 6.0),
                (3, 2, 7.0),
                (3, 3, 8.0),
                (4, 0, 9.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn block_structure_detected() {
        let bsr = BsrMatrix::from_coo_with_block(&blocky(), 2).unwrap();
        // Block rows: {(0,0)}, {(1,1)}, {(2,0)} -> 3 blocks.
        assert_eq!(bsr.nblocks(), 3);
        assert_eq!(bsr.nnz(), 9);
        assert_eq!(bsr.block_size(), 2);
    }

    #[test]
    fn round_trip_through_coo() {
        let coo = blocky();
        for b in [1, 2, 3, 4, 7] {
            let bsr = BsrMatrix::from_coo_with_block(&coo, b).unwrap();
            assert_eq!(bsr.to_coo().unwrap(), coo, "block size {b}");
        }
    }

    #[test]
    fn spmv_matches_coo_including_edge_blocks() {
        let coo = blocky();
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let want = coo.spmv_alloc(&x);
        for b in [1, 2, 3, 4] {
            let bsr = BsrMatrix::from_coo_with_block(&coo, b).unwrap();
            let got = bsr.spmv_alloc(&x);
            for (a, w) in got.iter().zip(&want) {
                assert!(a.approx_eq(*w, 1e-12), "block size {b}");
            }
        }
    }

    #[test]
    fn fill_ratio_distinguishes_blocky_from_scattered() {
        // Dense 4x4 blocks -> fill 1.0.
        let mut t = Vec::new();
        for bi in 0..4usize {
            for i in 0..4 {
                for j in 0..4 {
                    t.push((bi * 4 + i, bi * 4 + j, 1.0));
                }
            }
        }
        let coo = CooMatrix::from_triplets(16, 16, &t).unwrap();
        let bsr = BsrMatrix::from_coo(&coo).unwrap();
        assert_eq!(bsr.fill_ratio(), 1.0);
        // Scattered diagonal -> each entry alone in its block. Small
        // enough to pass the payload floor despite the 1/16 fill.
        let t: Vec<_> = (0..16).map(|i| (i, (i * 5) % 16, 1.0)).collect();
        let coo = CooMatrix::from_triplets(16, 16, &t).unwrap();
        let bsr = BsrMatrix::from_coo(&coo).unwrap();
        assert!(bsr.fill_ratio() <= 1.0 / 8.0);
    }

    #[test]
    fn block_size_one_equals_csr_semantics() {
        let coo = blocky();
        let bsr = BsrMatrix::from_coo_with_block(&coo, 1).unwrap();
        assert_eq!(bsr.nblocks(), coo.nnz());
        assert_eq!(bsr.fill_ratio(), 1.0);
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn zero_block_size_panics() {
        let coo = CooMatrix::from_triplets(2, 2, &[(0, 0, 1.0)]).unwrap();
        let _ = BsrMatrix::from_coo_with_block(&coo, 0);
    }

    #[test]
    fn explicit_payload_limit_refuses_scattered_pattern() {
        // 64 nonzeros, each alone in its 4x4 block: payload = 64 * 16.
        let t: Vec<_> = (0..64).map(|i| (i * 4, (i * 4 + 8) % 256, 1.0)).collect();
        let coo = CooMatrix::from_triplets(256, 256, &t).unwrap();
        let err = BsrMatrix::from_coo_with_limit(&coo, 4, 512).unwrap_err();
        match err {
            SparseError::TooManyBlocks { nblocks, limit } => {
                assert_eq!(nblocks, 64);
                assert_eq!(limit, 32);
            }
            other => panic!("expected TooManyBlocks, got {other:?}"),
        }
        // The same matrix converts fine with an adequate budget.
        assert!(BsrMatrix::from_coo_with_limit(&coo, 4, 64 * 16).is_ok());
    }

    #[test]
    fn default_cap_refuses_hostile_scatter_at_scale() {
        // Past the floor, every nonzero alone in an 8x8 block means a
        // 64x expansion — far beyond DEFAULT_MAX_EXPANSION.
        let n = 40_000usize;
        let t: Vec<_> = (0..n).map(|i| (i, (i * 13 + 7) % n, 1.0)).collect();
        let coo = CooMatrix::from_triplets(n, n, &t).unwrap();
        assert!(matches!(
            BsrMatrix::from_coo_with_block(&coo, 8),
            Err(SparseError::TooManyBlocks { .. })
        ));
        // The default 4x4 block expands 16x on the same pattern: payload
        // 640k elements, under the 1 Mi floor, so it is still accepted.
        assert!(BsrMatrix::from_coo(&coo).is_ok());
    }
}
