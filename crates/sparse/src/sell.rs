//! SELL-C-σ (sliced ELLPACK with sorting) — the many-core successor to
//! ELL.
//!
//! Rows are sorted by length inside windows of σ rows, then packed into
//! chunks of C consecutive (sorted) rows; each chunk is padded only to
//! the width of *its own* longest row and stored column-major within the
//! chunk (`vals[chunk_base + k * C + i]` for lane `i`, slot `k`). With
//! sorted windows, rows of similar length share a chunk, so total
//! padding collapses from ELL's `nrows * max_row` to roughly
//! `nnz + C * max_row` — regular SIMD-friendly access without ELL's
//! catastrophic blow-up on skewed matrices (Kreutzer et al.; Chen et
//! al., arXiv:1805.11938).
//!
//! σ = 1 disables sorting entirely (plain SELL-C): no permutation is
//! stored, and the kernel writes `y` directly instead of scattering
//! through the row permutation.

use crate::coo::CooMatrix;
use crate::error::SparseError;
use crate::scalar::Scalar;
use crate::spmv::Spmv;
use serde::{Deserialize, Serialize};

/// Default chunk height C. 8 lanes covers AVX-512 doubles and keeps the
/// per-chunk padding bound (`C * width_spread`) small.
pub const DEFAULT_CHUNK: usize = 8;

/// Default sorting window σ. Large enough to act as a near-global sort
/// on the matrix sizes this repo serves, while still bounding how far a
/// row can travel from its original position (locality of the `x`
/// gather survives).
pub const DEFAULT_SIGMA: usize = 4096;

/// Sparse matrix in SELL-C-σ form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SellMatrix<S: Scalar> {
    nrows: usize,
    ncols: usize,
    nnz: usize,
    chunk: usize,
    sigma: usize,
    /// `perm[packed] = original row`; `None` when σ ≤ 1 (identity).
    perm: Option<Vec<u32>>,
    /// Storage offset of each chunk; `len = nchunks + 1`.
    chunk_ptr: Vec<usize>,
    /// True (unpadded) length of each packed row; `len = nrows`.
    row_len: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<S>,
}

impl<S: Scalar> SellMatrix<S> {
    /// Converts from COO with the default C and σ.
    pub fn from_coo(coo: &CooMatrix<S>) -> Self {
        Self::from_coo_with_params(coo, DEFAULT_CHUNK, DEFAULT_SIGMA)
    }

    /// Converts from COO with explicit chunk height `chunk` (C ≥ 1) and
    /// sorting window `sigma` (σ ≥ 1; σ = 1 means unsorted SELL-C).
    pub fn from_coo_with_params(coo: &CooMatrix<S>, chunk: usize, sigma: usize) -> Self {
        assert!(chunk >= 1, "chunk height C must be at least 1");
        assert!(sigma >= 1, "sorting window sigma must be at least 1");
        let nrows = coo.nrows();
        let ptr = coo.row_offsets();
        let len_of = |r: usize| ptr[r + 1] - ptr[r];

        // σ-window sort: descending length, original index as tiebreak
        // so construction is deterministic.
        let perm = if sigma > 1 {
            let mut order: Vec<u32> = (0..nrows as u32).collect();
            for window in order.chunks_mut(sigma) {
                window.sort_unstable_by_key(|&r| (usize::MAX - len_of(r as usize), r));
            }
            Some(order)
        } else {
            None
        };
        let orig = |packed: usize| -> usize {
            match &perm {
                Some(p) => p[packed] as usize,
                None => packed,
            }
        };

        let nchunks = nrows.div_ceil(chunk);
        let mut chunk_ptr = Vec::with_capacity(nchunks + 1);
        chunk_ptr.push(0usize);
        let mut row_len = vec![0u32; nrows];
        for c in 0..nchunks {
            let lo = c * chunk;
            let hi = (lo + chunk).min(nrows);
            let mut width = 0usize;
            for (off, slot) in row_len[lo..hi].iter_mut().enumerate() {
                let l = len_of(orig(lo + off));
                *slot = l as u32;
                width = width.max(l);
            }
            chunk_ptr.push(chunk_ptr[c] + chunk * width);
        }

        let slots = chunk_ptr[nchunks];
        let mut cols = vec![0u32; slots];
        let mut vals = vec![S::ZERO; slots];
        let ccols = coo.col_indices();
        let cvals = coo.values();
        for packed in 0..nrows {
            let r = orig(packed);
            let (c, lane) = (packed / chunk, packed % chunk);
            let base = chunk_ptr[c] + lane;
            for (k, j) in (ptr[r]..ptr[r + 1]).enumerate() {
                cols[base + k * chunk] = ccols[j];
                vals[base + k * chunk] = cvals[j];
            }
        }

        Self {
            nrows,
            ncols: coo.ncols(),
            nnz: coo.nnz(),
            chunk,
            sigma,
            perm,
            chunk_ptr,
            row_len,
            cols,
            vals,
        }
    }

    /// Converts back to canonical COO (padding dropped exactly, via the
    /// stored per-row lengths).
    ///
    /// Fallible because a `SellMatrix` can arrive through
    /// deserialization: a hostile payload may violate the invariants
    /// [`Self::from_coo_with_params`] establishes (zero chunk height,
    /// non-monotone `chunk_ptr`, a permutation indexing past the rows,
    /// column indices past `ncols`, …), and those must surface as a
    /// typed error instead of an indexing panic.
    pub fn to_coo(&self) -> Result<CooMatrix<S>, SparseError> {
        self.validate()?;
        let mut b = crate::coo::CooBuilder::new(self.nrows, self.ncols)?;
        b.reserve(self.nnz);
        for packed in 0..self.nrows {
            let r = self.original_row(packed);
            let (c, lane) = (packed / self.chunk, packed % self.chunk);
            let base = self.chunk_ptr[c] + lane;
            for k in 0..self.row_len[packed] as usize {
                let j = base + k * self.chunk;
                b.push(r, self.cols[j] as usize, self.vals[j])?;
            }
        }
        Ok(b.build())
    }

    /// Checks every structural invariant a hostile `Deserialize`
    /// payload could violate. A matrix that passes cannot make
    /// [`Self::to_coo`] or the SpMV kernels index out of bounds.
    pub fn validate(&self) -> Result<(), SparseError> {
        let bad = |m: String| SparseError::InvalidStructure(m);
        if self.chunk < 1 {
            return Err(bad("chunk height C must be at least 1".into()));
        }
        if self.sigma < 1 {
            return Err(bad("sorting window sigma must be at least 1".into()));
        }
        let nchunks = self.nrows.div_ceil(self.chunk);
        if self.chunk_ptr.len() != nchunks + 1 || self.chunk_ptr[0] != 0 {
            return Err(bad(format!(
                "chunk_ptr must hold {} offsets starting at 0, got {}",
                nchunks + 1,
                self.chunk_ptr.len()
            )));
        }
        for c in 0..nchunks {
            let (lo, hi) = (self.chunk_ptr[c], self.chunk_ptr[c + 1]);
            if hi < lo || (hi - lo) % self.chunk != 0 {
                return Err(bad(format!(
                    "chunk_ptr[{c}..={}] = [{lo}, {hi}] is not a monotone multiple of C",
                    c + 1
                )));
            }
        }
        let slots = *self.chunk_ptr.last().expect("length checked above");
        if self.cols.len() != slots || self.vals.len() != slots {
            return Err(bad(format!(
                "chunk_ptr declares {slots} slots but cols/vals hold {}/{}",
                self.cols.len(),
                self.vals.len()
            )));
        }
        if self.row_len.len() != self.nrows {
            return Err(bad(format!(
                "row_len holds {} entries for {} rows",
                self.row_len.len(),
                self.nrows
            )));
        }
        let mut live = 0usize;
        for packed in 0..self.nrows {
            let c = packed / self.chunk;
            let len = self.row_len[packed] as usize;
            if len > self.chunk_width(c) {
                return Err(bad(format!(
                    "row_len[{packed}] = {len} exceeds its chunk width {}",
                    self.chunk_width(c)
                )));
            }
            live += len;
        }
        if live != self.nnz {
            return Err(bad(format!(
                "row lengths sum to {live} but nnz declares {}",
                self.nnz
            )));
        }
        if let Some(p) = &self.perm {
            if p.len() != self.nrows {
                return Err(bad(format!(
                    "perm holds {} entries for {} rows",
                    p.len(),
                    self.nrows
                )));
            }
            let mut seen = vec![false; self.nrows];
            for &r in p {
                let r = r as usize;
                if r >= self.nrows || seen[r] {
                    return Err(bad("perm is not a permutation of the rows".into()));
                }
                seen[r] = true;
            }
        }
        // Live column indices must stay inside the shape; padded slots
        // are never dereferenced by the kernels and stay unchecked.
        for packed in 0..self.nrows {
            let (c, lane) = (packed / self.chunk, packed % self.chunk);
            let base = self.chunk_ptr[c] + lane;
            for k in 0..self.row_len[packed] as usize {
                let col = self.cols[base + k * self.chunk] as usize;
                if col >= self.ncols {
                    return Err(SparseError::IndexOutOfBounds {
                        row: self.original_row_checked(packed),
                        col,
                        nrows: self.nrows,
                        ncols: self.ncols,
                    });
                }
            }
        }
        Ok(())
    }

    /// [`Self::original_row`] without trusting `perm` bounds (used in
    /// error paths that run before the permutation is validated).
    fn original_row_checked(&self, packed: usize) -> usize {
        match &self.perm {
            Some(p) => p.get(packed).map_or(packed, |&r| r as usize),
            None => packed,
        }
    }

    /// Chunk height C.
    #[inline]
    pub fn chunk(&self) -> usize {
        self.chunk
    }

    /// Sorting window σ (1 means unsorted).
    #[inline]
    pub fn sigma(&self) -> usize {
        self.sigma
    }

    /// Number of C-row chunks. (Saturating: a hostile deserialized
    /// `chunk_ptr` can be empty, which [`Self::validate`] rejects but
    /// this accessor must survive.)
    #[inline]
    pub fn nchunks(&self) -> usize {
        self.chunk_ptr.len().saturating_sub(1)
    }

    /// Padded width of chunk `c` (saturating against hostile
    /// non-monotone offsets or a zero chunk height; see
    /// [`Self::validate`]).
    #[inline]
    pub fn chunk_width(&self, c: usize) -> usize {
        self.chunk_ptr[c + 1].saturating_sub(self.chunk_ptr[c]) / self.chunk.max(1)
    }

    /// Number of logically stored nonzeros (excludes padding).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Fraction of padded slots holding real nonzeros. This is the
    /// number SELL-C-σ exists to maximise where ELL cannot.
    pub fn fill_ratio(&self) -> f64 {
        if self.vals.is_empty() {
            return 0.0;
        }
        self.nnz as f64 / self.vals.len() as f64
    }

    /// Bytes occupied by the padded arrays plus permutation/offsets.
    pub fn storage_bytes(&self) -> usize {
        self.cols.len() * 4
            + self.vals.len() * S::BYTES
            + self.perm.as_ref().map_or(0, |p| p.len() * 4)
            + self.chunk_ptr.len() * 8
            + self.row_len.len() * 4
    }

    #[inline]
    fn original_row(&self, packed: usize) -> usize {
        match &self.perm {
            Some(p) => p[packed] as usize,
            None => packed,
        }
    }

    /// Computes packed outputs for chunks `c0..c1` into `out`, whose
    /// length must cover exactly those packed rows. The inner loop runs
    /// slot-major so each step reads C contiguous (col, val) pairs —
    /// the lane-parallel access pattern SELL is built around.
    fn chunk_range_kernel(&self, c0: usize, c1: usize, x: &[S], out: &mut [S]) {
        out.fill(S::ZERO);
        let row0 = c0 * self.chunk;
        for c in c0..c1 {
            let lanes = self.chunk.min(self.nrows - c * self.chunk);
            let acc = &mut out[c * self.chunk - row0..][..lanes];
            let width = self.chunk_width(c);
            let mut off = self.chunk_ptr[c];
            for _ in 0..width {
                // Slice per slot column so the lane loop is a
                // bounds-check-free zip over C contiguous pairs.
                let vals = &self.vals[off..off + lanes];
                let cols = &self.cols[off..off + lanes];
                for ((a, v), col) in acc.iter_mut().zip(vals).zip(cols) {
                    *a += *v * x[*col as usize];
                }
                off += self.chunk;
            }
        }
    }
}

impl<S: Scalar> Spmv<S> for SellMatrix<S> {
    fn nrows(&self) -> usize {
        self.nrows
    }

    fn ncols(&self) -> usize {
        self.ncols
    }

    fn spmv(&self, x: &[S], y: &mut [S]) {
        assert_eq!(x.len(), self.ncols, "x length must equal ncols");
        assert_eq!(y.len(), self.nrows, "y length must equal nrows");
        match &self.perm {
            None => self.chunk_range_kernel(0, self.nchunks(), x, y),
            Some(p) => {
                // Chunk-local scatter: one C-row buffer stays in L1
                // and y is written exactly once, instead of routing
                // the whole result through an nrows-sized packed
                // vector and a second full pass.
                let mut buf = vec![S::ZERO; self.chunk];
                for c in 0..self.nchunks() {
                    let lanes = self.chunk.min(self.nrows - c * self.chunk);
                    self.chunk_range_kernel(c, c + 1, x, &mut buf[..lanes]);
                    for (&r, &v) in p[c * self.chunk..][..lanes].iter().zip(&buf) {
                        y[r as usize] = v;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ell::EllMatrix;

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

    /// Varying row lengths plus one long outlier: ELL pads every row to
    /// the outlier, unsorted SELL pads per chunk, sorted SELL groups
    /// similar rows so chunks are near-full.
    fn skewed(n: usize) -> CooMatrix<f64> {
        let mut t = Vec::new();
        for j in 0..64.min(n) {
            t.push((0, j, 1.0 + j as f64));
        }
        for i in 1..n {
            for k in 0..1 + i % 8 {
                t.push((i, (i + k * 5) % n, 1.0 + k as f64));
            }
        }
        CooMatrix::from_triplets(n, n, &t).unwrap()
    }

    #[test]
    fn round_trip_through_coo() {
        for (chunk, sigma) in [(1, 1), (2, 1), (2, 4), (8, 4096), (3, 2)] {
            let coo = figure1();
            let sell = SellMatrix::from_coo_with_params(&coo, chunk, sigma);
            assert_eq!(sell.to_coo().unwrap(), coo, "C={chunk} sigma={sigma}");
        }
    }

    #[test]
    fn spmv_matches_coo() {
        let coo = figure1();
        let x = [1.0, 2.0, 3.0, 4.0];
        let want = coo.spmv_alloc(&x);
        for (chunk, sigma) in [(1, 1), (2, 1), (2, 4), (8, 4096)] {
            let sell = SellMatrix::from_coo_with_params(&coo, chunk, sigma);
            assert_eq!(sell.spmv_alloc(&x), want, "C={chunk} sigma={sigma}");
        }
    }

    #[test]
    fn sigma_one_stores_no_permutation() {
        let sell = SellMatrix::from_coo_with_params(&figure1(), 2, 1);
        assert!(sell.perm.is_none());
        assert_eq!(sell.sigma(), 1);
    }

    #[test]
    fn sorting_contains_padding_that_ruins_ell() {
        let coo = skewed(512);
        let ell = EllMatrix::from_coo(&coo).unwrap();
        let unsorted = SellMatrix::from_coo_with_params(&coo, 8, 1);
        let sorted = SellMatrix::from_coo_with_params(&coo, 8, 4096);
        // ELL pads every row to 64; sorted SELL pads only the chunk
        // holding the heavy row.
        assert!(ell.fill_ratio() < 0.1);
        assert!(sorted.fill_ratio() > 0.8, "fill {}", sorted.fill_ratio());
        assert!(sorted.storage_bytes() < ell.storage_bytes() / 10);
        // Unsorted SELL already beats ELL (per-chunk widths), sorting
        // beats unsorted (the heavy chunk no longer drags 7 neighbours).
        assert!(unsorted.vals.len() < ell.width() * 512);
        assert!(sorted.vals.len() < unsorted.vals.len());
    }

    #[test]
    fn partial_last_chunk_is_correct() {
        // 7 rows with C = 4: second chunk has 3 live lanes.
        let t: Vec<_> = (0..7)
            .flat_map(|i| [(i, i, 1.0 + i as f64), (i, 6 - i, 0.5)])
            .collect();
        let coo = CooMatrix::from_triplets(7, 7, &t).unwrap();
        let sell = SellMatrix::from_coo_with_params(&coo, 4, 8);
        assert_eq!(sell.nchunks(), 2);
        assert_eq!(sell.to_coo().unwrap(), coo);
        let x: Vec<f64> = (0..7).map(|i| i as f64 - 3.0).collect();
        assert_eq!(sell.spmv_alloc(&x), coo.spmv_alloc(&x));
    }

    #[test]
    fn empty_matrix_and_empty_rows() {
        let coo = CooMatrix::<f64>::empty(5, 5).unwrap();
        let sell = SellMatrix::from_coo(&coo);
        assert_eq!(sell.spmv_alloc(&[1.0; 5]), vec![0.0; 5]);
        assert_eq!(sell.to_coo().unwrap(), coo);
    }

    /// Hostile deserialized shapes surface typed errors, never panics
    /// — the same audit PR 4 ran over the repr hot paths.
    #[test]
    fn hostile_shapes_are_rejected_with_typed_errors() {
        let good = SellMatrix::from_coo_with_params(&figure1(), 2, 4);
        assert!(good.validate().is_ok());

        let mut zero_chunk = good.clone();
        zero_chunk.chunk = 0;
        assert!(matches!(
            zero_chunk.to_coo(),
            Err(SparseError::InvalidStructure(_))
        ));
        // The width accessor itself must also survive C = 0.
        let _ = zero_chunk.chunk_width(0);

        let mut torn_ptr = good.clone();
        torn_ptr.chunk_ptr = vec![];
        assert_eq!(torn_ptr.nchunks(), 0);
        assert!(torn_ptr.to_coo().is_err());

        let mut backwards = good.clone();
        backwards.chunk_ptr = vec![0, 6, 4];
        assert!(matches!(
            backwards.to_coo(),
            Err(SparseError::InvalidStructure(_))
        ));

        let mut oob_perm = good.clone();
        oob_perm.perm = Some(vec![0, 1, 2, 99]);
        assert!(matches!(
            oob_perm.to_coo(),
            Err(SparseError::InvalidStructure(_))
        ));

        let mut dup_perm = good.clone();
        dup_perm.perm = Some(vec![0, 1, 2, 2]);
        assert!(dup_perm.to_coo().is_err());

        let mut oob_col = good.clone();
        // Find a live slot and point it past ncols.
        let base = oob_col.chunk_ptr[0];
        oob_col.cols[base] = 1000;
        assert!(matches!(
            oob_col.to_coo(),
            Err(SparseError::IndexOutOfBounds { .. })
        ));

        let mut long_row = good.clone();
        long_row.row_len[0] = 100;
        assert!(long_row.to_coo().is_err());

        let mut wrong_nnz = good.clone();
        wrong_nnz.nnz = 1;
        assert!(wrong_nnz.to_coo().is_err());
    }

    #[test]
    fn storage_accounts_for_permutation() {
        let coo = figure1();
        let plain = SellMatrix::from_coo_with_params(&coo, 2, 1);
        let sorted = SellMatrix::from_coo_with_params(&coo, 2, 4);
        assert!(sorted.storage_bytes() >= plain.storage_bytes());
    }
}
