//! Merge-based CSR SpMV (Merrill & Garland, SC'16).
//!
//! Storage is plain CSR; the kernel is what changes. Row-chunked
//! CSR hands each worker an equal number of *rows*, so one heavy row
//! serializes the whole sweep on power-law matrices. Merge-based CSR
//! instead treats SpMV as merging two lists — the row descriptors
//! (`row_ptr[1..]`) and the nonzero indices (`0..nnz`) — and splits the
//! *merge path* into equal pieces: every worker gets exactly
//! `(nrows + nnz) / P` units of work no matter how the nonzeros are
//! distributed over rows. Partition boundaries land mid-row, so each
//! worker returns a carry-out partial for its trailing row, fixed up
//! sequentially afterwards (`P - 1` additions).
//!
//! The partition search for diagonal `d` finds the split `(r, i)` with
//! `r + i = d` such that rows `< r` are fully consumed by nonzeros
//! `< i` — a binary search over `row_ptr`, O(log nrows) per worker.
//!
//! [`Spmv::spmv`] runs the merge path as one partition — bounds `(0, 0)`
//! and `(nrows, nnz)`, no carry: the row scan.
//! [`MergeCsrMatrix::spmv_partitioned`] runs `P` partitions in order.

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::scalar::Scalar;
use crate::spmv::Spmv;
use serde::{Deserialize, Serialize};

/// Merge-path partitions per core that the many-core cost model
/// assumes (it prices their O(P) search and carry fixup). No SpMV
/// kernel splits work across threads until ROADMAP item 1's driver.
pub const PARTITIONS_PER_THREAD: usize = 4;

/// Sparse matrix in CSR layout with a merge-path-partitioned SpMV.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MergeCsrMatrix<S: Scalar> {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<S>,
}

impl<S: Scalar> MergeCsrMatrix<S> {
    /// Converts from COO. Never fails: the layout is plain CSR.
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
    ///
    /// Fallible because a `MergeCsrMatrix` can arrive through
    /// deserialization: a hostile payload may carry a malformed
    /// `row_ptr` or out-of-range column indices, which must surface as
    /// a typed error instead of an indexing panic.
    pub fn to_coo(&self) -> Result<CooMatrix<S>, SparseError> {
        self.validate()?;
        let mut b = crate::coo::CooBuilder::new(self.nrows, self.ncols)?;
        b.reserve(self.vals.len());
        for r in 0..self.nrows {
            for j in self.row_ptr[r]..self.row_ptr[r + 1] {
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
        if self.row_ptr.len() != self.nrows + 1 || self.row_ptr[0] != 0 {
            return Err(bad(format!(
                "row_ptr must hold {} offsets starting at 0, got {}",
                self.nrows + 1,
                self.row_ptr.len()
            )));
        }
        for r in 0..self.nrows {
            if self.row_ptr[r + 1] < self.row_ptr[r] {
                return Err(bad(format!(
                    "row_ptr[{r}..={}] = [{}, {}] is not monotone",
                    r + 1,
                    self.row_ptr[r],
                    self.row_ptr[r + 1]
                )));
            }
        }
        let declared = *self.row_ptr.last().expect("length checked above");
        if self.cols.len() != declared || self.vals.len() != declared {
            return Err(bad(format!(
                "row_ptr declares {declared} nonzeros but cols/vals hold {}/{}",
                self.cols.len(),
                self.vals.len()
            )));
        }
        for r in 0..self.nrows {
            for j in self.row_ptr[r]..self.row_ptr[r + 1] {
                let col = self.cols[j] as usize;
                if col >= self.ncols {
                    return Err(SparseError::IndexOutOfBounds {
                        row: r,
                        col,
                        nrows: self.nrows,
                        ncols: self.ncols,
                    });
                }
            }
        }
        Ok(())
    }

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Bytes occupied by the CSR arrays.
    pub fn storage_bytes(&self) -> usize {
        self.row_ptr.len() * 8 + self.cols.len() * 4 + self.vals.len() * S::BYTES
    }

    /// Finds the merge-path split `(rows_consumed, nnz_consumed)` on
    /// `diagonal` (`0..=nrows+nnz`). Row-end `r` (value `row_ptr[r+1]`)
    /// is consumed before nonzero `i` iff `row_ptr[r+1] <= i`, which
    /// makes empty rows zero-cost and keeps every split unique.
    fn merge_path_search(&self, diagonal: usize) -> (usize, usize) {
        let nnz = self.vals.len();
        let mut lo = diagonal.saturating_sub(nnz);
        let mut hi = diagonal.min(self.nrows);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.row_ptr[mid + 1] < diagonal - mid {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (lo, diagonal - lo)
    }

    /// Equal-work partition boundaries for `parts` workers: `parts + 1`
    /// `(row, nnz_index)` splits along the merge path.
    fn partition_points(&self, parts: usize) -> Vec<(usize, usize)> {
        let parts = parts.max(1);
        let total = self.nrows + self.vals.len();
        (0..=parts)
            .map(|p| self.merge_path_search(total * p / parts))
            .collect()
    }

    /// Runs one partition's share: rows `lo.0..hi.0` are accumulated
    /// into `out` (which must span exactly those rows and is fully
    /// overwritten), and nonzeros belonging to the straddled trailing
    /// row `hi.0` are returned as a carry-out `(row, partial)`.
    fn partition_spmv(
        &self,
        lo: (usize, usize),
        hi: (usize, usize),
        x: &[S],
        out: &mut [S],
    ) -> Option<(usize, S)> {
        let (r0, i0) = lo;
        let (r1, i1) = hi;
        debug_assert_eq!(out.len(), r1 - r0);
        for (r, slot) in (r0..r1).zip(out.iter_mut()) {
            let mut acc = S::ZERO;
            // `max(i0)` matters only for the first row, whose leading
            // nonzeros belong to earlier partitions' carries.
            for j in self.row_ptr[r].max(i0)..self.row_ptr[r + 1] {
                acc += self.vals[j] * x[self.cols[j] as usize];
            }
            *slot = acc;
        }
        // Trailing straddled row: its share here is [row_ptr[r1], i1)
        // (clamped by i0 when a mega-row spans this whole partition).
        let t0 = if r1 < self.nrows {
            self.row_ptr[r1].max(i0)
        } else {
            i1
        };
        if t0 < i1 {
            let mut acc = S::ZERO;
            for j in t0..i1 {
                acc += self.vals[j] * x[self.cols[j] as usize];
            }
            Some((r1, acc))
        } else {
            None
        }
    }

    /// SpMV over explicit merge-path partitions, run in order. `y` is
    /// split at the partition row boundaries so every partition owns a
    /// disjoint slice; carries are applied afterwards.
    pub fn spmv_partitioned(&self, x: &[S], y: &mut [S], parts: usize) {
        let bounds = self.partition_points(parts);
        let parts = bounds.len() - 1;
        let mut slices = Vec::with_capacity(parts);
        let mut rest = &mut *y;
        let mut prev = 0usize;
        for b in &bounds[1..] {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(b.0 - prev);
            slices.push(head);
            rest = tail;
            prev = b.0;
        }
        let carries: Vec<Option<(usize, S)>> = slices
            .into_iter()
            .enumerate()
            .map(|(w, out)| self.partition_spmv(bounds[w], bounds[w + 1], x, out))
            .collect();
        for (row, v) in carries.into_iter().flatten() {
            y[row] += v;
        }
    }
}

impl<S: Scalar> Spmv<S> for MergeCsrMatrix<S> {
    fn nrows(&self) -> usize {
        self.nrows
    }

    fn ncols(&self) -> usize {
        self.ncols
    }

    fn spmv(&self, x: &[S], y: &mut [S]) {
        assert_eq!(x.len(), self.ncols, "x length must equal ncols");
        assert_eq!(y.len(), self.nrows, "y length must equal nrows");
        let carry = self.partition_spmv((0, 0), (self.nrows, self.nnz()), x, y);
        debug_assert!(carry.is_none());
    }
}

impl<S: Scalar> From<&CsrMatrix<S>> for MergeCsrMatrix<S> {
    /// Re-wraps existing CSR arrays under the merge-path kernel; the
    /// storage is identical, only the schedule differs.
    fn from(csr: &CsrMatrix<S>) -> Self {
        Self {
            nrows: csr.nrows(),
            ncols: csr.ncols(),
            row_ptr: csr.row_ptr().to_vec(),
            cols: csr.col_indices().to_vec(),
            vals: csr.values().to_vec(),
        }
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

    /// Power-law-ish matrix: row r gets ~n/(r+1) entries.
    fn power_law(n: usize) -> CooMatrix<f64> {
        let mut t = Vec::new();
        for r in 0..n {
            let deg = (n / (r + 1)).clamp(1, n / 2);
            for k in 0..deg {
                t.push((r, (r + k * 3 + 1) % n, 1.0 + (k % 7) as f64));
            }
        }
        CooMatrix::from_triplets(n, n, &t).unwrap()
    }

    #[test]
    fn round_trip_through_coo() {
        let coo = figure1();
        assert_eq!(MergeCsrMatrix::from_coo(&coo).to_coo().unwrap(), coo);
    }

    /// Hostile deserialized shapes surface typed errors, never panics
    /// — the same audit PR 4 ran over the repr hot paths.
    #[test]
    fn hostile_shapes_are_rejected_with_typed_errors() {
        let good = MergeCsrMatrix::from_coo(&figure1());
        assert!(good.validate().is_ok());

        let mut torn_ptr = good.clone();
        torn_ptr.row_ptr = vec![];
        assert!(matches!(
            torn_ptr.to_coo(),
            Err(SparseError::InvalidStructure(_))
        ));

        let mut backwards = good.clone();
        backwards.row_ptr = vec![0, 5, 2, 7, 9];
        assert!(matches!(
            backwards.to_coo(),
            Err(SparseError::InvalidStructure(_))
        ));

        let mut overlong = good.clone();
        *overlong.row_ptr.last_mut().unwrap() = 100;
        assert!(overlong.to_coo().is_err());

        let mut oob_col = good.clone();
        oob_col.cols[0] = 1000;
        assert!(matches!(
            oob_col.to_coo(),
            Err(SparseError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn spmv_matches_coo() {
        let coo = figure1();
        let m = MergeCsrMatrix::from_coo(&coo);
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(m.spmv_alloc(&x), coo.spmv_alloc(&x));
    }

    #[test]
    fn merge_path_search_walks_the_path() {
        // Rows of length [2, 1]: path consumes b0 b1 A0 b2 A1.
        let coo = CooMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 1.0), (1, 1, 1.0)]).unwrap();
        let m = MergeCsrMatrix::from_coo(&coo);
        let want = [(0, 0), (0, 1), (0, 2), (1, 2), (1, 3), (2, 3)];
        for (d, w) in want.iter().enumerate() {
            assert_eq!(m.merge_path_search(d), *w, "diagonal {d}");
        }
    }

    #[test]
    fn partitions_split_work_evenly() {
        let m = MergeCsrMatrix::from_coo(&power_law(1000));
        let total = m.nrows + m.nnz();
        for parts in [2, 3, 4, 7, 16] {
            let b = m.partition_points(parts);
            assert_eq!(b[0], (0, 0));
            assert_eq!(b[parts], (m.nrows, m.nnz()));
            for w in 0..parts {
                let share = (b[w + 1].0 - b[w].0) + (b[w + 1].1 - b[w].1);
                let ideal = total / parts;
                assert!(
                    share <= ideal + 1 && share + 1 >= ideal,
                    "parts={parts} worker={w} share={share} ideal={ideal}"
                );
            }
        }
    }

    #[test]
    fn partitioned_matches_sequential_on_any_part_count() {
        for coo in [figure1(), power_law(257)] {
            let m = MergeCsrMatrix::from_coo(&coo);
            let x: Vec<f64> = (0..coo.ncols()).map(|i| (i as f64 * 0.3).sin()).collect();
            let want = coo.spmv_alloc(&x);
            for parts in [1, 2, 3, 5, 8, 32, 1000] {
                let mut y = vec![7.0; coo.nrows()];
                m.spmv_partitioned(&x, &mut y, parts);
                for (a, b) in y.iter().zip(&want) {
                    assert!(a.approx_eq(*b, 1e-10), "parts {parts}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn mega_row_spanning_many_partitions() {
        // One row holds everything: every partition but the first is a
        // pure carry into row 0... and empty rows trail behind it.
        let n = 64;
        let t: Vec<_> = (0..n).map(|j| (0, j, 1.0 + j as f64)).collect();
        let coo = CooMatrix::from_triplets(n, n, &t).unwrap();
        let m = MergeCsrMatrix::from_coo(&coo);
        let x: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let want = coo.spmv_alloc(&x);
        for parts in [2, 4, 16] {
            let mut y = vec![0.0; n];
            m.spmv_partitioned(&x, &mut y, parts);
            for (a, b) in y.iter().zip(&want) {
                assert!(a.approx_eq(*b, 1e-12));
            }
        }
    }

    #[test]
    fn empty_rows_are_free_on_the_merge_path() {
        let coo = CooMatrix::from_triplets(6, 6, &[(3, 2, 2.0), (5, 5, 1.0)]).unwrap();
        let m = MergeCsrMatrix::from_coo(&coo);
        let x = [1.0; 6];
        let want = coo.spmv_alloc(&x);
        for parts in [1, 2, 3, 8] {
            let mut y = vec![9.0; 6];
            m.spmv_partitioned(&x, &mut y, parts);
            assert_eq!(y, want, "parts {parts}");
        }
    }

    #[test]
    fn from_csr_preserves_the_matrix() {
        let coo = figure1();
        let csr = CsrMatrix::from_coo(&coo);
        let m = MergeCsrMatrix::from(&csr);
        assert_eq!(m.to_coo().unwrap(), coo);
    }
}
