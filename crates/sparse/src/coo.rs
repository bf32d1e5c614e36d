//! Coordinate (COO) format — the canonical exchange representation.
//!
//! Entries are kept sorted by `(row, col)` with no duplicates; all other
//! formats convert from/to this type.

use crate::error::SparseError;
use crate::scalar::Scalar;
use crate::spmv::Spmv;
use serde::{Deserialize, Serialize};

/// Sparse matrix in sorted, deduplicated coordinate form.
///
/// Indices are stored as `u32` to halve index traffic (matrices above
/// 2^32 rows/cols are rejected at construction).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CooMatrix<S: Scalar> {
    nrows: usize,
    ncols: usize,
    rows: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<S>,
}

impl<S: Scalar> CooMatrix<S> {
    /// Creates an empty matrix of the given shape.
    pub fn empty(nrows: usize, ncols: usize) -> Result<Self, SparseError> {
        Self::check_shape(nrows, ncols)?;
        Ok(Self {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        })
    }

    fn check_shape(nrows: usize, ncols: usize) -> Result<(), SparseError> {
        if nrows == 0 || ncols == 0 {
            return Err(SparseError::EmptyDimension { nrows, ncols });
        }
        if nrows > u32::MAX as usize || ncols > u32::MAX as usize {
            return Err(SparseError::InvalidStructure(
                "dimensions above u32::MAX are not supported".into(),
            ));
        }
        Ok(())
    }

    /// Builds a matrix from unsorted triplets; duplicates are summed.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        triplets: &[(usize, usize, S)],
    ) -> Result<Self, SparseError> {
        let mut b = CooBuilder::new(nrows, ncols)?;
        for &(r, c, v) in triplets {
            b.push(r, c, v)?;
        }
        Ok(b.build())
    }

    /// Builds directly from parts that are already sorted and unique.
    ///
    /// This is the fast path used by format conversions; the invariants
    /// are checked (O(nnz)) so a broken conversion cannot produce a
    /// silently corrupt canonical matrix.
    pub fn from_sorted_parts(
        nrows: usize,
        ncols: usize,
        rows: Vec<u32>,
        cols: Vec<u32>,
        vals: Vec<S>,
    ) -> Result<Self, SparseError> {
        Self::check_shape(nrows, ncols)?;
        if rows.len() != cols.len() || rows.len() != vals.len() {
            return Err(SparseError::InvalidStructure(
                "rows/cols/vals length mismatch".into(),
            ));
        }
        for i in 0..rows.len() {
            let (r, c) = (rows[i] as usize, cols[i] as usize);
            if r >= nrows || c >= ncols {
                return Err(SparseError::IndexOutOfBounds {
                    row: r,
                    col: c,
                    nrows,
                    ncols,
                });
            }
            if i > 0 && (rows[i - 1], cols[i - 1]) >= (rows[i], cols[i]) {
                return Err(SparseError::InvalidStructure(format!(
                    "entries not strictly sorted at position {i}"
                )));
            }
        }
        Ok(Self {
            nrows,
            ncols,
            rows,
            cols,
            vals,
        })
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored (structurally nonzero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Row indices, sorted, one per entry.
    #[inline]
    pub fn row_indices(&self) -> &[u32] {
        &self.rows
    }

    /// Column indices, one per entry.
    #[inline]
    pub fn col_indices(&self) -> &[u32] {
        &self.cols
    }

    /// Entry values, one per entry.
    #[inline]
    pub fn values(&self) -> &[S] {
        &self.vals
    }

    /// Iterates `(row, col, value)` in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, S)> + '_ {
        (0..self.nnz()).map(move |i| (self.rows[i] as usize, self.cols[i] as usize, self.vals[i]))
    }

    /// Value at `(row, col)`, or zero if not stored. O(log nnz).
    pub fn get(&self, row: usize, col: usize) -> S {
        let key = (row as u32, col as u32);
        let mut lo = self.rows.partition_point(|&r| r < key.0);
        let hi = self.rows.partition_point(|&r| r <= key.0);
        lo += self.cols[lo..hi].partition_point(|&c| c < key.1);
        if lo < hi && self.cols[lo] == key.1 {
            self.vals[lo]
        } else {
            S::ZERO
        }
    }

    /// Transposed copy (entries re-sorted for the new orientation).
    pub fn transpose(&self) -> Self {
        let mut b = CooBuilder::new(self.ncols, self.nrows).expect("shape already validated");
        for (r, c, v) in self.iter() {
            b.push(c, r, v).expect("indices already validated");
        }
        b.build()
    }

    /// Sub-matrix covering `rows0..rows1` x `cols0..cols1` (half-open).
    ///
    /// Used by the dataset augmentation ("cropping" in the paper).
    pub fn crop(
        &self,
        rows0: usize,
        rows1: usize,
        cols0: usize,
        cols1: usize,
    ) -> Result<Self, SparseError> {
        if rows0 >= rows1 || cols0 >= cols1 || rows1 > self.nrows || cols1 > self.ncols {
            return Err(SparseError::InvalidStructure(format!(
                "invalid crop window [{rows0}, {rows1}) x [{cols0}, {cols1})"
            )));
        }
        let mut rows = Vec::new();
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for (r, c, v) in self.iter() {
            if r >= rows0 && r < rows1 && c >= cols0 && c < cols1 {
                rows.push((r - rows0) as u32);
                cols.push((c - cols0) as u32);
                vals.push(v);
            }
        }
        Ok(Self {
            nrows: rows1 - rows0,
            ncols: cols1 - cols0,
            rows,
            cols,
            vals,
        })
    }

    /// Dense `nrows x ncols` copy in row-major order. For tests and tiny
    /// matrices only; allocation is `nrows * ncols` elements.
    pub fn to_dense(&self) -> Vec<S> {
        let mut d = vec![S::ZERO; self.nrows * self.ncols];
        for (r, c, v) in self.iter() {
            d[r * self.ncols + c] = v;
        }
        d
    }

    /// Offsets `i` such that entries of row `r` live at
    /// `offsets[r]..offsets[r+1]` — a CSR-style row pointer read off the
    /// run boundaries of the sorted row array. O(nrows + nnz).
    pub fn row_offsets(&self) -> Vec<usize> {
        let mut ptr = vec![0usize; self.nrows + 1];
        // Rows are sorted, so the last nonzero of a run leaves the run's
        // end behind: plain stores, no counter to read back.
        for (i, &r) in self.rows.iter().enumerate() {
            ptr[r as usize + 1] = i + 1;
        }
        // An empty row ends where the row before it did.
        for r in 0..self.nrows {
            ptr[r + 1] = ptr[r + 1].max(ptr[r]);
        }
        ptr
    }

    /// Checks all structural invariants; used by tests and after
    /// deserialisation of untrusted data.
    pub fn validate(&self) -> Result<(), SparseError> {
        Self::check_shape(self.nrows, self.ncols)?;
        let cloned = Self::from_sorted_parts(
            self.nrows,
            self.ncols,
            self.rows.clone(),
            self.cols.clone(),
            self.vals.clone(),
        )?;
        debug_assert_eq!(&cloned, self);
        Ok(())
    }
}

impl<S: Scalar> Spmv<S> for CooMatrix<S> {
    fn nrows(&self) -> usize {
        self.nrows
    }

    fn ncols(&self) -> usize {
        self.ncols
    }

    fn spmv(&self, x: &[S], y: &mut [S]) {
        assert_eq!(x.len(), self.ncols, "x length must equal ncols");
        assert_eq!(y.len(), self.nrows, "y length must equal nrows");
        y.fill(S::ZERO);
        for i in 0..self.vals.len() {
            y[self.rows[i] as usize] += self.vals[i] * x[self.cols[i] as usize];
        }
    }
}

/// Incremental COO constructor accepting unsorted, duplicated input.
///
/// Duplicated coordinates are accumulated (summed), matching MatrixMarket
/// semantics for repeated entries.
#[derive(Debug, Clone)]
pub struct CooBuilder<S: Scalar> {
    nrows: usize,
    ncols: usize,
    triplets: Vec<(u32, u32, S)>,
}

impl<S: Scalar> CooBuilder<S> {
    /// Starts a builder for an `nrows x ncols` matrix.
    pub fn new(nrows: usize, ncols: usize) -> Result<Self, SparseError> {
        CooMatrix::<S>::check_shape(nrows, ncols)?;
        Ok(Self {
            nrows,
            ncols,
            triplets: Vec::new(),
        })
    }

    /// Reserves capacity for `n` more entries.
    pub fn reserve(&mut self, n: usize) {
        self.triplets.reserve(n);
    }

    /// Adds one entry; entries at the same coordinate are later summed.
    pub fn push(&mut self, row: usize, col: usize, val: S) -> Result<(), SparseError> {
        if row >= self.nrows || col >= self.ncols {
            return Err(SparseError::IndexOutOfBounds {
                row,
                col,
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        self.triplets.push((row as u32, col as u32, val));
        Ok(())
    }

    /// Number of raw (pre-deduplication) entries pushed so far.
    pub fn len(&self) -> usize {
        self.triplets.len()
    }

    /// True when no entries have been pushed.
    pub fn is_empty(&self) -> bool {
        self.triplets.is_empty()
    }

    /// Sorts, merges duplicates, drops explicit zeros, and finishes.
    pub fn build(mut self) -> CooMatrix<S> {
        self.triplets
            .sort_unstable_by_key(|&(r, c, _)| ((r as u64) << 32) | c as u64);
        let mut rows = Vec::with_capacity(self.triplets.len());
        let mut cols = Vec::with_capacity(self.triplets.len());
        let mut vals: Vec<S> = Vec::with_capacity(self.triplets.len());
        for (r, c, v) in self.triplets {
            if let (Some(&lr), Some(&lc)) = (rows.last(), cols.last()) {
                if lr == r && lc == c {
                    let last = vals.last_mut().expect("vals parallel to rows");
                    *last += v;
                    continue;
                }
            }
            rows.push(r);
            cols.push(c);
            vals.push(v);
        }
        // Drop entries that summed to exactly zero to keep nnz meaningful.
        let mut w = 0;
        for i in 0..vals.len() {
            if vals[i] != S::ZERO {
                rows[w] = rows[i];
                cols[w] = cols[i];
                vals[w] = vals[i];
                w += 1;
            }
        }
        rows.truncate(w);
        cols.truncate(w);
        vals.truncate(w);
        CooMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            rows,
            cols,
            vals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CooMatrix<f64> {
        // Matrix from Figure 1 of the paper.
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
    fn from_triplets_sorts_and_counts() {
        let m = CooMatrix::from_triplets(3, 3, &[(2, 2, 1.0), (0, 0, 2.0), (1, 1, 3.0)]).unwrap();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.row_indices(), &[0, 1, 2]);
    }

    #[test]
    fn duplicates_are_summed() {
        let m = CooMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.5)]).unwrap();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 0), 3.5);
    }

    #[test]
    fn entries_cancelling_to_zero_are_dropped() {
        let m = CooMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, -1.0), (1, 1, 2.0)]).unwrap();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(1, 1), 2.0);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let e = CooMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]).unwrap_err();
        assert!(matches!(e, SparseError::IndexOutOfBounds { .. }));
    }

    #[test]
    fn zero_dimension_rejected() {
        assert!(matches!(
            CooMatrix::<f64>::empty(0, 3),
            Err(SparseError::EmptyDimension { .. })
        ));
    }

    #[test]
    fn get_returns_zero_for_missing() {
        let m = sample();
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 3), 0.0);
        assert_eq!(m.get(3, 0), 0.0);
    }

    #[test]
    fn spmv_matches_figure_1() {
        let m = sample();
        let x = [1.0, 1.0, 1.0, 1.0];
        let mut y = [0.0; 4];
        m.spmv(&x, &mut y);
        assert_eq!(y, [6.0, 8.0, 18.0, 13.0]);
    }

    #[test]
    fn transpose_flips_coordinates() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.nrows(), 4);
        assert_eq!(t.get(1, 0), 5.0);
        assert_eq!(t.get(0, 2), 8.0);
        // Double transpose is identity.
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn crop_extracts_window() {
        let m = sample();
        let c = m.crop(1, 3, 1, 4).unwrap();
        assert_eq!((c.nrows(), c.ncols()), (2, 3));
        assert_eq!(c.get(0, 0), 2.0); // was (1,1)
        assert_eq!(c.get(1, 2), 7.0); // was (2,3)
    }

    #[test]
    fn crop_rejects_bad_window() {
        let m = sample();
        assert!(m.crop(2, 2, 0, 4).is_err());
        assert!(m.crop(0, 5, 0, 4).is_err());
    }

    #[test]
    fn row_offsets_match_rows() {
        let m = sample();
        assert_eq!(m.row_offsets(), vec![0, 2, 4, 7, 9]);
    }

    #[test]
    fn to_dense_round_trip() {
        let m = sample();
        let d = m.to_dense();
        assert_eq!(d[0], 1.0);
        assert_eq!(d[2 * 4 + 3], 7.0);
        assert_eq!(d.iter().filter(|&&v| v != 0.0).count(), m.nnz());
    }

    #[test]
    fn from_sorted_parts_rejects_unsorted() {
        let e = CooMatrix::from_sorted_parts(2, 2, vec![1, 0], vec![0, 0], vec![1.0, 2.0]);
        assert!(matches!(e, Err(SparseError::InvalidStructure(_))));
    }

    #[test]
    fn validate_accepts_built_matrix() {
        sample().validate().unwrap();
    }
}
