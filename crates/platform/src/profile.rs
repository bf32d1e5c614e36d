//! Workload profile: everything the cost model needs about one matrix.

use dnnspmv_sparse::{CooMatrix, MatrixStats, Scalar};
use serde::{Deserialize, Serialize};

/// [`MatrixStats`] plus the format-specific derived quantities the cost
/// model uses: HYB's storage-optimal split (needs the row-length
/// histogram, not just its moments), DIA's exact lane slots (needs the
/// per-diagonal offsets), and the distribution of diagonal distances
/// (drives `x`-gather locality).
///
/// The last two are *spatial* quantities that the SMAT-style scalar
/// features summarise only as means/maxima — which is exactly the
/// information gap between the decision-tree baseline and the CNN's
/// distance-histogram representation that the paper exploits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadProfile {
    /// Structural statistics.
    pub stats: MatrixStats,
    /// Storage-optimal ELL width for the HYB split (same objective as
    /// `HybMatrix::from_coo`).
    pub hyb_width: usize,
    /// Nonzeros spilling to HYB's COO tail at that width.
    pub hyb_overflow: usize,
    /// Exact DIA lane storage: `sum over occupied diagonals d of
    /// (min(nrows, ncols - off_d) - max(0, -off_d))` — the slots a real
    /// DIA kernel iterates (lanes get shorter away from the main
    /// diagonal).
    pub dia_lane_slots: u64,
    /// `dist_cdf[i]` = fraction of nonzeros with `|col - row| < 2^i`
    /// (i in 0..32). Describes the diagonal-distance distribution the
    /// histogram representation exposes to the CNN.
    pub dist_cdf: Vec<f32>,
}

impl WorkloadProfile {
    /// Fraction of nonzeros whose diagonal distance is below
    /// `threshold` (log-interpolated between the stored powers of two).
    pub fn dist_within(&self, threshold: f64) -> f64 {
        if threshold <= 1.0 {
            return self.dist_cdf[0] as f64;
        }
        let lg = threshold.log2();
        let lo = (lg.floor() as usize).min(31);
        let hi = (lo + 1).min(31);
        let frac = lg - lg.floor();
        (self.dist_cdf[lo] as f64) * (1.0 - frac) + (self.dist_cdf[hi] as f64) * frac
    }

    /// Computes the profile. O(nrows + ncols + nnz).
    pub fn compute<S: Scalar>(matrix: &CooMatrix<S>) -> Self {
        let stats = MatrixStats::compute(matrix);
        // Per-diagonal occupancy -> exact lane slots; distance CDF.
        let (m, n) = (matrix.nrows() as i64, matrix.ncols() as i64);
        let mut diag_seen = vec![false; (m + n - 1) as usize];
        let mut dist_counts = [0u64; 32];
        for (r, c, _) in matrix.iter() {
            let off = c as i64 - r as i64;
            diag_seen[(off + m - 1) as usize] = true;
            let dist = off.unsigned_abs();
            // bucket = bit length of dist, so that `dist < 2^i` is
            // exactly `bucket <= i` (bucket 0 holds the main diagonal).
            let bucket = if dist == 0 {
                0
            } else {
                (64 - dist.leading_zeros() as usize).min(31)
            };
            dist_counts[bucket] += 1;
        }
        let mut dia_lane_slots = 0u64;
        for (idx, seen) in diag_seen.iter().enumerate() {
            if *seen {
                let off = idx as i64 - (m - 1);
                let start = (-off).max(0);
                let end = m.min(n - off);
                dia_lane_slots += (end - start).max(0) as u64;
            }
        }
        let mut dist_cdf = vec![0f32; 32];
        let total = matrix.nnz().max(1) as f64;
        let mut acc = 0u64;
        for i in 0..32 {
            acc += dist_counts[i];
            dist_cdf[i] = (acc as f64 / total) as f32;
        }
        let ptr = matrix.row_offsets();
        let max_len = stats.row_max;
        // rows with length >= L, for L in 0..=max_len+1.
        let mut hist = vec![0usize; max_len + 2];
        for r in 0..matrix.nrows() {
            hist[ptr[r + 1] - ptr[r]] += 1;
        }
        let mut at_least = vec![0usize; max_len + 2];
        for len in (0..=max_len).rev() {
            at_least[len] = at_least[len + 1] + hist[len];
        }
        // Cost constants mirror HybMatrix::from_coo for f32 payloads.
        let ell_cost = 8.0; // 4-byte col + 4-byte value
        let coo_cost = 12.0; // two 4-byte indices + value
        let mut best_k = 0usize;
        let mut best = f64::INFINITY;
        let mut covered = 0usize;
        for (k, &al) in at_least.iter().enumerate().take(max_len + 1) {
            if k > 0 {
                covered += al;
            }
            let overflow = stats.nnz - covered;
            let cost = (stats.nrows * k) as f64 * ell_cost + overflow as f64 * coo_cost;
            if cost < best {
                best = cost;
                best_k = k;
            }
        }
        let covered_at_best: usize = (1..=best_k).map(|l| at_least[l]).sum();
        let hyb_overflow = stats.nnz - covered_at_best;
        Self {
            stats,
            hyb_width: best_k,
            hyb_overflow,
            dia_lane_slots,
            dist_cdf,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnspmv_sparse::HybMatrix;

    #[test]
    fn hyb_split_matches_the_real_format() {
        // The profile's analytic split must agree with what HybMatrix
        // actually builds.
        let mut t: Vec<_> = (1..16)
            .flat_map(|i| [(i, i, 1.0f32), (i, (i + 3) % 16, 1.0)])
            .collect();
        t.extend((0..16).map(|j| (0usize, j, 0.5)));
        let coo = CooMatrix::from_triplets(16, 16, &t).unwrap();
        let p = WorkloadProfile::compute(&coo);
        let hyb = HybMatrix::from_coo(&coo);
        assert_eq!(p.hyb_width, hyb.ell_width());
        assert_eq!(p.hyb_overflow, hyb.coo_nnz());
    }

    #[test]
    fn uniform_rows_have_no_overflow() {
        let t: Vec<_> = (0..32)
            .flat_map(|i| [(i, i, 1.0f32), (i, (i + 7) % 32, 2.0)])
            .collect();
        let coo = CooMatrix::from_triplets(32, 32, &t).unwrap();
        let p = WorkloadProfile::compute(&coo);
        assert_eq!(p.hyb_width, 2);
        assert_eq!(p.hyb_overflow, 0);
    }

    #[test]
    fn empty_matrix_profile_is_degenerate_but_finite() {
        let coo = CooMatrix::<f32>::empty(8, 8).unwrap();
        let p = WorkloadProfile::compute(&coo);
        assert_eq!(p.hyb_width, 0);
        assert_eq!(p.hyb_overflow, 0);
        assert_eq!(p.dia_lane_slots, 0);
        assert!(p.dist_within(100.0) == 0.0);
    }

    #[test]
    fn tridiagonal_lane_slots_are_exact() {
        let n = 64usize;
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.0f32));
            if i > 0 {
                t.push((i, i - 1, -1.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
            }
        }
        let coo = CooMatrix::from_triplets(n, n, &t).unwrap();
        let p = WorkloadProfile::compute(&coo);
        // Main lane has n slots, the two off-lanes n - 1 each.
        assert_eq!(p.dia_lane_slots, (n + 2 * (n - 1)) as u64);
        // All distances are <= 1.
        assert!((p.dist_within(2.0) - 1.0).abs() < 1e-6);
        // The main diagonal holds n of the 3n-2 entries.
        let main_frac = n as f64 / (3 * n - 2) as f64;
        assert!((p.dist_within(1.0) - main_frac).abs() < 1e-6);
    }

    #[test]
    fn anti_diagonal_distances_are_far() {
        let n = 256usize;
        let t: Vec<_> = (0..n).map(|i| (i, n - 1 - i, 1.0f32)).collect();
        let coo = CooMatrix::from_triplets(n, n, &t).unwrap();
        let p = WorkloadProfile::compute(&coo);
        // Distances |2i - (n-1)| are mostly large: few entries within 16.
        assert!(p.dist_within(16.0) < 0.1);
        assert!((p.dist_within(4096.0) - 1.0).abs() < 1e-6);
        // Anti-diagonal lanes are short: exactly n^2/2 total slots,
        // half of what the naive ndiags * n rectangle would charge.
        assert_eq!(p.dia_lane_slots, (n * n / 2) as u64);
        assert!(p.dia_lane_slots < (p.stats.ndiags * n) as u64);
    }

    #[test]
    fn dist_cdf_is_monotone() {
        let t: Vec<_> = (0..100)
            .map(|k| ((k * 13) % 100, (k * 57) % 100, 1.0f32))
            .collect();
        let coo = CooMatrix::from_triplets(100, 100, &t).unwrap();
        let p = WorkloadProfile::compute(&coo);
        for w in p.dist_cdf.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!((p.dist_cdf[31] - 1.0).abs() < 1e-6);
    }
}
