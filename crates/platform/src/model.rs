//! Analytic SpMV cost model, per platform and per format.
//!
//! For each format the model estimates a time in nanoseconds as
//!
//! ```text
//! time = max(stream, compute) + extras + launch
//! ```
//!
//! * `stream` — all bytes the kernel must move (matrix arrays including
//!   padding, the `y` write, the `x` gather with a cache-miss surcharge
//!   when the access window exceeds the platform's effective cache),
//!   divided by memory bandwidth.
//! * `compute` — useful elements processed, divided by the platform's
//!   throughput scaled by how well the format's inner loop vectorises /
//!   coalesces.
//! * `extras` — per-row loop overhead (CSR-likes), atomic or merge
//!   costs (COO, HYB's tail), tile bookkeeping (CSR5), and on GPUs a
//!   warp-divergence multiplier driven by the row-length CV for
//!   row-parallel formats.
//!
//! Absolute numbers are arbitrary; argmins and ratios drive the
//! experiments. Effective cache sizes are scaled down to match the
//! synthetic dataset's working-set sizes (the real machines' caches
//! would trivially hold every test vector; the paper's matrices are up
//! to 10^6 rows).

use crate::profile::WorkloadProfile;
use dnnspmv_sparse::dia::DEFAULT_MAX_DIAGS;
use dnnspmv_sparse::ell::DEFAULT_MAX_WIDTH;
use dnnspmv_sparse::sell::DEFAULT_CHUNK;
use dnnspmv_sparse::SparseFormat;
use serde::{Deserialize, Serialize};

/// Value bytes (experiments run in single precision, like the paper).
const VAL_BYTES: f64 = 4.0;
/// Index bytes (u32 indices).
const IDX_BYTES: f64 = 4.0;
/// Row-pointer bytes.
const PTR_BYTES: f64 = 8.0;
/// Cache-line size charged per missing `x` gather.
const LINE_BYTES: f64 = 64.0;
/// CSR5 tile size used for bookkeeping costs.
const TILE_NNZ: f64 = 256.0;
/// Merge-path partitions per core (their O(P) search and carry fixup
/// are priced per partition).
const PARTITIONS_PER_THREAD: f64 = 4.0;

/// An execution platform: hardware parameters plus per-format
/// calibration, and the candidate format set its SpMV library offers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformModel {
    /// Display name (Table 1 row).
    pub name: String,
    /// GPU execution model (coalescing, divergence, expensive atomics).
    pub is_gpu: bool,
    /// Streaming memory bandwidth in GB/s (== bytes per ns).
    pub bw_gbps: f64,
    /// Effective cache for the `x` gather, in bytes (scaled to the
    /// synthetic dataset; see module docs).
    pub cache_bytes: f64,
    /// Worker count (cores or SMs*warps; divides per-row overheads).
    pub cores: f64,
    /// Scalar elements processed per ns at vector width 1.
    pub flops_per_ns: f64,
    /// Sequential per-row loop overhead in ns (CSR-likes).
    pub row_overhead_ns: f64,
    /// Per-update cost of atomic/merge operations in ns (not divided by
    /// cores: contention serialises them).
    pub atomic_ns: f64,
    /// Fraction of the `x` vector the memory system keeps warm around
    /// the streaming front (prefetchers + cache over the active band);
    /// gathers farther than `ncols * locality_frac` from the diagonal
    /// are charged a cache-line miss.
    pub locality_frac: f64,
    /// Load-imbalance coefficient: row-parallel kernels pay a
    /// `1 + divergence * row_cv` multiplier (warp divergence on GPUs,
    /// per-row-chunk scheduling skew on wide CPUs).
    pub divergence: f64,
    /// Fixed kernel-launch cost in ns.
    pub launch_ns: f64,
    /// Per-format multiplicative calibration, indexed by
    /// [`SparseFormat::ALL`] order (library-implementation quality
    /// differs per platform).
    pub bias: [f64; 9],
    /// Candidate formats this platform's library supports.
    formats: Vec<SparseFormat>,
}

impl PlatformModel {
    /// Intel Xeon E5-4603 row of Table 1 (24 cores, 2.4 GHz, 103 GB/s),
    /// running the SMATLib format set.
    pub fn intel_cpu() -> Self {
        Self {
            name: "Intel Xeon E5-4603".into(),
            is_gpu: false,
            bw_gbps: 103.0,
            cache_bytes: 256.0,
            cores: 24.0,
            flops_per_ns: 24.0 * 2.4,
            row_overhead_ns: 4.0,
            atomic_ns: 0.6,
            locality_frac: 0.12,
            divergence: 0.0,
            launch_ns: 0.0,
            bias: [1.0; 9],
            formats: SparseFormat::CPU_SET.to_vec(),
        }
    }

    /// AMD A8-7600 row of Table 1 (4 cores, 3.1 GHz, 25.6 GB/s). The
    /// narrower machine leans harder on regular SIMD-able formats and
    /// has less cache, which shifts a noticeable fraction of labels
    /// relative to the Intel box — the premise of Section 6.
    pub fn amd_cpu() -> Self {
        Self {
            name: "AMD A8-7600".into(),
            is_gpu: false,
            bw_gbps: 25.6,
            cache_bytes: 128.0,
            cores: 4.0,
            flops_per_ns: 4.0 * 3.1,
            row_overhead_ns: 5.0,
            atomic_ns: 0.9,
            locality_frac: 0.06,
            divergence: 0.0,
            launch_ns: 0.0,
            // The A8's SpMV kernels: DIA/ELL relatively better (SIMD
            // carries a 4-core machine), COO relatively worse.
            bias: [1.15, 1.0, 0.82, 0.88, 1.0, 1.0, 1.0, 1.0, 1.0],
            formats: SparseFormat::CPU_SET.to_vec(),
        }
    }

    /// NVIDIA GTX TITAN X row of Table 1, running the cuSPARSE + CSR5
    /// format set.
    pub fn nvidia_gpu() -> Self {
        Self {
            name: "NVIDIA GTX TITAN X".into(),
            is_gpu: true,
            bw_gbps: 168.0,
            cache_bytes: 128.0,
            cores: 3072.0,
            flops_per_ns: 3072.0 * 1.08 * 0.05,
            row_overhead_ns: 24.0,
            atomic_ns: 0.9,
            locality_frac: 0.03,
            divergence: 1.1,
            launch_ns: 20.0,
            bias: [1.0, 0.80, 1.0, 0.90, 1.0, 0.72, 1.10, 1.0, 1.0],
            formats: SparseFormat::GPU_SET.to_vec(),
        }
    }

    /// A wide many-core CPU in the mould of the machines evaluated by
    /// the follow-on SpMV study (arXiv:1805.11938: Intel KNL, Phytium
    /// FT-2000+): 64 narrow cores behind a big shared bandwidth pool.
    /// Its library carries the classic SMATLib set plus the two formats
    /// built for exactly this shape of machine — SELL-C-σ and
    /// merge-path CSR. A non-zero `divergence` models how badly
    /// row-parallel CSR schedules across 64 workers on skewed rows.
    pub fn manycore_cpu() -> Self {
        Self {
            name: "Phytium FT-2000+ (64 cores)".into(),
            is_gpu: false,
            bw_gbps: 140.0,
            cache_bytes: 512.0,
            cores: 64.0,
            flops_per_ns: 64.0 * 2.3,
            row_overhead_ns: 4.0,
            atomic_ns: 0.7,
            locality_frac: 0.10,
            divergence: 1.3,
            launch_ns: 0.0,
            bias: [1.0; 9],
            formats: SparseFormat::MANYCORE_SET.to_vec(),
        }
    }

    /// The candidate format set of this platform's SpMV library.
    pub fn formats(&self) -> &[SparseFormat] {
        &self.formats
    }

    /// Replaces the candidate set (for ablations).
    pub fn with_formats(mut self, formats: Vec<SparseFormat>) -> Self {
        assert!(!formats.is_empty(), "need at least one format");
        self.formats = formats;
        self
    }

    fn bias_of(&self, f: SparseFormat) -> f64 {
        self.bias[f
            .label_in(&SparseFormat::ALL)
            .expect("ALL contains every format")]
    }

    /// Effective vector lanes / coalescing factor of a format's inner
    /// loop on this platform.
    fn lanes(&self, f: SparseFormat) -> f64 {
        if self.is_gpu {
            match f {
                SparseFormat::Ell | SparseFormat::Bsr | SparseFormat::Sell => 8.0,
                SparseFormat::Hyb => 6.0,
                SparseFormat::Csr5 => 6.0,
                SparseFormat::Dia => 8.0,
                SparseFormat::Csr => 2.0,
                SparseFormat::MergeCsr => 4.0,
                SparseFormat::Coo => 1.0,
            }
        } else {
            match f {
                SparseFormat::Dia | SparseFormat::Ell | SparseFormat::Bsr | SparseFormat::Sell => {
                    4.0
                }
                SparseFormat::Csr
                | SparseFormat::Csr5
                | SparseFormat::Hyb
                | SparseFormat::MergeCsr => 2.0,
                SparseFormat::Coo => 1.0,
            }
        }
    }

    /// Extra streamed bytes charged for the indexed `x` gather: a cache
    /// line per access whose diagonal distance exceeds the window the
    /// effective cache keeps warm around the current row. Uses the
    /// profile's exact distance distribution — spatial information the
    /// scalar feature vector only sees as a mean and a maximum.
    fn gather_bytes(&self, p: &WorkloadProfile, accesses: f64) -> f64 {
        let window = (self.cache_bytes / VAL_BYTES).max(p.stats.ncols as f64 * self.locality_frac);
        let miss = 1.0 - p.dist_within(window);
        accesses * miss * LINE_BYTES
    }

    /// Estimated SpMV time in ns for `format`, or `f64::INFINITY` when
    /// the format cannot reasonably represent the matrix (the same
    /// limits the conversion routines enforce).
    pub fn estimate(&self, p: &WorkloadProfile, format: SparseFormat) -> f64 {
        let s = &p.stats;
        let nnz = s.nnz as f64;
        let m = s.nrows as f64;
        let y_bytes = m * VAL_BYTES;
        let per_core_rows = m * self.row_overhead_ns / self.cores;

        let (bytes, elements, extra) = match format {
            SparseFormat::Coo => {
                let b = nnz * (VAL_BYTES + 2.0 * IDX_BYTES) + y_bytes + self.gather_bytes(p, nnz);
                // Atomic / merge updates serialise under contention.
                (b, nnz, nnz * self.atomic_ns)
            }
            SparseFormat::Csr => {
                let b = nnz * (VAL_BYTES + IDX_BYTES)
                    + (m + 1.0) * PTR_BYTES
                    + y_bytes
                    + self.gather_bytes(p, nnz);
                (b, nnz, per_core_rows)
            }
            SparseFormat::Dia => {
                if s.ndiags > DEFAULT_MAX_DIAGS || s.ndiags == 0 {
                    return f64::INFINITY;
                }
                // Exact lane slots: lanes shorten away from the main
                // diagonal (a per-offset quantity the profile tracks).
                let slots = p.dia_lane_slots as f64;
                // Lane data plus a streamed read of x per lane; no
                // index loads, no gather misses.
                let b = 2.0 * slots * VAL_BYTES + y_bytes;
                (b, slots, 0.0)
            }
            SparseFormat::Ell => {
                if s.row_max > DEFAULT_MAX_WIDTH || s.row_max == 0 {
                    return f64::INFINITY;
                }
                let slots = m * s.row_max as f64;
                let b = slots * (VAL_BYTES + IDX_BYTES) + y_bytes + self.gather_bytes(p, slots);
                // Regular (compile-time) trip counts halve the row-loop
                // bookkeeping relative to CSR, but do not remove it.
                (b, slots, 0.5 * per_core_rows)
            }
            SparseFormat::Hyb => {
                let slots = m * p.hyb_width as f64;
                let tail = p.hyb_overflow as f64;
                let b = slots * (VAL_BYTES + IDX_BYTES)
                    + tail * (VAL_BYTES + 2.0 * IDX_BYTES)
                    + y_bytes
                    + self.gather_bytes(p, slots + tail);
                (b, slots + tail, tail * self.atomic_ns + 0.5 * per_core_rows)
            }
            SparseFormat::Bsr => {
                let payload = (s.nblocks * 16) as f64;
                let mb = (s.nrows as f64 / 4.0).ceil();
                let b = payload * VAL_BYTES
                    + s.nblocks as f64 * IDX_BYTES
                    + (mb + 1.0) * PTR_BYTES
                    + y_bytes
                    // One x cache line per block (the 4-wide x slice is
                    // contiguous).
                    + self.gather_bytes(p, s.nblocks as f64);
                (b, payload, mb * self.row_overhead_ns / self.cores)
            }
            SparseFormat::Csr5 => {
                let ntiles = (nnz / TILE_NNZ).ceil();
                let b = nnz * (VAL_BYTES + IDX_BYTES)
                    + (m + 1.0) * PTR_BYTES
                    + ntiles * 8.0
                    + y_bytes
                    + self.gather_bytes(p, nnz);
                // Tile bookkeeping replaces the per-row loop; perfectly
                // load balanced (no divergence below).
                (b, nnz, ntiles * 4.0 * self.row_overhead_ns / self.cores)
            }
            SparseFormat::Sell => {
                if s.row_max == 0 {
                    return f64::INFINITY;
                }
                // Sorted σ-windows pack like-sized rows into each C-row
                // chunk, so total padding collapses from ELL's
                // `m * (row_max - row_mean)` to about
                // `C * (row_max - row_min)` (one telescoping spread
                // across the sorted chunk sequence).
                let slots = nnz + DEFAULT_CHUNK as f64 * (s.row_max - s.row_min) as f64;
                let b = slots * (VAL_BYTES + IDX_BYTES)
                    // Permutation load plus the packed-result scatter
                    // back to original row order.
                    + m * IDX_BYTES
                    + 2.0 * y_bytes
                    + self.gather_bytes(p, slots);
                (b, slots, 0.5 * per_core_rows)
            }
            SparseFormat::MergeCsr => {
                let parts = PARTITIONS_PER_THREAD * self.cores;
                let b = nnz * (VAL_BYTES + IDX_BYTES)
                    + (m + 1.0) * PTR_BYTES
                    + parts * 16.0
                    + y_bytes
                    + self.gather_bytes(p, nnz);
                // Same row walk as CSR plus the partition searches and
                // carry fixup; immune to skew (no divergence below).
                (
                    b,
                    nnz,
                    per_core_rows + parts * self.row_overhead_ns / self.cores,
                )
            }
        };

        let stream = bytes / self.bw_gbps;
        let compute = elements / (self.flops_per_ns * self.lanes(format));
        let mut time = stream.max(compute) + extra;

        // Row-parallel kernels stall workers on long rows (warps on
        // GPUs, row-chunk schedules on wide CPUs). Moderate variance is
        // absorbed by row batching; the penalty kicks in past cv ~ 0.6
        // (heavy-tailed rows). SELL-C-σ's sorted chunks absorb about
        // half the imbalance; the merge-path kernel is immune by
        // construction.
        let imbalance = self.divergence * (s.row_cv - 0.6).max(0.0);
        match format {
            SparseFormat::Csr => time *= 1.0 + imbalance,
            SparseFormat::Sell => time *= 1.0 + 0.5 * imbalance,
            _ => {}
        }
        // Launch cost is outside the per-format calibration: it is the
        // same driver path for every kernel.
        time * self.bias_of(format) + self.launch_ns
    }

    /// Estimated one-time cost of *converting* a canonical COO matrix
    /// into `format`: read the triplets, write the target arrays
    /// (including padding), plus per-entry bookkeeping (block grouping
    /// and tile setup cost more). Section 7.6 notes conversion "could
    /// take a number of SpMV iterations' time" — this models it.
    pub fn conversion_estimate(&self, p: &WorkloadProfile, format: SparseFormat) -> f64 {
        let s = &p.stats;
        let nnz = s.nnz as f64;
        let m = s.nrows as f64;
        // The canonical matrix is already COO: conversion is free.
        if format == SparseFormat::Coo {
            return 0.0;
        }
        let read = nnz * (VAL_BYTES + 2.0 * IDX_BYTES);
        let (written, per_entry_ns) = match format {
            SparseFormat::Coo => (0.0, 0.0),
            SparseFormat::Csr => (nnz * (VAL_BYTES + IDX_BYTES) + (m + 1.0) * PTR_BYTES, 0.5),
            SparseFormat::Dia => {
                if s.ndiags > DEFAULT_MAX_DIAGS || s.ndiags == 0 {
                    return f64::INFINITY;
                }
                (2.0 * p.dia_lane_slots as f64 * VAL_BYTES, 1.0)
            }
            SparseFormat::Ell => {
                if s.row_max > DEFAULT_MAX_WIDTH || s.row_max == 0 {
                    return f64::INFINITY;
                }
                (m * s.row_max as f64 * (VAL_BYTES + IDX_BYTES), 0.5)
            }
            SparseFormat::Hyb => (
                m * p.hyb_width as f64 * (VAL_BYTES + IDX_BYTES)
                    + p.hyb_overflow as f64 * (VAL_BYTES + 2.0 * IDX_BYTES),
                1.0,
            ),
            // Block grouping sorts/dedups block keys.
            SparseFormat::Bsr => ((s.nblocks * 16) as f64 * VAL_BYTES, 2.0),
            // Tile descriptors need a scan plus per-tile setup.
            SparseFormat::Csr5 => (
                nnz * (VAL_BYTES + IDX_BYTES)
                    + (m + 1.0) * PTR_BYTES
                    + (nnz / TILE_NNZ).ceil() * 8.0,
                1.0,
            ),
            // σ-window sort plus the padded column-major fill.
            SparseFormat::Sell => {
                if s.row_max == 0 {
                    return f64::INFINITY;
                }
                let slots = nnz + DEFAULT_CHUNK as f64 * (s.row_max - s.row_min) as f64;
                (slots * (VAL_BYTES + IDX_BYTES) + m * IDX_BYTES, 1.0)
            }
            // Plain CSR arrays; partitioning happens at SpMV time.
            SparseFormat::MergeCsr => (nnz * (VAL_BYTES + IDX_BYTES) + (m + 1.0) * PTR_BYTES, 0.5),
        };
        (read + written) / self.bw_gbps + nnz * per_entry_ns / self.cores.min(8.0)
    }

    /// All candidate formats with their estimates, best first.
    pub fn ranking(&self, p: &WorkloadProfile) -> Vec<(SparseFormat, f64)> {
        let mut v: Vec<(SparseFormat, f64)> = self
            .formats
            .iter()
            .map(|&f| (f, self.estimate(p, f)))
            .collect();
        v.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("estimates are not NaN"));
        v
    }

    /// The fastest candidate format for this workload.
    pub fn best_format(&self, p: &WorkloadProfile) -> SparseFormat {
        self.ranking(p)[0].0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnspmv_sparse::CooMatrix;

    fn profile(m: &CooMatrix<f32>) -> WorkloadProfile {
        WorkloadProfile::compute(m)
    }

    fn banded(n: usize, diags: &[i64]) -> CooMatrix<f32> {
        let mut t = Vec::new();
        for i in 0..n {
            for &d in diags {
                let j = i as i64 + d;
                if (0..n as i64).contains(&j) {
                    t.push((i, j as usize, 1.0));
                }
            }
        }
        CooMatrix::from_triplets(n, n, &t).unwrap()
    }

    #[test]
    fn dense_diagonals_favour_dia_on_cpu() {
        let m = banded(512, &[-1, 0, 1, 2, 5]);
        let p = profile(&m);
        let intel = PlatformModel::intel_cpu();
        assert_eq!(intel.best_format(&p), SparseFormat::Dia);
    }

    #[test]
    fn sparse_diagonals_do_not_favour_dia() {
        // Entries scattered over many half-empty diagonals.
        let n = 512;
        let t: Vec<_> = (0..n).map(|i| (i, (i * 97 + 13) % n, 1.0f32)).collect();
        let m = CooMatrix::from_triplets(n, n, &t).unwrap();
        let p = profile(&m);
        let intel = PlatformModel::intel_cpu();
        assert_ne!(intel.best_format(&p), SparseFormat::Dia);
    }

    #[test]
    fn uniform_rows_favour_ell_on_cpu() {
        let n = 512;
        let mut t = Vec::new();
        for i in 0..n {
            for k in 0..8usize {
                t.push((i, (i * 7 + k * 61) % n, 1.0f32));
            }
        }
        let m = CooMatrix::from_triplets(n, n, &t).unwrap();
        let p = profile(&m);
        // Row lengths are exactly uniform -> ELL has zero padding and
        // beats CSR (no pointer traffic, wider SIMD).
        assert_eq!(p.stats.row_cv, 0.0);
        let intel = PlatformModel::intel_cpu();
        let best = intel.best_format(&p);
        assert!(
            best == SparseFormat::Ell || best == SparseFormat::Dia,
            "got {best}"
        );
    }

    #[test]
    fn hypersparse_favours_coo_on_cpu() {
        let n = 4096;
        let t: Vec<_> = (0..40)
            .map(|k| (k * 97 % n, (k * 31) % n, 1.0f32))
            .collect();
        let m = CooMatrix::from_triplets(n, n, &t).unwrap();
        let p = profile(&m);
        let intel = PlatformModel::intel_cpu();
        assert_eq!(intel.best_format(&p), SparseFormat::Coo);
    }

    #[test]
    fn skewed_rows_punish_ell() {
        let n = 256;
        let mut t: Vec<_> = (1..n).map(|i| (i, i, 1.0f32)).collect();
        t.extend((0..n).map(|j| (0usize, j, 1.0f32)));
        let m = CooMatrix::from_triplets(n, n, &t).unwrap();
        let p = profile(&m);
        let intel = PlatformModel::intel_cpu();
        let ell = intel.estimate(&p, SparseFormat::Ell);
        let csr = intel.estimate(&p, SparseFormat::Csr);
        assert!(ell > 3.0 * csr, "ELL {ell} vs CSR {csr}");
    }

    #[test]
    fn coo_never_wins_on_gpu() {
        // Matches Table 3: "format COO never wins on GPU".
        let gpu = PlatformModel::nvidia_gpu();
        let cases: Vec<CooMatrix<f32>> = vec![
            banded(256, &[0, 1, -1]),
            banded(1024, &[0, -7, 3, 9, 30]),
            CooMatrix::from_triplets(
                256,
                256,
                &(0..2000)
                    .map(|k| ((k * 37) % 256, (k * 101) % 256, 1.0f32))
                    .collect::<Vec<_>>(),
            )
            .unwrap(),
        ];
        for m in &cases {
            assert_ne!(gpu.best_format(&profile(m)), SparseFormat::Coo);
        }
    }

    #[test]
    fn block_structure_favours_bsr_on_gpu() {
        let n = 512;
        let mut t = Vec::new();
        for bi in 0..(n / 4) {
            for i in 0..4usize {
                for j in 0..4usize {
                    t.push((bi * 4 + i, bi * 4 + j, 1.0f32));
                }
            }
        }
        let m = CooMatrix::from_triplets(n, n, &t).unwrap();
        let gpu = PlatformModel::nvidia_gpu();
        assert_eq!(gpu.best_format(&profile(&m)), SparseFormat::Bsr);
    }

    #[test]
    fn heavy_skew_on_gpu_prefers_balanced_formats() {
        // Power-law-ish rows: CSR pays divergence, CSR5/HYB do not.
        let n = 2048;
        let mut t = Vec::new();
        for i in 0..n {
            let len = (n / (i + 1)).clamp(1, n / 2);
            for k in 0..len {
                t.push((i, (i * 13 + k * 29) % n, 1.0f32));
            }
        }
        let m = CooMatrix::from_triplets(n, n, &t).unwrap();
        let p = profile(&m);
        let gpu = PlatformModel::nvidia_gpu();
        let best = gpu.best_format(&p);
        assert!(
            !matches!(best, SparseFormat::Csr | SparseFormat::Coo),
            "row-parallel CSR won despite cv = {}",
            p.stats.row_cv
        );
        let csr = gpu.estimate(&p, SparseFormat::Csr);
        let csr5 = gpu.estimate(&p, SparseFormat::Csr5);
        assert!(csr > 1.5 * csr5);
    }

    #[test]
    fn manycore_power_law_prefers_merge_csr() {
        // Heavy-tailed rows: row-chunked CSR pays the imbalance
        // multiplier on 64 workers, the merge-path kernel does not.
        let n = 2048;
        let mut t = Vec::new();
        for i in 0..n {
            let len = (n / (i + 1)).clamp(1, n / 2);
            for k in 0..len {
                t.push((i, (i * 13 + k * 29) % n, 1.0f32));
            }
        }
        let m = CooMatrix::from_triplets(n, n, &t).unwrap();
        let p = profile(&m);
        assert!(p.stats.row_cv > 0.6, "cv {}", p.stats.row_cv);
        let many = PlatformModel::manycore_cpu();
        assert_eq!(many.best_format(&p), SparseFormat::MergeCsr);
        let csr = many.estimate(&p, SparseFormat::Csr);
        let mcsr = many.estimate(&p, SparseFormat::MergeCsr);
        assert!(csr > 1.3 * mcsr, "CSR {csr} vs merge {mcsr}");
    }

    #[test]
    fn manycore_jittered_rows_prefer_sell() {
        // Row lengths jitter between 1 and 8 (cv < 0.6): ELL pads every
        // row to 8, SELL's sorted chunks stay near-full, and CSR keeps
        // its full per-row loop overhead.
        let n = 4096;
        let mut t = Vec::new();
        for i in 0..n {
            for k in 0..1 + i % 8 {
                t.push((i, (i * 7 + k * 61) % n, 1.0f32));
            }
        }
        let m = CooMatrix::from_triplets(n, n, &t).unwrap();
        let p = profile(&m);
        assert!(p.stats.row_cv < 0.6, "cv {}", p.stats.row_cv);
        let many = PlatformModel::manycore_cpu();
        assert_eq!(many.best_format(&p), SparseFormat::Sell);
        let ell = many.estimate(&p, SparseFormat::Ell);
        let sell = many.estimate(&p, SparseFormat::Sell);
        assert!(ell > 1.2 * sell, "ELL {ell} vs SELL {sell}");
    }

    #[test]
    fn manycore_ranking_covers_widened_set() {
        let m = banded(256, &[0, 1, -3]);
        let p = profile(&m);
        let many = PlatformModel::manycore_cpu();
        assert!(!many.is_gpu);
        assert_eq!(many.formats(), &SparseFormat::MANYCORE_SET);
        let r = many.ranking(&p);
        assert_eq!(r.len(), SparseFormat::MANYCORE_SET.len());
        // Near-uniform rows keep ELL ahead of SELL (almost no padding
        // to save, and SELL pays for its permutation) — the new format
        // must not cannibalise classic labels where those are best.
        let ell = many.estimate(&p, SparseFormat::Ell);
        let sell = many.estimate(&p, SparseFormat::Sell);
        assert!(ell <= sell, "ELL {ell} vs SELL {sell}");
    }

    #[test]
    fn new_format_conversions_are_costed() {
        let m = banded(512, &[0, 2, -5, 9]);
        let p = profile(&m);
        let many = PlatformModel::manycore_cpu();
        for f in [SparseFormat::Sell, SparseFormat::MergeCsr] {
            let c = many.conversion_estimate(&p, f);
            assert!(c > 0.0 && c.is_finite(), "{f}: {c}");
        }
        // Merge-CSR is plain CSR storage: converting must not cost more
        // than SELL's sort-and-pad pipeline.
        assert!(
            many.conversion_estimate(&p, SparseFormat::MergeCsr)
                <= many.conversion_estimate(&p, SparseFormat::Sell)
        );
    }

    #[test]
    fn infeasible_formats_get_infinity() {
        let n = 10_000;
        let t: Vec<_> = (0..n).map(|i| (i, n - 1 - i, 1.0f32)).collect();
        let m = CooMatrix::from_triplets(n, n, &t).unwrap();
        let p = profile(&m);
        let intel = PlatformModel::intel_cpu();
        assert!(intel.estimate(&p, SparseFormat::Dia).is_infinite());
        assert!(intel.estimate(&p, SparseFormat::Csr).is_finite());
    }

    #[test]
    fn platforms_disagree_on_some_matrices() {
        // The premise of Section 6: the same matrix can have different
        // best formats on different machines.
        let intel = PlatformModel::intel_cpu();
        let amd = PlatformModel::amd_cpu();
        let mut disagreements = 0;
        let mut total = 0;
        // Sparse matrices with nnz/nrows between the two machines'
        // COO/CSR crossover points: the 24-core Intel box amortises
        // CSR's per-row pointer walk, the 4-core AMD box does not.
        for k in 1..=12usize {
            let n = 4096;
            let nnz = n * k / 12;
            let t: Vec<_> = (0..nnz)
                .map(|e| ((e * 37) % n, (e * 101 + 7) % n, 1.0f32))
                .collect();
            let m = CooMatrix::from_triplets(n, n, &t).unwrap();
            let p = profile(&m);
            total += 1;
            if intel.best_format(&p) != amd.best_format(&p) {
                disagreements += 1;
            }
        }
        assert!(
            disagreements > 0,
            "Intel and AMD agreed on all {total} matrices"
        );
    }

    #[test]
    fn ranking_is_sorted_and_complete() {
        let m = banded(128, &[0, 1]);
        let p = profile(&m);
        let gpu = PlatformModel::nvidia_gpu();
        let r = gpu.ranking(&p);
        assert_eq!(r.len(), SparseFormat::GPU_SET.len());
        for w in r.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn estimates_are_positive_and_finite_for_csr() {
        for n in [16usize, 256, 4096] {
            let t: Vec<_> = (0..n).map(|i| (i, i, 1.0f32)).collect();
            let m = CooMatrix::from_triplets(n, n, &t).unwrap();
            let p = profile(&m);
            for plat in [
                PlatformModel::intel_cpu(),
                PlatformModel::amd_cpu(),
                PlatformModel::nvidia_gpu(),
            ] {
                let e = plat.estimate(&p, SparseFormat::Csr);
                assert!(e.is_finite() && e > 0.0, "{}: {e}", plat.name);
            }
        }
    }
}

#[cfg(test)]
mod amortized_tests {
    use super::*;
    use crate::profile::WorkloadProfile;
    use dnnspmv_sparse::CooMatrix;

    fn banded(n: usize) -> WorkloadProfile {
        let mut t = Vec::new();
        for i in 0..n {
            for d in [-1i64, 0, 1, 4] {
                let j = i as i64 + d;
                if (0..n as i64).contains(&j) {
                    t.push((i, j as usize, 1.0f32));
                }
            }
        }
        WorkloadProfile::compute(&CooMatrix::from_triplets(n, n, &t).unwrap())
    }

    #[test]
    fn conversion_costs_are_positive_and_coo_is_free() {
        let p = banded(256);
        let plat = PlatformModel::intel_cpu();
        assert_eq!(plat.conversion_estimate(&p, SparseFormat::Coo), 0.0);
        for f in [SparseFormat::Csr, SparseFormat::Dia, SparseFormat::Ell] {
            let c = plat.conversion_estimate(&p, f);
            assert!(c > 0.0 && c.is_finite(), "{f}: {c}");
        }
    }

    #[test]
    fn conversion_exceeds_one_spmv_iteration() {
        // Section 7.6: conversion takes "a number of SpMV iterations".
        let p = banded(512);
        let plat = PlatformModel::intel_cpu();
        for f in [SparseFormat::Csr, SparseFormat::Dia] {
            assert!(
                plat.conversion_estimate(&p, f) > plat.estimate(&p, f) * 0.5,
                "{f} conversion implausibly cheap"
            );
        }
    }

    #[test]
    fn infeasible_conversion_is_infinite() {
        let n = 10_000;
        let t: Vec<_> = (0..n).map(|i| (i, n - 1 - i, 1.0f32)).collect();
        let p = WorkloadProfile::compute(&CooMatrix::from_triplets(n, n, &t).unwrap());
        let plat = PlatformModel::intel_cpu();
        assert!(plat
            .conversion_estimate(&p, SparseFormat::Dia)
            .is_infinite());
    }
}
