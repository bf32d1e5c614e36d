//! Structural matrix families mirroring the SuiteSparse population.
//!
//! Each generator produces a family on which a *different* storage
//! format plausibly wins, which is what gives the format-selection
//! problem its signal:
//!
//! * [`MatrixClass::Banded`] / [`MatrixClass::Stencil`] — few dense
//!   diagonals: DIA territory.
//! * [`MatrixClass::UniformRows`] — identical row lengths: ELL.
//! * [`MatrixClass::Block`] — dense 4x4 blocks: BSR (GPU).
//! * [`MatrixClass::PowerLaw`] — heavy-tailed rows: HYB / CSR5 (GPU),
//!   CSR (CPU).
//! * [`MatrixClass::Random`] — scattered: CSR.
//! * [`MatrixClass::Hypersparse`] — mostly-empty rows: COO (CSR pays
//!   the per-row pointer traversal for nothing).

use dnnspmv_sparse::{CooBuilder, CooMatrix};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

/// Structural family of a generated matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MatrixClass {
    /// A few (possibly broken) diagonals around the main diagonal.
    Banded,
    /// 5- or 9-point 2-D grid stencil (discretised PDE operator).
    Stencil,
    /// Every row has the same number of scattered nonzeros.
    UniformRows,
    /// Dense blocks on a sparse block pattern.
    Block,
    /// Power-law (scale-free graph) row-degree distribution.
    PowerLaw,
    /// Uniformly scattered entries.
    Random,
    /// Far fewer nonzeros than rows; most rows empty.
    Hypersparse,
}

impl MatrixClass {
    /// All families, in a stable order.
    pub const ALL: [MatrixClass; 7] = [
        MatrixClass::Banded,
        MatrixClass::Stencil,
        MatrixClass::UniformRows,
        MatrixClass::Block,
        MatrixClass::PowerLaw,
        MatrixClass::Random,
        MatrixClass::Hypersparse,
    ];
}

fn random_value(rng: &mut StdRng) -> f32 {
    // Nonzero magnitudes in [0.1, 2); format selection only cares about
    // structure, but kernels should see non-degenerate values.
    (rng.random::<f32>() * 1.9 + 0.1) * if rng.random::<bool>() { 1.0 } else { -1.0 }
}

/// Generates a matrix of class `class` with edge size around `dim`,
/// fully determined by `seed`.
pub fn generate(class: MatrixClass, dim: usize, seed: u64) -> CooMatrix<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    match class {
        MatrixClass::Banded => banded(dim, &mut rng),
        MatrixClass::Stencil => stencil(dim, &mut rng),
        MatrixClass::UniformRows => uniform_rows(dim, &mut rng),
        MatrixClass::Block => block(dim, &mut rng),
        MatrixClass::PowerLaw => power_law(dim, &mut rng),
        MatrixClass::Random => random(dim, &mut rng),
        MatrixClass::Hypersparse => hypersparse(dim, &mut rng),
    }
}

/// Banded matrix: 3–11 diagonals at small offsets, each mostly filled.
fn banded(n: usize, rng: &mut StdRng) -> CooMatrix<f32> {
    let n = n.max(8);
    let ndiags = rng.random_range(3..=11usize);
    // Offsets range from hugging the main diagonal to sitting far out
    // in the corners. Far diagonals are *shorter* (fewer slots and
    // fewer entries), which decouples the true DIA packing from the
    // scalar `dia_fill = nnz / (ndiags * nrows)` feature — only a
    // representation that sees distances can price those correctly.
    let spread = rng.random_range(1..=3u32);
    let max_off = (n as i64 * spread as i64 / 4).max(2);
    let mut offsets = vec![0i64];
    while offsets.len() < ndiags {
        let o = rng.random_range(-max_off..=max_off);
        if !offsets.contains(&o) {
            offsets.push(o);
        }
    }
    // Each diagonal gets its own fill level, so the matrix sits
    // somewhere on the DIA/CSR continuum and the representation must
    // actually see the fill structure to place it (binary down-sampling
    // cannot: every partially-filled stripe looks solid - Figure 4).
    let base_fill: f64 = rng.random_range(0.35..1.0);
    let mut b = CooBuilder::new(n, n).expect("n >= 8");
    for &off in &offsets {
        let fill = (base_fill + rng.random_range(-0.25..0.25)).clamp(0.1, 1.0);
        for i in 0..n {
            let j = i as i64 + off;
            if (0..n as i64).contains(&j) && rng.random::<f64>() < fill {
                b.push(i, j as usize, random_value(rng)).expect("in range");
            }
        }
    }
    b.build()
}

/// 5- or 9-point stencil on a `g x g` grid (`n ~ g^2`).
fn stencil(n: usize, rng: &mut StdRng) -> CooMatrix<f32> {
    let g = (n.max(16) as f64).sqrt() as usize;
    let n = g * g;
    let nine_point = rng.random::<bool>();
    let mut b = CooBuilder::new(n, n).expect("positive dims");
    for y in 0..g {
        for x in 0..g {
            let i = y * g + x;
            b.push(i, i, 4.0 + rng.random::<f32>()).expect("in range");
            let mut neigh: Vec<(i64, i64)> = vec![(-1, 0), (1, 0), (0, -1), (0, 1)];
            if nine_point {
                neigh.extend([(-1, -1), (-1, 1), (1, -1), (1, 1)]);
            }
            for (dy, dx) in neigh {
                let (ny, nx) = (y as i64 + dy, x as i64 + dx);
                if (0..g as i64).contains(&ny) && (0..g as i64).contains(&nx) {
                    let j = (ny as usize) * g + nx as usize;
                    b.push(i, j, -1.0 - rng.random::<f32>() * 0.1)
                        .expect("in range");
                }
            }
        }
    }
    b.build()
}

/// Every row gets exactly `k` nonzeros in a jittered regular pattern —
/// the quasi-structured meshes that actually favour ELL in real
/// collections: per-row counts are identical (zero padding) but the
/// column pattern wobbles a few positions per row, which shatters each
/// nominal diagonal into several sparse ones and prices DIA out.
fn uniform_rows(n: usize, rng: &mut StdRng) -> CooMatrix<f32> {
    let n = n.max(64);
    let jitter = rng.random_range(2..=6i64);
    // Nominal offsets are evenly spaced (mesh-like regularity) with a
    // random origin; spacing leaves room for the per-row jitter so the
    // jittered diagonals do not merge.
    let spacing = 2 * jitter + 2 + rng.random_range(0..=4);
    let span = (n as i64 - 2).min((n as i64) / 2 + 8 * spacing);
    let mut k = rng.random_range(4..=16usize).min(n / 2);
    k = k.min((span / spacing).max(1) as usize);
    let lo = -span / 2;
    let hi = span / 2 - (k as i64 - 1) * spacing;
    let start = if hi > lo {
        rng.random_range(lo..=hi)
    } else {
        lo
    };
    let offsets: Vec<i64> = (0..k as i64).map(|j| start + j * spacing).collect();
    let mut b = CooBuilder::new(n, n).expect("n >= 64");
    for i in 0..n {
        for &off in &offsets {
            let j = (i as i64 + off + rng.random_range(-jitter..=jitter)).rem_euclid(n as i64);
            b.push(i, j as usize, random_value(rng)).expect("in range");
        }
    }
    b.build()
}

/// Dense `4x4` blocks scattered over the block grid.
fn block(n: usize, rng: &mut StdRng) -> CooMatrix<f32> {
    let bs = 4;
    let nb = (n.max(32) / bs).max(2);
    let n = nb * bs;
    let block_fill: f64 = rng.random_range(0.7..1.0);
    let mut b = CooBuilder::new(n, n).expect("positive dims");
    for br in 0..nb {
        // Per-block-row count varies, so row lengths are non-uniform
        // (keeps the CPU label CSR-ish while the GPU label is BSR).
        let blocks_per_row = rng.random_range(1..=6usize).min(nb);
        let mut bcs = vec![br]; // keep the diagonal block
        while bcs.len() < blocks_per_row {
            let bc = rng.random_range(0..nb);
            if !bcs.contains(&bc) {
                bcs.push(bc);
            }
        }
        for bc in bcs {
            for i in 0..bs {
                for j in 0..bs {
                    if rng.random::<f64>() < block_fill {
                        b.push(br * bs + i, bc * bs + j, random_value(rng))
                            .expect("in range");
                    }
                }
            }
        }
    }
    b.build()
}

/// Scale-free graph rows: degree `d ~ d_min * u^(-1/(alpha-1))`.
fn power_law(n: usize, rng: &mut StdRng) -> CooMatrix<f32> {
    let n = n.max(16);
    let alpha: f64 = rng.random_range(1.8..2.8);
    let d_min: f64 = rng.random_range(1.0..4.0);
    let mut b = CooBuilder::new(n, n).expect("n >= 16");
    for i in 0..n {
        let u: f64 = rng.random::<f64>().max(1e-9);
        let deg = (d_min * u.powf(-1.0 / (alpha - 1.0))).round() as usize;
        let deg = deg.clamp(1, n / 2);
        for _ in 0..deg {
            b.push(i, rng.random_range(0..n), random_value(rng))
                .expect("in range");
        }
    }
    b.build()
}

/// Scattered entries; the mean row population (rather than the
/// density) is drawn log-uniformly, matching how real collections
/// distribute (SuiteSparse rows mostly carry 1–100 nonzeros regardless
/// of dimension). Half of the instances scatter single entries; the
/// other half scatter small dense patches — real matrices (FEM,
/// circuits) cluster their nonzeros, which is what makes 4x4-block BSR
/// viable on GPUs (Table 3's largest class).
fn random(n: usize, rng: &mut StdRng) -> CooMatrix<f32> {
    let n = n.max(8);
    let log_rowpop = rng.random_range(0.5f64.ln()..16.0f64.ln());
    let nnz = (n as f64 * log_rowpop.exp()).max(4.0) as usize;
    let clustered = rng.random::<bool>();
    let mut b = CooBuilder::new(n, n).expect("n >= 8");
    b.reserve(nnz);
    let mut placed = 0usize;
    while placed < nnz {
        let (ph, pw) = if clustered {
            (rng.random_range(1..=3usize), rng.random_range(2..=4usize))
        } else {
            (1, 1)
        };
        let r0 = rng.random_range(0..n);
        let c0 = rng.random_range(0..n);
        for dr in 0..ph {
            for dc in 0..pw {
                if r0 + dr < n && c0 + dc < n {
                    b.push(r0 + dr, c0 + dc, random_value(rng))
                        .expect("in range");
                    placed += 1;
                }
            }
        }
    }
    b.build()
}

/// Hypersparse: nnz is a small fraction of the row count, clustered so
/// most rows stay empty.
fn hypersparse(n: usize, rng: &mut StdRng) -> CooMatrix<f32> {
    let n = n.max(64);
    let nnz = (n / rng.random_range(8..32usize)).max(2);
    let normal = Normal::new(n as f64 / 2.0, n as f64 / 16.0).expect("valid std");
    let mut b = CooBuilder::new(n, n).expect("n >= 64");
    for _ in 0..nnz {
        let r = (normal.sample(rng).round() as i64).clamp(0, n as i64 - 1) as usize;
        b.push(r, rng.random_range(0..n), random_value(rng))
            .expect("in range");
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnspmv_sparse::MatrixStats;

    #[test]
    fn generation_is_deterministic() {
        for class in MatrixClass::ALL {
            let a = generate(class, 128, 42);
            let b = generate(class, 128, 42);
            assert_eq!(a, b, "{class:?}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(MatrixClass::Random, 128, 1);
        let b = generate(MatrixClass::Random, 128, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn banded_has_few_diagonals() {
        for seed in 0..10 {
            let m = generate(MatrixClass::Banded, 200, seed);
            let s = MatrixStats::compute(&m);
            assert!(s.ndiags <= 11, "seed {seed}: {} diagonals", s.ndiags);
            assert!(s.nnz > 0);
        }
    }

    #[test]
    fn stencil_is_banded_and_square_grid() {
        let m = generate(MatrixClass::Stencil, 256, 7);
        let s = MatrixStats::compute(&m);
        let g = (m.nrows() as f64).sqrt() as usize;
        assert_eq!(g * g, m.nrows());
        // 5-point: 5 distinct offsets; 9-point: at most 9 (interior).
        assert!(s.ndiags <= 9);
        assert_eq!(s.empty_rows, 0);
    }

    #[test]
    fn uniform_rows_have_zero_cv() {
        for seed in 0..5 {
            let m = generate(MatrixClass::UniformRows, 150, seed);
            let s = MatrixStats::compute(&m);
            assert_eq!(s.row_min, s.row_max, "seed {seed}");
            assert_eq!(s.row_cv, 0.0);
        }
    }

    #[test]
    fn block_matrices_have_high_bsr_fill() {
        for seed in 0..5 {
            let m = generate(MatrixClass::Block, 200, seed);
            let s = MatrixStats::compute(&m);
            assert!(s.bsr_fill > 0.5, "seed {seed}: fill {}", s.bsr_fill);
        }
    }

    #[test]
    fn power_law_rows_are_skewed() {
        let mut any_skewed = false;
        for seed in 0..10 {
            let m = generate(MatrixClass::PowerLaw, 512, seed);
            let s = MatrixStats::compute(&m);
            if s.row_cv > 1.0 {
                any_skewed = true;
            }
        }
        assert!(any_skewed, "no power-law sample had high row CV");
    }

    #[test]
    fn hypersparse_is_mostly_empty() {
        for seed in 0..5 {
            let m = generate(MatrixClass::Hypersparse, 512, seed);
            let s = MatrixStats::compute(&m);
            assert!(
                s.empty_rows * 2 > m.nrows(),
                "seed {seed}: only {} empty rows",
                s.empty_rows
            );
            assert!(s.nnz < m.nrows());
        }
    }

    #[test]
    fn all_classes_produce_valid_matrices() {
        for class in MatrixClass::ALL {
            for seed in [0, 99] {
                let m = generate(class, 100, seed);
                m.validate().unwrap();
                assert!(m.nnz() > 0, "{class:?} produced an empty matrix");
            }
        }
    }
}
