//! Platform models and label collection for format selection.
//!
//! The paper labels each matrix with the format whose SpMV runs fastest
//! on a concrete machine (Table 1: an Intel Xeon E5-4603, an AMD
//! A8-7600, and an NVIDIA GTX TITAN X). We cannot ship those machines,
//! so this crate provides two labellers:
//!
//! * [`PlatformModel`] — an *analytic cost model* in the tradition of
//!   the SpMV analyses the paper cites (Bell & Garland SC'09; Choi et
//!   al. PPoPP'10; Williams et al.): per-format estimates of streamed
//!   bytes, useful work, per-row overhead, cache behaviour of the `x`
//!   gather, GPU warp divergence and atomic costs. Deterministic and
//!   fast, it gives every experiment reproducible per-platform labels,
//!   and — crucially for Section 6 — *different* platforms produce
//!   different labels.
//! * [`measured`] — times the real Rust kernels from `dnnspmv-sparse`
//!   on the host machine, for cross-checking the model's *shape*
//!   against reality (used by the Criterion benches).
//!
//! Absolute times from the model are arbitrary units; only ratios and
//! argmins are meaningful, which is all the experiments use.

pub mod measured;
pub mod model;
pub mod profile;

pub use measured::{MeasuredLabeller, MeasuredTimings};
pub use model::PlatformModel;
pub use profile::WorkloadProfile;

use dnnspmv_sparse::{CooMatrix, Scalar, SparseFormat};

/// The format with the lowest estimated SpMV time on `platform`.
pub fn best_format<S: Scalar>(matrix: &CooMatrix<S>, platform: &PlatformModel) -> SparseFormat {
    let profile = WorkloadProfile::compute(matrix);
    platform.best_format(&profile)
}

/// Labels every matrix (class index into the platform's format set).
pub fn label_dataset<S: Scalar>(matrices: &[CooMatrix<S>], platform: &PlatformModel) -> Vec<usize> {
    label_dataset_noisy(matrices, platform, 0.0, 0)
}

/// Labels every matrix with multiplicative log-normal measurement
/// noise of relative magnitude `sigma` applied to each format's time
/// before taking the argmin.
///
/// Real label collection times noisy kernels (the paper runs 50 trials
/// and still notes variance); near-tie matrices therefore carry
/// irreducible label noise that caps *any* predictor's accuracy. The
/// noise is a deterministic hash of `(matrix index, format, seed)`, so
/// labelled datasets stay reproducible.
pub fn label_dataset_noisy<S: Scalar>(
    matrices: &[CooMatrix<S>],
    platform: &PlatformModel,
    sigma: f64,
    seed: u64,
) -> Vec<usize> {
    matrices
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let profile = WorkloadProfile::compute(m);
            let best = platform
                .formats()
                .iter()
                .enumerate()
                .map(|(fi, &f)| {
                    let noise = if sigma > 0.0 {
                        (sigma * hash_normal(i as u64, fi as u64, seed)).exp()
                    } else {
                        1.0
                    };
                    (fi, platform.estimate(&profile, f) * noise)
                })
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("estimates are not NaN"))
                .expect("format set is non-empty");
            best.0
        })
        .collect()
}

/// Deterministic ~N(0, 1) value from a hash (sum of 4 uniforms,
/// variance-corrected; plenty for measurement-noise modelling).
fn hash_normal(a: u64, b: u64, seed: u64) -> f64 {
    let mut x = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
        .wrapping_add(seed.wrapping_mul(0x1656_67B1_9E37_79F9));
    let mut sum = 0.0f64;
    for _ in 0..4 {
        // xorshift64* step.
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let u = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
        sum += u;
    }
    // Sum of 4 U(0,1): mean 2, variance 4/12 -> scale to unit variance.
    (sum - 2.0) / (4.0f64 / 12.0).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_normal_is_roughly_standard() {
        let n = 4000;
        let vals: Vec<f64> = (0..n).map(|i| hash_normal(i, i % 7, 42)).collect();
        let mean = vals.iter().sum::<f64>() / n as f64;
        let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 1.0).abs() < 0.15, "variance {var}");
    }

    #[test]
    fn zero_sigma_matches_deterministic_labels() {
        let mats: Vec<CooMatrix<f32>> = (0..6)
            .map(|k| {
                let t: Vec<_> = (0..128)
                    .map(|i| (i, (i * (2 * k + 1)) % 128, 1.0f32))
                    .collect();
                CooMatrix::from_triplets(128, 128, &t).unwrap()
            })
            .collect();
        let p = PlatformModel::intel_cpu();
        assert_eq!(
            label_dataset(&mats, &p),
            label_dataset_noisy(&mats, &p, 0.0, 99)
        );
    }

    #[test]
    fn noise_flips_only_near_ties() {
        // A decisively hypersparse matrix (COO wins by an order of
        // magnitude over CSR's per-row overhead) keeps its label under
        // noise; the label function is stable away from crossovers.
        let n = 4096;
        let t: Vec<_> = (0..40)
            .map(|k| ((k * 97) % n, (k * 31) % n, 1.0f32))
            .collect();
        let m = CooMatrix::from_triplets(n, n, &t).unwrap();
        let p = PlatformModel::intel_cpu();
        let clean = label_dataset(std::slice::from_ref(&m), &p)[0];
        for seed in 0..10 {
            let noisy = label_dataset_noisy(std::slice::from_ref(&m), &p, 0.06, seed)[0];
            assert_eq!(noisy, clean, "seed {seed} flipped a decisive label");
        }
    }

    #[test]
    fn label_dataset_is_consistent_with_best_format() {
        let mats: Vec<CooMatrix<f32>> = (0..4)
            .map(|k| {
                let t: Vec<_> = (0..64).map(|i| (i, (i * (k + 1)) % 64, 1.0f32)).collect();
                CooMatrix::from_triplets(64, 64, &t).unwrap()
            })
            .collect();
        let p = PlatformModel::intel_cpu();
        let labels = label_dataset(&mats, &p);
        for (m, &l) in mats.iter().zip(&labels) {
            assert_eq!(p.formats()[l], best_format(m, &p));
        }
    }
}
