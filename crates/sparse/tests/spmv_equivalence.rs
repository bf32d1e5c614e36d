//! SpMV equivalence properties for SELL-C-σ across several (C, σ)
//! parameter pairs, checked against the scalar CSR reference on random
//! matrices *and* the adversarial shapes the kernel was designed around
//! (power-law skew, empty rows, one mega-row).

use dnnspmv_sparse::{CooMatrix, CsrMatrix, Scalar, SellMatrix, Spmv};
use proptest::prelude::*;

/// (C, σ) pairs covering the interesting regimes: unsorted fast path
/// (σ=1), window smaller / equal / larger than typical dims, and
/// chunk heights that do and don't divide the row count.
const SELL_PARAMS: [(usize, usize); 5] = [(8, 1), (8, 32), (4, 4096), (16, 64), (3, 7)];

/// Strategy: a random sparse matrix with bounded dimensions and nnz.
fn arb_matrix() -> impl Strategy<Value = CooMatrix<f64>> {
    (2usize..48, 2usize..48).prop_flat_map(|(m, n)| {
        let entry = (0..m, 0..n, -4.0f64..4.0);
        proptest::collection::vec(entry, 0..160).prop_map(move |mut t| {
            for e in &mut t {
                if e.2 == 0.0 {
                    e.2 = 1.0;
                }
            }
            CooMatrix::from_triplets(m, n, &t).expect("indices in range")
        })
    })
}

/// Strategy: adversarial row-length profiles — power-law skew, empty
/// rows, and a single row holding nearly everything.
fn arb_adversarial() -> impl Strategy<Value = CooMatrix<f64>> {
    (8usize..64, 0usize..3, 0u64..10_000).prop_map(|(n, shape, seed)| {
        let mut t = Vec::new();
        for r in 0..n {
            let deg = match shape {
                // Harmonic power law.
                0 => (n / (r + 1)).clamp(1, n / 2),
                // Mostly empty rows with a few stragglers.
                1 => usize::from(r % 5 == 0),
                // One mega-row, everything else near-empty.
                _ => {
                    if r == 3 % n {
                        n
                    } else {
                        usize::from(r % 2 == 0)
                    }
                }
            };
            for k in 0..deg {
                let c = (r * 31 + k * 7 + seed as usize) % n;
                t.push((r, c, 1.0 + ((r + k) % 9) as f64 * 0.5));
            }
        }
        CooMatrix::from_triplets(n, n, &t).expect("indices in range")
    })
}

/// The scalar CSR product SELL must reproduce.
fn reference(coo: &CooMatrix<f64>, x: &[f64]) -> Vec<f64> {
    CsrMatrix::from_coo(coo).spmv_alloc(x)
}

fn dense_x(coo: &CooMatrix<f64>) -> Vec<f64> {
    (0..coo.ncols())
        .map(|i| ((i * 13 + 5) % 17) as f64 * 0.375 - 3.0)
        .collect()
}

fn assert_close(got: &[f64], want: &[f64], what: &str) -> Result<(), TestCaseError> {
    for (a, b) in got.iter().zip(want) {
        prop_assert!(a.approx_eq(*b, 1e-5), "{what}: {a} vs {b}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sell_matches_csr_on_random_matrices(coo in arb_matrix()) {
        let x = dense_x(&coo);
        let want = reference(&coo, &x);
        for (c, sigma) in SELL_PARAMS {
            let sell = SellMatrix::from_coo_with_params(&coo, c, sigma);
            assert_close(&sell.spmv_alloc(&x), &want, &format!("SELL C={c} sigma={sigma}"))?;
            // A dirty `y` must be fully overwritten, on the permuted
            // and the σ=1 paths alike: callers reuse output buffers.
            let mut y = vec![7.0; coo.nrows()];
            sell.spmv(&x, &mut y);
            assert_close(&y, &want, &format!("SELL C={c} sigma={sigma} dirty y"))?;
        }
    }

    #[test]
    fn sell_matches_csr_on_adversarial_matrices(coo in arb_adversarial()) {
        let x = dense_x(&coo);
        let want = reference(&coo, &x);
        for (c, sigma) in SELL_PARAMS {
            let sell = SellMatrix::from_coo_with_params(&coo, c, sigma);
            assert_close(&sell.spmv_alloc(&x), &want, &format!("SELL C={c} sigma={sigma}"))?;
        }
    }

    #[test]
    fn sell_round_trips_exactly(coo in arb_adversarial()) {
        // Equivalence is only meaningful if the conversion is lossless:
        // the permutation + padding must reconstruct the matrix bit-for-bit.
        for (c, sigma) in SELL_PARAMS {
            let sell = SellMatrix::from_coo_with_params(&coo, c, sigma);
            prop_assert_eq!(sell.to_coo().unwrap(), coo.clone(), "C={} sigma={}", c, sigma);
        }
    }
}
