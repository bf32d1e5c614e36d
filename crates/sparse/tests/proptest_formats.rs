//! Property tests over random sparse matrices: every format round-trips
//! through COO exactly and every kernel computes the same product. A
//! deterministic table of hostile shapes checks all nine formats, in f32
//! and f64, against a dense oracle.

use dnnspmv_sparse::{AnyMatrix, CooMatrix, CsrMatrix, MatrixStats, Scalar, SparseFormat, Spmv};
use proptest::prelude::*;

/// Strategy: a random sparse matrix with bounded dimensions and nnz.
fn arb_matrix() -> impl Strategy<Value = CooMatrix<f64>> {
    (1usize..40, 1usize..40).prop_flat_map(|(m, n)| {
        let entry = (0..m, 0..n, -4.0f64..4.0);
        proptest::collection::vec(entry, 0..120).prop_map(move |mut t| {
            // Avoid exact cancellation making nnz counting ambiguous.
            for e in &mut t {
                if e.2 == 0.0 {
                    e.2 = 1.0;
                }
            }
            CooMatrix::from_triplets(m, n, &t).expect("indices in range")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_format_round_trips(coo in arb_matrix()) {
        for f in SparseFormat::ALL {
            match AnyMatrix::convert(&coo, f) {
                Ok(any) => prop_assert_eq!(any.to_coo().unwrap(), coo.clone(), "format {}", f),
                // Small matrices never exceed padding limits.
                Err(e) => prop_assert!(false, "conversion to {} failed: {e}", f),
            }
        }
    }

    #[test]
    fn spmv_agrees_across_all_formats(coo in arb_matrix()) {
        let x: Vec<f64> = (0..coo.ncols()).map(|i| ((i * 7 + 3) % 11) as f64 - 5.0).collect();
        let reference = coo.spmv_alloc(&x);
        for f in SparseFormat::ALL {
            let any = AnyMatrix::convert(&coo, f).expect("small matrices always convert");
            let y = any.spmv_alloc(&x);
            for (a, b) in y.iter().zip(&reference) {
                prop_assert!(a.approx_eq(*b, 1e-10), "format {}: {a} vs {b}", f);
            }
        }
    }

    #[test]
    fn spmv_matches_dense_reference(coo in arb_matrix(), seed in 0u64..1000) {
        let n = coo.ncols();
        let x: Vec<f64> = (0..n).map(|i| (((i as u64 + seed) * 37 % 13) as f64) - 6.0).collect();
        let dense = coo.to_dense();
        let mut want = vec![0.0; coo.nrows()];
        for r in 0..coo.nrows() {
            for c in 0..n {
                want[r] += dense[r * n + c] * x[c];
            }
        }
        let got = coo.spmv_alloc(&x);
        for (a, b) in got.iter().zip(&want) {
            prop_assert!(a.approx_eq(*b, 1e-10));
        }
    }

    #[test]
    fn transpose_involution_and_spmv_duality(coo in arb_matrix()) {
        let t = coo.transpose();
        prop_assert_eq!(t.transpose(), coo.clone());
        // y^T (A x) == (A^T y)^T x
        let x: Vec<f64> = (0..coo.ncols()).map(|i| (i % 5) as f64 - 2.0).collect();
        let y: Vec<f64> = (0..coo.nrows()).map(|i| (i % 3) as f64 - 1.0).collect();
        let ax = coo.spmv_alloc(&x);
        let aty = t.spmv_alloc(&y);
        let lhs: f64 = y.iter().zip(&ax).map(|(a, b)| a * b).sum();
        let rhs: f64 = x.iter().zip(&aty).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-8 * (1.0 + lhs.abs()));
    }

    #[test]
    fn stats_are_consistent(coo in arb_matrix()) {
        let s = MatrixStats::compute(&coo);
        prop_assert_eq!(s.nnz, coo.nnz());
        prop_assert!(s.row_min <= s.row_max);
        prop_assert!(s.row_mean <= s.row_max as f64 + 1e-12);
        prop_assert!(s.density >= 0.0 && s.density <= 1.0);
        prop_assert!(s.dia_fill <= 1.0 + 1e-12);
        prop_assert!(s.ell_fill <= 1.0 + 1e-12);
        prop_assert!(s.bsr_fill <= 1.0 + 1e-12);
        if coo.nnz() > 0 {
            prop_assert!(s.ndiags >= 1);
            prop_assert!(s.bandwidth < coo.nrows().max(coo.ncols()));
        }
    }

    #[test]
    fn csr_row_slices_cover_all_entries(coo in arb_matrix()) {
        let csr = CsrMatrix::from_coo(&coo);
        let mut total = 0;
        for r in 0..coo.nrows() {
            let (cols, vals) = csr.row(r);
            prop_assert_eq!(cols.len(), vals.len());
            total += cols.len();
            for w in cols.windows(2) {
                prop_assert!(w[0] < w[1], "row {r} columns not strictly sorted");
            }
        }
        prop_assert_eq!(total, coo.nnz());
    }

    #[test]
    fn matrix_market_round_trip(coo in arb_matrix()) {
        let mut buf = Vec::new();
        dnnspmv_sparse::io::write_matrix_market(&coo, &mut buf).expect("write");
        let back: CooMatrix<f64> =
            dnnspmv_sparse::io::read_matrix_market(buf.as_slice()).expect("read");
        prop_assert_eq!(back, coo);
    }

    #[test]
    fn crop_entries_subset(coo in arb_matrix()) {
        let (m, n) = (coo.nrows(), coo.ncols());
        if m >= 2 && n >= 2 {
            let c = coo.crop(0, m / 2 + 1, 0, n / 2 + 1).expect("valid window");
            prop_assert!(c.nnz() <= coo.nnz());
            for (r, cc, v) in c.iter() {
                prop_assert_eq!(coo.get(r, cc), v);
            }
        }
    }
}

type Triplets = Vec<(usize, usize, f64)>;

/// Shapes that break kernels at their edges: all-empty matrices (one
/// row, one column, wide, tall), every third row empty with entries in
/// the first and last column, a mega-row as the last row, a matrix
/// occupying only its last column, and a band past 2^15 nonzeros.
/// Values and `x` are small dyadics, so f32 holds them exactly.
fn hostile_shapes() -> Vec<(&'static str, usize, usize, Triplets)> {
    let val = |r: usize, c: usize| ((r * 7 + c * 3) % 9) as f64 * 0.5 - 1.75;
    let mut shapes: Vec<_> = [(1, 1), (1, 37), (37, 1), (5, 9), (9, 5)]
        .into_iter()
        .map(|(m, n)| ("empty", m, n, Vec::new()))
        .collect();
    let third = (0..11usize)
        .filter(|r| r % 3 != 0)
        .flat_map(|r| [(r, 0, val(r, 0)), (r, 6, val(r, 6))])
        .collect();
    shapes.push(("every third row empty", 11, 7, third));
    let mut mega: Vec<_> = (0..32).map(|r| (r, r * 7 % 300, val(r, 0))).collect();
    mega.extend((0..300).map(|c| (32, c, val(32, c))));
    shapes.push(("mega last row", 33, 300, mega));
    let last_col = (0..23).map(|r| (r, 10, val(r, 10))).collect();
    shapes.push(("last column only", 23, 11, last_col));
    let n: usize = 2048;
    let band: Triplets = (0..n)
        .flat_map(|r| (r.saturating_sub(8)..(r + 9).min(n)).map(move |c| (r, c, val(r, c))))
        .collect();
    assert!(
        band.len() >= 1 << 15,
        "band must reach the large size class"
    );
    shapes.push(("band", n, n, band));
    shapes
}

/// Dense f64 product row by row, plus each row's error budget: the
/// summation bound `(len + 1) * sum |a_rc * x_c|`, to be scaled by the
/// precision's epsilon.
fn dense_oracle(m: usize, n: usize, t: &[(usize, usize, f64)], x: &[f64]) -> Vec<(f64, f64)> {
    let mut rows = vec![Vec::new(); m];
    for &(r, c, v) in t {
        rows[r].push((c, v));
    }
    let mut dense = vec![0.0; n];
    rows.iter()
        .map(|entries| {
            dense.fill(0.0);
            for &(c, v) in entries {
                dense[c] = v;
            }
            let terms = dense.iter().zip(x).map(|(a, b)| a * b);
            let budget = (entries.len() + 1) as f64 * terms.clone().map(f64::abs).sum::<f64>();
            (terms.sum(), budget)
        })
        .collect()
}

fn check_hostile_shapes<S: Scalar>(eps: f64) {
    for (name, m, n, t) in hostile_shapes() {
        let ts: Vec<_> = t.iter().map(|&(r, c, v)| (r, c, S::from_f64(v))).collect();
        let coo = CooMatrix::from_triplets(m, n, &ts).expect("indices in range");
        assert_eq!(coo.nnz(), t.len(), "{name}: nonzero values only");
        let x: Vec<f64> = (0..n)
            .map(|c| ((c * 13 + 5) % 17) as f64 * 0.25 - 2.0)
            .collect();
        let xs: Vec<S> = x.iter().map(|&v| S::from_f64(v)).collect();
        let want = dense_oracle(m, n, &t, &x);
        for f in SparseFormat::ALL {
            let any = AnyMatrix::convert(&coo, f)
                .unwrap_or_else(|e| panic!("{name} {m}x{n}: conversion to {f} failed: {e}"));
            assert_eq!(any.to_coo().unwrap(), coo, "{name} {m}x{n}: {f} round trip");
            // Start from a dirty `y`: every kernel must overwrite it.
            let mut y = vec![S::from_f64(7.0); m];
            any.spmv(&xs, &mut y);
            for (r, (got, &(want, budget))) in y.iter().zip(&want).enumerate() {
                let err = (got.to_f64() - want).abs();
                assert!(
                    err <= eps * budget,
                    "{name} {m}x{n}: {f} row {r}: {got} vs {want}"
                );
            }
        }
    }
}

#[test]
fn hostile_shapes_match_a_dense_oracle_in_every_format_and_precision() {
    check_hostile_shapes::<f32>(f32::EPSILON as f64);
    check_hostile_shapes::<f64>(f64::EPSILON);
}
