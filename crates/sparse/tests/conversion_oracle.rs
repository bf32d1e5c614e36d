//! The sort-free conversions against the code they replaced.
//!
//! The oracles are the earlier implementations kept verbatim: the
//! counting `row_offsets` (one read-modify-write per nonzero plus a
//! prefix sum), the DIA build that collects, sorts and dedups every
//! nonzero's offset and binary-searches its lane, and the 4x4 block
//! count that sorts and dedups one key per nonzero. The conversions must
//! give the same offsets, the same diagonals, the same error values and
//! the same `nblocks`, and DIA/ELL must still round-trip and multiply
//! like the dense matrix.

use dnnspmv_sparse::{
    CooMatrix, DenseMatrix, DiaMatrix, EllMatrix, MatrixStats, Scalar, SparseError, Spmv,
};
use proptest::prelude::*;

fn oracle_row_offsets(coo: &CooMatrix<f64>) -> Vec<usize> {
    let mut ptr = vec![0usize; coo.nrows() + 1];
    for &r in coo.row_indices() {
        ptr[r as usize + 1] += 1;
    }
    for i in 0..coo.nrows() {
        ptr[i + 1] += ptr[i];
    }
    ptr
}

/// `(offsets, lane-major data)` or the diagonal count that broke the cap.
fn oracle_dia(coo: &CooMatrix<f64>, max_diags: usize) -> Result<(Vec<i64>, Vec<f64>), usize> {
    let mut offsets: Vec<i64> = coo.iter().map(|(r, c, _)| c as i64 - r as i64).collect();
    offsets.sort_unstable();
    offsets.dedup();
    if offsets.len() > max_diags {
        return Err(offsets.len());
    }
    let nrows = coo.nrows();
    let mut data = vec![0.0; offsets.len() * nrows];
    for (r, c, v) in coo.iter() {
        let off = c as i64 - r as i64;
        let d = offsets.binary_search(&off).expect("offset collected above");
        data[d * nrows + r] = v;
    }
    Ok((offsets, data))
}

fn oracle_nblocks(coo: &CooMatrix<f64>) -> usize {
    let mut keys: Vec<u64> = coo
        .iter()
        .map(|(r, c, _)| (((r / 4) as u64) << 32) | (c / 4) as u64)
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys.len()
}

fn probe_vector(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 7 + 3) % 11) as f64 - 5.0).collect()
}

/// Checked against the dense matrix wherever one fits in memory.
fn assert_spmv_matches_dense(name: &str, got: &dyn Spmv<f64>, coo: &CooMatrix<f64>) {
    let x = probe_vector(coo.ncols());
    let want = if coo.nrows() * coo.ncols() <= 1 << 20 {
        DenseMatrix::from_coo(coo).spmv_alloc(&x)
    } else {
        coo.spmv_alloc(&x)
    };
    for (a, b) in got.spmv_alloc(&x).iter().zip(&want) {
        assert!(a.approx_eq(*b, 1e-10), "{name}: {a} vs {b}");
    }
}

fn check_against_oracles(coo: &CooMatrix<f64>, max_diags: usize) {
    assert_eq!(coo.row_offsets(), oracle_row_offsets(coo));
    assert_eq!(MatrixStats::compute(coo).nblocks, oracle_nblocks(coo));

    match (
        DiaMatrix::from_coo_with_limit(coo, max_diags),
        oracle_dia(coo, max_diags),
    ) {
        (Ok(dia), Ok((offsets, data))) => {
            assert_eq!(dia.offsets(), &offsets[..]);
            assert_eq!(dia.nnz(), coo.nnz());
            assert_eq!(dia.storage_bytes(), offsets.len() * 8 + data.len() * 8);
            // The oracle's lanes, multiplied in the kernel's lane-major
            // order, give the kernel's result to the last bit.
            let x = probe_vector(coo.ncols());
            let mut want = vec![0.0; coo.nrows()];
            for (lane, &off) in data.chunks(coo.nrows()).zip(&offsets) {
                for (i, v) in lane.iter().enumerate() {
                    let j = i as i64 + off;
                    if (0..coo.ncols() as i64).contains(&j) {
                        want[i] += v * x[j as usize];
                    }
                }
            }
            assert_eq!(dia.spmv_alloc(&x), want);
            assert_eq!(&dia.to_coo(), coo);
            assert_spmv_matches_dense("DIA", &dia, coo);
        }
        (Err(SparseError::TooManyDiagonals { ndiags, limit }), Err(want)) => {
            assert_eq!((ndiags, limit), (want, max_diags));
        }
        (got, want) => panic!("DIA disagrees with its oracle: {got:?} vs {want:?}"),
    }

    let ell = EllMatrix::from_coo(coo).expect("below the default width cap");
    let ptr = oracle_row_offsets(coo);
    assert_eq!(
        ell.width(),
        ptr.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0)
    );
    assert_eq!(&ell.to_coo(), coo);
    assert_spmv_matches_dense("ELL", &ell, coo);
}

/// Random matrices whose rows are drawn from a subset, so leading,
/// trailing and interior empty rows are the common case.
fn arb_matrix() -> impl Strategy<Value = CooMatrix<f64>> {
    (1usize..60, 1usize..60, 1usize..5).prop_flat_map(|(m, n, stride)| {
        let entry = (0..m, 0..n, 0.25f64..4.0);
        proptest::collection::vec(entry, 0..200).prop_map(move |t| {
            let t: Vec<_> = t
                .into_iter()
                .filter(|e| e.0 % stride == stride / 2)
                .collect();
            CooMatrix::from_triplets(m, n, &t).expect("indices in range")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn conversions_equal_their_oracles(coo in arb_matrix(), max_diags in 0usize..90) {
        check_against_oracles(&coo, max_diags);
    }
}

#[test]
fn conversions_equal_their_oracles_on_hostile_shapes() {
    let build = |m: usize, n: usize, t: &[(usize, usize, f64)]| {
        CooMatrix::from_triplets(m, n, t).expect("indices in range")
    };
    let anti: Vec<_> = (0..40).map(|i| (i, 39 - i, 1.0 + i as f64)).collect();
    let mut tridiagonal = Vec::new();
    for i in 0..50usize {
        for j in i.saturating_sub(1)..(i + 2).min(50) {
            tridiagonal.push((i, j, (i * 3 + j) as f64 + 1.0));
        }
    }
    let cases = [
        CooMatrix::empty(7, 5).expect("shape"),
        build(1, 1, &[(0, 0, 2.0)]),
        build(1, 30, &[(0, 0, 1.0), (0, 17, 2.0), (0, 29, 3.0)]),
        build(30, 1, &[(0, 0, 1.0), (17, 0, 2.0), (29, 0, 3.0)]),
        // Leading, interior and trailing empty rows.
        build(12, 9, &[(3, 0, 1.0), (3, 8, 2.0), (4, 4, 3.0), (8, 1, 4.0)]),
        // Only the first / only the last row.
        build(6, 6, &[(0, 2, 1.0), (0, 5, 2.0)]),
        build(6, 6, &[(5, 0, 1.0), (5, 5, 2.0)]),
        // Extreme corners: the two outermost diagonals.
        build(9, 14, &[(8, 0, 1.0), (0, 13, 2.0)]),
        build(40, 40, &anti),
        build(50, 50, &tridiagonal),
    ];
    for coo in &cases {
        // A cap below, at and above the diagonal count of every case.
        for max_diags in [0, 1, 2, 3, 39, 40, 8192] {
            check_against_oracles(coo, max_diags);
        }
    }
}

/// Two matrices of about a million nonzeros (run in release by CI): a
/// band of nine diagonals that DIA keeps, and the same band with every
/// seventh row empty and one far entry per kept row, which breaks the
/// diagonal cap with the oracle's count.
#[test]
fn conversions_equal_their_oracles_on_large_matrices() {
    let n = 120_000usize;
    let band = [-900i64, -30, -2, -1, 0, 1, 2, 30, 900];
    for scattered in [false, true] {
        let (mut rows, mut cols, mut vals) = (Vec::new(), Vec::new(), Vec::new());
        for i in (0..n).filter(|i| !scattered || i % 7 != 3) {
            let far = (i * 7919 + 13) % n;
            let mut row: Vec<usize> = band
                .iter()
                .map(|off| i as i64 + off)
                .filter(|j| (0..n as i64).contains(j))
                .map(|j| j as usize)
                .chain(scattered.then_some(far))
                .collect();
            row.sort_unstable();
            row.dedup();
            for j in row {
                rows.push(i as u32);
                cols.push(j as u32);
                vals.push(1.0 + ((i + 3 * j) % 17) as f64);
            }
        }
        let coo = CooMatrix::from_sorted_parts(n, n, rows, cols, vals).expect("sorted");
        assert!(coo.nnz() > 900_000);
        check_against_oracles(&coo, 8192);
        assert_eq!(DiaMatrix::from_coo(&coo).is_err(), scattered);
    }
}
