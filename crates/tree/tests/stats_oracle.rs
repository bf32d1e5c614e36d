//! Bit-equality of the store-only structure sweep against the
//! statistics it replaced.
//!
//! `oracle_stats` is the previous `MatrixStats::compute` body, kept
//! verbatim: `row_offsets`, a row loop summing `len^2` in `f64`, and one
//! walk over `coo.iter()` (values included) with an `f64` distance sum,
//! the diagonal table and the 4x4 block stamps. `oracle_features` is the
//! previous `features_from_stats` applied to it. Every `MatrixStats`
//! field and every feature must match, `f64`s by `to_bits()`, on the
//! hostile shapes of `crates/sparse/tests/proptest_formats.rs` (and a
//! few more edges) and on every generated family at edges 48, 256 and
//! 2048. Both sums are integers far below 2^53 here, where the integer
//! accumulation and the old `f64` one agree exactly.

use dnnspmv_gen::{generate, MatrixClass};
use dnnspmv_sparse::{CooMatrix, MatrixStats, Scalar};
use dnnspmv_tree::features;
use proptest::prelude::*;

const STAT_BLOCK: usize = 4;

fn oracle_stats<S: Scalar>(coo: &CooMatrix<S>) -> MatrixStats {
    let (nrows, ncols, nnz) = (coo.nrows(), coo.ncols(), coo.nnz());
    let ptr = coo.row_offsets();
    let mut row_min = usize::MAX;
    let mut row_max = 0usize;
    let mut empty_rows = 0usize;
    let mut sum = 0usize;
    let mut sumsq = 0f64;
    for r in 0..nrows {
        let len = ptr[r + 1] - ptr[r];
        row_min = row_min.min(len);
        row_max = row_max.max(len);
        if len == 0 {
            empty_rows += 1;
        }
        sum += len;
        sumsq += (len * len) as f64;
    }
    if nrows == 0 {
        row_min = 0;
    }
    let row_mean = sum as f64 / nrows as f64;
    let var = (sumsq / nrows as f64 - row_mean * row_mean).max(0.0);
    let row_std = var.sqrt();
    let row_cv = if row_mean > 0.0 {
        row_std / row_mean
    } else {
        0.0
    };

    let mut diag_seen = vec![false; nrows + ncols - 1];
    let mut block_stamp = vec![0u32; ncols.div_ceil(STAT_BLOCK)];
    let mut nblocks = 0usize;
    let mut bandwidth = 0usize;
    let mut dist_sum = 0f64;
    let mut on_main = 0usize;
    for (r, c, _) in coo.iter() {
        let off = c as i64 - r as i64;
        diag_seen[(off + nrows as i64 - 1) as usize] = true;
        let dist = off.unsigned_abs() as usize;
        bandwidth = bandwidth.max(dist);
        dist_sum += dist as f64;
        if off == 0 {
            on_main += 1;
        }
        let stamp = (r / STAT_BLOCK) as u32 + 1;
        let seen = &mut block_stamp[c / STAT_BLOCK];
        nblocks += usize::from(*seen != stamp);
        *seen = stamp;
    }
    let ndiags = diag_seen.iter().filter(|&&b| b).count();

    let nnzf = nnz as f64;
    MatrixStats {
        nrows,
        ncols,
        nnz,
        density: nnzf / (nrows as f64 * ncols as f64),
        row_min,
        row_max,
        row_mean,
        row_std,
        row_cv,
        empty_rows,
        ndiags,
        dia_fill: if ndiags > 0 {
            nnzf / (ndiags as f64 * nrows as f64)
        } else {
            0.0
        },
        ell_fill: if row_max > 0 {
            nnzf / (nrows as f64 * row_max as f64)
        } else {
            0.0
        },
        nblocks,
        bsr_fill: if nblocks > 0 {
            nnzf / (nblocks as f64 * (STAT_BLOCK * STAT_BLOCK) as f64)
        } else {
            0.0
        },
        bandwidth,
        mean_diag_distance: if nnz > 0 { dist_sum / nnzf } else { 0.0 },
        main_diag_fraction: if nnz > 0 { on_main as f64 / nnzf } else { 0.0 },
    }
}

fn oracle_features(s: &MatrixStats) -> Vec<f64> {
    let dims = (s.nrows + s.ncols) as f64;
    vec![
        (s.nrows as f64).ln(),
        (s.ncols as f64).ln(),
        (s.nnz.max(1) as f64).ln(),
        s.density,
        s.row_mean,
        s.row_cv,
        s.row_max as f64 / s.ncols as f64,
        s.ell_fill,
        s.ndiags as f64 / dims,
        s.dia_fill,
        s.empty_rows as f64 / s.nrows as f64,
    ]
}

/// Every field of two `MatrixStats`, `f64`s as bit patterns.
fn fields(s: &MatrixStats) -> Vec<(&'static str, u64)> {
    let int = |v: usize| v as u64;
    vec![
        ("nrows", int(s.nrows)),
        ("ncols", int(s.ncols)),
        ("nnz", int(s.nnz)),
        ("density", s.density.to_bits()),
        ("row_min", int(s.row_min)),
        ("row_max", int(s.row_max)),
        ("row_mean", s.row_mean.to_bits()),
        ("row_std", s.row_std.to_bits()),
        ("row_cv", s.row_cv.to_bits()),
        ("empty_rows", int(s.empty_rows)),
        ("ndiags", int(s.ndiags)),
        ("dia_fill", s.dia_fill.to_bits()),
        ("ell_fill", s.ell_fill.to_bits()),
        ("nblocks", int(s.nblocks)),
        ("bsr_fill", s.bsr_fill.to_bits()),
        ("bandwidth", int(s.bandwidth)),
        ("mean_diag_distance", s.mean_diag_distance.to_bits()),
        ("main_diag_fraction", s.main_diag_fraction.to_bits()),
    ]
}

fn assert_bit_equal<S: Scalar>(name: &str, coo: &CooMatrix<S>) {
    let want = oracle_stats(coo);
    let got = MatrixStats::compute(coo);
    for ((field, w), (_, g)) in fields(&want).into_iter().zip(fields(&got)) {
        assert_eq!(g, w, "{name}: MatrixStats::{field} differs from the oracle");
    }
    let want: Vec<u64> = oracle_features(&want).iter().map(|v| v.to_bits()).collect();
    let got: Vec<u64> = features(coo).iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, want, "{name}: features differ from the oracle");
}

type Triplets = Vec<(usize, usize, f64)>;

/// `proptest_formats.rs`'s hostile shapes, plus single entries, corner
/// entries, a full row and a full column in both rectangular
/// orientations.
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
    shapes.push(("band", n, n, band));
    for (m, n) in [(1, 1), (1, 37), (37, 1), (7, 3), (3, 7)] {
        shapes.push((
            "single entry at the far corner",
            m,
            n,
            vec![(m - 1, n - 1, 1.0)],
        ));
        let corners = [(0, 0), (0, n - 1), (m - 1, 0), (m - 1, n - 1)];
        let mut corners: Triplets = corners.iter().map(|&(r, c)| (r, c, val(r, c))).collect();
        corners.sort_by_key(|e| (e.0, e.1));
        corners.dedup_by_key(|e| (e.0, e.1));
        shapes.push(("corner entries", m, n, corners));
        let full_row = (0..n).map(|c| (m / 2, c, val(m / 2, c))).collect();
        shapes.push(("one full row", m, n, full_row));
        let full_col = (0..m).map(|r| (r, n / 2, val(r, n / 2))).collect();
        shapes.push(("one full column", m, n, full_col));
        let dense = (0..m)
            .flat_map(|r| (0..n).map(move |c| (r, c, val(r, c))))
            .collect();
        shapes.push(("dense", m, n, dense));
    }
    let anti: Triplets = (0..64).map(|i| (i, 63 - i, val(i, 63 - i))).collect();
    shapes.push(("anti-diagonal", 64, 64, anti));
    let trailing_empty = (0..20).map(|r| (r, r, 1.0)).collect();
    shapes.push(("trailing empty rows", 40, 20, trailing_empty));
    shapes
}

#[test]
fn hostile_shapes_match_the_oracle_in_both_precisions() {
    for (name, m, n, t) in hostile_shapes() {
        let coo = CooMatrix::<f64>::from_triplets(m, n, &t).expect("indices in range");
        assert_eq!(coo.nnz(), t.len(), "{name}: nonzero values only");
        assert_bit_equal(&format!("{name} {m}x{n} f64"), &coo);
        let t32: Vec<_> = t.iter().map(|&(r, c, v)| (r, c, v as f32)).collect();
        let coo = CooMatrix::<f32>::from_triplets(m, n, &t32).expect("indices in range");
        assert_bit_equal(&format!("{name} {m}x{n} f32"), &coo);
    }
}

#[test]
fn every_family_matches_the_oracle_at_three_edges() {
    for class in MatrixClass::ALL {
        for dim in [48, 256, 2048] {
            for seed in 0..3 {
                let coo = generate(class, dim, seed * 7919 + dim as u64);
                assert_bit_equal(&format!("{class:?} edge {dim} seed {seed}"), &coo);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_matrices_match_the_oracle(
        m in 1usize..40,
        n in 1usize..40,
        entries in proptest::collection::vec((0usize..40, 0usize..40, 0.5f64..2.0), 0..160),
    ) {
        let t: Vec<_> = entries
            .into_iter()
            .filter(|&(r, c, _)| r < m && c < n)
            .collect();
        let coo = CooMatrix::from_triplets(m, n, &t).expect("filtered in range");
        assert_bit_equal(&format!("random {m}x{n}"), &coo);
    }
}
