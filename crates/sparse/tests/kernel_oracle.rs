//! The slice-walk CSR, ELL and HYB kernels against the indexed loops
//! they replaced.
//!
//! The oracles are the earlier kernels kept verbatim: CSR's and ELL's
//! `row_dot` (one bounds-checked `vals[i]` and `cols[i]` per nonzero)
//! and HYB's two loops. Each row is summed from zero in storage order by
//! the same `+=` on both sides, so every `y` element must have the same
//! bits, in f32 and in f64. Values and `x` are not dyadic: a kernel that
//! reassociated a row's sum would round differently and fail here.

use dnnspmv_sparse::{CooMatrix, CsrMatrix, EllMatrix, HybMatrix, Scalar, Spmv};

/// CSR's arrays under the deleted kernel.
struct OracleCsr<'a, S> {
    row_ptr: &'a [usize],
    cols: &'a [u32],
    vals: &'a [S],
}

impl<S: Scalar> OracleCsr<'_, S> {
    #[inline]
    fn row_dot(&self, r: usize, x: &[S]) -> S {
        let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
        let mut acc = S::ZERO;
        for i in lo..hi {
            acc += self.vals[i] * x[self.cols[i] as usize];
        }
        acc
    }
}

/// ELL's documented row-major padded layout (`cols[r * width + k]`,
/// padding slots column 0 and value zero) under the deleted kernel.
struct OracleEll<S> {
    width: usize,
    cols: Vec<u32>,
    vals: Vec<S>,
}

impl<S: Scalar> OracleEll<S> {
    fn new(coo: &CooMatrix<S>, width: usize) -> Self {
        let ptr = coo.row_offsets();
        let mut cols = vec![0u32; coo.nrows() * width];
        let mut vals = vec![S::ZERO; coo.nrows() * width];
        for r in 0..coo.nrows() {
            for (k, i) in (ptr[r]..ptr[r + 1]).enumerate() {
                cols[r * width + k] = coo.col_indices()[i];
                vals[r * width + k] = coo.values()[i];
            }
        }
        Self { width, cols, vals }
    }

    #[inline]
    fn row_dot(&self, r: usize, x: &[S]) -> S {
        let base = r * self.width;
        let mut acc = S::ZERO;
        for k in 0..self.width {
            acc += self.vals[base + k] * x[self.cols[base + k] as usize];
        }
        acc
    }
}

/// HYB's split (the first `ell_width` entries of a row in the ELL
/// section, the rest in a row-sorted COO tail) under the deleted loops.
struct OracleHyb<S> {
    ell_width: usize,
    ell_cols: Vec<u32>,
    ell_vals: Vec<S>,
    coo_rows: Vec<u32>,
    coo_cols: Vec<u32>,
    coo_vals: Vec<S>,
}

impl<S: Scalar> OracleHyb<S> {
    fn new(coo: &CooMatrix<S>, ell_width: usize) -> Self {
        let ptr = coo.row_offsets();
        let mut o = Self {
            ell_width,
            ell_cols: vec![0u32; coo.nrows() * ell_width],
            ell_vals: vec![S::ZERO; coo.nrows() * ell_width],
            coo_rows: Vec::new(),
            coo_cols: Vec::new(),
            coo_vals: Vec::new(),
        };
        for r in 0..coo.nrows() {
            for (k, i) in (ptr[r]..ptr[r + 1]).enumerate() {
                let (c, v) = (coo.col_indices()[i], coo.values()[i]);
                if k < ell_width {
                    o.ell_cols[r * ell_width + k] = c;
                    o.ell_vals[r * ell_width + k] = v;
                } else {
                    o.coo_rows.push(r as u32);
                    o.coo_cols.push(c);
                    o.coo_vals.push(v);
                }
            }
        }
        o
    }

    fn spmv(&self, x: &[S], y: &mut [S]) {
        for (r, out) in y.iter_mut().enumerate() {
            let base = r * self.ell_width;
            let mut acc = S::ZERO;
            for k in 0..self.ell_width {
                acc += self.ell_vals[base + k] * x[self.ell_cols[base + k] as usize];
            }
            *out = acc;
        }
        for i in 0..self.coo_vals.len() {
            y[self.coo_rows[i] as usize] += self.coo_vals[i] * x[self.coo_cols[i] as usize];
        }
    }
}

type Triplets = Vec<(usize, usize, f64)>;

/// A nonzero, non-dyadic value per coordinate.
fn val(r: usize, c: usize) -> f64 {
    let h = (r as u64).wrapping_mul(2_654_435_761) ^ (c as u64).wrapping_mul(40_503);
    ((h % 1999) as f64 + 1.0) / 997.0 - 1.0003
}

/// SplitMix64, for the hypersparse shape's row and column draws.
fn mix(i: u64) -> u64 {
    let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The hostile shapes of `proptest_formats.rs` (all-empty matrices of
/// five sizes, every third row empty, a mega last row, the last column
/// only, a band past 2^15 nonzeros) and the edges of the slice walk: an
/// all-empty matrix (ELL and HYB width 0), trailing empty rows, one
/// mega-row in the middle, 1×n and n×1, and a 400 k-row hypersparse
/// matrix whose rows are nearly all empty.
fn shapes() -> Vec<(&'static str, usize, usize, Triplets)> {
    let mut shapes: Vec<_> = [(1, 1), (1, 37), (37, 1), (5, 9), (9, 5), (300, 200)]
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

    let trailing = (0..30)
        .flat_map(|r| (0..1 + r % 4).map(move |k| (r, (r * 5 + k * 11) % 40, val(r, k))))
        .collect();
    shapes.push(("trailing empty rows", 50, 40, trailing));
    let mut mid: Triplets = (0..200)
        .filter(|&r| r != 100)
        .map(|r| (r, r * 13 % 3000, val(r, 1)))
        .collect();
    mid.extend((0..3000).map(|c| (100, c, val(100, c))));
    shapes.push(("one mega-row", 200, 3000, mid));
    let wide = (0..4000).map(|c| (0, c, val(0, c))).collect();
    shapes.push(("1 x n", 1, 4000, wide));
    let tall = (0..5000).map(|r| (r, 0, val(r, 0))).collect();
    shapes.push(("n x 1", 5000, 1, tall));
    let rows = 400_000;
    let hyper: Triplets = (0..27_000u64)
        .flat_map(|i| {
            let r = (mix(i) % rows as u64) as usize;
            (0..1 + mix(i ^ 0xABCD) % 3).map(move |k| {
                let c = (mix(i * 3 + k) % rows as u64) as usize;
                (r, c, val(r, c))
            })
        })
        .collect();
    shapes.push(("hypersparse", rows, rows, hyper));
    shapes
}

/// Runs `m` on a dirty `y` through both entry points and asserts the
/// bits of every element against `want`.
fn assert_bits<S: Scalar>(what: &str, m: &dyn Spmv<S>, x: &[S], want: &[S]) {
    for (entry, par) in [("spmv", false), ("spmv_par", true)] {
        let mut y = vec![S::from_f64(f64::NAN); m.nrows()];
        if par {
            m.spmv_par(x, &mut y);
        } else {
            m.spmv(x, &mut y);
        }
        for (r, (got, want)) in y.iter().zip(want).enumerate() {
            assert!(
                got.to_f64().to_bits() == want.to_f64().to_bits(),
                "{what}: {entry} row {r}: {got} vs oracle {want}"
            );
        }
    }
}

fn check<S: Scalar>() {
    for (name, m, n, t) in shapes() {
        let ts: Vec<_> = t.iter().map(|&(r, c, v)| (r, c, S::from_f64(v))).collect();
        let coo = CooMatrix::from_triplets(m, n, &ts).expect("indices in range");
        let x: Vec<S> = (0..n)
            .map(|c| S::from_f64(((c * 7919 + 3) % 1013) as f64 / 1009.0 - 0.31))
            .collect();
        let what = |f: &str| format!("{name} {m}x{n} {f} ({})", std::any::type_name::<S>());

        let csr = CsrMatrix::from_coo(&coo);
        let oracle = OracleCsr {
            row_ptr: csr.row_ptr(),
            cols: csr.col_indices(),
            vals: csr.values(),
        };
        let want: Vec<S> = (0..m).map(|r| oracle.row_dot(r, &x)).collect();
        assert_bits(&what("CSR"), &csr, &x, &want);

        let ell = EllMatrix::from_coo(&coo).expect("every shape fits ELL's width cap");
        let oracle = OracleEll::new(&coo, ell.width());
        assert_eq!(
            oracle.cols.len() * 4 + oracle.vals.len() * S::BYTES,
            ell.storage_bytes(),
            "{}: padded layout",
            what("ELL")
        );
        let want: Vec<S> = (0..m).map(|r| oracle.row_dot(r, &x)).collect();
        assert_bits(&what("ELL"), &ell, &x, &want);

        let max_len = coo.row_offsets().windows(2).map(|w| w[1] - w[0]).max();
        let auto = HybMatrix::from_coo(&coo).ell_width();
        for width in [auto, 0, 1, max_len.unwrap_or(0)] {
            let hyb = HybMatrix::from_coo_with_width(&coo, width);
            let oracle = OracleHyb::new(&coo, width);
            assert_eq!(hyb.coo_nnz(), oracle.coo_vals.len(), "{}", what("HYB"));
            let mut want = vec![S::ZERO; m];
            oracle.spmv(&x, &mut want);
            assert_bits(&what(&format!("HYB width {width}")), &hyb, &x, &want);
        }
    }
}

#[test]
fn slice_walk_kernels_are_bit_identical_to_the_indexed_loops_in_f32() {
    check::<f32>();
}

#[test]
fn slice_walk_kernels_are_bit_identical_to_the_indexed_loops_in_f64() {
    check::<f64>();
}
