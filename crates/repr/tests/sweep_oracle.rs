//! The single division-free extraction sweep against the loops it
//! replaced.
//!
//! The oracles below are the pre-sweep implementation kept verbatim:
//! Algorithm 1 with `idx * grid / extent` in hardware division, one pass
//! over the nonzeros per channel, `f32 += 1.0` counters. Every image the
//! sweep returns must be bit-identical to theirs (per-cell counts stay
//! far below 2^24 here), on random matrices and on the shapes the
//! reciprocal multiply could get wrong.

use dnnspmv_repr::{Image, MatrixRepr, ReprConfig, ReprKind, CANCEL_STRIDE};
use dnnspmv_sparse::CooMatrix;
use proptest::prelude::*;
use std::cell::Cell;

fn cell(idx: usize, extent: usize, grid: usize) -> usize {
    (idx * grid / extent).min(grid - 1)
}

fn oracle_histogram(m: &CooMatrix<f32>, bands: usize, bins: usize, by_cols: bool) -> Image {
    let mut im = Image::zeros(bands, bins);
    let max_dim = m.nrows().max(m.ncols());
    let extent = if by_cols { m.ncols() } else { m.nrows() };
    for (r, c, _) in m.iter() {
        let pos = if by_cols { c } else { r };
        let band = (pos * bands / extent).min(bands - 1);
        let bin = (r.abs_diff(c) * bins / max_dim).min(bins - 1);
        *im.get_mut(band, bin) += 1.0;
    }
    im.normalize_max();
    im
}

fn oracle_binary(m: &CooMatrix<f32>, size: usize) -> Image {
    let mut im = Image::zeros(size, size);
    for (r, c, _) in m.iter() {
        *im.get_mut(cell(r, m.nrows(), size), cell(c, m.ncols(), size)) = 1.0;
    }
    im
}

/// O(nrows + ncols): not for the near-`u32::MAX` shapes.
fn oracle_density(m: &CooMatrix<f32>, size: usize) -> Image {
    let mut counts = Image::zeros(size, size);
    for (r, c, _) in m.iter() {
        *counts.get_mut(cell(r, m.nrows(), size), cell(c, m.ncols(), size)) += 1.0;
    }
    let band_sizes = |extent: usize| -> Vec<f32> {
        let mut sizes = vec![0f32; size];
        for i in 0..extent {
            sizes[cell(i, extent, size)] += 1.0;
        }
        sizes
    };
    let (row_sizes, col_sizes) = (band_sizes(m.nrows()), band_sizes(m.ncols()));
    for (rb, &rs) in row_sizes.iter().enumerate() {
        for (cb, &cs) in col_sizes.iter().enumerate() {
            let area = rs * cs;
            if area > 0.0 {
                *counts.get_mut(rb, cb) /= area;
            }
        }
    }
    counts
}

fn oracle_extract(m: &CooMatrix<f32>, kind: ReprKind, cfg: &ReprConfig) -> Vec<Image> {
    let (size, bands, bins) = (cfg.image_size, cfg.hist_rows, cfg.hist_bins);
    match kind {
        ReprKind::Binary => vec![oracle_binary(m, size)],
        ReprKind::BinaryDensity => vec![oracle_binary(m, size), oracle_density(m, size)],
        ReprKind::Histogram => vec![
            oracle_histogram(m, bands, bins, false),
            oracle_histogram(m, bands, bins, true),
        ],
    }
}

/// Bit-for-bit: `==` on `f32` would let `0.0 == -0.0` through.
fn bits(images: &[Image]) -> Vec<Vec<u32>> {
    let bits_of = |im: &Image| im.data().iter().map(|v| v.to_bits()).collect();
    images.iter().map(bits_of).collect()
}

fn assert_matches_oracle(m: &CooMatrix<f32>, cfg: &ReprConfig) {
    for kind in ReprKind::ALL {
        let got = MatrixRepr::extract(m, kind, cfg);
        assert_eq!(got.kind, kind);
        assert_eq!(
            bits(&got.channels),
            bits(&oracle_extract(m, kind, cfg)),
            "{kind:?} on {}x{} with {} nonzeros, {cfg:?}",
            m.nrows(),
            m.ncols(),
            m.nnz()
        );
    }
}

fn arb_matrix() -> impl Strategy<Value = CooMatrix<f32>> {
    (1usize..200, 1usize..200).prop_flat_map(|(m, n)| {
        let entry = (0..m, 0..n, 0.1f32..4.0);
        proptest::collection::vec(entry, 0..400)
            .prop_map(move |t| CooMatrix::from_triplets(m, n, &t).expect("in range"))
    })
}

fn arb_config() -> impl Strategy<Value = ReprConfig> {
    (1usize..80, 1usize..80, 1usize..60).prop_map(|(image_size, hist_rows, hist_bins)| ReprConfig {
        image_size,
        hist_rows,
        hist_bins,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sweep_equals_algorithm_1_on_random_matrices(m in arb_matrix(), cfg in arb_config()) {
        assert_matches_oracle(&m, &cfg);
    }
}

/// A matrix with an entry in every corner, on the last index of every
/// band boundary's neighbourhood, and on the diagonal.
fn corners_and_diagonal(nrows: usize, ncols: usize) -> CooMatrix<f32> {
    let mut t = vec![
        (0, 0, 1.0f32),
        (0, ncols - 1, 1.0),
        (nrows - 1, 0, 1.0),
        (nrows - 1, ncols - 1, 1.0),
    ];
    for i in 0..nrows.max(ncols) {
        t.push((i % nrows, i % ncols, 1.0));
        t.push((i % nrows, (ncols - 1).saturating_sub(i) % ncols, 1.0));
    }
    CooMatrix::from_triplets(nrows, ncols, &t).expect("in range")
}

#[test]
fn sweep_equals_algorithm_1_on_hostile_shapes() {
    let cfgs = [
        ReprConfig::default(),
        ReprConfig::paper(),
        ReprConfig {
            image_size: 7,
            hist_rows: 13,
            hist_bins: 5,
        },
    ];
    let shapes = [
        (1, 1),     // extent == 1 on both axes
        (1, 300),   // 1 x N
        (300, 1),   // N x 1
        (48, 48),   // grid > extent: 48 rows onto 64 bands
        (48, 1000), // grid > extent on one axis only
        (65, 127),  // extent divides no grid
        (1000, 999),
        (4099, 257),
    ];
    for cfg in &cfgs {
        for &(nrows, ncols) in &shapes {
            assert_matches_oracle(&CooMatrix::empty(nrows, ncols).expect("shape"), cfg);
            assert_matches_oracle(&corners_and_diagonal(nrows, ncols), cfg);
        }
    }
}

/// About a million nonzeros on 300 000 rows (run in release by CI):
/// several cancellation strides, thousands of rows per band, a band of
/// diagonals plus one far entry per row.
#[test]
fn sweep_equals_algorithm_1_on_a_large_matrix() {
    let (nrows, ncols) = (300_000usize, 290_000usize);
    let (mut rows, mut cols) = (Vec::new(), Vec::new());
    for i in 0..nrows {
        let mut row: Vec<usize> = [i.saturating_sub(1), i, i + 1, (i * 7919 + 13) % ncols]
            .into_iter()
            .filter(|&j| j < ncols)
            .collect();
        row.sort_unstable();
        row.dedup();
        rows.extend(std::iter::repeat_n(i as u32, row.len()));
        cols.extend(row.into_iter().map(|j| j as u32));
    }
    let vals = vec![1.0f32; rows.len()];
    let m = CooMatrix::from_sorted_parts(nrows, ncols, rows, cols, vals).expect("sorted");
    assert!(m.nnz() > 1_000_000);
    assert_matches_oracle(&m, &ReprConfig::default());
    assert_matches_oracle(&m, &ReprConfig::paper());
}

/// Dimensions near `u32::MAX`: `extent^2 * grid` overflows 64 bits, so
/// the map divides. The O(nrows) density oracle cannot run here; its
/// channel is checked against the closed form instead.
#[test]
fn sweep_equals_algorithm_1_near_u32_max() {
    let (nrows, ncols) = (u32::MAX as usize, u32::MAX as usize - 7);
    let t = [
        (0, 0, 1.0f32),
        (0, ncols - 1, 1.0),
        (1 << 31, 12_345, 1.0),
        ((1 << 31) + 1, 12_346, 1.0),
        (nrows - 2, ncols - 2, 1.0),
        (nrows - 1, 0, 1.0),
        (nrows - 1, ncols - 1, 1.0),
    ];
    let m = CooMatrix::from_triplets(nrows, ncols, &t).expect("in range");
    let cfg = ReprConfig::default();
    for kind in [ReprKind::Binary, ReprKind::Histogram] {
        let got = MatrixRepr::extract(&m, kind, &cfg);
        assert_eq!(
            bits(&got.channels),
            bits(&oracle_extract(&m, kind, &cfg)),
            "{kind:?}"
        );
    }
    let size = cfg.image_size;
    let got = MatrixRepr::extract(&m, ReprKind::BinaryDensity, &cfg);
    assert_eq!(bits(&got.channels[..1]), bits(&[oracle_binary(&m, size)]));
    // Band b holds the indices ceil(b * extent / size) .. ceil((b + 1) * extent / size).
    let band_len = |extent: usize, b: usize| {
        (((b + 1) * extent).div_ceil(size) - (b * extent).div_ceil(size)) as f32
    };
    let mut want = Image::zeros(size, size);
    for (r, c, _) in m.iter() {
        *want.get_mut(cell(r, nrows, size), cell(c, ncols, size)) += 1.0;
    }
    for rb in 0..size {
        for cb in 0..size {
            *want.get_mut(rb, cb) /= band_len(nrows, rb) * band_len(ncols, cb);
        }
    }
    assert_eq!(bits(&got.channels[1..]), bits(&[want]));
}

/// Every kind polls `cancel` once per `CANCEL_STRIDE` nonzeros — one
/// sweep, not one per channel — and stops at the poll that says so.
#[test]
fn one_poll_per_stride_for_every_kind() {
    // 513 x 256 full: 2 * CANCEL_STRIDE + 256 nonzeros, three strides.
    let (nrows, ncols) = (513usize, 256usize);
    let rows = (0..nrows as u32)
        .flat_map(|r| std::iter::repeat_n(r, ncols))
        .collect();
    let cols = (0..nrows).flat_map(|_| 0..ncols as u32).collect();
    let m = CooMatrix::from_sorted_parts(nrows, ncols, rows, cols, vec![1.0f32; nrows * ncols])
        .expect("sorted");
    assert!(m.nnz() > 2 * CANCEL_STRIDE);
    let cfg = ReprConfig::default();
    for kind in ReprKind::ALL {
        let polls = Cell::new(0usize);
        let count = || {
            polls.set(polls.get() + 1);
            false
        };
        let full = MatrixRepr::extract_with_cancel(&m, kind, &cfg, &count);
        assert_eq!(full, Some(MatrixRepr::extract(&m, kind, &cfg)), "{kind:?}");
        assert_eq!(polls.get(), m.nnz().div_ceil(CANCEL_STRIDE), "{kind:?}");

        polls.set(0);
        let cancel_on_second = || {
            polls.set(polls.get() + 1);
            polls.get() == 2
        };
        assert_eq!(
            MatrixRepr::extract_with_cancel(&m, kind, &cfg, &cancel_on_second),
            None
        );
        assert_eq!(
            polls.get(),
            2,
            "{kind:?}: stopped at the poll that cancelled"
        );
    }
}
