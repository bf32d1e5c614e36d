//! The split extraction against the single sweep.
//!
//! `samples::extract_in_parts` counts a matrix's nonzeros in contiguous
//! parts on the pool and sums the `u32` counts before the one
//! normalisation, so every image must be bit-identical to
//! `MatrixRepr::extract`'s at every part count, on every matrix family
//! at the sizes that split, and on the edge shapes that put a part
//! boundary inside one row or leave parts empty. Cancellation must stop
//! every part; a panic in any part must surface where a single sweep's
//! would.

use dnnspmv_core::samples::{extract_in_parts, extraction_parts, PART_MIN_NNZ};
use dnnspmv_core::{CnnRungOutcome, FormatSelector, SelectGuard, SelectorConfig, SelectorService};
use dnnspmv_gen::{generate, MatrixClass};
use dnnspmv_nn::{CnnConfig, TrainConfig};
use dnnspmv_repr::{Image, MatrixRepr, ReprConfig, ReprKind, CANCEL_STRIDE};
use dnnspmv_sparse::{CooMatrix, SparseFormat};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The smallest matrix that splits into two parts.
const SPLIT_NNZ: usize = 2 * PART_MIN_NNZ;

/// Bit-for-bit: `==` on `f32` would let `0.0 == -0.0` through.
fn bits(repr: &MatrixRepr) -> Vec<Vec<u32>> {
    let bits_of = |im: &Image| im.data().iter().map(|v| v.to_bits()).collect();
    repr.channels.iter().map(bits_of).collect()
}

fn assert_split_matches(m: &CooMatrix<f32>, what: &str, parts: &[usize]) {
    for cfg in [ReprConfig::default(), ReprConfig::paper()] {
        for kind in ReprKind::ALL {
            let want = MatrixRepr::extract(m, kind, &cfg);
            for &n in parts {
                let got = extract_in_parts(m, kind, &cfg, n, &|| false).expect("never cancelled");
                assert_eq!(got.kind, kind);
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{what}, {kind:?}, {n} parts, {cfg:?}"
                );
            }
        }
    }
}

/// One matrix of `class` with at least [`SPLIT_NNZ`] nonzeros: the edge
/// is scaled from a small preview's nonzeros per row, then doubled until
/// the count is reached.
fn splittable(class: MatrixClass) -> CooMatrix<f32> {
    let seed = 7;
    let preview = generate(class, 2048, seed);
    let per_row = preview.nnz() as f64 / preview.nrows() as f64;
    let mut dim = (1.2 * SPLIT_NNZ as f64 / per_row) as usize;
    loop {
        let m = generate(class, dim, seed);
        if m.nnz() >= SPLIT_NNZ {
            return m;
        }
        dim *= 2;
    }
}

#[test]
fn every_family_splits_bit_identically_at_one_to_eight_parts() {
    for class in MatrixClass::ALL {
        let m = splittable(class);
        assert_split_matches(&m, &format!("{class:?}"), &[1, 2, 3, 4, 5, 6, 7, 8]);
    }
}

/// The edge shapes of the SpMV kernel oracle: parts that are empty,
/// that cut one row's run of nonzeros, and that see one band only.
#[test]
fn edge_shapes_split_bit_identically() {
    let val = 1.5f32;
    let mut mega: Vec<_> = (0..200).map(|r| (r, r * 7 % 3000, val)).collect();
    mega.extend((0..3000).map(|c| (100, c, val)));
    let shapes = [
        ("all-empty", CooMatrix::empty(300, 200).expect("shape")),
        (
            "one mega-row",
            CooMatrix::from_triplets(200, 3000, &mega).expect("in range"),
        ),
        (
            "1 x n",
            CooMatrix::from_triplets(1, 4000, &(0..4000).map(|c| (0, c, val)).collect::<Vec<_>>())
                .expect("in range"),
        ),
        (
            "n x 1",
            CooMatrix::from_triplets(5000, 1, &(0..5000).map(|r| (r, 0, val)).collect::<Vec<_>>())
                .expect("in range"),
        ),
    ];
    for (what, m) in &shapes {
        assert_split_matches(m, what, &[2, 8]);
    }
}

#[test]
fn part_count_follows_the_floor_and_the_pool() {
    assert_eq!(extraction_parts(0), 1);
    assert_eq!(extraction_parts(SPLIT_NNZ - 1), 1);
    let at_floor = extraction_parts(SPLIT_NNZ);
    assert_eq!(at_floor, rayon::current_num_threads().min(2));
    assert_eq!(
        extraction_parts(100 * PART_MIN_NNZ),
        rayon::current_num_threads().min(100)
    );
}

/// A banded matrix of a little over four parts' worth of nonzeros:
/// several cancellation strides per part at two parts.
fn banded() -> CooMatrix<f32> {
    let n = 200_000;
    let t: Vec<_> = (0..n)
        .flat_map(|i: usize| [i.saturating_sub(1), i, (i + 1).min(n - 1)].map(|j| (i, j, 1.0f32)))
        .collect();
    let m = CooMatrix::from_triplets(n, n, &t).expect("in range");
    assert!(m.nnz() > 4 * PART_MIN_NNZ);
    m
}

#[test]
fn a_cancel_that_flips_stops_every_part() {
    let m = banded();
    let cfg = ReprConfig::default();
    for parts in [2, 4] {
        let polls = AtomicUsize::new(0);
        let never = || {
            polls.fetch_add(1, Ordering::Relaxed);
            false
        };
        // Never cancelled: the split run equals the single sweep, and
        // each part polls once per stride of its own nonzeros.
        let full = extract_in_parts(&m, ReprKind::Histogram, &cfg, parts, &never);
        assert_eq!(
            full,
            Some(MatrixRepr::extract(&m, ReprKind::Histogram, &cfg))
        );
        let per_part: usize = (0..parts)
            .map(|p| ((p + 1) * m.nnz() / parts - p * m.nnz() / parts).div_ceil(CANCEL_STRIDE))
            .sum();
        assert_eq!(polls.load(Ordering::Relaxed), per_part);

        // Flips after `k` polls, whichever part makes them: every part
        // stops at its next poll, so at most one more poll per part.
        for k in [0, 1, 3] {
            let polls = AtomicUsize::new(0);
            let flips = || polls.fetch_add(1, Ordering::Relaxed) >= k;
            for kind in ReprKind::ALL {
                polls.store(0, Ordering::Relaxed);
                assert_eq!(extract_in_parts(&m, kind, &cfg, parts, &flips), None);
                let seen = polls.load(Ordering::Relaxed);
                assert!(
                    seen <= k + parts,
                    "{kind:?}, {parts} parts, k = {k}: {seen} polls"
                );
                assert!(seen < per_part, "{kind:?}: cancelled run polled to the end");
            }
        }
    }
}

#[test]
fn a_panic_in_any_part_resurfaces_from_the_split() {
    let m = banded();
    let cfg = ReprConfig::default();
    // The third poll panics: with two parts it lands on whichever part
    // polls third, the caller's or the pool's.
    let polls = AtomicUsize::new(0);
    let third_panics = || {
        assert!(
            polls.fetch_add(1, Ordering::Relaxed) != 2,
            "injected extraction fault"
        );
        false
    };
    let run = std::panic::catch_unwind(|| {
        extract_in_parts(&m, ReprKind::Histogram, &cfg, 2, &third_panics)
    });
    assert!(run.is_err());
}

/// A service holding a tiny CNN and no tree.
fn service() -> &'static SelectorService {
    static SERVICE: OnceLock<SelectorService> = OnceLock::new();
    SERVICE.get_or_init(|| {
        let matrices: Vec<_> = (0..8)
            .map(|i| generate(MatrixClass::ALL[i % 7], 64, i as u64))
            .collect();
        let labels: Vec<_> = (0..8).map(|i| i % 2).collect();
        let cfg = SelectorConfig {
            repr_config: ReprConfig {
                image_size: 16,
                hist_rows: 16,
                hist_bins: 16,
            },
            cnn: CnnConfig {
                conv_channels: [2, 2, 2],
                hidden: 4,
                seed: 3,
            },
            train: TrainConfig {
                epochs: 1,
                batch_size: 8,
                ..TrainConfig::default()
            },
            ..SelectorConfig::default()
        };
        let formats = vec![SparseFormat::Csr, SparseFormat::Ell];
        let (cnn, _) = FormatSelector::train_with_labels(&matrices, &labels, formats, &cfg);
        SelectorService::new(Some(cnn), None).expect("valid service")
    })
}

#[test]
fn a_split_member_reports_cancelled_or_degrades_after_a_panic() {
    let m = banded();
    let svc = service();
    let select = |cancel: &(dyn Fn() -> bool + Sync)| {
        let guard = SelectGuard {
            cancel,
            ..SelectGuard::default()
        };
        svc.select_batch(&[(&m, guard)])[0]
    };
    // Never cancelled: the CNN answers, as the plain select does.
    let g = select(&|| false);
    assert_eq!(g.cnn, CnnRungOutcome::Answered);
    assert_eq!(g.selection, Some(svc.select(&m)));
    // The deadline passes during the split extraction.
    let polls = AtomicUsize::new(0);
    let g = select(&|| polls.fetch_add(1, Ordering::Relaxed) >= 3);
    assert_eq!(g.cnn, CnnRungOutcome::Cancelled);
    assert!(g.selection.is_none());
    // A part panics: the member degrades as after an extractor panic.
    let polls = AtomicUsize::new(0);
    let g = select(&|| {
        assert!(
            polls.fetch_add(1, Ordering::Relaxed) != 3,
            "injected extraction fault"
        );
        false
    });
    assert_eq!(g.cnn, CnnRungOutcome::Panicked);
    assert!(g.selection.is_some());
}
