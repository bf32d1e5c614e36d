//! Matrix → CNN sample conversion (the "normalisation" step).
//!
//! A large matrix is extracted in parts on the vendored pool: the
//! extraction sweep is compute-bound (DESIGN §4.11), and its per-part
//! `u32` counts add exactly, so the split changes no image bit.

use dnnspmv_nn::{Sample, Tensor};
use dnnspmv_repr::{MatrixRepr, ReprConfig, ReprCounts, ReprKind};
use dnnspmv_sparse::{CooMatrix, Scalar};

/// Fewest nonzeros one part of a split extraction sweeps.
///
/// The sweep costs 1.5–2.2 ns per nonzero on the 2-vCPU benchmark host,
/// so a part of 2^17 nonzeros runs ~200 µs: at least four times the
/// 35–45 µs a parked pool worker can take to wake (`perfbench/README.md`,
/// "Wake-up"), which bounds what a fork can lose. A matrix splits only
/// once it fills two such parts, 2^18 nonzeros; the training corpora and
/// small requests stay on the single sweep and never touch the pool.
pub const PART_MIN_NNZ: usize = 1 << 17;

/// How many parts [`make_channels_until`] extracts a matrix of `nnz`
/// nonzeros in: one per pool thread, none smaller than
/// [`PART_MIN_NNZ`]; 1 (the single sweep on the calling thread) below
/// `2 * PART_MIN_NNZ`.
pub fn extraction_parts(nnz: usize) -> usize {
    let most = nnz / PART_MIN_NNZ;
    if most < 2 {
        1
    } else {
        rayon::current_num_threads().min(most)
    }
}

/// [`MatrixRepr::extract_with_cancel`] over `parts` contiguous ranges
/// of the nonzeros: the caller counts the first, the pool the others
/// (a range no worker has claimed is run by the caller when it is done
/// with its own), and the `u32` counts are summed before the one
/// normalisation, so every image is bit-identical to the single
/// sweep's. Each part polls `cancel` once per
/// [`dnnspmv_repr::CANCEL_STRIDE`] of its nonzeros; `None` once any
/// part saw it report `true`. A panic in any part resurfaces here.
///
/// # Panics
/// Panics if `parts` is 0.
pub fn extract_in_parts<S: Scalar>(
    matrix: &CooMatrix<S>,
    kind: ReprKind,
    cfg: &ReprConfig,
    parts: usize,
    cancel: &(dyn Fn() -> bool + Sync),
) -> Option<MatrixRepr> {
    assert!(parts > 0, "an extraction needs at least one part");
    let nnz = matrix.nnz();
    let count = |part: usize| {
        let range = part * nnz / parts..(part + 1) * nnz / parts;
        ReprCounts::count(matrix, kind, cfg, range, cancel)
    };
    if parts == 1 {
        return count(0).map(ReprCounts::finish);
    }
    let mut rest = vec![None; parts - 1];
    let first = rayon::scope(|s| {
        for (part, slot) in (1..).zip(rest.iter_mut()) {
            s.spawn(move |_| *slot = count(part));
        }
        count(0)
    });
    let mut total = first?;
    for part in rest {
        total.merge(&part?);
    }
    Some(total.finish())
}

/// Converts one matrix to CNN input channels.
pub fn make_channels<S: Scalar>(
    matrix: &CooMatrix<S>,
    kind: ReprKind,
    cfg: &ReprConfig,
) -> Vec<Tensor> {
    make_channels_until(matrix, kind, cfg, &|| false).expect("never cancelled")
}

/// [`make_channels`] with a cooperative-cancellation checkpoint
/// threaded into the extraction loops; `None` once `cancel` reports
/// `true`. The extraction runs in [`extraction_parts`] parts.
pub fn make_channels_until<S: Scalar>(
    matrix: &CooMatrix<S>,
    kind: ReprKind,
    cfg: &ReprConfig,
    cancel: &(dyn Fn() -> bool + Sync),
) -> Option<Vec<Tensor>> {
    let parts = extraction_parts(matrix.nnz());
    Some(
        extract_in_parts(matrix, kind, cfg, parts, cancel)?
            .channels
            .into_iter()
            .map(|im| {
                let (h, w) = (im.height(), im.width());
                Tensor::from_vec(&[h, w], im.into_vec())
            })
            .collect(),
    )
}

/// Converts matrices plus labels to training samples.
///
/// # Panics
/// Panics if `matrices` and `labels` differ in length.
pub fn make_samples<S: Scalar>(
    matrices: &[CooMatrix<S>],
    labels: &[usize],
    kind: ReprKind,
    cfg: &ReprConfig,
) -> Vec<Sample> {
    assert_eq!(matrices.len(), labels.len(), "matrix/label count mismatch");
    matrices
        .iter()
        .zip(labels)
        .map(|(m, &label)| Sample {
            channels: make_channels(m, kind, cfg),
            label,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(n: usize) -> CooMatrix<f32> {
        let t: Vec<_> = (0..n).map(|i| (i, i, 1.0f32)).collect();
        CooMatrix::from_triplets(n, n, &t).unwrap()
    }

    #[test]
    fn channels_have_configured_shape() {
        let cfg = ReprConfig {
            image_size: 32,
            hist_rows: 32,
            hist_bins: 16,
        };
        let ch = make_channels(&diag(100), ReprKind::Histogram, &cfg);
        assert_eq!(ch.len(), 2);
        assert_eq!(ch[0].shape(), &[32, 16]);
    }

    #[test]
    fn samples_pair_matrices_with_labels() {
        let mats = vec![diag(20), diag(30)];
        let cfg = ReprConfig {
            image_size: 16,
            hist_rows: 16,
            hist_bins: 8,
        };
        let s = make_samples(&mats, &[1, 3], ReprKind::Binary, &cfg);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].label, 1);
        assert_eq!(s[1].label, 3);
        assert_eq!(s[0].channels.len(), 1);
    }

    #[test]
    #[should_panic(expected = "count mismatch")]
    fn length_mismatch_panics() {
        let cfg = ReprConfig::default();
        let _ = make_samples(&[diag(10)], &[0, 1], ReprKind::Binary, &cfg);
    }
}
