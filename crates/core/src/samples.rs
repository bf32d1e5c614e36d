//! Matrix → CNN sample conversion (the "normalisation" step).

use dnnspmv_nn::{Sample, Tensor};
use dnnspmv_repr::{MatrixRepr, ReprConfig, ReprKind};
use dnnspmv_sparse::{CooMatrix, Scalar};
use rayon::prelude::*;

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
/// `true`.
pub fn make_channels_until<S: Scalar>(
    matrix: &CooMatrix<S>,
    kind: ReprKind,
    cfg: &ReprConfig,
    cancel: &dyn Fn() -> bool,
) -> Option<Vec<Tensor>> {
    Some(
        MatrixRepr::extract_with_cancel(matrix, kind, cfg, cancel)?
            .channels
            .into_iter()
            .map(|im| {
                let (h, w) = (im.height(), im.width());
                Tensor::from_vec(&[h, w], im.into_vec())
            })
            .collect(),
    )
}

/// Converts matrices plus labels to training samples, in parallel.
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
        .par_iter()
        .zip(labels.par_iter())
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
