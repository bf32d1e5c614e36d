//! Hand-crafted matrix features in the SMAT tradition.
//!
//! These summarise exactly the quantities the SMAT papers feed their
//! trees: problem size, row-length distribution (ELL's enemy is row
//! skew), diagonal occupancy (DIA's fill), and how empty the matrix is
//! (COO vs CSR row-pointer overhead). All features are scale-normalised
//! or log-compressed so trees see comparable ranges across matrix
//! sizes. They come from one store-only sweep ([`StructureCounts`]),
//! most of the cost of a request the tree answers at admission.

use dnnspmv_sparse::{CooMatrix, Scalar, StructureCounts};

/// Number of features [`features`] produces.
///
/// The set follows SMAT (Li et al., PLDI'13) faithfully: problem sizes,
/// the row-length distribution moments (aver_RD / max_RD / var_RD), the
/// ELL padding ratio (ER_RD), diagonal counts and the DIA fill ratio
/// (Ndiags / NTdiags_ratio / ER_DIA), density, and the empty-row
/// fraction. Quantities SMAT did not use (block fill, bandwidth,
/// distance moments) are deliberately absent — the paper's argument is
/// precisely that hand-picked scalar features miss spatial structure.
pub const NUM_FEATURES: usize = 11;

/// Human-readable feature names, parallel to [`features`] output.
pub fn feature_names() -> [&'static str; NUM_FEATURES] {
    [
        "log_nrows",
        "log_ncols",
        "log_nnz",
        "density",
        "row_mean",
        "row_cv",
        "row_max_over_ncols",
        "ell_fill",
        "ndiags_over_dims",
        "dia_fill",
        "empty_row_fraction",
    ]
}

/// Extracts the feature vector of one matrix. Each ratio is the
/// same-named [`dnnspmv_sparse::MatrixStats`] field, bit for bit.
pub fn features<S: Scalar>(matrix: &CooMatrix<S>) -> Vec<f64> {
    let s = StructureCounts::count(matrix);
    let (row_mean, _, row_cv) = s.row_moments();
    let dims = (s.nrows + s.ncols) as f64;
    vec![
        (s.nrows as f64).ln(),
        (s.ncols as f64).ln(),
        (s.nnz.max(1) as f64).ln(),
        s.density(),
        row_mean,
        row_cv,
        s.row_max as f64 / s.ncols as f64,
        s.ell_fill(),
        s.ndiags as f64 / dims,
        s.dia_fill(),
        s.empty_rows as f64 / s.nrows as f64,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tridiag(n: usize) -> CooMatrix<f64> {
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
            }
        }
        CooMatrix::from_triplets(n, n, &t).unwrap()
    }

    #[test]
    fn feature_count_and_names_agree() {
        let f = features(&tridiag(32));
        assert_eq!(f.len(), NUM_FEATURES);
        assert_eq!(feature_names().len(), NUM_FEATURES);
    }

    #[test]
    fn features_are_finite() {
        let f = features(&tridiag(100));
        assert!(f.iter().all(|v| v.is_finite()), "{f:?}");
        // Even a minimal matrix must not produce NaN/inf.
        let m = CooMatrix::from_triplets(1, 1, &[(0, 0, 1.0)]).unwrap();
        let f = features(&m);
        assert!(f.iter().all(|v| v.is_finite()), "{f:?}");
    }

    #[test]
    fn banded_matrix_has_high_dia_fill_feature() {
        let f = features(&tridiag(64));
        let names = feature_names();
        let dia_fill = f[names.iter().position(|&n| n == "dia_fill").unwrap()];
        assert!(dia_fill > 0.9, "dia_fill = {dia_fill}");
    }

    #[test]
    fn skewed_matrix_has_high_cv_feature() {
        let mut t: Vec<_> = (1..64).map(|i| (i, i, 1.0)).collect();
        t.extend((0..64).map(|j| (0usize, j, 1.0)));
        let m = CooMatrix::from_triplets(64, 64, &t).unwrap();
        let f = features(&m);
        let cv = f[feature_names().iter().position(|&n| n == "row_cv").unwrap()];
        assert!(cv > 1.5, "row_cv = {cv}");
    }

    #[test]
    fn hypersparse_matrix_has_high_empty_fraction() {
        let m = CooMatrix::from_triplets(100, 100, &[(0, 0, 1.0), (99, 99, 1.0)]).unwrap();
        let f = features(&m);
        let idx = feature_names()
            .iter()
            .position(|&n| n == "empty_row_fraction")
            .unwrap();
        assert!(f[idx] > 0.9);
    }

    #[test]
    fn features_scale_sensibly_with_size() {
        let small = features(&tridiag(16));
        let large = features(&tridiag(256));
        // log sizes grow, fills stay comparable.
        assert!(large[0] > small[0]);
        assert!((large[9] - small[9]).abs() < 0.1, "dia_fill drifted");
    }
}
