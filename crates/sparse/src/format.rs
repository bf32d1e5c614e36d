//! Format identifiers and the type-erased [`AnyMatrix`] dispatcher.
//!
//! The selector pipeline works with format *IDs* (class labels), so this
//! module provides the enum, the per-platform candidate sets matching
//! the paper's evaluation (SMATLib on CPU, cuSPARSE + CSR5 on GPU), and
//! a dispatcher that converts a canonical COO matrix into any chosen
//! format and runs SpMV on it.

use crate::bsr::BsrMatrix;
use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::csr5::Csr5Matrix;
use crate::dia::DiaMatrix;
use crate::ell::EllMatrix;
use crate::error::SparseError;
use crate::hyb::HybMatrix;
use crate::merge_csr::MergeCsrMatrix;
use crate::scalar::Scalar;
use crate::sell::SellMatrix;
use crate::spmv::Spmv;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Sparse storage format identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SparseFormat {
    /// Coordinate list.
    Coo,
    /// Compressed sparse row.
    Csr,
    /// Diagonal.
    Dia,
    /// ELLPACK.
    Ell,
    /// Hybrid ELL + COO.
    Hyb,
    /// Block sparse row (4x4 blocks by default).
    Bsr,
    /// CSR5-style tiled segmented-sum.
    Csr5,
    /// SELL-C-σ sliced ELLPACK with σ-window row sorting.
    Sell,
    /// CSR storage with the merge-path load-balanced parallel kernel.
    MergeCsr,
}

impl SparseFormat {
    /// The CPU candidate set used by the paper's SMATLib experiments
    /// (Table 2): COO, CSR, DIA, ELL.
    pub const CPU_SET: [SparseFormat; 4] = [
        SparseFormat::Coo,
        SparseFormat::Csr,
        SparseFormat::Dia,
        SparseFormat::Ell,
    ];

    /// The GPU candidate set used by the paper's cuSPARSE(+CSR5)
    /// experiments (Table 3): CSR, ELL, HYB, BSR, CSR5, COO.
    pub const GPU_SET: [SparseFormat; 6] = [
        SparseFormat::Csr,
        SparseFormat::Ell,
        SparseFormat::Hyb,
        SparseFormat::Bsr,
        SparseFormat::Csr5,
        SparseFormat::Coo,
    ];

    /// The many-core CPU candidate set: the SMATLib CPU formats plus
    /// the two wide-machine kernels from the follow-on SpMV literature
    /// (arXiv:1805.11938) — SELL-C-σ and merge-path CSR.
    pub const MANYCORE_SET: [SparseFormat; 6] = [
        SparseFormat::Coo,
        SparseFormat::Csr,
        SparseFormat::Dia,
        SparseFormat::Ell,
        SparseFormat::Sell,
        SparseFormat::MergeCsr,
    ];

    /// All formats implemented by this crate. New formats are appended
    /// so existing positional tables (per-format bias, timer slots)
    /// keep their indices across versions.
    pub const ALL: [SparseFormat; 9] = [
        SparseFormat::Coo,
        SparseFormat::Csr,
        SparseFormat::Dia,
        SparseFormat::Ell,
        SparseFormat::Hyb,
        SparseFormat::Bsr,
        SparseFormat::Csr5,
        SparseFormat::Sell,
        SparseFormat::MergeCsr,
    ];

    /// Stable short name (also the `FromStr` spelling).
    pub fn name(self) -> &'static str {
        match self {
            SparseFormat::Coo => "COO",
            SparseFormat::Csr => "CSR",
            SparseFormat::Dia => "DIA",
            SparseFormat::Ell => "ELL",
            SparseFormat::Hyb => "HYB",
            SparseFormat::Bsr => "BSR",
            SparseFormat::Csr5 => "CSR5",
            SparseFormat::Sell => "SELL",
            SparseFormat::MergeCsr => "MCSR",
        }
    }

    /// Index of this format within a candidate set (the class label used
    /// by both the CNN and the decision tree), or `None` if absent.
    pub fn label_in(self, set: &[SparseFormat]) -> Option<usize> {
        set.iter().position(|&f| f == self)
    }
}

impl fmt::Display for SparseFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for SparseFormat {
    type Err = SparseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "COO" => Ok(SparseFormat::Coo),
            "CSR" => Ok(SparseFormat::Csr),
            "DIA" => Ok(SparseFormat::Dia),
            "ELL" => Ok(SparseFormat::Ell),
            "HYB" => Ok(SparseFormat::Hyb),
            "BSR" => Ok(SparseFormat::Bsr),
            "CSR5" => Ok(SparseFormat::Csr5),
            "SELL" => Ok(SparseFormat::Sell),
            "MCSR" => Ok(SparseFormat::MergeCsr),
            other => Err(SparseError::InvalidStructure(format!(
                "unknown format name '{other}'"
            ))),
        }
    }
}

/// A sparse matrix stored in any of the supported formats, dispatching
/// [`Spmv`] to the concrete kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AnyMatrix<S: Scalar> {
    /// Coordinate list.
    Coo(CooMatrix<S>),
    /// Compressed sparse row.
    Csr(CsrMatrix<S>),
    /// Diagonal.
    Dia(DiaMatrix<S>),
    /// ELLPACK.
    Ell(EllMatrix<S>),
    /// Hybrid ELL + COO.
    Hyb(HybMatrix<S>),
    /// Block sparse row.
    Bsr(BsrMatrix<S>),
    /// CSR5-style tiled.
    Csr5(Csr5Matrix<S>),
    /// SELL-C-σ sliced ELLPACK.
    Sell(SellMatrix<S>),
    /// Merge-path CSR.
    MergeCsr(MergeCsrMatrix<S>),
}

impl<S: Scalar> AnyMatrix<S> {
    /// Converts a canonical COO matrix into the requested format.
    ///
    /// DIA, ELL, and BSR conversions can fail when the matrix would blow
    /// their padding limits — the same reason a real autotuner excludes
    /// those formats for such matrices.
    pub fn convert(coo: &CooMatrix<S>, format: SparseFormat) -> Result<Self, SparseError> {
        Ok(match format {
            SparseFormat::Coo => AnyMatrix::Coo(coo.clone()),
            SparseFormat::Csr => AnyMatrix::Csr(CsrMatrix::from_coo(coo)),
            SparseFormat::Dia => AnyMatrix::Dia(DiaMatrix::from_coo(coo)?),
            SparseFormat::Ell => AnyMatrix::Ell(EllMatrix::from_coo(coo)?),
            SparseFormat::Hyb => AnyMatrix::Hyb(HybMatrix::from_coo(coo)),
            SparseFormat::Bsr => AnyMatrix::Bsr(BsrMatrix::from_coo(coo)?),
            SparseFormat::Csr5 => AnyMatrix::Csr5(Csr5Matrix::from_coo(coo)),
            SparseFormat::Sell => AnyMatrix::Sell(SellMatrix::from_coo(coo)),
            SparseFormat::MergeCsr => AnyMatrix::MergeCsr(MergeCsrMatrix::from_coo(coo)),
        })
    }

    /// The format this matrix is stored in.
    pub fn format(&self) -> SparseFormat {
        match self {
            AnyMatrix::Coo(_) => SparseFormat::Coo,
            AnyMatrix::Csr(_) => SparseFormat::Csr,
            AnyMatrix::Dia(_) => SparseFormat::Dia,
            AnyMatrix::Ell(_) => SparseFormat::Ell,
            AnyMatrix::Hyb(_) => SparseFormat::Hyb,
            AnyMatrix::Bsr(_) => SparseFormat::Bsr,
            AnyMatrix::Csr5(_) => SparseFormat::Csr5,
            AnyMatrix::Sell(_) => SparseFormat::Sell,
            AnyMatrix::MergeCsr(_) => SparseFormat::MergeCsr,
        }
    }

    /// Converts back to canonical COO.
    ///
    /// Fallible because an `AnyMatrix` can arrive through
    /// deserialization: a hostile payload may violate the structural
    /// invariants `convert` would have established, and HYB/BSR report
    /// that as a typed error instead of panicking.
    pub fn to_coo(&self) -> Result<CooMatrix<S>, SparseError> {
        Ok(match self {
            AnyMatrix::Coo(m) => m.clone(),
            AnyMatrix::Csr(m) => m.to_coo(),
            AnyMatrix::Dia(m) => m.to_coo(),
            AnyMatrix::Ell(m) => m.to_coo(),
            AnyMatrix::Hyb(m) => m.to_coo()?,
            AnyMatrix::Bsr(m) => m.to_coo()?,
            AnyMatrix::Csr5(m) => m.to_coo(),
            AnyMatrix::Sell(m) => m.to_coo()?,
            AnyMatrix::MergeCsr(m) => m.to_coo()?,
        })
    }

    fn as_spmv(&self) -> &dyn Spmv<S> {
        match self {
            AnyMatrix::Coo(m) => m,
            AnyMatrix::Csr(m) => m,
            AnyMatrix::Dia(m) => m,
            AnyMatrix::Ell(m) => m,
            AnyMatrix::Hyb(m) => m,
            AnyMatrix::Bsr(m) => m,
            AnyMatrix::Csr5(m) => m,
            AnyMatrix::Sell(m) => m,
            AnyMatrix::MergeCsr(m) => m,
        }
    }
}

impl<S: Scalar> Spmv<S> for AnyMatrix<S> {
    fn nrows(&self) -> usize {
        self.as_spmv().nrows()
    }

    fn ncols(&self) -> usize {
        self.as_spmv().ncols()
    }

    fn spmv(&self, x: &[S], y: &mut [S]) {
        self.as_spmv().spmv(x, y);
    }

    fn spmv_par(&self, x: &[S], y: &mut [S]) {
        self.as_spmv().spmv_par(x, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CooMatrix<f64> {
        CooMatrix::from_triplets(
            4,
            4,
            &[
                (0, 0, 1.0),
                (0, 1, 5.0),
                (1, 1, 2.0),
                (1, 2, 6.0),
                (2, 0, 8.0),
                (2, 2, 3.0),
                (2, 3, 7.0),
                (3, 1, 9.0),
                (3, 3, 4.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn names_round_trip_through_fromstr() {
        for f in SparseFormat::ALL {
            assert_eq!(f.name().parse::<SparseFormat>().unwrap(), f);
        }
        assert!("XYZ".parse::<SparseFormat>().is_err());
    }

    #[test]
    fn candidate_sets_match_paper() {
        assert_eq!(SparseFormat::CPU_SET.len(), 4);
        assert_eq!(SparseFormat::GPU_SET.len(), 6);
        assert!(!SparseFormat::CPU_SET.contains(&SparseFormat::Hyb));
        assert!(!SparseFormat::GPU_SET.contains(&SparseFormat::Dia));
    }

    #[test]
    fn label_in_maps_to_set_position() {
        assert_eq!(SparseFormat::Dia.label_in(&SparseFormat::CPU_SET), Some(2));
        assert_eq!(SparseFormat::Hyb.label_in(&SparseFormat::CPU_SET), None);
        assert_eq!(SparseFormat::Csr5.label_in(&SparseFormat::GPU_SET), Some(4));
    }

    #[test]
    fn manycore_set_extends_cpu_set() {
        assert_eq!(SparseFormat::MANYCORE_SET.len(), 6);
        for f in SparseFormat::CPU_SET {
            assert!(SparseFormat::MANYCORE_SET.contains(&f));
        }
        assert!(SparseFormat::MANYCORE_SET.contains(&SparseFormat::Sell));
        assert!(SparseFormat::MANYCORE_SET.contains(&SparseFormat::MergeCsr));
        // New formats are appended, so pre-existing positional indices
        // into ALL stay stable across the widening.
        assert_eq!(SparseFormat::Csr5.label_in(&SparseFormat::ALL), Some(6));
        assert_eq!(SparseFormat::Sell.label_in(&SparseFormat::ALL), Some(7));
        assert_eq!(SparseFormat::MergeCsr.label_in(&SparseFormat::ALL), Some(8));
    }

    #[test]
    fn convert_round_trips_every_format() {
        let coo = sample();
        for f in SparseFormat::ALL {
            let any = AnyMatrix::convert(&coo, f).unwrap();
            assert_eq!(any.format(), f);
            assert_eq!(any.to_coo().unwrap(), coo, "format {f}");
        }
    }

    #[test]
    fn spmv_identical_across_all_formats() {
        let coo = sample();
        let x = [0.5, -1.0, 2.0, 3.0];
        let want = coo.spmv_alloc(&x);
        for f in SparseFormat::ALL {
            let any = AnyMatrix::convert(&coo, f).unwrap();
            let got = any.spmv_alloc(&x);
            for (a, b) in got.iter().zip(&want) {
                assert!(a.approx_eq(*b, 1e-12), "format {f}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn convert_propagates_dia_failure() {
        let n = 10_000;
        // Anti-diagonal: n distinct diagonals, above DEFAULT_MAX_DIAGS.
        let t: Vec<_> = (0..n).map(|i| (i, n - 1 - i, 1.0)).collect();
        let coo = CooMatrix::from_triplets(n, n, &t).unwrap();
        assert!(AnyMatrix::convert(&coo, SparseFormat::Dia).is_err());
        assert!(AnyMatrix::convert(&coo, SparseFormat::Csr).is_ok());
    }

    #[test]
    fn display_prints_short_name() {
        assert_eq!(SparseFormat::Csr5.to_string(), "CSR5");
    }
}
