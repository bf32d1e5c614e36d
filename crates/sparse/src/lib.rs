//! Sparse matrix storage formats and SpMV kernels.
//!
//! This crate is the kernel substrate of the `dnnspmv` workspace: it
//! implements, from scratch, the storage formats the paper's evaluation
//! runs — COO, CSR, DIA and ELL on the CPU side (the SMATLib set), HYB
//! from the GPU side (the cuSPARSE set), and SELL-C-σ from the
//! follow-on many-core literature (arXiv:1805.11938) — together with one
//! sparse matrix–vector multiplication (SpMV) kernel per format, format
//! conversions, structural statistics from one store-only sweep, and
//! MatrixMarket I/O.
//!
//! BSR and CSR5 (GPU set) and merge-path CSR (many-core set) are names
//! only: they stay [`SparseFormat`] variants so the cost models can
//! price them and label indices stay stable, but they have no storage
//! type and no kernel. Sequentially CSR5 and merge-path CSR are CSR's
//! row scan, and their parallel difference (splitting a row across
//! tasks) is exactly what a bit-identical parallel SpMV forbids; BSR's
//! GPU wins come from hardware a scalar kernel lacks, and HYB outran it
//! on every matrix it converted. [`AnyMatrix::convert`] returns
//! [`SparseError::NoKernel`] for them.
//!
//! # Canonical representation
//!
//! [`CooMatrix`] in sorted, deduplicated coordinate form is the canonical
//! exchange type. Every other format converts from and back to it, which
//! keeps conversion logic star-shaped instead of quadratic in the number
//! of formats and gives property tests a single round-trip invariant.
//!
//! # SpMV semantics
//!
//! All kernels compute `y = A * x` (overwriting `y`). Each format has
//! exactly one kernel, [`Spmv::spmv`]: labels are timed on it and serving
//! runs it. [`Spmv::spmv_par`] is the entry point a thread-parallel
//! driver will fill; until then it runs `spmv` unchanged.
//!
//! # Quick example
//!
//! ```
//! use dnnspmv_sparse::{CooMatrix, CsrMatrix, Spmv};
//!
//! // 2x2 diagonal matrix.
//! let coo = CooMatrix::<f64>::from_triplets(2, 2, &[(0, 0, 2.0), (1, 1, 3.0)]).unwrap();
//! let csr = CsrMatrix::from_coo(&coo);
//! let mut y = vec![0.0; 2];
//! csr.spmv(&[1.0, 1.0], &mut y);
//! assert_eq!(y, vec![2.0, 3.0]);
//! ```

pub mod coo;
pub mod csr;
pub mod dense;
pub mod dia;
pub mod ell;
pub mod error;
pub mod format;
pub mod hyb;
pub mod io;
pub mod scalar;
pub mod sell;
pub mod spmv;
pub mod stats;

pub use coo::{CooBuilder, CooMatrix};
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use dia::DiaMatrix;
pub use ell::EllMatrix;
pub use error::SparseError;
pub use format::{AnyMatrix, SparseFormat};
pub use hyb::HybMatrix;
pub use scalar::Scalar;
pub use sell::SellMatrix;
pub use spmv::Spmv;
pub use stats::{MatrixStats, StructureCounts};
