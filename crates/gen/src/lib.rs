//! Synthetic sparse matrix generation, augmentation, and dataset
//! management.
//!
//! The paper trains on 2757 SuiteSparse matrices plus ~6400 derived
//! variants (≈400 GB of data we cannot ship). This crate substitutes a
//! deterministic generator that emits the structural *families* that
//! dominate that collection — banded/diagonal operators, 2-D stencil
//! grids, power-law graph matrices, block-structured FEM-style
//! matrices, uniform-row matrices, scattered random matrices and
//! hypersparse matrices — plus the paper's own augmentation operations
//! (cropping, transposing, randomized combination, Section 7.1).
//!
//! Everything is seeded: the same [`DatasetSpec`] always yields the
//! same matrices, so every experiment in the workspace is reproducible.

pub mod augment;
pub mod dataset;
pub mod generators;

pub use augment::{augment, Augmentation};
pub use dataset::{kfold, Dataset, DatasetSpec};
pub use generators::{generate, MatrixClass};
