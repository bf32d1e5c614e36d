//! Dataset assembly: weighted class mix, augmentation, k-fold splits.

use crate::augment::{augment, Augmentation};
use crate::generators::{generate, MatrixClass};
use dnnspmv_sparse::CooMatrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Parameters of a synthetic dataset.
///
/// `class_weights` mirrors the SuiteSparse population closely enough
/// that the platform cost models produce a CSR-dominated label
/// distribution like the paper's Table 2 (verified by `repro labels`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Matrices generated directly from the structural families.
    pub n_base: usize,
    /// Additional matrices derived via augmentation (paper: ~2.3x the
    /// base count; default here keeps runtimes laptop-friendly).
    pub n_augmented: usize,
    /// Minimum edge size of generated matrices.
    pub dim_min: usize,
    /// Maximum edge size of generated matrices.
    pub dim_max: usize,
    /// Master seed; everything else derives from it.
    pub seed: u64,
    /// Per-class sampling weights, parallel to [`MatrixClass::ALL`].
    pub class_weights: [f64; 7],
}

impl Default for DatasetSpec {
    fn default() -> Self {
        Self {
            n_base: 900,
            n_augmented: 2100,
            dim_min: 64,
            dim_max: 512,
            seed: 0xD44A_5EED,
            // Banded, Stencil, UniformRows, Block, PowerLaw, Random,
            // Hypersparse — weighted so the Intel cost model's labels
            // come out CSR-dominated like the paper's Table 2.
            class_weights: [0.08, 0.04, 0.08, 0.16, 0.17, 0.35, 0.05],
        }
    }
}

impl DatasetSpec {
    /// A small spec for unit tests and doc examples.
    pub fn tiny(seed: u64) -> Self {
        Self {
            n_base: 24,
            n_augmented: 8,
            dim_min: 32,
            dim_max: 96,
            seed,
            ..Self::default()
        }
    }

    /// Total dataset size.
    pub fn len(&self) -> usize {
        self.n_base + self.n_augmented
    }

    /// True when the spec produces no matrices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A generated dataset: matrices plus their provenance.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The matrices. Augmented entries follow the base entries.
    pub matrices: Vec<CooMatrix<f32>>,
    /// Structural family of each base matrix; `None` for augmented ones
    /// (their structure is a mix).
    pub classes: Vec<Option<MatrixClass>>,
    /// The spec that produced this dataset.
    pub spec: DatasetSpec,
}

impl Dataset {
    /// Generates the dataset described by `spec` (seeded).
    ///
    /// # Panics
    /// Panics if `class_weights` sums to zero, or if `n_augmented > 0`
    /// while `n_base == 0`: augmented matrices derive from base pairs,
    /// so there is nothing to augment.
    pub fn generate(spec: &DatasetSpec) -> Self {
        let total_w: f64 = spec.class_weights.iter().sum();
        assert!(total_w > 0.0, "class weights must not all be zero");
        assert!(
            spec.n_augmented == 0 || spec.n_base > 0,
            "n_augmented = {} needs n_base > 0: augmentation derives from base matrices",
            spec.n_augmented
        );

        // Base matrices, one deterministic seed per index.
        let base: Vec<(CooMatrix<f32>, MatrixClass)> = (0..spec.n_base)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(
                    spec.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                let class = pick_class(&spec.class_weights, total_w, &mut rng);
                let dim = rng.random_range(spec.dim_min..=spec.dim_max);
                (generate(class, dim, rng.random()), class)
            })
            .collect();

        // Augmented matrices derive from random base pairs.
        let augmented: Vec<CooMatrix<f32>> = (0..spec.n_augmented)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(
                    spec.seed
                        ^ 0xA0A0_A0A0_A0A0_A0A0
                        ^ (i as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9),
                );
                let a = &base[rng.random_range(0..base.len())].0;
                let b = &base[rng.random_range(0..base.len())].0;
                let op = Augmentation::ALL[rng.random_range(0..Augmentation::ALL.len())];
                augment(a, b, op, rng.random())
            })
            .collect();

        let mut matrices = Vec::with_capacity(spec.len());
        let mut classes = Vec::with_capacity(spec.len());
        for (m, c) in base {
            matrices.push(m);
            classes.push(Some(c));
        }
        for m in augmented {
            matrices.push(m);
            classes.push(None);
        }
        Self {
            matrices,
            classes,
            spec: spec.clone(),
        }
    }

    /// Number of matrices.
    pub fn len(&self) -> usize {
        self.matrices.len()
    }

    /// True when the dataset holds no matrices.
    pub fn is_empty(&self) -> bool {
        self.matrices.is_empty()
    }
}

fn pick_class(weights: &[f64; 7], total: f64, rng: &mut StdRng) -> MatrixClass {
    let mut t = rng.random::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        if t < w {
            return MatrixClass::ALL[i];
        }
        t -= w;
    }
    *MatrixClass::ALL.last().expect("ALL is non-empty")
}

/// K-fold cross-validation index splits (the paper uses 5-fold).
///
/// Returns `k` pairs of (train indices, test indices); the test sets
/// partition `0..n` and each index appears in exactly one test set.
/// Assignment is a seeded shuffle, so folds are reproducible.
pub fn kfold(n: usize, k: usize, seed: u64) -> Vec<(Vec<usize>, Vec<usize>)> {
    assert!(k >= 2, "need at least 2 folds");
    assert!(n >= k, "need at least one sample per fold");
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    // Fisher–Yates shuffle.
    for i in (1..n).rev() {
        idx.swap(i, rng.random_range(0..=i));
    }
    let mut folds = Vec::with_capacity(k);
    for f in 0..k {
        let lo = f * n / k;
        let hi = (f + 1) * n / k;
        let test: Vec<usize> = idx[lo..hi].to_vec();
        let train: Vec<usize> = idx[..lo].iter().chain(&idx[hi..]).copied().collect();
        folds.push((train, test));
    }
    folds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_is_deterministic() {
        let spec = DatasetSpec::tiny(7);
        let a = Dataset::generate(&spec);
        let b = Dataset::generate(&spec);
        assert_eq!(a.matrices, b.matrices);
        assert_eq!(a.classes, b.classes);
    }

    #[test]
    fn dataset_has_requested_size_and_provenance() {
        let spec = DatasetSpec::tiny(1);
        let d = Dataset::generate(&spec);
        assert_eq!(d.len(), spec.len());
        assert_eq!(
            d.classes.iter().filter(|c| c.is_some()).count(),
            spec.n_base
        );
        assert_eq!(
            d.classes.iter().filter(|c| c.is_none()).count(),
            spec.n_augmented
        );
    }

    #[test]
    fn small_specs_yield_exactly_len_matrices() {
        for (n_base, n_augmented) in [(0, 0), (1, 0), (1, 3)] {
            let spec = DatasetSpec {
                n_base,
                n_augmented,
                ..DatasetSpec::tiny(5)
            };
            assert_eq!(Dataset::generate(&spec).len(), spec.len());
        }
    }

    #[test]
    #[should_panic(expected = "n_augmented = 1 needs n_base > 0")]
    fn augmentation_without_a_base_is_rejected() {
        let _ = Dataset::generate(&DatasetSpec {
            n_base: 0,
            n_augmented: 1,
            ..DatasetSpec::tiny(5)
        });
    }

    #[test]
    fn dataset_covers_multiple_classes() {
        let spec = DatasetSpec {
            n_base: 64,
            n_augmented: 0,
            ..DatasetSpec::tiny(3)
        };
        let d = Dataset::generate(&spec);
        let distinct: std::collections::HashSet<_> = d.classes.iter().flatten().collect();
        assert!(distinct.len() >= 4, "only {} classes drawn", distinct.len());
    }

    #[test]
    fn kfold_partitions_everything() {
        let folds = kfold(103, 5, 9);
        assert_eq!(folds.len(), 5);
        let mut seen = [false; 103];
        for (train, test) in &folds {
            assert_eq!(train.len() + test.len(), 103);
            for &i in test {
                assert!(!seen[i], "index {i} in two test folds");
                seen[i] = true;
                assert!(!train.contains(&i));
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn kfold_is_seeded() {
        assert_eq!(kfold(50, 5, 4), kfold(50, 5, 4));
        assert_ne!(kfold(50, 5, 4), kfold(50, 5, 5));
    }

    #[test]
    #[should_panic(expected = "at least 2 folds")]
    fn kfold_rejects_k1() {
        let _ = kfold(10, 1, 0);
    }

    #[test]
    fn all_generated_matrices_are_valid() {
        let d = Dataset::generate(&DatasetSpec::tiny(11));
        for m in &d.matrices {
            m.validate().unwrap();
            assert!(m.nnz() > 0);
        }
    }
}
