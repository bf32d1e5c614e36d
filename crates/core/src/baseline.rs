//! The decision-tree baseline packaged as a drop-in selector — the
//! "DT" columns of Tables 2 and 3.

use crate::error::SelectorError;
use dnnspmv_nn::serialize::{fnv1a64, read_envelope_path, write_envelope_atomic};
use dnnspmv_nn::NnError;
use dnnspmv_sparse::{CooMatrix, Scalar, SparseFormat};
use dnnspmv_tree::{features, DecisionTree, TreeConfig, NUM_FEATURES};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Envelope kind tag for persisted [`DtSelector`]s.
pub const KIND_DT_SELECTOR: &str = "dt-selector";

/// SMAT-style decision-tree format selector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DtSelector {
    tree: DecisionTree,
    /// Class index → format mapping.
    pub formats: Vec<SparseFormat>,
}

impl DtSelector {
    /// Trains on matrices with class labels (indices into `formats`).
    pub fn train<S: Scalar>(
        matrices: &[CooMatrix<S>],
        labels: &[usize],
        formats: Vec<SparseFormat>,
    ) -> Self {
        assert_eq!(matrices.len(), labels.len(), "matrix/label count mismatch");
        let x: Vec<Vec<f64>> = matrices.iter().map(|m| features(m)).collect();
        let tree = DecisionTree::train(&x, labels, TreeConfig::new(formats.len()));
        Self { tree, formats }
    }

    /// Predicts the best format for a matrix.
    pub fn predict<S: Scalar>(&self, matrix: &CooMatrix<S>) -> SparseFormat {
        self.formats[self.predict_label(matrix)]
    }

    /// The tree's format for `matrix` when the leaf it lands in was pure
    /// in training, `None` when that leaf held more than one label.
    pub fn predict_if_pure<S: Scalar>(&self, matrix: &CooMatrix<S>) -> Option<SparseFormat> {
        let (label, pure) = self.tree.predict_with_purity(&features(matrix));
        pure.then(|| self.formats[label])
    }

    /// Predicts the class label.
    pub fn predict_label<S: Scalar>(&self, matrix: &CooMatrix<S>) -> usize {
        self.tree.predict(&features(matrix))
    }

    /// Accuracy against reference labels.
    pub fn accuracy<S: Scalar>(&self, matrices: &[CooMatrix<S>], labels: &[usize]) -> f64 {
        if matrices.is_empty() {
            return 0.0;
        }
        let hits: usize = matrices
            .iter()
            .zip(labels)
            .filter(|(m, &l)| self.predict_label(*m) == l)
            .count();
        hits as f64 / matrices.len() as f64
    }

    /// Internal consistency of a (possibly deserialized) selector:
    /// the tree's structure must validate, its feature width must be
    /// the extractor's [`NUM_FEATURES`], and its class count must
    /// match the format set — the invariants that keep
    /// [`Self::predict`] panic-free on any input matrix.
    pub fn validate(&self) -> Result<(), SelectorError> {
        self.tree
            .validate()
            .map_err(|m| SelectorError::Nn(NnError::InvalidModel(m)))?;
        if self.formats.is_empty() {
            return Err(SelectorError::Invalid("empty format set".into()));
        }
        if self.tree.n_features() != NUM_FEATURES {
            return Err(SelectorError::Invalid(format!(
                "tree expects {} features but the extractor produces {NUM_FEATURES}",
                self.tree.n_features()
            )));
        }
        if self.tree.n_classes() != self.formats.len() {
            return Err(SelectorError::Invalid(format!(
                "tree predicts {} classes but the format set has {}",
                self.tree.n_classes(),
                self.formats.len()
            )));
        }
        Ok(())
    }

    /// Saves the selector as an enveloped, checksummed JSON artefact,
    /// written atomically. Does not validate (see
    /// [`crate::FormatSelector::save`] for the rationale).
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), SelectorError> {
        let fp = fnv1a64(format!("dt|{:?}", self.formats).as_bytes());
        write_envelope_atomic(KIND_DT_SELECTOR, fp, self, path).map_err(SelectorError::from)
    }

    /// Loads and validates a selector saved by [`Self::save`].
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, SelectorError> {
        let (sel, _): (Self, u64) = read_envelope_path(KIND_DT_SELECTOR, path)?;
        sel.validate()?;
        Ok(sel)
    }

    /// `confusion[truth][predicted]` over a labelled set.
    pub fn confusion<S: Scalar>(
        &self,
        matrices: &[CooMatrix<S>],
        labels: &[usize],
    ) -> Vec<Vec<usize>> {
        let k = self.formats.len();
        let preds: Vec<(usize, usize)> = matrices
            .iter()
            .zip(labels)
            .map(|(m, &l)| (l, self.predict_label(m)))
            .collect();
        let mut cm = vec![vec![0usize; k]; k];
        for (t, p) in preds {
            cm[t][p] += 1;
        }
        cm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnspmv_gen::{Dataset, DatasetSpec};
    use dnnspmv_platform::{label_dataset, PlatformModel};

    #[test]
    fn dt_learns_cost_model_labels_well_in_sample() {
        let data = Dataset::generate(&DatasetSpec {
            n_base: 120,
            n_augmented: 0,
            dim_min: 48,
            dim_max: 160,
            ..DatasetSpec::tiny(5)
        });
        let platform = PlatformModel::intel_cpu();
        let labels = label_dataset(&data.matrices, &platform);
        let dt = DtSelector::train(&data.matrices, &labels, platform.formats().to_vec());
        let acc = dt.accuracy(&data.matrices, &labels);
        assert!(acc > 0.8, "in-sample accuracy only {acc}");
    }

    #[test]
    fn predictions_come_from_the_format_set() {
        let data = Dataset::generate(&DatasetSpec {
            n_base: 40,
            n_augmented: 0,
            ..DatasetSpec::tiny(6)
        });
        let platform = PlatformModel::nvidia_gpu();
        let labels = label_dataset(&data.matrices, &platform);
        let dt = DtSelector::train(&data.matrices, &labels, platform.formats().to_vec());
        for m in &data.matrices {
            assert!(platform.formats().contains(&dt.predict(m)));
        }
    }

    #[test]
    fn confusion_matrix_totals_match() {
        let data = Dataset::generate(&DatasetSpec {
            n_base: 40,
            n_augmented: 0,
            ..DatasetSpec::tiny(7)
        });
        let platform = PlatformModel::intel_cpu();
        let labels = label_dataset(&data.matrices, &platform);
        let dt = DtSelector::train(&data.matrices, &labels, platform.formats().to_vec());
        let cm = dt.confusion(&data.matrices, &labels);
        let total: usize = cm.iter().flatten().sum();
        assert_eq!(total, data.matrices.len());
    }

    #[test]
    fn serialises_round_trip() {
        let data = Dataset::generate(&DatasetSpec {
            n_base: 30,
            n_augmented: 0,
            ..DatasetSpec::tiny(8)
        });
        let platform = PlatformModel::intel_cpu();
        let labels = label_dataset(&data.matrices, &platform);
        let dt = DtSelector::train(&data.matrices, &labels, platform.formats().to_vec());
        let json = serde_json::to_string(&dt).unwrap();
        let back: DtSelector = serde_json::from_str(&json).unwrap();
        assert_eq!(back, dt);
    }

    #[test]
    fn enveloped_save_load_validates() {
        let data = Dataset::generate(&DatasetSpec {
            n_base: 30,
            n_augmented: 0,
            ..DatasetSpec::tiny(9)
        });
        let platform = PlatformModel::intel_cpu();
        let labels = label_dataset(&data.matrices, &platform);
        let dt = DtSelector::train(&data.matrices, &labels, platform.formats().to_vec());
        let dir = std::env::temp_dir().join("dnnspmv_dt_robust");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("dt.json");
        dt.save(&p).unwrap();
        let back = DtSelector::load(&p).unwrap();
        assert_eq!(back, dt);

        // Format set shrunk below the tree's class count: rejected at
        // load even though the envelope is intact.
        let mut broken = dt.clone();
        broken.formats.pop();
        broken.save(&p).unwrap();
        let err = DtSelector::load(&p).unwrap_err();
        assert!(matches!(err, SelectorError::Invalid(_)), "{err}");

        // Truncated file: typed parse error.
        let text = {
            dt.save(&p).unwrap();
            std::fs::read_to_string(&p).unwrap()
        };
        std::fs::write(&p, &text[..text.len() / 2]).unwrap();
        assert!(DtSelector::load(&p).is_err());
        std::fs::remove_file(&p).ok();
    }
}
