//! The trained CNN format selector.

use crate::error::SelectorError;
use crate::samples::{make_channels, make_samples};
use dnnspmv_nn::network::Cnn;
use dnnspmv_nn::serialize::{model_fingerprint, read_envelope_path, write_envelope_atomic};
use dnnspmv_nn::train::{confusion_matrix, evaluate, predict_proba};
use dnnspmv_nn::transfer::Migration;
use dnnspmv_nn::{build_cnn, CnnConfig, Merging, NnError, Sample, TrainConfig, TrainReport};
use dnnspmv_platform::{label_dataset, PlatformModel};
use dnnspmv_repr::{ReprConfig, ReprKind};
use dnnspmv_sparse::{AnyMatrix, CooMatrix, Scalar, SparseFormat};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Everything configurable about selector construction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelectorConfig {
    /// Input representation (the paper's best: distance histograms).
    pub repr: ReprKind,
    /// Representation sizes.
    pub repr_config: ReprConfig,
    /// CNN merge placement (the paper's best: late merging).
    pub merging: Merging,
    /// CNN structural hyper-parameters.
    pub cnn: CnnConfig,
    /// Training hyper-parameters.
    pub train: TrainConfig,
}

impl Default for SelectorConfig {
    fn default() -> Self {
        Self {
            repr: ReprKind::Histogram,
            repr_config: ReprConfig::default(),
            merging: Merging::Late,
            cnn: CnnConfig::default(),
            train: TrainConfig::default(),
        }
    }
}

/// A trained format selector bound to one platform's format set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FormatSelector {
    /// The trained network.
    pub net: Cnn,
    /// Class index → format mapping (the platform's candidate set).
    pub formats: Vec<SparseFormat>,
    /// Construction configuration (needed for inference normalisation
    /// and for migration).
    pub config: SelectorConfig,
}

impl FormatSelector {
    /// Full Figure 3 construction: label on `platform`, normalise,
    /// build the CNN, train. Returns the selector and its training
    /// report.
    pub fn train_on_platform<S: Scalar>(
        matrices: &[CooMatrix<S>],
        platform: &PlatformModel,
        config: &SelectorConfig,
    ) -> (Self, TrainReport) {
        let labels = label_dataset(matrices, platform);
        Self::train_with_labels(matrices, &labels, platform.formats().to_vec(), config)
    }

    /// Construction from precollected labels (indices into `formats`).
    pub fn train_with_labels<S: Scalar>(
        matrices: &[CooMatrix<S>],
        labels: &[usize],
        formats: Vec<SparseFormat>,
        config: &SelectorConfig,
    ) -> (Self, TrainReport) {
        Self::try_train_with_labels(matrices, labels, formats, config).expect("training failed")
    }

    /// Fallible [`Self::train_with_labels`]: training errors (a
    /// diverged run, a rejected `resume_from` checkpoint) surface as
    /// `Err` instead of a panic.
    pub fn try_train_with_labels<S: Scalar>(
        matrices: &[CooMatrix<S>],
        labels: &[usize],
        formats: Vec<SparseFormat>,
        config: &SelectorConfig,
    ) -> Result<(Self, TrainReport), SelectorError> {
        let samples = make_samples(matrices, labels, config.repr, &config.repr_config);
        Self::try_train_on_samples(&samples, formats, config)
    }

    /// Construction from prebuilt samples (lets callers reuse one
    /// normalisation pass across experiments).
    pub fn train_on_samples(
        samples: &[Sample],
        formats: Vec<SparseFormat>,
        config: &SelectorConfig,
    ) -> (Self, TrainReport) {
        Self::try_train_on_samples(samples, formats, config).expect("training failed")
    }

    /// Fallible [`Self::train_on_samples`] (see
    /// [`Self::try_train_with_labels`]).
    pub fn try_train_on_samples(
        samples: &[Sample],
        formats: Vec<SparseFormat>,
        config: &SelectorConfig,
    ) -> Result<(Self, TrainReport), SelectorError> {
        if formats.is_empty() {
            return Err(SelectorError::Invalid("need a non-empty format set".into()));
        }
        let shape = config.repr_config.channel_shape(config.repr);
        let mut net = build_cnn(
            config.merging,
            config.repr.channels(),
            shape,
            formats.len(),
            &config.cnn,
        );
        let report = dnnspmv_nn::train_with_hooks(
            &mut net,
            samples,
            &config.train,
            dnnspmv_nn::TrainHooks::default(),
        )?;
        Ok((
            Self {
                net,
                formats,
                config: config.clone(),
            },
            report,
        ))
    }

    /// Predicts the best storage format for a matrix.
    pub fn predict<S: Scalar>(&self, matrix: &CooMatrix<S>) -> SparseFormat {
        self.formats[self.predict_label(matrix)]
    }

    /// Predicts the class label (index into [`Self::formats`]).
    pub fn predict_label<S: Scalar>(&self, matrix: &CooMatrix<S>) -> usize {
        let channels = make_channels(matrix, self.config.repr, &self.config.repr_config);
        self.net.predict(&channels)
    }

    /// Predicts class labels for many matrices at once. All samples go
    /// through [`Cnn::predict_batch`], so every network layer runs one
    /// GEMM for the whole batch instead of one per matrix.
    pub fn predict_labels_batch<S: Scalar>(&self, matrices: &[CooMatrix<S>]) -> Vec<usize> {
        let channels: Vec<Vec<dnnspmv_nn::Tensor>> = matrices
            .iter()
            .map(|m| make_channels(m, self.config.repr, &self.config.repr_config))
            .collect();
        let refs: Vec<&[dnnspmv_nn::Tensor]> = channels.iter().map(|c| c.as_slice()).collect();
        self.net.predict_batch(&refs)
    }

    /// Batched version of [`Self::predict`], parallel to `matrices`.
    pub fn predict_batch<S: Scalar>(&self, matrices: &[CooMatrix<S>]) -> Vec<SparseFormat> {
        self.predict_labels_batch(matrices)
            .into_iter()
            .map(|label| self.formats[label])
            .collect()
    }

    /// Per-format probabilities, parallel to [`Self::formats`].
    pub fn predict_proba<S: Scalar>(&self, matrix: &CooMatrix<S>) -> Vec<f32> {
        let channels = make_channels(matrix, self.config.repr, &self.config.repr_config);
        predict_proba(&self.net, &channels)
    }

    /// Converts `matrix` into the predicted format, falling back down
    /// the probability ranking (and ultimately to CSR) when a
    /// conversion is infeasible — mirroring what a library integration
    /// would do.
    pub fn prepare<S: Scalar>(&self, matrix: &CooMatrix<S>) -> AnyMatrix<S> {
        let mut order: Vec<(usize, f32)> =
            self.predict_proba(matrix).into_iter().enumerate().collect();
        // NaN probabilities (a damaged network's logits can overflow
        // softmax) sort as equal instead of panicking; the CSR tail
        // below still guarantees a usable result.
        order.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        for (label, _) in order {
            if let Ok(m) = AnyMatrix::convert(matrix, self.formats[label]) {
                return m;
            }
        }
        AnyMatrix::convert(matrix, SparseFormat::Csr).expect("CSR conversion cannot fail")
    }

    /// Accuracy against reference labels.
    pub fn accuracy(&self, samples: &[Sample]) -> f64 {
        evaluate(&self.net, samples)
    }

    /// `confusion[truth][predicted]` over prebuilt samples.
    pub fn confusion(&self, samples: &[Sample]) -> Vec<Vec<usize>> {
        confusion_matrix(&self.net, samples, self.formats.len())
    }

    /// Migrates this selector to a new platform using the given
    /// transfer-learning strategy and target-platform samples
    /// (Section 6). The target platform must expose the same format
    /// set (the paper migrates Intel CPU → AMD CPU).
    pub fn migrate(
        &self,
        strategy: Migration,
        target_samples: &[Sample],
        train_cfg: &TrainConfig,
    ) -> (Self, TrainReport) {
        let shape = self.config.repr_config.channel_shape(self.config.repr);
        let structure = (
            self.config.merging,
            self.config.repr.channels(),
            shape,
            self.formats.len(),
            self.config.cnn.clone(),
        );
        let (net, report) =
            dnnspmv_nn::migrate(&self.net, strategy, target_samples, structure, train_cfg);
        (
            Self {
                net,
                formats: self.formats.clone(),
                config: self.config.clone(),
            },
            report,
        )
    }

    /// Internal consistency of the selector as a whole: the network
    /// must validate structurally, and its input/output contract must
    /// match the declared representation and format set. Everything a
    /// loaded artefact needs before [`Self::predict`] can be trusted
    /// not to panic.
    pub fn validate(&self) -> Result<(), SelectorError> {
        self.net
            .validate()
            .map_err(|m| SelectorError::Nn(NnError::InvalidModel(m)))?;
        if self.formats.is_empty() {
            return Err(SelectorError::Invalid("empty format set".into()));
        }
        let out = self.net.out_dim();
        if out != Some(self.formats.len()) {
            return Err(SelectorError::Invalid(format!(
                "network emits {out:?} classes but the format set has {}",
                self.formats.len()
            )));
        }
        let channels = self.config.repr.channels();
        if self.net.num_channels != channels {
            return Err(SelectorError::Invalid(format!(
                "network expects {} input channels but representation {:?} produces {channels}",
                self.net.num_channels, self.config.repr
            )));
        }
        let shape = self.config.repr_config.channel_shape(self.config.repr);
        if self.net.channel_shape != shape {
            return Err(SelectorError::Invalid(format!(
                "network expects {:?} channel shape but representation config produces {shape:?}",
                self.net.channel_shape
            )));
        }
        Ok(())
    }

    /// Saves the selector (network + format mapping + config) as an
    /// enveloped, checksummed JSON artefact, written atomically.
    /// Deliberately does not validate — tests persist broken selectors
    /// to prove [`Self::load`] rejects them.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), SelectorError> {
        write_envelope_atomic(KIND_SELECTOR, model_fingerprint(&self.net), self, path)
            .map_err(SelectorError::from)
    }

    /// Loads and validates a selector saved by [`Self::save`].
    ///
    /// Corrupted, truncated or internally inconsistent files return a
    /// typed `Err`; a returned selector has passed [`Self::validate`].
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, SelectorError> {
        let (sel, fingerprint): (Self, u64) = read_envelope_path(KIND_SELECTOR, path)?;
        sel.validate()?;
        let derived = model_fingerprint(&sel.net);
        if derived != fingerprint {
            return Err(SelectorError::Nn(NnError::ConfigMismatch(format!(
                "selector fingerprint {fingerprint:#018x} does not match its network \
                 ({derived:#018x})"
            ))));
        }
        Ok(sel)
    }
}

/// Envelope kind tag for persisted [`FormatSelector`]s.
pub const KIND_SELECTOR: &str = "format-selector";

#[cfg(test)]
mod tests {
    use super::*;
    use dnnspmv_gen::{Dataset, DatasetSpec};
    use dnnspmv_nn::OptimizerKind;

    /// A small but trainable configuration for tests.
    fn test_config() -> SelectorConfig {
        SelectorConfig {
            repr: ReprKind::Histogram,
            repr_config: ReprConfig {
                image_size: 32,
                hist_rows: 32,
                hist_bins: 16,
            },
            cnn: CnnConfig {
                conv_channels: [4, 8, 8],
                hidden: 16,
                seed: 11,
            },
            train: TrainConfig {
                epochs: 6,
                batch_size: 16,
                lr: 2e-3,
                optimizer: OptimizerKind::adam(),
                seed: 13,
                ..TrainConfig::default()
            },
            ..SelectorConfig::default()
        }
    }

    fn small_dataset() -> Dataset {
        Dataset::generate(&DatasetSpec {
            n_base: 80,
            n_augmented: 0,
            dim_min: 48,
            dim_max: 160,
            ..DatasetSpec::tiny(21)
        })
    }

    #[test]
    fn trains_and_beats_chance_on_real_labels() {
        let data = small_dataset();
        let platform = PlatformModel::intel_cpu();
        let (sel, report) =
            FormatSelector::train_on_platform(&data.matrices, &platform, &test_config());
        assert!(!report.loss_history.is_empty());
        let labels = label_dataset(&data.matrices, &platform);
        let samples = make_samples(
            &data.matrices,
            &labels,
            sel.config.repr,
            &sel.config.repr_config,
        );
        let acc = sel.accuracy(&samples);
        // Four classes; labels are CSR-heavy, so even the majority
        // class baseline is beatable but chance (0.25) must be.
        assert!(acc > 0.5, "train accuracy only {acc}");
    }

    #[test]
    fn predict_returns_format_from_platform_set() {
        let data = small_dataset();
        let platform = PlatformModel::intel_cpu();
        let (sel, _) = FormatSelector::train_on_platform(&data.matrices, &platform, &test_config());
        for m in data.matrices.iter().take(10) {
            let f = sel.predict(m);
            assert!(platform.formats().contains(&f));
            let p = sel.predict_proba(m);
            assert_eq!(p.len(), 4);
            assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn batched_prediction_matches_per_matrix_calls() {
        let data = small_dataset();
        let platform = PlatformModel::intel_cpu();
        let (sel, _) = FormatSelector::train_on_platform(&data.matrices, &platform, &test_config());
        let subset = &data.matrices[..12];
        let batched = sel.predict_batch(subset);
        let labels = sel.predict_labels_batch(subset);
        assert_eq!(batched.len(), subset.len());
        for (i, m) in subset.iter().enumerate() {
            assert_eq!(batched[i], sel.predict(m), "matrix {i}");
            assert_eq!(labels[i], sel.predict_label(m), "matrix {i}");
        }
        assert!(sel.predict_batch::<f32>(&[]).is_empty());
    }

    #[test]
    fn prepare_always_yields_a_usable_matrix() {
        use dnnspmv_sparse::Spmv;
        let data = small_dataset();
        let platform = PlatformModel::intel_cpu();
        let (sel, _) = FormatSelector::train_on_platform(&data.matrices, &platform, &test_config());
        let m = &data.matrices[0];
        let prepared = sel.prepare(m);
        let x = vec![1.0f32; m.ncols()];
        let y = prepared.spmv_alloc(&x);
        let want = m.spmv_alloc(&x);
        for (a, b) in y.iter().zip(&want) {
            assert!((a - b).abs() <= 1e-3 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn save_load_round_trip_preserves_predictions() {
        let data = small_dataset();
        let platform = PlatformModel::intel_cpu();
        let (sel, _) = FormatSelector::train_on_platform(&data.matrices, &platform, &test_config());
        let dir = std::env::temp_dir().join("dnnspmv_core_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("selector.json");
        sel.save(&p).unwrap();
        let back = FormatSelector::load(&p).unwrap();
        std::fs::remove_file(&p).ok();
        for m in data.matrices.iter().take(5) {
            assert_eq!(back.predict(m), sel.predict(m));
        }
    }

    #[test]
    fn corrupted_and_mismatched_selector_files_error_cleanly() {
        use dnnspmv_nn::NnError;

        let data = small_dataset();
        let platform = PlatformModel::intel_cpu();
        let (sel, _) = FormatSelector::train_on_platform(&data.matrices, &platform, &test_config());
        let dir = std::env::temp_dir().join("dnnspmv_core_robust");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("selector.json");
        sel.save(&p).unwrap();
        let text = std::fs::read_to_string(&p).unwrap();

        // Truncated file: parse error, not a panic.
        std::fs::write(&p, &text[..text.len() / 3]).unwrap();
        let err = FormatSelector::load(&p).unwrap_err();
        assert!(matches!(err, SelectorError::Nn(NnError::Serde(_))), "{err}");

        // Flipped payload byte: checksum failure.
        let mangled = text.replacen("formats", "f0rmats", 1);
        assert_ne!(mangled, text);
        std::fs::write(&p, &mangled).unwrap();
        let err = FormatSelector::load(&p).unwrap_err();
        assert!(
            matches!(err, SelectorError::Nn(NnError::ChecksumMismatch { .. })),
            "{err}"
        );

        // Structurally inconsistent selector (format set grown past the
        // network's output dimension), saved with a *valid* envelope:
        // only load-time validation can reject it.
        let mut broken = sel.clone();
        broken.formats.push(SparseFormat::Csr);
        broken.save(&p).unwrap();
        let err = FormatSelector::load(&p).unwrap_err();
        assert!(matches!(err, SelectorError::Invalid(_)), "{err}");

        // Declared channel count mangled inside the network.
        let mut broken = sel.clone();
        broken.net.num_channels = 17;
        broken.save(&p).unwrap();
        let err = FormatSelector::load(&p).unwrap_err();
        assert!(
            matches!(err, SelectorError::Nn(NnError::InvalidModel(_))),
            "{err}"
        );

        // The pristine artefact still loads after all that.
        sel.save(&p).unwrap();
        assert!(FormatSelector::load(&p).is_ok());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn migrate_produces_selector_with_same_format_set() {
        let data = small_dataset();
        let intel = PlatformModel::intel_cpu();
        let amd = PlatformModel::amd_cpu();
        let cfg = test_config();
        let (sel, _) = FormatSelector::train_on_platform(&data.matrices, &intel, &cfg);
        let amd_labels = label_dataset(&data.matrices, &amd);
        let target = make_samples(&data.matrices, &amd_labels, cfg.repr, &cfg.repr_config);
        for strat in Migration::ALL {
            let (migrated, _) = sel.migrate(
                strat,
                &target[..20],
                &TrainConfig {
                    epochs: 1,
                    ..cfg.train.clone()
                },
            );
            assert_eq!(migrated.formats, sel.formats);
        }
    }
}
