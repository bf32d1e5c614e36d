//! The trained fixture the scenario drivers serve from: a seeded
//! synthetic pool, its cost-model labels, a small CNN selector trained
//! on them, and a scratch directory holding the saved artefact
//! ([`closed_loop`](crate::closed_loop) and
//! [`chaos_soak`](crate::chaos_soak) both start here).

use dnnspmv_core::{FormatSelector, SelectorConfig};
use dnnspmv_gen::{Dataset, DatasetSpec};
use dnnspmv_nn::TrainConfig;
use dnnspmv_platform::{label_dataset, PlatformModel};
use dnnspmv_repr::ReprKind;
use dnnspmv_sparse::CooMatrix;
use std::ops::RangeInclusive;
use std::path::PathBuf;

/// A selector trained on cost-model labels, with the pool it was
/// trained on, the platform that labelled it and its saved artefact.
pub struct Fixture {
    /// The synthetic pool (also the training set).
    pub matrices: Vec<CooMatrix<f32>>,
    /// The platform model whose labels the selector learned — exactly
    /// what an unrotated `ModelTimer` over it will measure.
    pub platform: PlatformModel,
    /// The trained selector.
    pub incumbent: FormatSelector,
    /// Scratch directory for journals, candidates and checkpoints;
    /// removed when the fixture is dropped.
    pub dir: PathBuf,
    /// The incumbent saved under `dir` (what hot reloads and rollbacks
    /// restore).
    pub incumbent_path: PathBuf,
}

impl Fixture {
    /// Generates `matrices` matrices (80 % base, 20 % augmented) with
    /// edges in `dims`, labels them for the Intel CPU model, trains the
    /// [`ExpConfig::quick`](crate::ExpConfig::quick) histogram selector
    /// on them for `epochs` epochs and saves it into a fresh
    /// `dnnspmv-<tag>-<pid>-<seed>` directory under the system temp dir.
    pub fn train(
        tag: &str,
        matrices: usize,
        dims: RangeInclusive<usize>,
        epochs: usize,
        seed: u64,
    ) -> Self {
        let dir = std::env::temp_dir().join(format!("dnnspmv-{tag}-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("fixture temp dir");
        let n_base = (matrices * 8) / 10;
        let data = Dataset::generate(&DatasetSpec {
            n_base,
            n_augmented: matrices - n_base,
            dim_min: *dims.start(),
            dim_max: *dims.end(),
            seed,
            ..DatasetSpec::default()
        });
        let platform = PlatformModel::intel_cpu();
        let labels = label_dataset(&data.matrices, &platform);
        let sel_cfg = crate::ExpConfig::quick().selector_config(ReprKind::Histogram);
        let sel_cfg = SelectorConfig {
            train: TrainConfig {
                epochs,
                ..sel_cfg.train
            },
            ..sel_cfg
        };
        let (incumbent, _) = FormatSelector::train_with_labels(
            &data.matrices,
            &labels,
            platform.formats().to_vec(),
            &sel_cfg,
        );
        let incumbent_path = dir.join("incumbent.json");
        incumbent
            .save(incumbent_path.to_string_lossy().as_ref())
            .expect("save fixture incumbent");
        Self {
            matrices: data.matrices,
            platform,
            incumbent,
            dir,
            incumbent_path,
        }
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
