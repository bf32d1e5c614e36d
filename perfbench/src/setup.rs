//! Set-up: everything a user pays before the first request is served.
//!
//! Corpus generation, labelling, sample extraction, training (and, for
//! a migrated model, the second labelling and the head-only
//! retraining), the tree baseline and the server start, each timed as
//! one probe-corrected slice.

use crate::timing::{Slice, Timer};
use crate::util::Fnv;
use crate::workloads::Spec;
use dnnspmv_core::{
    make_samples, CacheConfig, DtSelector, FormatSelector, SelectorConfig, SelectorServer,
    SelectorService, ServerConfig,
};
use dnnspmv_gen::Dataset;
use dnnspmv_nn::{CnnConfig, Merging, Migration, Sample, TrainConfig};
use dnnspmv_platform::{label_dataset, PlatformModel};
use dnnspmv_repr::{ReprConfig, ReprKind};

pub fn selector_config(spec: &Spec) -> SelectorConfig {
    let (repr_config, cnn, lr) = if spec.standard_model {
        (ReprConfig::default(), CnnConfig::default(), 1.5e-3)
    } else {
        (
            ReprConfig {
                image_size: 32,
                hist_rows: 32,
                hist_bins: 32,
            },
            CnnConfig {
                conv_channels: [8, 16, 32],
                hidden: 48,
                ..CnnConfig::default()
            },
            2e-3,
        )
    };
    SelectorConfig {
        repr: ReprKind::Histogram,
        repr_config,
        merging: Merging::Late,
        cnn,
        train: TrainConfig {
            epochs: spec.epochs,
            lr,
            seed: spec.model_seed ^ 0x7EA1,
            ..TrainConfig::default()
        },
    }
}

/// One generator thread plus one server worker on a 2-core host;
/// everything else is the library default.
pub fn server_config(spec: &Spec) -> ServerConfig {
    ServerConfig {
        workers: 1,
        cache: if spec.cache > 0 {
            CacheConfig::enabled(spec.cache)
        } else {
            CacheConfig::default()
        },
        ..ServerConfig::default()
    }
}

/// What set-up leaves behind.
pub struct Model {
    pub selector: FormatSelector,
    pub tree: DtSelector,
    /// Training samples under the labels the served model was trained
    /// on last (the target platform's, for a migrated model).
    pub samples: Vec<Sample>,
    /// The platform whose labels the served model predicts.
    pub platform: PlatformModel,
    pub corpus_hash: u64,
}

impl Model {
    pub fn service(&self) -> SelectorService {
        SelectorService::new(Some(self.selector.clone()), Some(self.tree.clone()))
            .expect("freshly trained predictors validate")
    }
}

/// The stages of one set-up, in order.
pub struct SetupTime {
    pub stages: Vec<(&'static str, Slice)>,
    pub corpus_len: usize,
}

impl SetupTime {
    pub fn corrected_s(&self) -> f64 {
        self.stages.iter().map(|(_, s)| s.corrected_s()).sum()
    }

    pub fn raw_s(&self) -> f64 {
        self.stages.iter().map(|(_, s)| s.raw_s).sum()
    }

    pub fn stage(&self, name: &str) -> Slice {
        self.stages
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| *s)
            .expect("known stage")
    }
}

pub fn setup(spec: &Spec, timer: &mut Timer) -> (Model, SelectorServer<f32>, SetupTime) {
    let cfg = selector_config(spec);
    let mut stages = Vec::new();
    let mut stage = |name: &'static str, slice: Slice| stages.push((name, slice));
    timer.refresh();

    let (data, s) = timer.slice(|| Dataset::generate(&spec.corpus_spec()));
    stage("corpus", s);

    let source = PlatformModel::intel_cpu();
    let target = if spec.migrated {
        PlatformModel::amd_cpu()
    } else {
        source.clone()
    };
    let ((source_labels, target_labels), s) = timer.slice(|| {
        let src = label_dataset(&data.matrices, &source);
        let tgt = if spec.migrated {
            label_dataset(&data.matrices, &target)
        } else {
            src.clone()
        };
        (src, tgt)
    });
    stage("label", s);

    let (source_samples, s) =
        timer.slice(|| make_samples(&data.matrices, &source_labels, cfg.repr, &cfg.repr_config));
    stage("samples", s);

    let formats = source.formats().to_vec();
    let ((selector, samples), s) = timer.slice(|| {
        let (trained, _) = FormatSelector::train_on_samples(&source_samples, formats.clone(), &cfg);
        if !spec.migrated {
            return (trained, source_samples);
        }
        let target_samples: Vec<Sample> = source_samples
            .into_iter()
            .zip(&target_labels)
            .map(|(s, &label)| Sample { label, ..s })
            .collect();
        let (migrated, _) = trained.migrate(Migration::TopEvolvement, &target_samples, &cfg.train);
        (migrated, target_samples)
    });
    stage("train", s);

    let (tree, s) = timer.slice(|| DtSelector::train(&data.matrices, &target_labels, formats));
    stage("tree", s);

    let mut h = Fnv::new();
    for m in &data.matrices {
        h.matrix(m);
    }
    let model = Model {
        selector,
        tree,
        samples,
        platform: target,
        corpus_hash: h.finish(),
    };
    timer.refresh();
    let (server, s) = timer.slice(|| SelectorServer::new(model.service(), server_config(spec)));
    stage("server", s);

    let time = SetupTime {
        stages,
        corpus_len: data.matrices.len(),
    };
    (model, server, time)
}

/// Share of a second corpus, never trained on, where the selector
/// agrees with the platform's labeller.
pub fn heldout_accuracy(spec: &Spec, seed: u64, model: &Model) -> (f64, usize) {
    let data = Dataset::generate(&spec.heldout_spec(seed));
    let labels = label_dataset(&data.matrices, &model.platform);
    let cfg = &model.selector.config;
    let samples = make_samples(&data.matrices, &labels, cfg.repr, &cfg.repr_config);
    (model.selector.accuracy(&samples), samples.len())
}
