//! Experiment harness regenerating every table and figure of the
//! paper's evaluation (Section 7).
//!
//! Each experiment is a pure function from an [`ExpConfig`] to a
//! serialisable result struct with a `render()` method that prints the
//! same rows/series the paper reports. The `repro` binary dispatches
//! subcommands to them:
//!
//! | command    | paper artefact | result type |
//! |------------|----------------|-------------|
//! | `table1`   | Table 1        | platform parameter dump |
//! | `table2`   | Table 2        | [`experiments::table::TableResult`] (CPU) |
//! | `table3`   | Table 3        | [`experiments::table::TableResult`] (GPU) |
//! | `fig8`     | Figure 8 + §7.3| [`experiments::speedup::SpeedupResult`] |
//! | `fig9`     | Figure 9       | [`experiments::transfer::TransferResult`] |
//! | `fig10`    | Figure 10      | structure printout |
//! | `fig11`    | Figure 11      | [`experiments::loss::LossCurves`] |
//! | `overhead` | §7.6           | [`experiments::overhead::OverheadResult`] |
//! | `labels`   | §7.1 sanity    | [`experiments::labels::LabelStats`] |
//! | `sweep`    | §4 size remark | [`experiments::sweep::SweepResult`] |
//!
//! Beside the paper artefacts the crate holds two scenario drivers over
//! one trained fixture (`fixture.rs`): [`closed_loop`] (drift → evolve →
//! promote → rollback, gated by `tests/feedback_loop.rs`) and
//! [`chaos_soak`] (the driver behind `dnnspmv chaos-soak`). Performance
//! claims about the system are not made here: `perfbench/` (see
//! `BENCHMARK.json`) is the one harness that times it, with criterion
//! micro-benches of single kernels under `benches/`.

pub mod chaos_soak;
pub mod closed_loop;
pub mod experiments;
mod fixture;

use dnnspmv_core::SelectorConfig;
use dnnspmv_gen::DatasetSpec;
use dnnspmv_nn::{CnnConfig, OptimizerKind, TrainConfig};
use dnnspmv_repr::{ReprConfig, ReprKind};
use serde::{Deserialize, Serialize};

/// Shared experiment configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExpConfig {
    /// The synthetic dataset stand-in for the 9200-matrix collection.
    pub dataset: DatasetSpec,
    /// Cross-validation folds (the paper uses 5).
    pub folds: usize,
    /// Representation sizes.
    pub repr_config: ReprConfig,
    /// CNN structure.
    pub cnn: CnnConfig,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// Relative measurement noise applied during label collection
    /// (models run-to-run variance of real timings; 0 disables).
    pub label_noise: f64,
    /// Master seed.
    pub seed: u64,
}

impl ExpConfig {
    /// Laptop-scale configuration: every experiment finishes in
    /// seconds-to-a-minute. Used by `--quick` and the bench targets.
    pub fn quick() -> Self {
        Self {
            dataset: DatasetSpec {
                n_base: 280,
                n_augmented: 120,
                dim_min: 48,
                dim_max: 256,
                ..DatasetSpec::default()
            },
            folds: 2,
            repr_config: ReprConfig {
                image_size: 32,
                hist_rows: 32,
                hist_bins: 32,
            },
            cnn: CnnConfig {
                conv_channels: [8, 16, 32],
                hidden: 48,
                seed: 0xC44,
            },
            epochs: 18,
            batch_size: 32,
            lr: 2e-3,
            label_noise: 0.05,
            seed: 0xD44A_5EED,
        }
    }

    /// Full configuration: a few thousand matrices, 64x64 inputs,
    /// 5-fold CV. `repro all` at this setting takes tens of minutes on
    /// a multi-core machine and several hours on a single core; the
    /// recorded EXPERIMENTS.md run used `--matrices 1200 --epochs 18
    /// --folds 2` as a middle ground.
    pub fn standard() -> Self {
        Self {
            dataset: DatasetSpec::default(),
            folds: 5,
            repr_config: ReprConfig::default(),
            cnn: CnnConfig::default(),
            epochs: 14,
            batch_size: 32,
            lr: 1.5e-3,
            label_noise: 0.05,
            seed: 0xD44A_5EED,
        }
    }

    /// The selector configuration for a representation kind.
    pub fn selector_config(&self, repr: ReprKind) -> SelectorConfig {
        SelectorConfig {
            repr,
            repr_config: self.repr_config,
            merging: dnnspmv_nn::Merging::Late,
            cnn: self.cnn.clone(),
            train: self.train_config(),
        }
    }

    /// The training configuration.
    pub fn train_config(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            batch_size: self.batch_size,
            lr: self.lr,
            optimizer: OptimizerKind::adam(),
            seed: self.seed ^ 0x7EA1,
            ..TrainConfig::default()
        }
    }
}

/// Formats a recall/precision cell like the paper's tables ("-" when
/// the class never occurs / is never predicted).
pub fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.2}"),
        None => "-".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_config_is_smaller_than_standard() {
        let q = ExpConfig::quick();
        let s = ExpConfig::standard();
        assert!(q.dataset.len() < s.dataset.len());
        assert!(q.folds <= s.folds);
        assert!(q.repr_config.image_size <= s.repr_config.image_size);
    }

    #[test]
    fn selector_config_uses_requested_repr() {
        let c = ExpConfig::quick().selector_config(ReprKind::Binary);
        assert_eq!(c.repr, ReprKind::Binary);
        assert_eq!(c.repr_config.image_size, 32);
    }

    #[test]
    fn fmt_opt_renders_dash_for_none() {
        assert_eq!(fmt_opt(None), "-");
        assert_eq!(fmt_opt(Some(0.925)), "0.93");
    }
}
