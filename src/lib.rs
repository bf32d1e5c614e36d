//! # dnnspmv — CNN-based sparse matrix format selection for SpMV
//!
//! A from-scratch Rust reproduction of *"Bridging the Gap between Deep
//! Learning and Sparse Matrix Format Selection"* (Zhao, Li, Liao, Shen —
//! PPoPP 2018). This facade crate re-exports the workspace's public
//! API; see the individual crates for details:
//!
//! * [`sparse`] — storage formats (COO/CSR/DIA/ELL/HYB/SELL-C-σ), one
//!   SpMV kernel each; BSR, CSR5 and merge-path CSR are names only.
//! * [`gen`] — synthetic matrix families, augmentation, datasets.
//! * [`repr`] — fixed-size CNN input representations (binary, density,
//!   distance histogram).
//! * [`nn`] — the hand-rolled CNN framework with early/late-merging
//!   structures and transfer learning.
//! * [`tree`] — the SMAT-style decision-tree baseline.
//! * [`platform`] — analytic platform cost models and measured
//!   labelling.
//! * [`core`] — the end-to-end [`core::FormatSelector`] pipeline.
//! * [`feedback`] — the closed loop: serve sampling into a crash-safe
//!   journal, drift detection, and guarded model promotion.
//! * [`obs`] — the zero-dependency metrics registry and latency
//!   histograms the serving and feedback layers record into.
//!
//! # Quickstart
//!
//! ```no_run
//! use dnnspmv::core::{FormatSelector, SelectorConfig};
//! use dnnspmv::gen::{Dataset, DatasetSpec};
//! use dnnspmv::platform::PlatformModel;
//!
//! let dataset = Dataset::generate(&DatasetSpec::default());
//! let platform = PlatformModel::intel_cpu();
//! let (selector, _report) =
//!     FormatSelector::train_on_platform(&dataset.matrices, &platform, &SelectorConfig::default());
//! let best = selector.predict(&dataset.matrices[0]);
//! println!("use {best}");
//! ```

pub use dnnspmv_core as core;
pub use dnnspmv_feedback as feedback;
pub use dnnspmv_gen as gen;
pub use dnnspmv_nn as nn;
pub use dnnspmv_obs as obs;
pub use dnnspmv_platform as platform;
pub use dnnspmv_repr as repr;
pub use dnnspmv_sparse as sparse;
pub use dnnspmv_tree as tree;
