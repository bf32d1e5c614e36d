//! Hand-rolled CNN framework for sparse matrix format selection.
//!
//! The paper trains its selector with TensorFlow on a TITAN X; this
//! crate reimplements everything that experiment needs, from scratch,
//! on the CPU:
//!
//! * [`tensor`] — a minimal dense `f32` tensor.
//! * [`gemm`] — the compute core: cache-blocked parallel [`gemm::sgemm`]
//!   plus im2col/col2im lowering and reusable scratch buffers.
//! * [`layers`] — Conv2d / MaxPool2d / ReLU / Flatten / Dense with
//!   hand-derived backward passes (finite-difference-checked in tests);
//!   convolution and dense have two implementations per direction: the
//!   batched GEMM kernels production runs and the naive per-sample
//!   `*_reference` loops they are checked against.
//! * [`network`] — [`network::Sequential`] stacks and the two-part
//!   [`network::Cnn`] expressing both the late-merging structure
//!   (Figures 7/10) and the early-merging baseline (Figure 6).
//! * [`structures`] — builders reproducing Figure 10's layer schedule.
//! * [`loss`], [`optimizer`], [`mod@train`] — softmax cross-entropy
//!   (per-sample and fused batched), SGD with momentum / Adam driven by
//!   one accumulated gradient set per step, and a mini-batch loop that
//!   trains through the batched GEMM forward/backward path (checked
//!   against the per-sample naive loop, [`train::train_reference`]) and
//!   records the loss curves plotted in Figure 11.
//! * [`transfer`] — the cross-architecture migration strategies of
//!   Section 6 (continuous evolvement / top evolvement / from scratch).
//! * [`serialize`] — versioned, checksummed, atomically-written JSON
//!   persistence with load-time structural validation.
//! * [`checkpoint`], [`error`] — crash-safe epoch-boundary training
//!   checkpoints and the typed error they (and every other persistence
//!   path) surface failures through.

pub mod checkpoint;
pub mod error;
pub mod gemm;
pub mod layers;
pub mod loss;
pub mod network;
pub mod optimizer;
pub mod serialize;
pub mod structures;
pub mod tensor;
pub mod train;
pub mod transfer;

pub use checkpoint::{checkpoint_path, load_checkpoint, save_checkpoint, TrainCheckpoint};
pub use error::{is_storage_full, NnError};
pub use gemm::{
    current_gemm_threading, slots_probe_max, slots_probe_reset, with_forced_kernel,
    with_gemm_threading, GemmThreading, KernelVariant,
};
pub use layers::Layer;
pub use network::{Cnn, CnnBatchCache, CnnGrads, Sample, Sequential};
pub use optimizer::{Optimizer, OptimizerKind};
pub use structures::{build_cnn, describe_structure, CnnConfig, Merging};
pub use tensor::Tensor;
pub use train::{
    evaluate, train, train_reference, train_step, train_with_hooks, BatchTrainState, RecoveryStats,
    StepTimeStats, TrainConfig, TrainHooks, TrainReport,
};
pub use transfer::{migrate, Migration};
