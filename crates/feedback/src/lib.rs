//! Closed-loop online learning for the format selector.
//!
//! The paper's "continuous evolvement" (Section 6) only pays off in
//! production if the deployed selector keeps learning from the traffic
//! it serves. This crate closes that loop over the pieces the workspace
//! already has — measured labelling (`dnnspmv-platform`), checkpointed
//! transfer training (`dnnspmv-nn`), validated hot reload and serving
//! (`dnnspmv-core`), metrics (`dnnspmv-obs`) — with the robustness
//! rules that make it safe to leave running:
//!
//! 1. **Sampling never slows serving** — [`FeedbackSampler`] hangs off
//!    the server's [`ServeTap`](dnnspmv_core::ServeTap) seam: an atomic
//!    tick per answer, a bounded queue, and a shed counter when the
//!    background lane falls behind.
//! 2. **The journal survives crashes** — [`JournalWriter`] appends
//!    length-prefixed, FNV-1a64-checksummed records to atomically
//!    rotated segments; [`replay`] recovers every intact prefix record
//!    from any torn or bit-flipped state, never panicking.
//! 3. **Drift is observable before it hurts** — [`DriftDetector`]
//!    compares served formats to measured labels in a rolling window,
//!    exported as permille gauges with a latched, edge-counted trip.
//! 4. **Nothing is promoted on faith** — [`evolve()`] fine-tunes a
//!    candidate from the journal and shadow-scores it on held-out
//!    recent records; only a candidate beating the incumbent by a
//!    margin passes, and [`PromotionGuard`] still watches the live
//!    rollout, rolling back automatically if fresh accuracy falls
//!    below the pre-promotion baseline.

pub mod drift;
pub mod error;
pub mod evolve;
pub mod journal;
pub mod promote;
pub mod record;
pub mod sampler;

pub use drift::{DriftConfig, DriftDetector, DRIFT_THRESHOLD};
pub use error::FeedbackError;
pub use evolve::{evolve, usable_samples, EvolveConfig, ShadowReport};
pub use journal::{replay, JournalConfig, JournalWriter, ReplayReport, MAX_RECORD_BYTES};
pub use promote::{GuardVerdict, PromotionConfig, PromotionGuard, ROLLBACK_MARGIN};
pub use record::FeedbackRecord;
pub use sampler::{FeedbackSampler, ModelTimer, SamplerConfig, SpmvTimer};
