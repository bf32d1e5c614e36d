//! End-to-end CNN-based sparse matrix format selector — the paper's
//! primary contribution, wired together (Figure 3).
//!
//! Construction (training) runs the four steps of Section 3:
//!
//! 1. **Label collection** — run (here: cost-model or measured) SpMV in
//!    every candidate format per matrix; the fastest format is the
//!    label ([`dnnspmv_platform`]).
//! 2. **Normalisation** — map each matrix to a fixed-size
//!    representation ([`dnnspmv_repr`]).
//! 3. **Structure design** — build a late-merging (or early-merging)
//!    CNN ([`dnnspmv_nn::structures`]).
//! 4. **Training** — standard mini-batch backprop.
//!
//! Inference normalises the input matrix and takes the CNN's argmax.
//! [`FormatSelector::migrate`] ports a trained selector to another
//! platform via transfer learning (Section 6).
//!
//! For deployment, [`SelectorService`] wraps the CNN in a
//! graceful-degradation ladder (CNN → decision tree → CSR) with
//! observable fallback counters, ordered by cost while it is healthy: a
//! small matrix whose tree leaf was pure in training is answered by
//! the tree before any CNN forward runs. All persistence goes through
//! validated, checksummed envelopes surfacing [`SelectorError`].

//! [`SelectorServer`] adds the serving layer on top: bounded-queue
//! admission control, per-request deadlines with cooperative
//! cancellation, a circuit breaker demoting a misbehaving CNN to the
//! tree rung, and validated hot model reload. Its throughput hot path
//! is two-staged: a fingerprint-keyed decision cache
//! ([`DecisionCache`]) answers structurally repeated matrices at
//! admission, and workers coalesce cache misses into micro-batches
//! sharing one packed CNN forward pass.

pub mod baseline;
pub mod cache;
pub mod error;
pub mod samples;
pub mod selector;
pub mod server;
pub mod service;

pub use baseline::DtSelector;
pub use cache::{
    fingerprint_windows, matrix_fingerprint, CacheConfig, CacheInsert, CacheLookup, DecisionCache,
    FINGERPRINT_COORD_SAMPLE,
};
pub use error::SelectorError;
pub use samples::make_samples;
pub use selector::{FormatSelector, SelectorConfig};
pub use server::{
    load_selector_with_retry, system_clock, BreakerConfig, BreakerSnapshot, BreakerState, ClockFn,
    PendingSelection, SelectorServer, ServeCacheReport, ServeError, ServeHooks, ServeTap,
    ServerConfig, ServerReport, CACHE_AUDIT_PERIOD,
};
pub use service::{
    CnnFault, CnnRungOutcome, GuardedSelection, SelectGuard, Selection, SelectionSource,
    SelectorService, ServiceReport, TREE_UNIT_MACS,
};
