//! `dnnspmv-obs` — the live-metrics substrate of the serving and
//! feedback layers: an atomic metrics registry with log-scale latency
//! histograms, and the injectable clock the server times itself with.
//!
//! Who measures what: kernels and pipeline stages are timed from
//! outside by `perfbench/`; a running [`SelectorServer`] counts and
//! times itself into its own [`Registry`] (the source of
//! `ServerReport`); training reports through `TrainReport`. This crate
//! is the second of those, built around three constraints:
//!
//! * **Lightweight.** Recording is a handful of relaxed atomic adds —
//!   no locks, no allocation, no formatting — so instrumentation can
//!   sit on the serve hot path without moving the p50 it is measuring.
//!   The crate has zero runtime dependencies.
//! * **Deterministic under test.** Time is injected ([`ClockFn`]), so
//!   latency buckets are exact under a [`ManualClock`].
//! * **One source of truth.** Everything renders from one
//!   [`MetricsSnapshot`]: the Prometheus text dump, the JSON dump and
//!   the `ServerReport` view all read the same registry, so live
//!   metrics and reports can never disagree.
//!
//! The pieces:
//!
//! * [`Counter`] / [`Gauge`] — atomic scalar metrics with typed
//!   handles; cheap to clone, safe to record from any thread.
//! * [`LatencyHistogram`] — fixed-bucket log-scale (HDR-style
//!   log-linear) histogram: lock-free record, quantiles exact to one
//!   bucket (≤ 1/16 ≈ 6.25 % relative width) plus exact min/max/sum.
//! * [`Registry`] — names + label sets mapped to handles; snapshotting
//!   and rendering ([`MetricsSnapshot::to_prometheus`],
//!   [`MetricsSnapshot::to_json`]).
//! * [`global`] — the process-wide registry the training loop mirrors
//!   its `TrainReport` counters into.
//!
//! [`SelectorServer`]: ../dnnspmv_core/struct.SelectorServer.html

pub mod clock;
pub mod histogram;
pub mod metrics;
pub mod registry;

pub use clock::{system_clock, ClockFn, ManualClock};
pub use histogram::{bucket_index, bucket_low, HistogramSnapshot, LatencyHistogram, BUCKETS};
pub use metrics::{Counter, Gauge, GaugeGuard};
pub use registry::{global, MetricKey, MetricsSnapshot, Registry};
