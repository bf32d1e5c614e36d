//! `dnnspmv-obs` — the observability substrate under every hot layer of
//! the system: kernels, training, and serving.
//!
//! PR 4 gave the selector server a one-shot `ServerReport`; nothing
//! exposed *live* latency distributions, per-rung fallback rates, or
//! per-phase kernel time. This crate is the measurement layer those
//! need, built around three constraints:
//!
//! * **Lightweight.** Recording is a handful of relaxed atomic adds —
//!   no locks, no allocation, no formatting — so instrumentation can
//!   sit inside an SpMV kernel or the serve hot path without moving
//!   the p50 it is measuring. The crate has zero runtime dependencies.
//! * **Deterministic under test.** Time is injected ([`ClockFn`], the
//!   same pattern PR 4's server uses), so span durations and latency
//!   buckets are exact in tests; sinks are pluggable so traces land in
//!   a ring buffer a test can inspect.
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
//!   log-linear) histogram: lock-free record, mergeable
//!   [`HistogramSnapshot`]s, quantiles exact to one bucket
//!   (≤ 1/16 ≈ 6.25 % relative width) plus exact min/max/sum.
//! * [`Registry`] — names + label sets mapped to handles; snapshotting
//!   and rendering ([`MetricsSnapshot::to_prometheus`],
//!   [`MetricsSnapshot::to_json`]).
//! * [`Tracer`] / [`SpanGuard`] — RAII span timing over an injectable
//!   clock, reported to a [`SpanSink`] ([`RingSink`] for tests,
//!   [`JsonLinesSink`] for production, [`NullSink`] to disable).
//! * [`global`] — the process-wide registry the kernel and training
//!   instrumentation records into (`dnnspmv metrics` dumps it).

pub mod clock;
pub mod histogram;
pub mod metrics;
pub mod registry;
pub mod span;

pub use clock::{system_clock, ClockFn, ManualClock};
pub use histogram::{bucket_index, bucket_low, HistogramSnapshot, LatencyHistogram, BUCKETS};
pub use metrics::{Counter, Gauge, GaugeGuard};
pub use registry::{global, MetricKey, MetricsSnapshot, Registry};
pub use span::{JsonLinesSink, NullSink, RingSink, SpanGuard, SpanRecord, SpanSink, Tracer};
