//! Admission-controlled concurrent serving layer over [`SelectorService`].
//!
//! A selector embedded in someone else's solver library faces traffic it
//! does not control: bursts beyond its capacity, pathological matrices
//! that make extraction slow, and model artefacts replaced while
//! requests are in flight. [`SelectorServer`] turns the single-shot
//! degradation ladder of [`SelectorService`] into a service that stays
//! predictable under all three:
//!
//! * **Admission control** — a bounded queue feeding a fixed worker
//!   pool. When the queue is full, new requests are shed immediately
//!   with [`ServeError::Overloaded`] instead of queueing unboundedly
//!   and collapsing latency for everyone. Two kinds of answer never
//!   queue: a decision-cache hit, and a small matrix the tree answers
//!   first from a pure leaf ([`SelectorService::tree_first`]). Both are
//!   answered on the submitting thread, cheaper than the hand-off to a
//!   worker would be.
//! * **Deadlines** — each request may carry a deadline; cooperative
//!   cancellation checkpoints threaded through representation
//!   extraction and the CNN forward pass abandon the work as soon as
//!   the deadline passes ([`ServeError::DeadlineExceeded`]).
//! * **Circuit breaker** — sustained CNN failures (panics, timeouts,
//!   non-finite outputs) trip the breaker: traffic is demoted to the
//!   tree rung while open, a single probe request re-tests the CNN
//!   after an exponentially growing backoff, and a successful probe
//!   closes the breaker again.
//! * **Hot reload** — [`SelectorServer::reload_model`] loads and
//!   validates a new artefact off the hot path (PR 3's envelope
//!   checks), atomically swaps it in on success, and keeps serving the
//!   old model with a typed error on failure. Transient read errors are
//!   retried with backoff; corrupt artefacts are not.
//!
//! Time is injected ([`ClockFn`]), and [`ServeHooks`] can inject CNN
//! faults per request, so every failure mode above is testable
//! deterministically.
//!
//! Every counter the server keeps lives in a [`Registry`]
//! (`dnnspmv-obs`): [`SelectorServer::report`] is a typed view over a
//! registry snapshot, [`SelectorServer::metrics_snapshot`] exposes the
//! raw snapshot for exporters, and the same registry is shared with
//! every hot-reloaded model generation, so ladder counters survive
//! swaps without any merge step.

use crate::cache::{matrix_fingerprint, CacheConfig, CacheInsert, CacheLookup, DecisionCache};
use crate::error::SelectorError;
use crate::selector::FormatSelector;
use crate::service::{
    CnnFault, CnnRungOutcome, SelectGuard, Selection, SelectionSource, SelectorService,
    ServiceReport,
};
use dnnspmv_nn::{with_gemm_threading, GemmThreading, NnError};
use dnnspmv_obs::{Counter, Gauge, LatencyHistogram, MetricsSnapshot, Registry};
use dnnspmv_sparse::{CooMatrix, Scalar};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock, RwLock};
use std::thread;
use std::time::Duration;

pub use dnnspmv_obs::{system_clock, ClockFn};

/// Every this-many hits on one cache entry, the hit is re-served through
/// the miss path instead: a worker recomputes the decision, counts
/// whether it matches the cached one (`serve_cache_audit_total`) and
/// refreshes the entry. The fingerprint reads only a sample of the
/// matrix, so this audit is what catches a key collision serving a
/// look-alike's decision. The count is per entry, so skewed traffic
/// cannot starve an entry of audits, and the period is prime, so look-
/// alikes that arrive in a fixed cycle do not leave the audit on one of
/// them unless the cycle length is a multiple of the period.
pub const CACHE_AUDIT_PERIOD: u64 = 31;

/// Consecutive CNN failures (panic, deadline, non-finite) that trip
/// the circuit breaker open.
pub const BREAKER_FAILURE_THRESHOLD: u32 = 3;

/// How long the breaker stays open before its first probe. Each failed
/// probe doubles the wait; a successful one resets it to this.
pub const BREAKER_OPEN_BACKOFF: Duration = Duration::from_millis(500);

/// Cap on the doubling backoff after failed probes.
pub const BREAKER_MAX_BACKOFF: Duration = Duration::from_secs(30);

const OPEN_BACKOFF_NS: u64 = BREAKER_OPEN_BACKOFF.as_nanos() as u64;
const MAX_BACKOFF_NS: u64 = BREAKER_MAX_BACKOFF.as_nanos() as u64;

/// Circuit-breaker state (the classic three-state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakerState {
    /// CNN serving normally.
    Closed,
    /// CNN demoted; all traffic answers from the tree rung.
    Open,
    /// One probe request is re-testing the CNN.
    HalfOpen,
}

/// Observable breaker snapshot, including transition counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BreakerSnapshot {
    /// Current state.
    pub state: BreakerState,
    /// Consecutive failures seen while closed.
    pub consecutive_failures: u32,
    /// Closed/half-open → open transitions.
    pub to_open: u64,
    /// Open → half-open transitions (probe issued).
    pub to_half_open: u64,
    /// Half-open → closed transitions (probe succeeded).
    pub to_closed: u64,
    /// Backoff the *next* open period would use, in nanoseconds.
    pub current_backoff_ns: u64,
}

#[derive(Debug)]
struct BreakerInner {
    state: BreakerState,
    consec: u32,
    opened_at: u64,
    backoff_ns: u64,
    /// A probe is in flight; further half-open traffic is denied.
    probing: bool,
    to_open: u64,
    to_half_open: u64,
    to_closed: u64,
}

/// What the breaker allows for the CNN rung of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gate {
    /// Breaker closed: run the CNN.
    Allow,
    /// Breaker half-open: run the CNN as the single probe.
    Probe,
    /// Breaker open: skip the CNN, answer from the tree.
    Deny,
}

#[derive(Debug)]
struct Breaker {
    inner: Mutex<BreakerInner>,
}

impl Breaker {
    fn new() -> Self {
        Self {
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consec: 0,
                opened_at: 0,
                backoff_ns: OPEN_BACKOFF_NS,
                probing: false,
                to_open: 0,
                to_half_open: 0,
                to_closed: 0,
            }),
        }
    }

    /// Decides the CNN gate for a request dequeued at `now`.
    fn gate(&self, now: u64) -> Gate {
        let mut b = self.inner.lock().expect("breaker lock");
        match b.state {
            BreakerState::Closed => Gate::Allow,
            BreakerState::Open => {
                if now >= b.opened_at.saturating_add(b.backoff_ns) {
                    b.state = BreakerState::HalfOpen;
                    b.to_half_open += 1;
                    b.probing = true;
                    Gate::Probe
                } else {
                    Gate::Deny
                }
            }
            BreakerState::HalfOpen => {
                if b.probing {
                    Gate::Deny
                } else {
                    b.probing = true;
                    Gate::Probe
                }
            }
        }
    }

    /// Records a healthy CNN answer. Only a successful *probe* closes
    /// an open breaker; a late success from a request admitted before
    /// the trip does not.
    fn on_success(&self, probe: bool) {
        let mut b = self.inner.lock().expect("breaker lock");
        b.consec = 0;
        if probe {
            b.probing = false;
            if b.state == BreakerState::HalfOpen {
                b.state = BreakerState::Closed;
                b.to_closed += 1;
                b.backoff_ns = OPEN_BACKOFF_NS;
            }
        }
    }

    /// Records a CNN failure (panic, deadline, non-finite) at `now`.
    fn on_failure(&self, probe: bool, now: u64) {
        let mut b = self.inner.lock().expect("breaker lock");
        if probe {
            // Failed probe: reopen with doubled backoff.
            b.probing = false;
            b.state = BreakerState::Open;
            b.opened_at = now;
            b.to_open += 1;
            b.backoff_ns = b.backoff_ns.saturating_mul(2).min(MAX_BACKOFF_NS);
            b.consec = BREAKER_FAILURE_THRESHOLD;
            return;
        }
        match b.state {
            BreakerState::Closed => {
                b.consec += 1;
                if b.consec >= BREAKER_FAILURE_THRESHOLD {
                    b.state = BreakerState::Open;
                    b.opened_at = now;
                    b.to_open += 1;
                }
            }
            // Late failures of requests admitted before the trip do not
            // double-trip or extend the open period.
            BreakerState::Open | BreakerState::HalfOpen => {}
        }
    }

    /// Releases a probe slot whose request never reached the CNN rung
    /// (e.g. its deadline expired while queued).
    fn abandon_probe(&self) {
        self.inner.lock().expect("breaker lock").probing = false;
    }

    /// Whether the breaker is currently closed, without consuming a
    /// probe slot or transitioning state — the micro-batcher peeks this
    /// to decide between one shared CNN pass (closed) and feeding the
    /// members through one at a time (open or half-open, where probe
    /// accounting must stay one-request-at-a-time).
    fn closed(&self) -> bool {
        self.inner.lock().expect("breaker lock").state == BreakerState::Closed
    }

    fn snapshot(&self) -> BreakerSnapshot {
        let b = self.inner.lock().expect("breaker lock");
        BreakerSnapshot {
            state: b.state,
            consecutive_failures: b.consec,
            to_open: b.to_open,
            to_half_open: b.to_half_open,
            to_closed: b.to_closed,
            current_backoff_ns: b.backoff_ns,
        }
    }
}

/// Typed serving errors. Every rejected or abandoned request gets one.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The bounded queue was full; the request was shed on admission.
    Overloaded {
        /// The configured queue capacity that was exceeded.
        capacity: usize,
    },
    /// The request's deadline passed before an answer was produced.
    DeadlineExceeded,
    /// The server is shutting down and accepts no new work.
    ShuttingDown,
    /// A hot reload failed; the previous model keeps serving.
    Reload(SelectorError),
    /// The worker handling the request disappeared (never expected;
    /// defence in depth around thread death).
    WorkerLost,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { capacity } => {
                write!(f, "server overloaded (queue capacity {capacity})")
            }
            ServeError::DeadlineExceeded => write!(f, "request deadline exceeded"),
            ServeError::ShuttingDown => write!(f, "server shutting down"),
            ServeError::Reload(e) => write!(f, "model reload rejected: {e}"),
            ServeError::WorkerLost => write!(f, "worker lost"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Reload(e) => Some(e),
            _ => None,
        }
    }
}

/// Observer of served selections — the seam the feedback layer hangs
/// off. Called synchronously on every *served* answer (cache hit,
/// tree-first answer at admission, or worker pass) with the request's
/// matrix, the selection returned to the client, and the model
/// generation that produced it.
///
/// Implementations MUST be cheap and non-blocking: the contract is a
/// counter tick plus at most a bounded-queue `try_push` — anything
/// slow (timing kernels, I/O) belongs on the observer's own thread.
/// Errors and deadline misses are not observed; those requests carry
/// no selection to learn from.
pub trait ServeTap<S: Scalar>: Send + Sync {
    /// One served answer.
    fn observe(&self, matrix: &Arc<CooMatrix<S>>, selection: &Selection, generation: u64);
}

/// Deterministic fault-injection hooks (all `None`/no-op in
/// production).
#[derive(Clone, Default)]
pub struct ServeHooks {
    /// Consulted once per request the breaker lets reach the CNN rung,
    /// with the request's sequence number; the returned fault is
    /// injected into the rung. Side effects (advancing a fake clock to
    /// simulate a latency spike or a hang, parking the worker to hold
    /// the queue full) are the test harness's levers, so they must stay
    /// on the worker: with a hook installed, `submit` answers no request
    /// tree-first, and the cascade runs in the worker's batch instead. A
    /// request with a fault is never answered tree-first; one without
    /// may still be.
    pub cnn_fault: Option<Arc<dyn Fn(u64) -> CnnFault + Send + Sync>>,
}

impl fmt::Debug for ServeHooks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServeHooks")
            .field("cnn_fault", &self.cnn_fault.as_ref().map(|_| "<hook>"))
            .finish()
    }
}

/// Server tuning.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads draining the queue (min 1).
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it are shed.
    pub queue_capacity: usize,
    /// Attempts for a hot reload whose artefact read fails transiently.
    pub reload_attempts: u32,
    /// Backoff before the first reload retry (doubles per retry).
    pub reload_backoff: Duration,
    /// Fingerprint-keyed decision cache (disabled by default: capacity
    /// 0). Hits are answered synchronously in [`SelectorServer::submit`]
    /// without touching the queue; only CNN-answered selections are
    /// cached, and every entry is keyed by the model generation that
    /// produced it, so a hot reload invalidates the whole cache at once.
    pub cache: CacheConfig,
    /// Largest micro-batch a worker may coalesce from consecutive
    /// cache-miss requests (1 disables batching). Batched members share
    /// one packed CNN forward pass; deadlines, breaker accounting and
    /// fault injection stay per-member.
    pub max_batch: usize,
    /// How long a worker holding a partial batch waits for more work
    /// before running it. Zero (the default) batches opportunistically:
    /// whatever is already queued is taken, but the worker never idles
    /// waiting for a fuller batch, so low-load latency is unaffected.
    pub max_batch_wait: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 64,
            reload_attempts: 3,
            reload_backoff: Duration::from_millis(20),
            cache: CacheConfig::default(),
            max_batch: 8,
            max_batch_wait: Duration::ZERO,
        }
    }
}

/// Registry-backed server metrics. Handles are bound once at
/// construction, so the hot path records through pre-resolved atomic
/// cells — never through the registry's maps.
#[derive(Debug)]
struct ServerMetrics {
    registry: Registry,
    submitted: Counter,
    shed: Counter,
    rejected_shutdown: Counter,
    served_cnn: Counter,
    served_tree: Counter,
    served_default: Counter,
    deadline_in_queue: Counter,
    deadline_in_flight: Counter,
    breaker_demoted: Counter,
    probes_ok: Counter,
    probes_failed: Counter,
    reloads_ok: Counter,
    reloads_rejected: Counter,
    served_cache: Counter,
    path_cache: Counter,
    path_tree_first: Counter,
    path_batched: Counter,
    path_single: Counter,
    cache_miss: Counter,
    cache_stale: Counter,
    cache_audit: Counter,
    audit_match: Counter,
    audit_mismatch: Counter,
    cache_inserted: Counter,
    cache_updated: Counter,
    cache_evicted: Counter,
    queue_depth: Gauge,
    in_flight: Gauge,
    model_generation: Gauge,
    cache_entries: Gauge,
    queue_wait_ns: Arc<LatencyHistogram>,
    handle_ns: Arc<LatencyHistogram>,
    cache_hit_ns: Arc<LatencyHistogram>,
    batch_size: Arc<LatencyHistogram>,
}

impl ServerMetrics {
    fn bind(registry: Registry) -> Self {
        let outcome = |o: &str| registry.counter("serve_outcome_total", &[("outcome", o)]);
        let served = |rung: &str| {
            registry.counter(
                "serve_outcome_total",
                &[("outcome", "served"), ("rung", rung)],
            )
        };
        let path = |p: &str| registry.counter("serve_path_total", &[("path", p)]);
        let lookup = |r: &str| registry.counter("serve_cache_lookup_total", &[("result", r)]);
        let store = |r: &str| registry.counter("serve_cache_store_total", &[("result", r)]);
        let audit = |r: &str| registry.counter("serve_cache_audit_total", &[("result", r)]);
        Self {
            submitted: registry.counter("serve_submitted_total", &[]),
            shed: outcome("shed"),
            rejected_shutdown: outcome("rejected_shutdown"),
            served_cnn: served("cnn"),
            served_tree: served("tree"),
            served_default: served("default"),
            served_cache: served("cache"),
            path_cache: path("cache"),
            path_tree_first: path("tree_first"),
            path_batched: path("batched"),
            path_single: path("single"),
            cache_miss: lookup("miss"),
            cache_stale: lookup("stale"),
            cache_audit: lookup("audit"),
            audit_match: audit("match"),
            audit_mismatch: audit("mismatch"),
            cache_inserted: store("inserted"),
            cache_updated: store("updated"),
            cache_evicted: store("evicted"),
            cache_entries: registry.gauge("serve_cache_entries", &[]),
            cache_hit_ns: registry.histogram("serve_cache_hit_ns", &[]),
            batch_size: registry.histogram("serve_batch_size", &[]),
            deadline_in_queue: outcome("deadline_in_queue"),
            deadline_in_flight: outcome("deadline_in_flight"),
            breaker_demoted: registry.counter("serve_breaker_demoted_total", &[]),
            probes_ok: registry.counter("serve_probe_total", &[("result", "ok")]),
            probes_failed: registry.counter("serve_probe_total", &[("result", "failed")]),
            reloads_ok: registry.counter("serve_reload_total", &[("result", "ok")]),
            reloads_rejected: registry.counter("serve_reload_total", &[("result", "rejected")]),
            queue_depth: registry.gauge("serve_queue_depth", &[]),
            in_flight: registry.gauge("serve_in_flight", &[]),
            model_generation: registry.gauge("serve_model_generation", &[]),
            queue_wait_ns: registry.histogram("serve_queue_wait_ns", &[]),
            handle_ns: registry.histogram("serve_handle_ns", &[]),
            registry,
        }
    }
}

/// Decision-cache counters, as exported by [`ServerReport`].
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct ServeCacheReport {
    /// Lookups answered from the cache (same as
    /// [`ServerReport::served_cache`]).
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Lookups that found an entry from a retired model generation
    /// (dropped on sight).
    pub stale: u64,
    /// Hits demoted to the miss path as an audit (an entry's every
    /// [`CACHE_AUDIT_PERIOD`]th hit) and queued; not counted in `hits`.
    /// An audit that finds the queue full is served as a hit instead.
    pub audited: u64,
    /// Audits whose fresh CNN decision chose a different format than
    /// the cached one under the same model generation.
    pub audit_mismatches: u64,
    /// Entries inserted (fresh key).
    pub inserted: u64,
    /// Entries refreshed in place (key already present).
    pub updated: u64,
    /// Entries evicted to make room (LRU within a shard).
    pub evicted: u64,
    /// Live entries right now.
    pub entries: i64,
}

/// Monotonic server counters plus breaker and ladder snapshots.
///
/// Accounting invariant (once all accepted work has completed):
/// `submitted == shed + rejected_shutdown + served + deadline_in_queue +
/// deadline_in_flight` — every request lands in exactly one terminal
/// bucket, none lost, none double-counted. A second, path-level
/// invariant refines `served`: `served == cache.hits +
/// tree_first_served + batched_served + single_served` — every answer
/// travelled exactly one hot-path route.
/// With the cache on, every admitted submission looks it up exactly
/// once: `cache.hits + misses + stale + audited == submitted −
/// rejected_shutdown` (an injected admission failure also skips it).
/// An audit never fails or degrades: when it misses its deadline or the
/// CNN does not answer it, the worker replies with the cached CNN
/// answer, counted in `served_cnn` although its own ladder pass (if any)
/// counted a degraded rung in `ladder`.
#[derive(Debug, Clone, Serialize)]
pub struct ServerReport {
    /// Requests that entered `submit` at all.
    pub submitted: u64,
    /// Shed on admission: bounded queue was full.
    pub shed: u64,
    /// Rejected because the server was shutting down.
    pub rejected_shutdown: u64,
    /// Answered, by any rung (`served_cnn + served_tree +
    /// served_default + served_cache`).
    pub served: u64,
    /// Answered by the CNN rung.
    pub served_cnn: u64,
    /// Answered by the tree, first or as a fallback
    /// (`ladder.cnn_bypassed` counts the first, wherever it ran).
    pub served_tree: u64,
    /// Answered by the static default.
    pub served_default: u64,
    /// Answered from the decision cache (no rung ran at all).
    pub served_cache: u64,
    /// Answered tree-first at admission, on the submitting thread: no
    /// queue, no worker. Each is also counted in `served_tree` and in
    /// `ladder.cnn_bypassed`; with no fault hook installed, every
    /// tree-first answer is one of these.
    pub tree_first_served: u64,
    /// Answers produced by a worker pass shared by two or more
    /// requests.
    pub batched_served: u64,
    /// Answers produced by a worker pass over a batch of one.
    pub single_served: u64,
    /// Decision-cache counters.
    pub cache: ServeCacheReport,
    /// Deadline expired while still queued.
    pub deadline_in_queue: u64,
    /// Deadline expired during processing.
    pub deadline_in_flight: u64,
    /// Requests whose CNN rung was skipped because the breaker was
    /// open.
    pub breaker_demoted: u64,
    /// Half-open probes that found the CNN healthy.
    pub probes_ok: u64,
    /// Half-open probes that failed (breaker reopened).
    pub probes_failed: u64,
    /// Hot reloads that swapped a new model in.
    pub reloads_ok: u64,
    /// Hot reloads rejected (bad artefact or persistent read failure).
    pub reloads_rejected: u64,
    /// Generation number of the live model (starts at 0, +1 per
    /// successful reload).
    pub model_generation: u64,
    /// Breaker snapshot.
    pub breaker: BreakerSnapshot,
    /// Degradation-ladder counters, summed across *all* model
    /// generations ever served (retired generations included).
    pub ladder: ServiceReport,
}

impl ServerReport {
    /// Sum of the terminal buckets; equals `submitted` once all
    /// accepted work has completed.
    pub fn accounted(&self) -> u64 {
        self.shed
            + self.rejected_shutdown
            + self.served
            + self.deadline_in_queue
            + self.deadline_in_flight
    }

    /// Path-level refinement of the accounting invariant: every served
    /// answer arrived via exactly one route — a synchronous cache hit,
    /// a synchronous tree-first answer, a worker pass shared with batch
    /// mates, or a worker pass alone.
    pub fn path_accounted(&self) -> bool {
        self.served
            == self.served_cache + self.tree_first_served + self.batched_served + self.single_served
    }
}

/// One model generation: an immutable validated service plus its
/// sequence number. Swapped atomically on hot reload.
#[derive(Debug)]
struct Generation {
    service: SelectorService,
    number: u64,
}

struct Job<S: Scalar> {
    matrix: Arc<CooMatrix<S>>,
    deadline: Option<u64>,
    seq: u64,
    /// Clock reading at admission — the queue-wait histogram is
    /// dequeue-time minus this.
    enqueued_at: u64,
    /// Structural fingerprint computed at admission (only when the
    /// cache is enabled); the worker stores CNN answers under it.
    fp: Option<u64>,
    /// For a hit demoted to an audit: the model generation it was
    /// cached under and the cached selection the worker's fresh answer
    /// is checked against.
    audit: Option<(u64, Selection)>,
    /// Admission already asked the tree first and it did not answer, so
    /// the worker does not ask again.
    tree_asked: bool,
    reply: mpsc::Sender<Result<Selection, ServeError>>,
}

struct Inner<S: Scalar> {
    cfg: ServerConfig,
    clock: ClockFn,
    hooks: ServeHooks,
    breaker: Breaker,
    queue: Mutex<VecDeque<Job<S>>>,
    cv: Condvar,
    shutdown: AtomicBool,
    metrics: ServerMetrics,
    /// The live generation; readers clone the `Arc` and drop the lock
    /// before doing any work, so a reload never blocks on inference.
    /// Every generation shares `metrics.registry`, so in-flight
    /// requests finishing against a retired model still land in the
    /// same ladder counters.
    slot: RwLock<Arc<Generation>>,
    /// Mirror of the live generation number, readable without the slot
    /// lock — the submit hot path keys cache lookups off this.
    generation_no: AtomicU64,
    /// Fingerprint-keyed decision cache (`None` when disabled).
    cache: Option<DecisionCache>,
    /// Serve observer (write-once; empty in production unless the
    /// feedback layer attaches one).
    tap: OnceLock<Arc<dyn ServeTap<S>>>,
    seq: AtomicU64,
}

/// Restores a gauge by `n` on drop, so the in-flight gauge is released
/// even if a batch member's CNN pass panics through the worker.
struct GaugeDebt<'a> {
    gauge: &'a Gauge,
    n: i64,
}

impl Drop for GaugeDebt<'_> {
    fn drop(&mut self) {
        self.gauge.add(-self.n);
    }
}

type Reply = mpsc::Sender<Result<Selection, ServeError>>;

impl<S: Scalar> Inner<S> {
    /// Notifies the attached serve tap, if any. Kept out of line so
    /// both served paths (cache hit, worker pass) share the same
    /// one-liner and the no-tap case is a single pointer load.
    #[inline]
    fn tap_observe(&self, matrix: &Arc<CooMatrix<S>>, sel: &Selection, generation: u64) {
        if let Some(tap) = self.tap.get() {
            tap.observe(matrix, sel, generation);
        }
    }

    /// Processes a gathered batch — a single request is a batch of one —
    /// through one pass of the ladder and returns each member's reply
    /// channel plus its answer. The caller sends *after* this returns,
    /// so the in-flight gauge (released on return, panic-unwind
    /// included) never reads non-zero to a client that already has its
    /// reply. Everything is per member: queue-wait accounting, in-queue
    /// deadline expiry, the breaker gate and probe bookkeeping, fault
    /// injection, cancellation and breaker feedback; only the CNN
    /// forward pass is shared.
    ///
    /// Wherever sharing that pass would change semantics — no CNN rung,
    /// or a breaker that is not closed, where probes must stay
    /// one-request-at-a-time and each member must see the breaker state
    /// its predecessor left behind — the members are fed through this
    /// same routine one at a time.
    fn handle_batch(&self, jobs: Vec<Job<S>>) -> Vec<(Reply, Result<Selection, ServeError>)> {
        let generation = self.slot.read().expect("slot lock").clone();
        let has_cnn = generation.service.has_cnn();
        if jobs.len() > 1 && !(has_cnn && self.breaker.closed()) {
            return jobs
                .into_iter()
                .flat_map(|j| self.handle_batch(vec![j]))
                .collect();
        }
        let now = (self.clock)();
        let n = jobs.len() as i64;
        self.metrics.in_flight.add(n);
        let _in_flight = GaugeDebt {
            gauge: &self.metrics.in_flight,
            n,
        };
        let path = if jobs.len() > 1 {
            &self.metrics.path_batched
        } else {
            &self.metrics.path_single
        };
        let cancels: Vec<_> = jobs
            .iter()
            .map(|job| {
                let clock = self.clock.clone();
                let deadline = job.deadline;
                move || deadline.is_some_and(|d| clock() >= d)
            })
            .collect();
        let mut results: Vec<Option<Result<Selection, ServeError>>> = vec![None; jobs.len()];
        // Members still wanted after the queue: their job index and
        // whether they are the half-open probe, parallel to `members`.
        let mut live: Vec<(usize, bool)> = Vec::with_capacity(jobs.len());
        let mut members: Vec<(&CooMatrix<S>, SelectGuard)> = Vec::with_capacity(jobs.len());
        for (i, job) in jobs.iter().enumerate() {
            self.metrics
                .queue_wait_ns
                .record(now.saturating_sub(job.enqueued_at));
            if job.deadline.is_some_and(|d| now >= d) {
                results[i] = Some(match job.audit {
                    Some((cached_in, cached)) => {
                        Ok(self.answer(&job.matrix, cached, cached_in, path))
                    }
                    None => {
                        self.metrics.deadline_in_queue.inc();
                        Err(ServeError::DeadlineExceeded)
                    }
                });
                continue;
            }
            let gate = if has_cnn {
                self.breaker.gate(now)
            } else {
                Gate::Allow
            };
            let (skip_cnn, probe) = match gate {
                Gate::Allow => (false, false),
                Gate::Probe => (false, true),
                Gate::Deny => {
                    self.metrics.breaker_demoted.inc();
                    (true, false)
                }
            };
            // Faults are injected at the CNN rung only: a demoted request
            // never touches the (possibly faulty) model, which is the
            // point of the breaker. The hook is consulted exactly once
            // per member reaching the rung.
            let inject = if skip_cnn {
                CnnFault::None
            } else {
                self.hooks
                    .cnn_fault
                    .as_ref()
                    .map_or(CnnFault::None, |h| h(job.seq))
            };
            live.push((i, probe));
            let guard = SelectGuard {
                skip_cnn,
                cancel: &cancels[i],
                inject,
                require_cnn: probe || job.audit.is_some() || job.tree_asked,
            };
            members.push((job.matrix.as_ref(), guard));
        }
        let outs = generation.service.select_batch(&members);
        for (&(i, probe), out) in live.iter().zip(outs) {
            match out.cnn {
                CnnRungOutcome::Answered => {
                    if probe {
                        self.metrics.probes_ok.inc();
                    }
                    self.breaker.on_success(probe);
                }
                CnnRungOutcome::Panicked
                | CnnRungOutcome::NonFinite
                | CnnRungOutcome::Cancelled => {
                    if probe {
                        self.metrics.probes_failed.inc();
                    }
                    self.breaker.on_failure(probe, (self.clock)());
                }
                CnnRungOutcome::Skipped | CnnRungOutcome::Absent | CnnRungOutcome::Bypassed => {
                    if probe {
                        self.breaker.abandon_probe();
                    }
                }
            }
            self.metrics
                .handle_ns
                .record((self.clock)().saturating_sub(now));
            let job = &jobs[i];
            results[i] = Some(match (out.selection, job.audit) {
                // An audit the CNN did not answer ends as the hit it was.
                (_, Some((cached_in, cached))) if out.cnn != CnnRungOutcome::Answered => {
                    Ok(self.answer(&job.matrix, cached, cached_in, path))
                }
                (Some(sel), audit) => {
                    // Only a fresh CNN answer from the model that made
                    // the cached one can confirm or refute it.
                    if let Some((cached_in, cached)) = audit {
                        if cached_in == generation.number {
                            if sel.format == cached.format {
                                self.metrics.audit_match.inc();
                            } else {
                                self.metrics.audit_mismatch.inc();
                            }
                        }
                    }
                    self.cache_store(job.fp, generation.number, out.cnn, &sel);
                    Ok(self.answer(&job.matrix, sel, generation.number, path))
                }
                (None, _) => {
                    self.metrics.deadline_in_flight.inc();
                    Err(ServeError::DeadlineExceeded)
                }
            });
        }
        jobs.into_iter()
            .zip(results)
            .map(|(j, r)| (j.reply, r.expect("every batch member resolved")))
            .collect()
    }

    /// Counts an answer to a request for `matrix` under its rung and
    /// `path`, and shows it to the tap.
    fn answer(
        &self,
        matrix: &Arc<CooMatrix<S>>,
        sel: Selection,
        generation: u64,
        path: &Counter,
    ) -> Selection {
        let c = match sel.source {
            SelectionSource::Cnn => &self.metrics.served_cnn,
            SelectionSource::Tree => &self.metrics.served_tree,
            SelectionSource::Default => &self.metrics.served_default,
        };
        c.inc();
        path.inc();
        self.tap_observe(matrix, &sel, generation);
        sel
    }

    /// Stores a CNN-answered selection in the decision cache. Tree and
    /// default answers are never cached. A fallback answer is degraded,
    /// and caching it would keep serving degraded answers after the CNN
    /// recovered; a tree-first answer costs about what the cache key
    /// does, so caching it would save nothing.
    fn cache_store(&self, fp: Option<u64>, generation: u64, cnn: CnnRungOutcome, sel: &Selection) {
        let (Some(cache), Some(fp)) = (&self.cache, fp) else {
            return;
        };
        if cnn != CnnRungOutcome::Answered {
            return;
        }
        #[cfg(feature = "chaos")]
        if dnnspmv_chaos::should_fail(dnnspmv_chaos::sites::SERVE_CACHE_STORE) {
            // A failed shard store costs a future hit, nothing else.
            return;
        }
        match cache.insert(fp, generation, 0, *sel) {
            CacheInsert::Inserted => {
                self.metrics.cache_inserted.inc();
                self.metrics.cache_entries.inc();
            }
            CacheInsert::InsertedEvicting => {
                self.metrics.cache_inserted.inc();
                self.metrics.cache_evicted.inc();
            }
            CacheInsert::Updated => self.metrics.cache_updated.inc(),
        }
    }

    /// Pops one job, then greedily coalesces up to `max_batch - 1` more.
    /// With a non-zero `max_batch_wait` the worker holds the partial
    /// batch open until the (injected) clock passes the gather deadline,
    /// sleeping in short real-time slices so a frozen fake clock holds
    /// the gather window open deterministically.
    fn gather_batch(&self, first: Job<S>) -> Vec<Job<S>> {
        let max_batch = self.cfg.max_batch.max(1);
        let mut batch = vec![first];
        if max_batch == 1 {
            return batch;
        }
        // Latency injection on the gather path (the only legal action
        // here — a panic would take the worker down with it).
        dnnspmv_chaos::failpoint!(dnnspmv_chaos::sites::SERVE_BATCH_GATHER);
        let wait_ns = self.cfg.max_batch_wait.as_nanos() as u64;
        let gather_deadline = (self.clock)().saturating_add(wait_ns);
        let mut q = self.queue.lock().expect("queue lock");
        loop {
            while batch.len() < max_batch {
                match q.pop_front() {
                    Some(j) => {
                        self.metrics.queue_depth.dec();
                        batch.push(j);
                    }
                    None => break,
                }
            }
            if batch.len() >= max_batch
                || wait_ns == 0
                || (self.clock)() >= gather_deadline
                || self.shutdown.load(Ordering::SeqCst)
            {
                return batch;
            }
            // Short real slice, injected-clock deadline: under a fake
            // clock the slice expires but the deadline does not, so the
            // window stays open until the test advances time.
            let (guard, _) = self
                .cv
                .wait_timeout(q, Duration::from_micros(200))
                .expect("queue lock");
            q = guard;
        }
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut q = self.queue.lock().expect("queue lock");
                loop {
                    if let Some(j) = q.pop_front() {
                        self.metrics.queue_depth.dec();
                        break Some(j);
                    }
                    // Drain-then-exit: queued work admitted before
                    // shutdown still completes, keeping counters exact.
                    if self.shutdown.load(Ordering::SeqCst) {
                        break None;
                    }
                    q = self.cv.wait(q).expect("queue lock");
                }
            };
            match job {
                Some(j) => {
                    let batch = self.gather_batch(j);
                    self.metrics.batch_size.record(batch.len() as u64);
                    for (reply, result) in self.handle_batch(batch) {
                        let _ = reply.send(result);
                    }
                }
                None => return,
            }
        }
    }
}

/// A handle to one submitted request; resolves when a worker answers —
/// or immediately, when the decision cache or the tree answered at
/// admission.
pub struct PendingSelection {
    state: PendingState,
}

enum PendingState {
    /// Answered synchronously (cache hit or tree-first answer); no
    /// worker involved.
    Ready(Box<Result<Selection, ServeError>>),
    /// Queued; a worker will reply.
    Waiting(mpsc::Receiver<Result<Selection, ServeError>>),
}

impl PendingSelection {
    /// Blocks until the request resolves.
    pub fn wait(self) -> Result<Selection, ServeError> {
        match self.state {
            PendingState::Ready(r) => *r,
            PendingState::Waiting(rx) => rx.recv().unwrap_or(Err(ServeError::WorkerLost)),
        }
    }
}

/// Concurrent, admission-controlled selector server (see module docs).
pub struct SelectorServer<S: Scalar> {
    inner: Arc<Inner<S>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl<S: Scalar> SelectorServer<S> {
    /// Starts a server over a validated service with the system clock
    /// and no fault hooks.
    pub fn new(service: SelectorService, cfg: ServerConfig) -> Self {
        Self::with_parts(service, cfg, ServeHooks::default(), system_clock())
    }

    /// Starts a server with an injected clock and fault hooks — the
    /// deterministic-testing constructor.
    pub fn with_parts(
        service: SelectorService,
        cfg: ServerConfig,
        hooks: ServeHooks,
        clock: ClockFn,
    ) -> Self {
        let workers = cfg.workers.max(1);
        let metrics = ServerMetrics::bind(Registry::new());
        // The service joins the server's registry so its rung counters
        // live beside the server's own — and survive hot reloads, since
        // every future generation binds the same registry.
        let service = service.with_registry(metrics.registry.clone());
        let inner = Arc::new(Inner {
            breaker: Breaker::new(),
            cache: DecisionCache::new(&cfg.cache),
            cfg,
            clock,
            hooks,
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            metrics,
            slot: RwLock::new(Arc::new(Generation { service, number: 0 })),
            generation_no: AtomicU64::new(0),
            tap: OnceLock::new(),
            seq: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                // Each worker drains with serial GEMM, installed once for
                // the thread's whole life: the worker pool is already the
                // server's parallelism, so fanning every worker's CNN
                // GEMMs across the shared rayon pool would only add
                // contention without adding cores. GEMM output is
                // bit-identical at any threading, so results never move.
                thread::Builder::new()
                    .name(format!("dnnspmv-serve-{i}"))
                    .spawn(move || {
                        with_gemm_threading(GemmThreading::Serial, || inner.worker_loop())
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        Self {
            inner,
            workers: handles,
        }
    }

    /// Submits a request with an explicit deadline (`None`: no
    /// deadline). A submission ends in one of three ways:
    ///
    /// * **Hit.** When the decision cache holds a same-generation
    ///   answer for the matrix's structural fingerprint, the request is
    ///   answered synchronously without queueing at all — the hit path
    ///   is a fingerprint, a sharded lookup, and a clone — except an
    ///   entry's every [`CACHE_AUDIT_PERIOD`]th hit, which is queued
    ///   like a miss so a worker can check the cached answer. An audit
    ///   is never shed: on a full queue it is served as a hit.
    /// * **Tree first.** Otherwise, unless the request is an audit, a
    ///   [`ServeHooks::cnn_fault`] hook is installed or the deadline has
    ///   already passed, the live generation's
    ///   [`SelectorService::tree_first`] is asked; a pure-leaf answer is
    ///   returned synchronously, counted `cnn/bypassed` plus `tree/ok`
    ///   and `serve_path_total{path="tree_first"}`. It is never cached,
    ///   never shed, and gives the circuit breaker no signal (it does
    ///   not consult it either, so it never takes the half-open probe).
    ///   A matrix above the tree's cost gate pays one slot read and one
    ///   comparison here.
    /// * **Queued.** Everything else goes to a worker, which does not
    ///   ask the tree again. When the queue is full the request is shed
    ///   immediately with [`ServeError::Overloaded`].
    pub fn submit(
        &self,
        matrix: Arc<CooMatrix<S>>,
        deadline: Option<Duration>,
    ) -> Result<PendingSelection, ServeError> {
        let m = &self.inner.metrics;
        m.submitted.inc();
        if self.inner.shutdown.load(Ordering::SeqCst) {
            m.rejected_shutdown.inc();
            return Err(ServeError::ShuttingDown);
        }
        #[cfg(feature = "chaos")]
        if dnnspmv_chaos::should_fail(dnnspmv_chaos::sites::SERVE_ADMISSION) {
            // An injected admission failure presents exactly like a
            // full queue — shed and counted, so accounting stays exact.
            m.shed.inc();
            return Err(ServeError::Overloaded {
                capacity: self.inner.cfg.queue_capacity,
            });
        }
        let now = (self.inner.clock)();
        let mut fp = None;
        let mut audit = None;
        if let Some(cache) = &self.inner.cache {
            let key = matrix_fingerprint(matrix.as_ref());
            let generation = self.inner.generation_no.load(Ordering::Acquire);
            // An unreadable cache shard (injected) serves as a miss:
            // the request takes the queued path like any other miss.
            #[cfg(feature = "chaos")]
            let looked_up = if dnnspmv_chaos::should_fail(dnnspmv_chaos::sites::SERVE_CACHE_LOOKUP)
            {
                (CacheLookup::Miss, 0)
            } else {
                cache.lookup_counted(key, generation)
            };
            #[cfg(not(feature = "chaos"))]
            let looked_up = cache.lookup_counted(key, generation);
            match looked_up {
                (CacheLookup::Hit(sel), hits) if !hits.is_multiple_of(CACHE_AUDIT_PERIOD) => {
                    return Ok(self.serve_hit(&matrix, sel, generation, now));
                }
                // Audit: queued like a miss (and counted once it is), checked
                // by the worker.
                (CacheLookup::Hit(sel), _) => audit = Some((generation, sel)),
                (CacheLookup::Miss, _) => m.cache_miss.inc(),
                (CacheLookup::Stale, _) => {
                    m.cache_stale.inc();
                    m.cache_entries.dec();
                }
            }
            fp = Some(key);
        }
        let deadline_ns = deadline.map(|d| now.saturating_add(d.as_nanos() as u64));
        let mut tree_asked = false;
        if audit.is_none()
            && self.inner.hooks.cnn_fault.is_none()
            && deadline_ns.is_none_or(|d| now < d)
        {
            let generation = Arc::clone(&self.inner.slot.read().expect("slot lock"));
            if let Some(sel) = generation.service.answer_tree_first(matrix.as_ref()) {
                let sel = self
                    .inner
                    .answer(&matrix, sel, generation.number, &m.path_tree_first);
                return Ok(PendingSelection {
                    state: PendingState::Ready(Box::new(Ok(sel))),
                });
            }
            tree_asked = true;
        }
        let (tx, rx) = mpsc::channel();
        let job = Job {
            matrix,
            deadline: deadline_ns,
            seq: self.inner.seq.fetch_add(1, Ordering::Relaxed),
            enqueued_at: now,
            fp,
            audit,
            tree_asked,
            reply: tx,
        };
        {
            let mut q = self.inner.queue.lock().expect("queue lock");
            if q.len() >= self.inner.cfg.queue_capacity {
                drop(q);
                if let Some((generation, sel)) = job.audit {
                    return Ok(self.serve_hit(&job.matrix, sel, generation, now));
                }
                m.shed.inc();
                return Err(ServeError::Overloaded {
                    capacity: self.inner.cfg.queue_capacity,
                });
            }
            if job.audit.is_some() {
                m.cache_audit.inc();
            }
            q.push_back(job);
            m.queue_depth.inc();
        }
        self.inner.cv.notify_one();
        Ok(PendingSelection {
            state: PendingState::Waiting(rx),
        })
    }

    /// Answers a cache hit at admission, without queueing.
    fn serve_hit(
        &self,
        matrix: &Arc<CooMatrix<S>>,
        sel: Selection,
        generation: u64,
        now: u64,
    ) -> PendingSelection {
        let m = &self.inner.metrics;
        m.served_cache.inc();
        m.path_cache.inc();
        m.cache_hit_ns
            .record((self.inner.clock)().saturating_sub(now));
        self.inner.tap_observe(matrix, &sel, generation);
        PendingSelection {
            state: PendingState::Ready(Box::new(Ok(sel))),
        }
    }

    /// Synchronous convenience: submit with no deadline and wait.
    pub fn select(&self, matrix: &CooMatrix<S>) -> Result<Selection, ServeError> {
        self.submit(Arc::new(matrix.clone()), None)?.wait()
    }

    /// Hot-reloads the model from `path`: loads and validates off the
    /// hot path (envelope checksum, structural validation, service
    /// construction), then atomically swaps the new generation in.
    /// On any failure the old model keeps serving and a typed
    /// [`ServeError::Reload`] is returned. Transient read errors are
    /// retried `reload_attempts` times with doubling backoff. The old
    /// tree stays on as a fallback rung only: it was trained beside the
    /// first CNN, so it never answers ahead of a reloaded one.
    pub fn reload_model<P: AsRef<Path>>(&self, path: P) -> Result<u64, ServeError> {
        self.reload_model_with_sleep(path, &|d| thread::sleep(d))
    }

    /// [`SelectorServer::reload_model`] with an injectable sleep, so
    /// retry behaviour is testable without wall-clock waits.
    pub fn reload_model_with_sleep<P: AsRef<Path>>(
        &self,
        path: P,
        sleep: &dyn Fn(Duration),
    ) -> Result<u64, ServeError> {
        let cfg = &self.inner.cfg;
        let reject = |e: SelectorError| {
            self.inner.metrics.reloads_rejected.inc();
            ServeError::Reload(e)
        };
        let sel = load_selector_with_retry(
            path.as_ref(),
            cfg.reload_attempts,
            cfg.reload_backoff,
            sleep,
        )
        .map_err(reject)?;
        // Swap under the write lock; in-flight requests hold an Arc to
        // the old generation and finish against it undisturbed. The new
        // generation binds the shared registry, so ladder counters
        // carry straight across the swap.
        {
            let mut slot = self.inner.slot.write().expect("slot lock");
            let service =
                SelectorService::with_fallback_tree(Some(sel), slot.service.tree().cloned())
                    .map_err(reject)?
                    .with_registry(self.inner.metrics.registry.clone());
            let number = slot.number + 1;
            *slot = Arc::new(Generation { service, number });
            // Publish the new generation number for lock-free cache
            // lookups; entries keyed by older generations are now stale
            // and get dropped lazily on their next lookup.
            self.inner.generation_no.store(number, Ordering::Release);
            self.inner.metrics.model_generation.set(number as i64);
            self.inner.metrics.reloads_ok.inc();
            Ok(number)
        }
    }

    /// Attaches a serve observer. Write-once: returns `false` (and
    /// leaves the existing tap in place) if one is already attached.
    /// The tap sees every served answer from this point on; see
    /// [`ServeTap`] for the cheapness contract.
    pub fn set_serve_tap(&self, tap: Arc<dyn ServeTap<S>>) -> bool {
        self.inner.tap.set(tap).is_ok()
    }

    /// Generation number of the live model.
    pub fn model_generation(&self) -> u64 {
        self.inner.slot.read().expect("slot lock").number
    }

    /// Stops accepting new requests; already-queued work still drains.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.cv.notify_all();
    }

    /// Snapshot of all server counters, the breaker, and the
    /// degradation-ladder counters. A typed view over the same registry
    /// [`SelectorServer::metrics_snapshot`] exports: both read the same
    /// cells, so the two can never disagree.
    pub fn report(&self) -> ServerReport {
        let m = &self.inner.metrics;
        let served_cnn = m.served_cnn.get();
        let served_tree = m.served_tree.get();
        let served_default = m.served_default.get();
        let served_cache = m.served_cache.get();
        // Every generation shares the registry, so the live service's
        // handles already hold the totals across all generations.
        let ladder = self.inner.slot.read().expect("slot lock").service.report();
        ServerReport {
            submitted: m.submitted.get(),
            shed: m.shed.get(),
            rejected_shutdown: m.rejected_shutdown.get(),
            served: served_cnn + served_tree + served_default + served_cache,
            served_cnn,
            served_tree,
            served_default,
            served_cache,
            tree_first_served: m.path_tree_first.get(),
            batched_served: m.path_batched.get(),
            single_served: m.path_single.get(),
            cache: ServeCacheReport {
                hits: served_cache,
                misses: m.cache_miss.get(),
                stale: m.cache_stale.get(),
                audited: m.cache_audit.get(),
                audit_mismatches: m.audit_mismatch.get(),
                inserted: m.cache_inserted.get(),
                updated: m.cache_updated.get(),
                evicted: m.cache_evicted.get(),
                entries: m.cache_entries.get(),
            },
            deadline_in_queue: m.deadline_in_queue.get(),
            deadline_in_flight: m.deadline_in_flight.get(),
            breaker_demoted: m.breaker_demoted.get(),
            probes_ok: m.probes_ok.get(),
            probes_failed: m.probes_failed.get(),
            reloads_ok: m.reloads_ok.get(),
            reloads_rejected: m.reloads_rejected.get(),
            model_generation: self.model_generation(),
            breaker: self.inner.breaker.snapshot(),
            ladder,
        }
    }

    /// The server's metrics registry (shared with every model
    /// generation). Exporters and benchmarks snapshot it directly.
    pub fn registry(&self) -> &Registry {
        &self.inner.metrics.registry
    }

    /// A consistent snapshot of every server metric — counters, queue
    /// and in-flight gauges, and the queue-wait, handle-time, cache-hit
    /// and batch-size histograms.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.inner.metrics.registry.snapshot()
    }
}

impl<S: Scalar> Drop for SelectorServer<S> {
    fn drop(&mut self) {
        self.shutdown();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Loads a selector artefact, retrying *transient* failures (I/O) up
/// to `attempts` times with a doubling backoff. Non-transient failures
/// — bad checksum, wrong kind or version, structurally invalid model —
/// fail immediately: retrying cannot fix a corrupt artefact.
pub fn load_selector_with_retry(
    path: &Path,
    attempts: u32,
    backoff: Duration,
    sleep: &dyn Fn(Duration),
) -> Result<FormatSelector, SelectorError> {
    let attempts = attempts.max(1);
    let mut wait = backoff;
    let mut last = None;
    for attempt in 0..attempts {
        if attempt > 0 {
            sleep(wait);
            wait = wait.saturating_mul(2);
        }
        #[cfg(feature = "chaos")]
        if dnnspmv_chaos::should_fail(dnnspmv_chaos::sites::SERVE_RELOAD_READ) {
            // An injected read failure is transient by definition: it
            // burns this attempt and the retry loop carries on.
            last = Some(SelectorError::Io(
                "chaos: injected transient artefact read failure".into(),
            ));
            continue;
        }
        match FormatSelector::load(path) {
            Ok(s) => return Ok(s),
            Err(e) if is_transient(&e) => last = Some(e),
            Err(e) => return Err(e),
        }
    }
    Err(last.expect("at least one attempt was made"))
}

fn is_transient(e: &SelectorError) -> bool {
    matches!(e, SelectorError::Io(_) | SelectorError::Nn(NnError::Io(_)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_clock() -> (Arc<AtomicU64>, ClockFn) {
        let t = Arc::new(AtomicU64::new(0));
        let tc = Arc::clone(&t);
        (t, Arc::new(move || tc.load(Ordering::SeqCst)))
    }

    /// The first open period, in clock nanoseconds.
    const B: u64 = OPEN_BACKOFF_NS;

    #[test]
    fn breaker_trips_after_threshold_and_recovers_via_probe() {
        let b = Breaker::new();
        assert_eq!(b.gate(0), Gate::Allow);
        b.on_failure(false, 0);
        b.on_failure(false, 0);
        assert_eq!(b.snapshot().state, BreakerState::Closed);
        b.on_failure(false, 10);
        assert_eq!(b.snapshot().state, BreakerState::Open);
        // Denied while the backoff runs.
        assert_eq!(b.gate(B / 2), Gate::Deny);
        // Backoff expired: exactly one probe, everyone else denied.
        assert_eq!(b.gate(10 + B), Gate::Probe);
        assert_eq!(b.gate(11 + B), Gate::Deny);
        b.on_success(true);
        let s = b.snapshot();
        assert_eq!(s.state, BreakerState::Closed);
        assert_eq!((s.to_open, s.to_half_open, s.to_closed), (1, 1, 1));
    }

    #[test]
    fn failed_probe_doubles_backoff_up_to_cap() {
        let b = Breaker::new();
        for _ in 0..3 {
            b.on_failure(false, 0);
        }
        let mut t = B;
        assert_eq!(b.gate(t), Gate::Probe);
        b.on_failure(true, t);
        let s = b.snapshot();
        assert_eq!(s.state, BreakerState::Open);
        assert_eq!(s.current_backoff_ns, 2 * B);
        // Still within the doubled backoff just before it ends.
        assert_eq!(b.gate(t + 2 * B - 1), Gate::Deny);
        // Every further failed probe doubles the backoff until the cap.
        let mut backoff = 2 * B;
        while backoff < MAX_BACKOFF_NS {
            t += backoff;
            assert_eq!(b.gate(t), Gate::Probe);
            b.on_failure(true, t);
            backoff = (2 * backoff).min(MAX_BACKOFF_NS);
            assert_eq!(b.snapshot().current_backoff_ns, backoff);
        }
        // One more failed probe: doubling is capped at the maximum.
        t += backoff;
        assert_eq!(b.gate(t), Gate::Probe);
        b.on_failure(true, t);
        assert_eq!(b.snapshot().current_backoff_ns, MAX_BACKOFF_NS, "capped");
        // A successful probe resets the backoff to the initial value.
        assert_eq!(b.gate(t + MAX_BACKOFF_NS), Gate::Probe);
        b.on_success(true);
        assert_eq!(b.snapshot().current_backoff_ns, B);
    }

    #[test]
    fn abandoned_probe_frees_the_slot() {
        let b = Breaker::new();
        for _ in 0..3 {
            b.on_failure(false, 0);
        }
        assert_eq!(b.gate(B), Gate::Probe);
        assert_eq!(b.gate(B), Gate::Deny);
        b.abandon_probe();
        assert_eq!(b.gate(B + 1), Gate::Probe);
    }

    #[test]
    fn late_failures_do_not_extend_the_open_period() {
        let b = Breaker::new();
        for _ in 0..3 {
            b.on_failure(false, 10);
        }
        let opened = b.snapshot().to_open;
        // A request admitted before the trip fails afterwards.
        b.on_failure(false, B);
        assert_eq!(b.snapshot().to_open, opened);
        assert_eq!(b.gate(10 + B), Gate::Probe);
    }

    #[test]
    fn transient_read_errors_retry_then_succeed() {
        let dir = std::env::temp_dir().join(format!("dnnspmv-retry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("late-model.json");
        let _ = std::fs::remove_file(&path);
        // The artefact appears only after the first failed attempt —
        // the injectable sleep doubles as the "file system catches up"
        // fault window. An invalid-but-present artefact then still
        // fails, proving the retry loop stops on non-transient errors.
        let slept = std::cell::Cell::new(0u32);
        let waits = std::cell::RefCell::new(Vec::new());
        let sleep = |d: Duration| {
            slept.set(slept.get() + 1);
            waits.borrow_mut().push(d);
            std::fs::write(&path, b"{").unwrap();
        };
        let err = load_selector_with_retry(&path, 3, Duration::from_millis(5), &sleep)
            .expect_err("a truncated artefact must be rejected without further retries");
        assert!(matches!(err, SelectorError::Nn(_)));
        assert_eq!(slept.get(), 1, "non-transient error stops the retries");
        assert_eq!(waits.borrow()[0], Duration::from_millis(5));
        let _ = std::fs::remove_file(&path);
        // Persistent absence exhausts every attempt with doubling waits.
        let waits2 = std::cell::RefCell::new(Vec::new());
        let sleep2 = |d: Duration| waits2.borrow_mut().push(d);
        let err = load_selector_with_retry(&path, 3, Duration::from_millis(5), &sleep2)
            .expect_err("missing artefact");
        assert!(is_transient(&err));
        assert_eq!(
            *waits2.borrow(),
            vec![Duration::from_millis(5), Duration::from_millis(10)]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn server_without_predictors_serves_default_and_accounts_exactly() {
        let (_, clock) = fake_clock();
        let svc = SelectorService::new(None, None).unwrap();
        let server: SelectorServer<f32> =
            SelectorServer::with_parts(svc, ServerConfig::default(), ServeHooks::default(), clock);
        let m = CooMatrix::from_triplets(4, 4, &[(0, 0, 1.0f32), (3, 3, 2.0)]).unwrap();
        for _ in 0..5 {
            let sel = server.select(&m).unwrap();
            assert_eq!(sel.source, SelectionSource::Default);
        }
        let r = server.report();
        assert_eq!(r.submitted, 5);
        assert_eq!(r.served_default, 5);
        assert_eq!(r.accounted(), r.submitted);
        server.shutdown();
        assert!(matches!(server.select(&m), Err(ServeError::ShuttingDown)));
        assert_eq!(server.report().rejected_shutdown, 1);
    }

    #[test]
    fn half_open_probe_slot_has_exactly_one_winner_under_contention() {
        // When the open backoff expires, every worker that dequeues a
        // request calls `gate` at effectively the same instant. The
        // half-open contract is a single in-flight probe: one winner,
        // everyone else answers from the tree. Race eight threads at
        // the transition repeatedly to give an atomicity bug every
        // chance to double-probe.
        for round in 0..64u64 {
            let b = Breaker::new();
            for _ in 0..3 {
                b.on_failure(false, 0);
            }
            let now = B + round;
            let barrier = std::sync::Barrier::new(8);
            let probes: usize = std::thread::scope(|s| {
                let handles: Vec<_> = (0..8)
                    .map(|_| {
                        let (b, barrier) = (&b, &barrier);
                        s.spawn(move || {
                            barrier.wait();
                            (b.gate(now) == Gate::Probe) as usize
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).sum()
            });
            assert_eq!(probes, 1, "round {round}: one probe slot, one winner");
            let s = b.snapshot();
            assert_eq!(s.state, BreakerState::HalfOpen);
            assert_eq!(s.to_half_open, 1, "round {round}: a single transition");
            // The winner reports back: the breaker closes exactly once.
            b.on_success(true);
            let s = b.snapshot();
            assert_eq!((s.state, s.to_closed), (BreakerState::Closed, 1));
        }
    }

    #[test]
    fn clock_rewind_mid_run_keeps_serving_and_accounting() {
        // A host clock jumping backwards (VM migration, time sync) must
        // read as "no time passed": elapsed arithmetic saturates, no
        // debug-mode underflow panic, deadlines never mis-fire, and the
        // request ledger still balances.
        let clock = dnnspmv_obs::ManualClock::starting_at(1_000_000);
        let svc = SelectorService::new(None, None).unwrap();
        let server: SelectorServer<f32> = SelectorServer::with_parts(
            svc,
            ServerConfig {
                cache: CacheConfig::enabled(64),
                ..ServerConfig::default()
            },
            ServeHooks::default(),
            clock.as_clock_fn(),
        );
        let m = Arc::new(CooMatrix::from_triplets(4, 4, &[(0, 0, 1.0f32), (3, 3, 2.0)]).unwrap());
        for i in 0..10u64 {
            if i % 2 == 0 {
                clock.advance(500_000);
            } else {
                clock.rewind(900_000);
            }
            let sel = if i % 3 == 0 {
                server
                    .submit(Arc::clone(&m), Some(Duration::from_secs(1)))
                    .unwrap()
                    .wait()
                    .unwrap()
            } else {
                server.select(m.as_ref()).unwrap()
            };
            assert_eq!(sel.source, SelectionSource::Default);
        }
        // Rewind all the way to zero mid-flight and keep serving.
        clock.rewind(u64::MAX);
        assert_eq!(clock.now(), 0);
        server.select(m.as_ref()).unwrap();
        let r = server.report();
        assert_eq!(r.submitted, 11);
        assert_eq!(r.accounted(), r.submitted, "ledger balances after rewinds");
        assert_eq!(r.deadline_in_queue + r.deadline_in_flight, 0);
    }
}
