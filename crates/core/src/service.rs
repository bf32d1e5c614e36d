//! Cost-ordered, gracefully degrading inference: a cheap tree answer
//! first where it is cheap and certain, then CNN → decision tree →
//! static CSR.
//!
//! A deployed selector sits on the hot path of someone else's solver,
//! so a bad model file or a pathological input must never take the
//! host down — at worst the caller gets CSR, the format every library
//! supports. And a selection is charged against the SpMV iterations it
//! serves (§7.6), so the cheapest predictor that can answer with
//! certainty should answer. [`SelectorService`] wraps the CNN selector
//! with a ladder ordered by cost, then by fallback:
//!
//! 0. **Tree first** — when the service holds the tree trained beside
//!    its CNN and the tree's feature pass is estimated to cost less
//!    than one CNN forward ([`TREE_UNIT_MACS`]), the tree is asked
//!    first; if the leaf the matrix lands in was pure in training, the
//!    tree's format is the answer and no CNN forward runs (counted
//!    `cnn/bypassed`). This is a cost gate, not a confidence gate:
//!    outside its training range a pure leaf is no sign of a right
//!    answer, so large matrices always reach the CNN. The predicate is
//!    [`SelectorService::tree_first`], asked before the ladder proper:
//!    by [`SelectorService::select`], and by
//!    [`SelectorServer::submit`](crate::SelectorServer::submit) at
//!    admission, so a tree-first answer never queues.
//!    [`SelectorService::select_batch`], the ladder a server's workers
//!    run, starts at the CNN rung.
//! 1. **CNN** — its top class answers whenever its probabilities are
//!    finite; there is no confidence cut-off. Panics inside the network
//!    (defence in depth; load-time validation should make them
//!    unreachable) are caught and demoted to a fallback.
//! 2. **Decision tree** — the SMAT-style baseline, structurally
//!    simpler and independent of the CNN artefact.
//! 3. **Static default** — CSR.
//!
//! Every decision increments an observable counter
//! ([`SelectorService::report`]), so a deployment that silently
//! degrades to CSR shows up in monitoring instead of in a performance
//! regression hunt, and a tree answer chosen for its cost
//! (`cnn/bypassed`) stays apart from one the CNN degraded to.

use crate::baseline::DtSelector;
use crate::error::SelectorError;
use crate::selector::FormatSelector;
use dnnspmv_obs::{Counter, Registry};
use dnnspmv_sparse::{CooMatrix, Scalar, SparseFormat};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// CNN multiply-accumulates (MACs) that cost as much as one unit of the
/// tree's feature pass, a unit being one of `nnz + nrows + ncols`. The
/// tree is asked first only when `(nnz + nrows + ncols) ·
/// TREE_UNIT_MACS ≤ Cnn::macs(1)`, i.e. when its feature pass is
/// estimated to be cheaper than one forward. Measured on a 2-core x86
/// host (DESIGN §4.4): the feature pass (`MatrixStats::compute`) costs
/// about 1.8 ns per unit and a batch-of-one forward 0.08–0.10 ns per
/// MAC, so one unit is worth about 20 MACs.
pub const TREE_UNIT_MACS: u64 = 20;

/// Which rung of the ladder produced a [`Selection`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SelectionSource {
    /// The CNN selector answered.
    Cnn,
    /// The decision-tree baseline answered.
    Tree,
    /// The static default format.
    Default,
}

/// One format decision, with provenance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Selection {
    /// The chosen storage format.
    pub format: SparseFormat,
    /// Which predictor chose it.
    pub source: SelectionSource,
    /// Top-class probability when the CNN answered, `None` otherwise.
    pub confidence: Option<f32>,
}

/// Fault injected into the CNN rung by a test harness (see
/// [`SelectGuard::inject`]). Production callers always pass
/// [`CnnFault::None`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CnnFault {
    /// No injected fault: run the real model.
    #[default]
    None,
    /// Panic inside the CNN rung (as a poisoned artefact would).
    Panic,
    /// Return all-NaN probabilities (as overflowed logits would).
    NonFinite,
}

/// What happened at the CNN rung of a guarded selection — the signal a
/// circuit breaker classifies into success or failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CnnRungOutcome {
    /// The CNN answered and its answer was used.
    Answered,
    /// The CNN panicked (caught; demoted to a fallback).
    Panicked,
    /// The CNN produced NaN/Inf probabilities.
    NonFinite,
    /// The deadline expired inside extraction or the forward pass.
    Cancelled,
    /// The caller asked to skip the CNN (breaker open).
    Skipped,
    /// The service holds no CNN.
    Absent,
}

/// Per-member options for [`SelectorService::select_batch`].
#[derive(Clone, Copy)]
pub struct SelectGuard<'a> {
    /// Skip the CNN rung entirely (a tripped circuit breaker demotes
    /// traffic to the tree this way).
    pub skip_cnn: bool,
    /// This member's cooperative-cancellation checkpoint: polled inside
    /// the representation extraction, between CNN layers, and between
    /// ladder rungs. Once it reports `true` the request is abandoned.
    /// A member without a deadline keeps the default `&|| false`.
    /// `Sync`, because a large matrix's extraction polls it from every
    /// part it is split into (`samples::extract_in_parts`).
    pub cancel: &'a (dyn Fn() -> bool + Sync),
    /// Injected CNN fault for deterministic failure testing; a faulted
    /// member is pulled out of the shared forward pass.
    pub inject: CnnFault,
}

impl Default for SelectGuard<'_> {
    fn default() -> Self {
        Self {
            skip_cnn: false,
            cancel: &|| false,
            inject: CnnFault::None,
        }
    }
}

/// Result of a guarded selection: the decision (absent only when the
/// request was cancelled) plus what the CNN rung did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardedSelection {
    /// The decision, or `None` when the deadline expired first.
    pub selection: Option<Selection>,
    /// What happened at the CNN rung.
    pub cnn: CnnRungOutcome,
}

/// Monotonic counters describing what the ladder has been doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct ServiceReport {
    /// CNN answered.
    pub cnn_ok: u64,
    /// CNN panicked and was demoted (defence in depth).
    pub cnn_panic: u64,
    /// CNN produced NaN/Inf probabilities.
    pub cnn_nonfinite: u64,
    /// CNN rung abandoned because the request's deadline expired.
    pub cnn_cancelled: u64,
    /// CNN rung skipped on request (circuit breaker open).
    pub cnn_skipped: u64,
    /// CNN rung bypassed: the tree answered first from a pure leaf.
    /// Each is also a `tree_ok`, so `tree_ok - cnn_bypassed` counts the
    /// tree answers the ladder degraded to.
    pub cnn_bypassed: u64,
    /// Decision tree answered (first, or as a fallback).
    pub tree_ok: u64,
    /// Decision tree panicked and was demoted.
    pub tree_panic: u64,
    /// The static default format was used.
    pub default_used: u64,
}

impl ServiceReport {
    /// Number of selections actually answered (one per completed
    /// request; cancelled and skipped rungs answer elsewhere or not at
    /// all).
    pub fn answered(&self) -> u64 {
        self.cnn_ok + self.tree_ok + self.default_used
    }
}

/// The ladder's counters are registry metrics
/// (`selector_rung_total{rung,outcome}`): a [`ServiceReport`] is a
/// typed *view* over them, and a serving layer that shares its registry
/// across hot-reloaded generations gets cross-generation totals for
/// free — the handles of every generation point at the same cells.
#[derive(Debug, Clone)]
struct Counters {
    cnn_ok: Counter,
    cnn_panic: Counter,
    cnn_nonfinite: Counter,
    cnn_cancelled: Counter,
    cnn_skipped: Counter,
    cnn_bypassed: Counter,
    tree_ok: Counter,
    tree_panic: Counter,
    default_used: Counter,
}

impl Counters {
    fn bind(reg: &Registry) -> Self {
        let rung = |rung: &str, outcome: &str| {
            reg.counter(
                "selector_rung_total",
                &[("rung", rung), ("outcome", outcome)],
            )
        };
        Self {
            cnn_ok: rung("cnn", "ok"),
            cnn_panic: rung("cnn", "panic"),
            cnn_nonfinite: rung("cnn", "nonfinite"),
            cnn_cancelled: rung("cnn", "cancelled"),
            cnn_skipped: rung("cnn", "skipped"),
            cnn_bypassed: rung("cnn", "bypassed"),
            tree_ok: rung("tree", "ok"),
            tree_panic: rung("tree", "panic"),
            default_used: rung("default", "ok"),
        }
    }
}

/// Fault-tolerant format-selection front end (see module docs).
#[derive(Debug)]
pub struct SelectorService {
    cnn: Option<FormatSelector>,
    tree: Option<DtSelector>,
    /// Largest `nnz + nrows + ncols` the tree is asked first for; `None`
    /// when the tree is a fallback rung only.
    tree_first_units: Option<u64>,
    registry: Registry,
    counters: Counters,
}

impl SelectorService {
    /// Builds a service over an optional CNN selector and an optional
    /// tree baseline. Both are validated up front — a service never
    /// holds a predictor that load-time checks would reject. The two
    /// are taken to be trained on the same labels: with both present,
    /// the tree answers first where that is cheaper than a CNN forward
    /// and its leaf was pure (see the module docs).
    pub fn new(
        cnn: Option<FormatSelector>,
        tree: Option<DtSelector>,
    ) -> Result<Self, SelectorError> {
        if let Some(c) = &cnn {
            c.validate()?;
        }
        if let Some(t) = &tree {
            t.validate()?;
        }
        let tree_first_units = match (&cnn, &tree) {
            (Some(c), Some(_)) => Some(c.net.macs(1) / TREE_UNIT_MACS),
            _ => None,
        };
        let registry = Registry::new();
        let counters = Counters::bind(&registry);
        Ok(Self {
            cnn,
            tree,
            tree_first_units,
            registry,
            counters,
        })
    }

    /// A service whose tree is a fallback rung only, never asked first:
    /// for a CNN the tree was not trained beside (a hot-reloaded or
    /// rolled-back artefact), whose answers a tree trained on other
    /// labels must not shadow.
    pub(crate) fn with_fallback_tree(
        cnn: Option<FormatSelector>,
        tree: Option<DtSelector>,
    ) -> Result<Self, SelectorError> {
        Ok(Self {
            tree_first_units: None,
            ..Self::new(cnn, tree)?
        })
    }

    /// Rebinds the ladder counters to `registry` (builder; call before
    /// serving). A serving layer passes one shared registry to every
    /// model generation it constructs, so rung counts survive hot
    /// reloads without any merge step. Counts already recorded into the
    /// service's previous registry are left behind.
    pub fn with_registry(mut self, registry: Registry) -> Self {
        self.counters = Counters::bind(&registry);
        self.registry = registry;
        self
    }

    /// The registry the ladder counters live in.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The tree baseline, if any (a serving layer clones it when
    /// rebuilding the service around a hot-reloaded CNN).
    pub fn tree(&self) -> Option<&DtSelector> {
        self.tree.as_ref()
    }

    /// Whether a CNN rung is present.
    pub fn has_cnn(&self) -> bool {
        self.cnn.is_some()
    }

    /// The tree-first answer for `matrix`: `Some(format)` when this
    /// service asks its tree first, the matrix's feature pass is
    /// estimated to cost no more than one CNN forward
    /// (`(nnz + nrows + ncols) · TREE_UNIT_MACS ≤ Cnn::macs(1)`) and
    /// the leaf it lands in was pure in training; `None` sends the
    /// matrix down the CNN path. A matrix above the gate is decided
    /// without running the tree. [`Self::select`] asks it first, and so
    /// does a server at admission.
    pub fn tree_first<S: Scalar>(&self, matrix: &CooMatrix<S>) -> Option<SparseFormat> {
        let limit = self.tree_first_units?;
        let units = (matrix.nnz() + matrix.nrows() + matrix.ncols()) as u64;
        if units > limit {
            return None;
        }
        self.tree.as_ref()?.predict_if_pure(matrix)
    }

    /// Picks a storage format for `matrix`: the tree-first answer when
    /// there is one, else the ladder as a batch of one — the two steps
    /// a server takes for a request. Total: never panics, always
    /// returns a format.
    pub fn select<S: Scalar>(&self, matrix: &CooMatrix<S>) -> Selection {
        if let Some(sel) = self.answer_tree_first(matrix) {
            return sel;
        }
        self.select_batch(&[(matrix, SelectGuard::default())])[0]
            .selection
            .expect("selection without a deadline always answers")
    }

    /// The ladder CNN → tree → CSR, with no tree-first step: one CNN
    /// forward pass (a single GEMM per layer) answers every member,
    /// while each member keeps its own controls ([`SelectGuard`]:
    /// cancellation checkpoint for deadline enforcement, skip-CNN
    /// demotion flag for a tripped breaker, injectable fault for
    /// deterministic failure testing), its own rung outcome and its own
    /// ladder counters. A single request is a batch of one; the serving
    /// layer's micro-batcher drives every queued request through here.
    /// Each result carries the decision — `None` only when the member's
    /// `cancel` fired — plus the CNN rung outcome a breaker needs to
    /// classify the request. Per-member semantics:
    ///
    /// * **Demoted members and injected faults** stay scoped: a member
    ///   that skips the CNN or carries a fault is classified on its own
    ///   and never joins the shared pass, so one poisoned request
    ///   cannot sink its batch mates.
    /// * **Extraction** runs per member under that member's `cancel`
    ///   and behind its own unwind boundary; a deadline expiring (or a
    ///   panic) there costs only that member its CNN answer.
    /// * **The shared forward pass** is abandoned only when *every*
    ///   remaining member's deadline has expired (checked between
    ///   layers) — as long as one member still wants the answer, the
    ///   batch keeps going.
    /// * **After the forward pass**, each member re-checks its own
    ///   deadline, then classifies its own probability row: its top
    ///   class when the row is finite, its own fallback rungs when not.
    pub fn select_batch<S: Scalar>(
        &self,
        members: &[(&CooMatrix<S>, SelectGuard)],
    ) -> Vec<GuardedSelection> {
        let cancelled = || {
            self.counters.cnn_cancelled.inc();
            GuardedSelection {
                selection: None,
                cnn: CnnRungOutcome::Cancelled,
            }
        };
        let panicked = |matrix: &CooMatrix<S>, guard: &SelectGuard| {
            self.counters.cnn_panic.inc();
            self.fallback_rungs(matrix, CnnRungOutcome::Panicked, guard.cancel)
        };
        let Some(cnn) = &self.cnn else {
            return members
                .iter()
                .map(|(m, g)| self.fallback_rungs(m, CnnRungOutcome::Absent, g.cancel))
                .collect();
        };
        let mut out: Vec<Option<GuardedSelection>> = vec![None; members.len()];
        let mut batch: Vec<(usize, Vec<dnnspmv_nn::Tensor>)> = Vec::with_capacity(members.len());
        for (i, (matrix, guard)) in members.iter().enumerate() {
            if guard.skip_cnn {
                self.counters.cnn_skipped.inc();
                out[i] = Some(self.fallback_rungs(matrix, CnnRungOutcome::Skipped, guard.cancel));
                continue;
            }
            if guard.inject == CnnFault::NonFinite {
                let probs = vec![f32::NAN; cnn.formats.len()];
                out[i] = Some(self.classify_probs(cnn, &probs, matrix, guard.cancel));
                continue;
            }
            // A matrix pathological enough to panic the extractor (or an
            // injected panic) costs that member its CNN answer — it
            // degrades through its fallback rungs — never the worker
            // thread carrying the batch. Chaos drives the same seam: a
            // panic action unwinds here just like `CnnFault::Panic`.
            let channels = catch_unwind(AssertUnwindSafe(|| {
                if guard.inject == CnnFault::Panic {
                    panic!("injected CNN fault");
                }
                dnnspmv_chaos::failpoint!(dnnspmv_chaos::sites::SERVE_REPR_EXTRACT);
                crate::samples::make_channels_until(
                    matrix,
                    cnn.config.repr,
                    &cnn.config.repr_config,
                    guard.cancel,
                )
            }));
            match channels {
                Ok(Some(ch)) => batch.push((i, ch)),
                Ok(None) => out[i] = Some(cancelled()),
                Err(_) => out[i] = Some(panicked(matrix, guard)),
            }
        }
        if !batch.is_empty() {
            let refs: Vec<&[dnnspmv_nn::Tensor]> =
                batch.iter().map(|(_, ch)| ch.as_slice()).collect();
            // Members without a deadline keep this `false`, so such a
            // batch is never abandoned mid-pass.
            let all_expired = || batch.iter().all(|(i, _)| (members[*i].1.cancel)());
            let run = catch_unwind(AssertUnwindSafe(|| {
                #[cfg(feature = "chaos")]
                if dnnspmv_chaos::should_fail(dnnspmv_chaos::sites::SERVE_CNN_FORWARD) {
                    // Err action ≡ a non-finite shared forward: every
                    // member classifies NaN probabilities and degrades,
                    // the batch-wide twin of `CnnFault::NonFinite`.
                    return Some(
                        refs.iter()
                            .map(|_| {
                                dnnspmv_nn::Tensor::from_vec(
                                    &[cnn.formats.len()],
                                    vec![f32::NAN; cnn.formats.len()],
                                )
                            })
                            .collect(),
                    );
                }
                cnn.net.forward_batch_until(&refs, &all_expired)
            }));
            for (k, (i, _)) in batch.iter().enumerate() {
                let (matrix, guard) = &members[*i];
                out[*i] = Some(match &run {
                    // One shared forward pass means one panic demotes
                    // every member — each degrades through its own
                    // fallback rungs.
                    Err(_) => panicked(matrix, guard),
                    Ok(None) => cancelled(),
                    // A member whose deadline expired while the batch
                    // was in flight is cancelled alone; its mates still
                    // get their answers.
                    Ok(Some(_)) if (guard.cancel)() => cancelled(),
                    Ok(Some(logits)) => {
                        let probs = dnnspmv_nn::loss::softmax(logits[k].data());
                        self.classify_probs(cnn, &probs, matrix, guard.cancel)
                    }
                });
            }
        }
        out.into_iter()
            .map(|g| g.expect("every batch member classified"))
            .collect()
    }

    /// [`Self::tree_first`] behind an unwind boundary, counted: a tree
    /// answer bypasses the CNN (`cnn/bypassed` plus `tree/ok`), a tree
    /// panic costs only the shortcut (`tree/panic`). [`Self::select`]
    /// and a server's admission both ask the tree first through here.
    pub(crate) fn answer_tree_first<S: Scalar>(&self, matrix: &CooMatrix<S>) -> Option<Selection> {
        match catch_unwind(AssertUnwindSafe(|| self.tree_first(matrix))) {
            Ok(Some(format)) => {
                self.counters.cnn_bypassed.inc();
                self.counters.tree_ok.inc();
                Some(Selection {
                    format,
                    source: SelectionSource::Tree,
                    confidence: None,
                })
            }
            Ok(None) => None,
            Err(_) => {
                self.counters.tree_panic.inc();
                None
            }
        }
    }

    /// Classifies one member's CNN probabilities, counting the rung
    /// outcome: `Answered` with the top class, or `NonFinite` handed
    /// down to the fallback rungs.
    fn classify_probs<S: Scalar>(
        &self,
        cnn: &FormatSelector,
        probs: &[f32],
        matrix: &CooMatrix<S>,
        cancel: &dyn Fn() -> bool,
    ) -> GuardedSelection {
        if probs.iter().any(|p| !p.is_finite()) {
            self.counters.cnn_nonfinite.inc();
            return self.fallback_rungs(matrix, CnnRungOutcome::NonFinite, cancel);
        }
        let (best, &p) = probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .expect("validated selector has a non-empty class set");
        self.counters.cnn_ok.inc();
        GuardedSelection {
            selection: Some(Selection {
                format: cnn.formats[best],
                source: SelectionSource::Cnn,
                confidence: Some(p),
            }),
            cnn: CnnRungOutcome::Answered,
        }
    }

    /// The ladder below the CNN rung: tree, then static default. A blown
    /// deadline answers nothing — the caller has already timed out, so
    /// running the fallbacks would only waste a worker.
    fn fallback_rungs<S: Scalar>(
        &self,
        matrix: &CooMatrix<S>,
        cnn_outcome: CnnRungOutcome,
        cancel: &dyn Fn() -> bool,
    ) -> GuardedSelection {
        if cancel() {
            return GuardedSelection {
                selection: None,
                cnn: cnn_outcome,
            };
        }
        if let Some(tree) = &self.tree {
            match catch_unwind(AssertUnwindSafe(|| tree.predict(matrix))) {
                Ok(format) => {
                    self.counters.tree_ok.inc();
                    return GuardedSelection {
                        selection: Some(Selection {
                            format,
                            source: SelectionSource::Tree,
                            confidence: None,
                        }),
                        cnn: cnn_outcome,
                    };
                }
                Err(_) => {
                    self.counters.tree_panic.inc();
                }
            }
        }
        self.counters.default_used.inc();
        GuardedSelection {
            selection: Some(Selection {
                format: SparseFormat::Csr,
                source: SelectionSource::Default,
                confidence: None,
            }),
            cnn: cnn_outcome,
        }
    }

    /// Snapshot of the fallback counters.
    pub fn report(&self) -> ServiceReport {
        ServiceReport {
            cnn_ok: self.counters.cnn_ok.get(),
            cnn_panic: self.counters.cnn_panic.get(),
            cnn_nonfinite: self.counters.cnn_nonfinite.get(),
            cnn_cancelled: self.counters.cnn_cancelled.get(),
            cnn_skipped: self.counters.cnn_skipped.get(),
            cnn_bypassed: self.counters.cnn_bypassed.get(),
            tree_ok: self.counters.tree_ok.get(),
            tree_panic: self.counters.tree_panic.get(),
            default_used: self.counters.default_used.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::SelectorConfig;
    use dnnspmv_gen::{Dataset, DatasetSpec};
    use dnnspmv_nn::{CnnConfig, TrainConfig};
    use dnnspmv_platform::{label_dataset, PlatformModel};
    use dnnspmv_repr::{ReprConfig, ReprKind};

    fn test_config() -> SelectorConfig {
        SelectorConfig {
            repr: ReprKind::Histogram,
            repr_config: ReprConfig {
                image_size: 32,
                hist_rows: 32,
                hist_bins: 16,
            },
            cnn: CnnConfig {
                conv_channels: [4, 8, 8],
                hidden: 16,
                seed: 11,
            },
            train: TrainConfig {
                epochs: 4,
                batch_size: 16,
                lr: 2e-3,
                seed: 13,
                ..TrainConfig::default()
            },
            ..SelectorConfig::default()
        }
    }

    fn dataset() -> Dataset {
        Dataset::generate(&DatasetSpec {
            n_base: 60,
            n_augmented: 0,
            dim_min: 48,
            dim_max: 160,
            ..DatasetSpec::tiny(31)
        })
    }

    fn trained_pair() -> (FormatSelector, DtSelector, Dataset) {
        let data = dataset();
        let platform = PlatformModel::intel_cpu();
        let labels = label_dataset(&data.matrices, &platform);
        let (cnn, _) = FormatSelector::train_with_labels(
            &data.matrices,
            &labels,
            platform.formats().to_vec(),
            &test_config(),
        );
        let dt = DtSelector::train(&data.matrices, &labels, platform.formats().to_vec());
        (cnn, dt, data)
    }

    /// Matrices `svc` sends down the CNN path, by the predicate
    /// `select` asks first: the dataset's own (impure leaf) and
    /// larger fresh ones (above the gate). These are the healthy members
    /// the CNN-rung tests below need.
    fn cnn_bound(svc: &SelectorService, data: &Dataset) -> Vec<CooMatrix<f32>> {
        let larger = Dataset::generate(&DatasetSpec {
            n_base: 8,
            n_augmented: 0,
            dim_min: 384,
            dim_max: 768,
            ..DatasetSpec::tiny(32)
        });
        let bound: Vec<_> = data
            .matrices
            .iter()
            .chain(&larger.matrices)
            .filter(|m| svc.tree_first(*m).is_none())
            .cloned()
            .collect();
        assert!(bound.len() >= 6, "only {} CNN-bound matrices", bound.len());
        bound
    }

    #[test]
    fn healthy_service_answers_from_the_cnn() {
        let (cnn, dt, data) = trained_pair();
        let svc = SelectorService::new(Some(cnn), Some(dt)).unwrap();
        for m in cnn_bound(&svc, &data).iter().cycle().take(8) {
            let sel = svc.select(m);
            assert_eq!(sel.source, SelectionSource::Cnn);
            assert!(sel.confidence.unwrap() > 0.0);
        }
        let r = svc.report();
        assert_eq!(r.cnn_ok, 8);
        assert_eq!(
            r.tree_ok + r.default_used + r.cnn_panic + r.cnn_nonfinite,
            0
        );
    }

    #[test]
    fn poisoned_cnn_degrades_to_tree_then_counts_it() {
        let (mut cnn, dt, data) = trained_pair();
        // Blow up the head weights: logits overflow, softmax goes NaN.
        for layer in &mut cnn.net.head.layers {
            if let dnnspmv_nn::Layer::Dense(d) = layer {
                for v in d.weight.data_mut() {
                    *v = 1e30;
                }
            }
        }
        let svc = SelectorService::new(Some(cnn), Some(dt)).unwrap();
        let sel = svc.select(&cnn_bound(&svc, &data)[0]);
        assert_eq!(sel.source, SelectionSource::Tree);
        let r = svc.report();
        assert_eq!(r.cnn_nonfinite, 1);
        assert_eq!(r.tree_ok, 1);
        assert_eq!(r.cnn_ok, 0);
    }

    #[test]
    fn no_predictors_still_yields_the_default_format() {
        let svc = SelectorService::new(None, None).unwrap();
        let data = dataset();
        let sel = svc.select(&data.matrices[0]);
        assert_eq!(sel.source, SelectionSource::Default);
        assert_eq!(sel.format, SparseFormat::Csr);
        assert_eq!(svc.report().default_used, 1);
    }

    #[test]
    fn guarded_select_classifies_injected_faults() {
        let (cnn, dt, data) = trained_pair();
        let svc = SelectorService::new(Some(cnn), Some(dt)).unwrap();
        let bound = cnn_bound(&svc, &data);
        let m = &bound[0];
        let one = |guard: SelectGuard| svc.select_batch(&[(m, guard)])[0];
        // Injected panic: demoted to the tree, outcome recorded.
        let g = one(SelectGuard {
            inject: CnnFault::Panic,
            ..Default::default()
        });
        assert_eq!(g.cnn, CnnRungOutcome::Panicked);
        assert_eq!(g.selection.unwrap().source, SelectionSource::Tree);
        // Injected non-finite probabilities.
        let g = one(SelectGuard {
            inject: CnnFault::NonFinite,
            ..Default::default()
        });
        assert_eq!(g.cnn, CnnRungOutcome::NonFinite);
        assert_eq!(g.selection.unwrap().source, SelectionSource::Tree);
        // Breaker-style demotion: CNN skipped, tree answers.
        let g = one(SelectGuard {
            skip_cnn: true,
            ..Default::default()
        });
        assert_eq!(g.cnn, CnnRungOutcome::Skipped);
        assert_eq!(g.selection.unwrap().source, SelectionSource::Tree);
        // A deadline already passed: no answer at all.
        let g = one(SelectGuard {
            cancel: &|| true,
            ..Default::default()
        });
        assert_eq!(g.cnn, CnnRungOutcome::Cancelled);
        assert!(g.selection.is_none());
        let r = svc.report();
        assert_eq!(
            (r.cnn_panic, r.cnn_nonfinite, r.cnn_skipped, r.cnn_cancelled),
            (1, 1, 1, 1)
        );
        assert_eq!(r.tree_ok, 3);
        assert_eq!(r.answered(), 3);
        // A live cancel hook that never fires matches plain select.
        let never = || false;
        let g = one(SelectGuard {
            cancel: &never,
            ..Default::default()
        });
        assert_eq!(g.cnn, CnnRungOutcome::Answered);
        assert_eq!(g.selection, Some(svc.select(m)));
    }

    #[test]
    fn batched_guarded_select_matches_single_path() {
        let (cnn, dt, data) = trained_pair();
        let svc = SelectorService::new(Some(cnn), Some(dt)).unwrap();
        let bound = cnn_bound(&svc, &data);
        let members: Vec<(&CooMatrix<f32>, SelectGuard)> = bound
            .iter()
            .take(6)
            .map(|m| (m, SelectGuard::default()))
            .collect();
        let got = svc.select_batch(&members);
        assert_eq!(got.len(), members.len());
        for ((m, _), g) in members.iter().zip(&got) {
            assert_eq!(g.cnn, CnnRungOutcome::Answered);
            let batched = g.selection.expect("healthy batch answers");
            // The same request as a batch of one: grouping must not
            // change the decision. The packed GEMM of a larger batch
            // may differ in the last float ulp, so compare decisions,
            // not bits.
            let single = svc.select(m);
            assert_eq!(batched.format, single.format);
            assert_eq!(batched.source, SelectionSource::Cnn);
            let (b, s) = (batched.confidence.unwrap(), single.confidence.unwrap());
            assert!((b - s).abs() <= 1e-4, "{b} vs {s}");
        }
        assert_eq!(svc.report().cnn_ok, 12);
        assert!(svc.select_batch::<f32>(&[]).is_empty());
    }

    #[test]
    fn batched_guarded_select_scopes_faults_and_cancellations_per_member() {
        let (cnn, dt, data) = trained_pair();
        let svc = SelectorService::new(Some(cnn), Some(dt)).unwrap();
        let expired = || true;
        let guards = [
            SelectGuard::default(),
            SelectGuard {
                inject: CnnFault::Panic,
                ..Default::default()
            },
            SelectGuard {
                cancel: &expired,
                ..Default::default()
            },
            SelectGuard {
                inject: CnnFault::NonFinite,
                ..Default::default()
            },
        ];
        let bound = cnn_bound(&svc, &data);
        let members: Vec<(&CooMatrix<f32>, SelectGuard)> = bound.iter().zip(guards).collect();
        let got = svc.select_batch(&members);
        // Healthy member: answered by the CNN despite its batch mates.
        assert_eq!(got[0].cnn, CnnRungOutcome::Answered);
        assert_eq!(got[0].selection.unwrap().source, SelectionSource::Cnn);
        // Faulted members degrade to the tree alone.
        assert_eq!(got[1].cnn, CnnRungOutcome::Panicked);
        assert_eq!(got[1].selection.unwrap().source, SelectionSource::Tree);
        assert_eq!(got[3].cnn, CnnRungOutcome::NonFinite);
        assert_eq!(got[3].selection.unwrap().source, SelectionSource::Tree);
        // The expired member is cancelled without an answer.
        assert_eq!(got[2].cnn, CnnRungOutcome::Cancelled);
        assert!(got[2].selection.is_none());
        let r = svc.report();
        assert_eq!(
            (r.cnn_ok, r.cnn_panic, r.cnn_nonfinite, r.cnn_cancelled),
            (1, 1, 1, 1)
        );
        assert_eq!(r.tree_ok, 2);
        assert_eq!(r.answered(), 3);
    }

    #[test]
    fn invalid_predictor_is_rejected_at_construction() {
        let (mut cnn, _, _) = trained_pair();
        cnn.formats.clear();
        assert!(SelectorService::new(Some(cnn), None).is_err());
    }
}
