//! Mini-batch training loop over the batched GEMM compute core.
//!
//! [`train`] runs every optimisation step through
//! [`Cnn::forward_batch_cached`] / [`Cnn::backward_batch`]: one GEMM
//! per layer for the batch's activations, one GEMM per layer for its
//! weight gradients (the batch reduction fused into the GEMM inner
//! dimension), and a single fused softmax-cross-entropy pass over the
//! logit rows. The optimiser consumes one accumulated gradient set per
//! step. [`train_reference`] is the oracle the batched trainer is
//! checked against: the per-sample forward/backward loop over the naive
//! layer kernels, sharing no kernel with the batched path, and
//! numerically equivalent to it (losses match within float tolerance
//! under the same seed).
//!
//! # Fault tolerance
//!
//! Every gradient set passes a `StepGuard` before the optimiser sees
//! it. A non-finite loss or gradient marks the step *divergent*: the
//! update is skipped, the epoch is abandoned, and training rolls back
//! to an in-memory snapshot of the last epoch boundary — re-shuffling
//! from the restored RNG state, so the retry replays the exact same
//! batches. Repeated divergence on one epoch multiplies the learning
//! rate by [`LR_BACKOFF`]; more than [`MAX_ROLLBACKS`] rollbacks abort
//! the run with [`NnError::Diverged`].
//!
//! With [`TrainConfig::checkpoint_dir`] set, an on-disk
//! [`crate::checkpoint::TrainCheckpoint`] is written atomically after
//! every epoch; [`TrainConfig::resume_from`] continues a killed
//! run bit-identically — the resumed loss history matches an
//! uninterrupted run's. [`TrainHooks`] expose the seams the
//! fault-injection tests drive: a per-step gradient hook (poison a
//! chosen step) and an abort-after-epoch switch (simulate a kill).
//!
//! The loss at every step is recorded so `repro fig11` can plot
//! convergence curves like the paper's Figure 11, and each report
//! carries per-epoch samples/sec plus step-time statistics.

use crate::checkpoint::{
    checkpoint_path, load_checkpoint, save_checkpoint, train_fingerprint, TrainCheckpoint,
};
use crate::error::NnError;
use crate::gemm::{with_gemm_threading, GemmThreading};
use crate::loss::{softmax, softmax_cross_entropy, softmax_cross_entropy_batch};
use crate::network::{argmax, Cnn, CnnBatchCache, CnnGrads, Sample};
use crate::optimizer::{Optimizer, OptimizerKind};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Rollbacks a run may take before it aborts with
/// [`NnError::Diverged`].
pub const MAX_ROLLBACKS: usize = 8;

/// Learning-rate multiplier applied when the *same* epoch diverges
/// twice in a row (the first retry replays at the current rate, in
/// case the divergence was transient).
pub const LR_BACKOFF: f32 = 0.5;

/// Training hyper-parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// Update rule.
    pub optimizer: OptimizerKind,
    /// Shuffling seed.
    pub seed: u64,
    /// Only update the head (top evolvement).
    pub freeze_towers: bool,
    /// Write a checkpoint into this directory after every epoch.
    pub checkpoint_dir: Option<String>,
    /// Resume from this checkpoint file before the first epoch.
    pub resume_from: Option<String>,
    /// GEMM threading policy installed for the duration of the run
    /// (see [`crate::gemm::threading`]). `Auto` — the default — gives
    /// training every pool worker; the policy never changes results
    /// (bit-identical at any setting), only wall-clock. Excluded from
    /// [`crate::checkpoint::train_fingerprint`] for the same reason: a
    /// resume may legitimately run at a different thread count.
    pub gemm_threading: GemmThreading,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 12,
            batch_size: 32,
            lr: 1e-3,
            optimizer: OptimizerKind::adam(),
            seed: 7,
            freeze_towers: false,
            checkpoint_dir: None,
            resume_from: None,
            gemm_threading: GemmThreading::default(),
        }
    }
}

/// Wall-clock statistics over the optimisation steps of one run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct StepTimeStats {
    /// Number of optimisation steps timed (includes steps later rolled
    /// back — wall time is never rewound).
    pub steps: usize,
    /// Mean step duration in milliseconds.
    pub mean_ms: f64,
    /// Fastest step in milliseconds.
    pub min_ms: f64,
    /// Slowest step in milliseconds.
    pub max_ms: f64,
}

/// What the fault-tolerance machinery did during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct RecoveryStats {
    /// Epochs abandoned and replayed from the last good state.
    pub rollbacks: usize,
    /// Steps rejected by the guard (non-finite loss or gradients).
    pub divergent_steps: usize,
    /// Times the learning rate was multiplied by [`LR_BACKOFF`].
    pub lr_backoffs: usize,
    /// Epoch index a resumed run continued from, if it resumed.
    pub resumed_at_epoch: Option<usize>,
}

/// What a training run produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Mean batch loss at every optimisation step, in order. Rolled-back
    /// steps are excised: the history reads as if every epoch succeeded
    /// first try.
    pub loss_history: Vec<f32>,
    /// Training accuracy measured after each epoch.
    pub epoch_train_acc: Vec<f64>,
    /// Training throughput per epoch (samples / step wall-time,
    /// excluding the end-of-epoch evaluation pass).
    pub epoch_samples_per_sec: Vec<f64>,
    /// Step wall-time statistics over the whole run.
    pub step_time: StepTimeStats,
    /// Divergence / rollback / resume bookkeeping.
    pub recovery: RecoveryStats,
}

impl TrainReport {
    pub(crate) fn empty() -> Self {
        Self {
            loss_history: Vec::new(),
            epoch_train_acc: Vec::new(),
            epoch_samples_per_sec: Vec::new(),
            step_time: StepTimeStats::default(),
            recovery: RecoveryStats::default(),
        }
    }
}

/// A fault-injection callback: receives the 1-based step number and the
/// gradient set after backward, before the divergence guard runs.
pub type GradHook<'h> = &'h mut dyn FnMut(u64, &mut CnnGrads);

/// Seams for fault-injection and crash simulation. Default hooks make
/// [`train_with_hooks`] behave exactly like [`train`].
#[derive(Default)]
pub struct TrainHooks<'h> {
    /// Called with (1-based step number, gradient set) after backward
    /// and before the divergence guard inspects the gradients — tests
    /// poison a chosen step here. Step numbers keep counting across
    /// rollbacks and resumes, so a one-shot poison fires exactly once.
    pub grad_hook: Option<GradHook<'h>>,
    /// Stop after this many completed epochs (checkpoint already
    /// written) — a controlled stand-in for `kill -9` in resume tests.
    pub abort_after_epoch: Option<usize>,
}

/// Reusable buffers for the batched training step: the activation
/// cache, one accumulated gradient set, and the logit-gradient /
/// label scratch. Create once per training run and hand to every
/// [`train_step`]; all allocations are amortised across steps.
#[derive(Debug, Clone)]
pub struct BatchTrainState {
    cache: CnnBatchCache,
    grads: CnnGrads,
    glogits: Vec<f32>,
    labels: Vec<usize>,
}

impl BatchTrainState {
    /// Buffers sized for `net`'s parameter layout.
    pub fn new(net: &Cnn) -> Self {
        Self {
            cache: CnnBatchCache::default(),
            grads: net.zero_grads(),
            glogits: Vec::new(),
            labels: Vec::new(),
        }
    }
}

/// Trains `net` on `samples` in place via the batched GEMM path.
///
/// # Panics
/// Panics if training fails terminally (divergence past the rollback
/// budget, or a checkpoint/resume I-O error). Callers that need the
/// typed error use [`train_with_hooks`].
pub fn train(net: &mut Cnn, samples: &[Sample], cfg: &TrainConfig) -> TrainReport {
    train_with_hooks(net, samples, cfg, TrainHooks::default()).expect("training failed")
}

/// [`train`] with fault-injection hooks and a typed error instead of a
/// panic on terminal failure.
pub fn train_with_hooks(
    net: &mut Cnn,
    samples: &[Sample],
    cfg: &TrainConfig,
    hooks: TrainHooks<'_>,
) -> Result<TrainReport, NnError> {
    let mut state = BatchTrainState::new(net);
    train_impl(
        net,
        samples,
        cfg,
        hooks,
        move |net, samples, batch, opt, guard| {
            let loss =
                batched_forward_backward(net, samples, batch, opt.freeze_towers(), &mut state);
            let admitted = guard.admit(loss, &mut state.grads);
            if admitted {
                opt.step(net, &state.grads, 1.0);
            }
            (loss, admitted)
        },
    )
}

/// Trains `net` via the per-sample reference path over the naive layer
/// kernels. Slower than [`train`] but numerically the baseline: under
/// the same config and seed both paths see identical batches and their
/// loss histories agree to float tolerance.
///
/// # Panics
/// Panics on terminal failure, like [`train`].
pub fn train_reference(net: &mut Cnn, samples: &[Sample], cfg: &TrainConfig) -> TrainReport {
    let mut accum = net.zero_grads();
    train_impl(
        net,
        samples,
        cfg,
        TrainHooks::default(),
        move |net, samples, batch, opt, guard| {
            let lsum = reference_forward_backward(net, samples, batch, &mut accum);
            let scale = 1.0 / batch.len() as f32;
            let loss = lsum * scale;
            let admitted = guard.admit(loss, &mut accum);
            if admitted {
                opt.step(net, &accum, scale);
            }
            (loss, admitted)
        },
    )
    .expect("reference training failed")
}

/// Per-step gatekeeper between backward and the optimiser: fires the
/// gradient hook, then rejects steps whose loss or gradients are not
/// finite.
struct StepGuard<'h> {
    step_counter: u64,
    grad_hook: Option<GradHook<'h>>,
    divergent_steps: usize,
}

impl<'h> StepGuard<'h> {
    fn new(hooks: TrainHooks<'h>) -> Self {
        Self {
            step_counter: 0,
            grad_hook: hooks.grad_hook,
            divergent_steps: 0,
        }
    }

    /// Returns whether the optimiser may apply this step.
    fn admit(&mut self, loss: f32, grads: &mut CnnGrads) -> bool {
        self.step_counter += 1;
        if let Some(hook) = self.grad_hook.as_mut() {
            hook(self.step_counter, grads);
        }
        #[cfg(feature = "chaos")]
        if dnnspmv_chaos::should_fail(dnnspmv_chaos::sites::TRAIN_STEP) {
            // Same seam a `grad_hook` poison uses: the step presents as
            // divergent and the snapshot/rollback machinery owns
            // recovery — chaos drives the guard, it does not bypass it.
            grads.scale(f32::NAN);
        }
        if !loss.is_finite() || !grads.global_norm().is_finite() {
            self.divergent_steps += 1;
            return false;
        }
        true
    }
}

/// In-memory image of the last good epoch boundary, for rollback.
/// The RNG and sample order are captured *before* the epoch's shuffle,
/// so a retry re-shuffles into the exact same batch sequence.
struct Snapshot {
    net: Cnn,
    opt: Optimizer,
    rng: StdRng,
    order: Vec<usize>,
    loss_len: usize,
}

impl Snapshot {
    fn capture(
        net: &Cnn,
        opt: &Optimizer,
        rng: &StdRng,
        order: &[usize],
        report: &TrainReport,
    ) -> Self {
        Self {
            net: net.clone(),
            opt: opt.clone(),
            rng: rng.clone(),
            order: order.to_vec(),
            loss_len: report.loss_history.len(),
        }
    }

    fn restore(
        &self,
        net: &mut Cnn,
        opt: &mut Optimizer,
        rng: &mut StdRng,
        order: &mut Vec<usize>,
        report: &mut TrainReport,
    ) {
        *net = self.net.clone();
        *opt = self.opt.clone();
        *rng = self.rng.clone();
        *order = self.order.clone();
        report.loss_history.truncate(self.loss_len);
    }
}

/// One in-place Fisher–Yates pass.
fn shuffle(order: &mut [usize], rng: &mut StdRng) {
    for i in (1..order.len()).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
}

/// Shared epoch/shuffle/recovery/instrumentation loop; `step` is either
/// the batched or the per-sample reference step (both guarded). Both
/// paths draw batches from the same seeded shuffle, so their step
/// sequences line up one-to-one. The run's [`TrainConfig::gemm_threading`]
/// policy is installed around the whole loop, so every forward,
/// backward and gradient GEMM inside inherits it.
fn train_impl(
    net: &mut Cnn,
    samples: &[Sample],
    cfg: &TrainConfig,
    hooks: TrainHooks<'_>,
    step: impl FnMut(&mut Cnn, &[Sample], &[usize], &mut Optimizer, &mut StepGuard) -> (f32, bool),
) -> Result<TrainReport, NnError> {
    with_gemm_threading(cfg.gemm_threading, || {
        train_loop(net, samples, cfg, hooks, step)
    })
}

/// Body of [`train_impl`], running under its installed threading
/// policy.
fn train_loop(
    net: &mut Cnn,
    samples: &[Sample],
    cfg: &TrainConfig,
    hooks: TrainHooks<'_>,
    mut step: impl FnMut(&mut Cnn, &[Sample], &[usize], &mut Optimizer, &mut StepGuard) -> (f32, bool),
) -> Result<TrainReport, NnError> {
    let mut report = TrainReport::empty();
    if samples.is_empty() || cfg.epochs == 0 {
        return Ok(report);
    }
    let abort_after_epoch = hooks.abort_after_epoch;
    let mut guard = StepGuard::new(hooks);
    let mut opt = Optimizer::new(net, cfg.optimizer, cfg.lr, cfg.freeze_towers);
    let mut order: Vec<usize> = (0..samples.len()).collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let (mut total_s, mut min_s, mut max_s, mut time_steps) =
        (0.0f64, f64::INFINITY, 0.0f64, 0usize);
    let fingerprint = train_fingerprint(cfg, net, samples.len());

    let mut start_epoch = 0usize;
    if let Some(path) = &cfg.resume_from {
        dnnspmv_chaos::failpoint!(
            dnnspmv_chaos::sites::TRAIN_RESUME,
            Err(NnError::Io(format!(
                "chaos: injected checkpoint read failure on {path}"
            )))
        );
        let (ck, stored) = load_checkpoint(path)?;
        if stored != fingerprint {
            return Err(NnError::ConfigMismatch(format!(
                "checkpoint fingerprint {stored:#018x} does not match this run \
                 ({fingerprint:#018x}): dataset size, batch size, seed, optimiser \
                 or network structure differs"
            )));
        }
        *net = ck.net;
        opt = ck.opt;
        report = ck.report;
        report.recovery.resumed_at_epoch = Some(ck.epoch);
        guard.step_counter = ck.step_counter;
        guard.divergent_steps = report.recovery.divergent_steps;
        time_steps = ck.time_steps;
        total_s = ck.total_s;
        min_s = if ck.time_steps > 0 {
            ck.min_s
        } else {
            f64::INFINITY
        };
        max_s = ck.max_s;
        start_epoch = ck.epoch;
        // The checkpoint does not store the RNG: replay the completed
        // epochs' shuffles so the resumed batch order is bit-identical
        // to the uninterrupted run's.
        for _ in 0..start_epoch {
            shuffle(&mut order, &mut rng);
        }
    }

    // Process-wide training metrics, read from `dnnspmv_obs::global()`
    // by embedders and tests (the CLI has no command that dumps them).
    // Handles are bound once per run; recording is a few relaxed
    // atomic adds next to step timing that is already measured, so the
    // training loop's throughput is unaffected.
    let obs = dnnspmv_obs::global();
    let obs_step_ns = obs.histogram("train_step_ns", &[]);
    let obs_epoch_sps = obs.histogram("train_epoch_samples_per_sec", &[]);
    let obs_rollbacks = obs.counter("train_rollbacks_total", &[]);
    let obs_lr_backoffs = obs.counter("train_lr_backoffs_total", &[]);
    let obs_checkpoints = obs.counter("train_checkpoints_total", &[]);
    let obs_checkpoint_failures = obs.counter("train_checkpoint_failures_total", &[]);
    let obs_epochs = obs.counter("train_epochs_total", &[]);

    let mut cur_lr = opt.lr();
    let mut consecutive_rollbacks = 0usize;
    let mut epoch = start_epoch;
    while epoch < cfg.epochs {
        let snapshot = Snapshot::capture(net, &opt, &rng, &order, &report);
        shuffle(&mut order, &mut rng);
        let mut epoch_s = 0.0f64;
        let mut diverged = false;
        for batch_idx in order.chunks(cfg.batch_size.max(1)) {
            let t0 = Instant::now();
            let (loss, admitted) = step(net, samples, batch_idx, &mut opt, &mut guard);
            let dt = t0.elapsed().as_secs_f64();
            obs_step_ns.record((dt * 1e9) as u64);
            epoch_s += dt;
            total_s += dt;
            min_s = min_s.min(dt);
            max_s = max_s.max(dt);
            time_steps += 1;
            if !admitted {
                diverged = true;
                break;
            }
            report.loss_history.push(loss);
        }
        if diverged {
            snapshot.restore(net, &mut opt, &mut rng, &mut order, &mut report);
            report.recovery.rollbacks += 1;
            obs_rollbacks.inc();
            consecutive_rollbacks += 1;
            if report.recovery.rollbacks > MAX_ROLLBACKS {
                return Err(NnError::Diverged(format!(
                    "epoch {epoch} diverged and the rollback budget ({MAX_ROLLBACKS}) is exhausted"
                )));
            }
            if consecutive_rollbacks >= 2 {
                cur_lr *= LR_BACKOFF;
                report.recovery.lr_backoffs += 1;
                obs_lr_backoffs.inc();
            }
            opt.set_lr(cur_lr);
            continue;
        }
        consecutive_rollbacks = 0;
        obs_epochs.inc();
        let sps = if epoch_s > 0.0 {
            samples.len() as f64 / epoch_s
        } else {
            0.0
        };
        obs_epoch_sps.record(sps as u64);
        report.epoch_samples_per_sec.push(sps);
        report.epoch_train_acc.push(evaluate(net, samples));
        epoch += 1;
        report.recovery.divergent_steps = guard.divergent_steps;
        if let Some(dir) = &cfg.checkpoint_dir {
            let ck = TrainCheckpoint {
                epoch,
                step_counter: guard.step_counter,
                samples_len: samples.len(),
                net: net.clone(),
                opt: opt.clone(),
                report: report.clone(),
                time_steps,
                total_s,
                min_s: if time_steps > 0 { min_s } else { 0.0 },
                max_s,
            };
            // A failed checkpoint write must not abort training:
            // the atomic write protocol guarantees the previous
            // checkpoint is still intact under the final name, so
            // a full disk costs resumability-freshness, not the
            // run. Count it and keep going.
            let written = (|| -> Result<(), NnError> {
                dnnspmv_chaos::failpoint!(
                    dnnspmv_chaos::sites::TRAIN_CHECKPOINT,
                    Err(NnError::StorageFull(
                        "chaos: injected checkpoint write failure".into()
                    ))
                );
                std::fs::create_dir_all(dir)?;
                save_checkpoint(&ck, fingerprint, checkpoint_path(dir))
            })();
            match written {
                Ok(()) => obs_checkpoints.inc(),
                Err(_) => obs_checkpoint_failures.inc(),
            }
        }
        if abort_after_epoch == Some(epoch) {
            break;
        }
    }
    report.recovery.divergent_steps = guard.divergent_steps;
    report.step_time = if time_steps > 0 {
        StepTimeStats {
            steps: time_steps,
            mean_ms: 1e3 * total_s / time_steps as f64,
            min_ms: 1e3 * min_s,
            max_ms: 1e3 * max_s,
        }
    } else {
        StepTimeStats::default()
    };
    Ok(report)
}

/// Batched forward + loss + backward for one batch: fills
/// `state.grads` with the batch-mean gradients and returns the mean
/// loss. The optimiser step is the caller's (so the guard can sit in
/// between).
fn batched_forward_backward(
    net: &mut Cnn,
    samples: &[Sample],
    batch: &[usize],
    freeze_towers: bool,
    state: &mut BatchTrainState,
) -> f32 {
    let refs: Vec<&[crate::tensor::Tensor]> = batch
        .iter()
        .map(|&i| samples[i].channels.as_slice())
        .collect();
    state.labels.clear();
    state.labels.extend(batch.iter().map(|&i| samples[i].label));
    net.forward_batch_cached(&refs, &mut state.cache);
    let (logits, classes) = state.cache.logits_rows();
    let loss = softmax_cross_entropy_batch(logits, classes, &state.labels, &mut state.glogits);
    net.backward_batch(
        &mut state.cache,
        &state.glogits[..batch.len() * classes],
        freeze_towers,
        &mut state.grads,
    );
    loss
}

/// One batched optimisation step on the given sample indices; returns
/// the mean batch loss *before* the update.
///
/// The whole batch runs as one forward pass (one GEMM per layer), one
/// fused loss/gradient pass over the logit rows, and one backward pass
/// whose weight-gradient GEMMs fold the batch reduction into their
/// inner dimension — the optimiser then applies the single accumulated
/// (already batch-averaged) gradient set. No divergence guard: this is
/// the raw step the benchmarks time.
pub fn train_step(
    net: &mut Cnn,
    samples: &[Sample],
    batch: &[usize],
    opt: &mut Optimizer,
    state: &mut BatchTrainState,
) -> f32 {
    let loss = batched_forward_backward(net, samples, batch, opt.freeze_towers(), state);
    // The loss gradient is pre-scaled by 1/batch, so the summed
    // parameter gradients are already batch means.
    opt.step(net, &state.grads, 1.0);
    loss
}

/// Per-sample forward/backward over one batch, reducing into `accum`
/// (cleared on entry); returns the *summed* batch loss.
fn reference_forward_backward(
    net: &mut Cnn,
    samples: &[Sample],
    batch: &[usize],
    accum: &mut CnnGrads,
) -> f32 {
    accum.clear();
    let mut lsum = 0.0f32;
    for &i in batch {
        let s = &samples[i];
        let cache = net.forward_cached(&s.channels);
        let (loss, gl) = softmax_cross_entropy(&cache.logits, s.label);
        let sg = net.backward(&cache, &gl);
        accum.add_assign(&sg);
        lsum += loss;
    }
    lsum
}

/// Inference batch size for [`evaluate`] and [`confusion_matrix`]:
/// chunks of this many samples are packed into one GEMM per layer.
pub const EVAL_BATCH: usize = 64;

/// Fraction of samples whose argmax prediction matches the label.
///
/// Inference runs through [`Cnn::predict_batch`] in chunks of
/// [`EVAL_BATCH`] samples, so each network layer does one GEMM per
/// chunk instead of one per sample.
///
/// An empty slice scores `0.0` — a defined value rather than the
/// `0 / 0 = NaN` a naive ratio would produce — and a single sample
/// degenerates to a batch of one (scoring exactly `0.0` or `1.0`).
pub fn evaluate(net: &Cnn, samples: &[Sample]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let correct: usize = batched_predictions(net, samples)
        .into_iter()
        .zip(samples)
        .filter(|(p, s)| *p == s.label)
        .count();
    correct as f64 / samples.len() as f64
}

/// Predicted label for every sample, via chunked batched inference.
fn batched_predictions(net: &Cnn, samples: &[Sample]) -> Vec<usize> {
    let mut preds = Vec::with_capacity(samples.len());
    for chunk in samples.chunks(EVAL_BATCH) {
        let refs: Vec<&[crate::tensor::Tensor]> =
            chunk.iter().map(|s| s.channels.as_slice()).collect();
        preds.extend(net.predict_batch(&refs));
    }
    preds
}

/// Class-probability vector for one sample.
pub fn predict_proba(net: &Cnn, channels: &[crate::tensor::Tensor]) -> Vec<f32> {
    softmax(net.forward(channels).data())
}

/// `confusion[truth][predicted]` counts over `samples`, using the
/// same chunked batched inference as [`evaluate`].
pub fn confusion_matrix(net: &Cnn, samples: &[Sample], classes: usize) -> Vec<Vec<usize>> {
    let mut m = vec![vec![0usize; classes]; classes];
    for (p, s) in batched_predictions(net, samples).into_iter().zip(samples) {
        m[s.label][p] += 1;
    }
    m
}

/// Per-class recall and precision from a confusion matrix; `None` when
/// the denominator is empty (no ground truth / no predictions for that
/// class), matching the "-" cells of the paper's Table 3.
///
/// Total on degenerate input: ragged or truncated rows (e.g. a matrix
/// assembled from partial results) read missing cells as zero instead
/// of panicking on an out-of-bounds index.
pub fn recall_precision(confusion: &[Vec<usize>]) -> Vec<(Option<f64>, Option<f64>)> {
    let k = confusion.len();
    let cell = |t: usize, c: usize| confusion[t].get(c).copied().unwrap_or(0);
    (0..k)
        .map(|c| {
            let truth: usize = confusion[c].iter().sum();
            let predicted: usize = (0..k).map(|t| cell(t, c)).sum();
            let hit = cell(c, c);
            let recall = (truth > 0).then(|| hit as f64 / truth as f64);
            let precision = (predicted > 0).then(|| hit as f64 / predicted as f64);
            (recall, precision)
        })
        .collect()
}

/// Overall accuracy from a confusion matrix. Total on degenerate
/// input: an empty matrix scores `0.0` and ragged rows read missing
/// diagonal cells as zero.
pub fn accuracy_from_confusion(confusion: &[Vec<usize>]) -> f64 {
    let total: usize = confusion.iter().flatten().sum();
    if total == 0 {
        return 0.0;
    }
    let hit: usize = (0..confusion.len())
        .map(|c| confusion[c].get(c).copied().unwrap_or(0))
        .sum();
    hit as f64 / total as f64
}

/// Convenience: argmax prediction for raw logits (re-exported for
/// callers that run their own forward).
pub fn predict_label(logits: &[f32]) -> usize {
    argmax(logits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structures::{build_cnn, CnnConfig, Merging};
    use crate::tensor::Tensor;

    /// Two trivially separable classes: bright top-left vs bright
    /// bottom-right 16x16 images.
    fn toy_samples(n: usize, seed: u64) -> Vec<Sample> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let label = i % 2;
                let mut img = vec![0.0f32; 16 * 16];
                for y in 0..8 {
                    for x in 0..8 {
                        let (yy, xx) = if label == 0 { (y, x) } else { (y + 8, x + 8) };
                        img[yy * 16 + xx] = 0.8 + 0.2 * rng.random::<f32>();
                    }
                }
                Sample {
                    channels: vec![Tensor::from_vec(&[16, 16], img)],
                    label,
                }
            })
            .collect()
    }

    fn toy_net(seed: u64) -> Cnn {
        build_cnn(
            Merging::Late,
            1,
            (16, 16),
            2,
            &CnnConfig {
                conv_channels: [4, 8, 8],
                hidden: 16,
                seed,
            },
        )
    }

    #[test]
    fn training_separates_toy_classes() {
        let samples = toy_samples(40, 1);
        let mut net = toy_net(2);
        let before = evaluate(&net, &samples);
        let report = train(
            &mut net,
            &samples,
            &TrainConfig {
                epochs: 8,
                batch_size: 8,
                lr: 3e-3,
                ..TrainConfig::default()
            },
        );
        let after = evaluate(&net, &samples);
        assert!(after >= 0.95, "accuracy only {after} (was {before})");
        // Loss decreases overall.
        let first = report.loss_history[0];
        let last = *report.loss_history.last().unwrap();
        assert!(last < first * 0.5, "loss {first} -> {last}");
        // A clean run records no recovery activity.
        assert_eq!(report.recovery, RecoveryStats::default());
    }

    #[test]
    fn training_is_deterministic() {
        let samples = toy_samples(16, 3);
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 4,
            ..TrainConfig::default()
        };
        let mut a = toy_net(5);
        let ra = train(&mut a, &samples, &cfg);
        let mut b = toy_net(5);
        let rb = train(&mut b, &samples, &cfg);
        assert_eq!(ra.loss_history.len(), rb.loss_history.len());
        for (x, y) in ra.loss_history.iter().zip(&rb.loss_history) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
        assert_eq!(ra.epoch_train_acc, rb.epoch_train_acc);
    }

    #[test]
    fn batched_and_reference_training_agree() {
        // Same seed, same batches (including a final short batch:
        // 10 samples, batch 4) — the loss histories must line up step
        // by step within float tolerance.
        let samples = toy_samples(10, 21);
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: 4,
            lr: 2e-3,
            ..TrainConfig::default()
        };
        let mut a = toy_net(23);
        let mut b = a.clone();
        let ra = train(&mut a, &samples, &cfg);
        let rb = train_reference(&mut b, &samples, &cfg);
        assert_eq!(ra.loss_history.len(), rb.loss_history.len());
        for (i, (x, y)) in ra.loss_history.iter().zip(&rb.loss_history).enumerate() {
            assert!((x - y).abs() <= 1e-3, "step {i}: batched {x} vs ref {y}");
        }
        assert_eq!(ra.epoch_train_acc, rb.epoch_train_acc);
    }

    #[test]
    fn report_carries_throughput_and_step_stats() {
        let samples = toy_samples(12, 31);
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 4,
            ..TrainConfig::default()
        };
        let mut net = toy_net(33);
        let report = train(&mut net, &samples, &cfg);
        assert_eq!(report.epoch_samples_per_sec.len(), cfg.epochs);
        assert!(report.epoch_samples_per_sec.iter().all(|&s| s > 0.0));
        assert_eq!(report.step_time.steps, report.loss_history.len());
        assert!(report.step_time.min_ms <= report.step_time.mean_ms);
        assert!(report.step_time.mean_ms <= report.step_time.max_ms);
    }

    #[test]
    fn empty_training_set_is_a_noop() {
        let mut net = toy_net(1);
        let before = net.clone();
        let report = train(&mut net, &[], &TrainConfig::default());
        assert!(report.loss_history.is_empty());
        assert_eq!(report.step_time, StepTimeStats::default());
        assert_eq!(net, before);
    }

    #[test]
    fn poisoned_step_rolls_back_and_recovers() {
        // Inject NaN gradients into one step mid-training: the guard
        // must reject the step, roll the epoch back, and the retried
        // run must still converge to the clean-run accuracy.
        let samples = toy_samples(40, 1);
        let mut net = toy_net(2);
        let cfg = TrainConfig {
            epochs: 8,
            batch_size: 8,
            lr: 3e-3,
            ..TrainConfig::default()
        };
        let mut fired = false;
        let mut poison = |step: u64, grads: &mut CnnGrads| {
            if step == 7 && !fired {
                fired = true;
                poison_grads(grads);
            }
        };
        let report = train_with_hooks(
            &mut net,
            &samples,
            &cfg,
            TrainHooks {
                grad_hook: Some(&mut poison),
                abort_after_epoch: None,
            },
        )
        .unwrap();
        assert!(fired, "fault was never injected");
        assert!(report.recovery.rollbacks >= 1, "{:?}", report.recovery);
        assert!(report.recovery.divergent_steps >= 1);
        // The excised history reads as a clean run: every recorded loss
        // is finite and the run still converges.
        assert!(report.loss_history.iter().all(|l| l.is_finite()));
        let after = evaluate(&net, &samples);
        assert!(after >= 0.95, "post-recovery accuracy only {after}");
    }

    fn poison_grads(grads: &mut CnnGrads) {
        for layer in &mut grads.head {
            for p in layer {
                if let Some(v) = p.data_mut().first_mut() {
                    *v = f32::NAN;
                }
            }
        }
    }

    #[test]
    fn persistent_divergence_errs_after_rollback_budget() {
        // A hook that poisons *every* step can never make progress:
        // training must give up with NnError::Diverged, not loop. Each
        // attempt at epoch 0 diverges on its first step, so the guard
        // sees exactly one attempt more than the rollback budget.
        let samples = toy_samples(8, 3);
        let mut net = toy_net(4);
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 4,
            ..TrainConfig::default()
        };
        let mut attempts = 0usize;
        let mut poison = |_step: u64, grads: &mut CnnGrads| {
            attempts += 1;
            poison_grads(grads);
        };
        let err = train_with_hooks(
            &mut net,
            &samples,
            &cfg,
            TrainHooks {
                grad_hook: Some(&mut poison),
                abort_after_epoch: None,
            },
        )
        .unwrap_err();
        assert!(matches!(err, NnError::Diverged(_)), "{err}");
        assert_eq!(attempts, MAX_ROLLBACKS + 1);
    }

    #[test]
    fn repeated_divergence_backs_off_learning_rate() {
        // Poison the first three attempts at epoch 0: rollback #2 and
        // #3 are consecutive retries of the same epoch, so the backoff
        // policy must fire at least once, and training then completes.
        let samples = toy_samples(8, 5);
        let mut net = toy_net(6);
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 4,
            ..TrainConfig::default()
        };
        let mut shots = 3;
        let mut poison = |_step: u64, grads: &mut CnnGrads| {
            if shots > 0 {
                shots -= 1;
                poison_grads(grads);
            }
        };
        let report = train_with_hooks(
            &mut net,
            &samples,
            &cfg,
            TrainHooks {
                grad_hook: Some(&mut poison),
                abort_after_epoch: None,
            },
        )
        .unwrap();
        assert_eq!(report.recovery.rollbacks, 3);
        assert!(report.recovery.lr_backoffs >= 1, "{:?}", report.recovery);
        assert_eq!(report.epoch_train_acc.len(), cfg.epochs);
    }

    #[test]
    fn evaluate_empty_slice_is_zero_not_nan() {
        let net = toy_net(1);
        let acc = evaluate(&net, &[]);
        assert_eq!(acc, 0.0);
        assert!(!acc.is_nan());
    }

    #[test]
    fn evaluate_single_sample_is_zero_or_one() {
        let net = toy_net(1);
        let samples = toy_samples(1, 2);
        let acc = evaluate(&net, &samples);
        assert!(acc == 0.0 || acc == 1.0, "got {acc}");
        // Consistent with the per-sample prediction path.
        let want = (net.predict(&samples[0].channels) == samples[0].label) as usize as f64;
        assert_eq!(acc, want);
    }

    #[test]
    fn evaluate_crosses_batch_boundaries_consistently() {
        // More samples than EVAL_BATCH: chunked batching must count
        // every sample exactly once.
        let samples = toy_samples(EVAL_BATCH + 9, 5);
        let net = toy_net(3);
        let acc = evaluate(&net, &samples);
        let per_sample = samples
            .iter()
            .filter(|s| net.predict(&s.channels) == s.label)
            .count() as f64
            / samples.len() as f64;
        assert!((acc - per_sample).abs() < 1e-12, "{acc} vs {per_sample}");
    }

    #[test]
    fn confusion_matrix_counts_match() {
        let samples = toy_samples(20, 7);
        let mut net = toy_net(9);
        train(
            &mut net,
            &samples,
            &TrainConfig {
                epochs: 6,
                batch_size: 5,
                lr: 3e-3,
                ..TrainConfig::default()
            },
        );
        let cm = confusion_matrix(&net, &samples, 2);
        let total: usize = cm.iter().flatten().sum();
        assert_eq!(total, 20);
        let acc = accuracy_from_confusion(&cm);
        assert!((acc - evaluate(&net, &samples)).abs() < 1e-9);
    }

    #[test]
    fn recall_precision_handles_absent_class() {
        // Class 2 never appears and is never predicted.
        let cm = vec![vec![8, 2, 0], vec![1, 9, 0], vec![0, 0, 0]];
        let rp = recall_precision(&cm);
        assert_eq!(rp[0].0, Some(0.8));
        assert_eq!(rp[1].0, Some(0.9));
        assert_eq!(rp[2], (None, None));
        let p0 = rp[0].1.unwrap();
        assert!((p0 - 8.0 / 9.0).abs() < 1e-9);
    }

    #[test]
    fn confusion_metrics_are_total_on_degenerate_matrices() {
        // Empty matrix.
        assert_eq!(recall_precision(&[]), vec![]);
        assert_eq!(accuracy_from_confusion(&[]), 0.0);
        // All-zero matrix: every denominator empty, accuracy defined.
        let zeros = vec![vec![0, 0], vec![0, 0]];
        assert_eq!(recall_precision(&zeros), vec![(None, None); 2]);
        assert_eq!(accuracy_from_confusion(&zeros), 0.0);
        // Ragged rows (short row 1, long row 0): missing cells read as
        // zero — no panic, and present cells still count.
        let ragged = vec![vec![3, 1, 7], vec![2]];
        let rp = recall_precision(&ragged);
        assert_eq!(rp.len(), 2);
        assert_eq!(rp[0].0, Some(3.0 / 11.0));
        // Column 0 receives 3 (row 0) + 2 (row 1) predictions.
        assert_eq!(rp[0].1, Some(0.6));
        // Row 1 has no cell [1][1]: the diagonal hit reads as zero, so
        // recall is 0/2 and precision 0/1 (row 0 predicted class 1 once).
        assert_eq!(rp[1].0, Some(0.0));
        assert_eq!(rp[1].1, Some(0.0));
        let acc = accuracy_from_confusion(&ragged);
        assert!((acc - 3.0 / 13.0).abs() < 1e-12, "{acc}");
    }

    #[test]
    fn predict_proba_is_a_distribution() {
        let net = toy_net(11);
        let s = &toy_samples(2, 13)[0];
        let p = predict_proba(&net, &s.channels);
        assert_eq!(p.len(), 2);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn freeze_towers_keeps_tower_parameters() {
        let samples = toy_samples(12, 17);
        let mut net = toy_net(19);
        let tower_before = net.towers[0].clone();
        train(
            &mut net,
            &samples,
            &TrainConfig {
                epochs: 2,
                batch_size: 4,
                freeze_towers: true,
                ..TrainConfig::default()
            },
        );
        assert_eq!(net.towers[0], tower_before);
    }

    #[test]
    fn frozen_batched_and_reference_paths_agree() {
        // Top evolvement through both paths: identical loss histories
        // and bit-identical towers.
        let samples = toy_samples(8, 41);
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 3,
            freeze_towers: true,
            ..TrainConfig::default()
        };
        let mut a = toy_net(43);
        let mut b = a.clone();
        let ra = train(&mut a, &samples, &cfg);
        let rb = train_reference(&mut b, &samples, &cfg);
        for (x, y) in ra.loss_history.iter().zip(&rb.loss_history) {
            assert!((x - y).abs() <= 1e-3, "{x} vs {y}");
        }
        assert_eq!(a.towers, b.towers);
    }
}
