//! Crash-safe training checkpoints.
//!
//! A [`TrainCheckpoint`] captures everything [`crate::train::train`]
//! needs to continue a run as if it had never stopped: the network, the
//! optimiser (moment buffers and step counter included), the report so
//! far, and the wall-clock accumulators. The shuffle RNG is *not*
//! stored — its state after `epoch` completed epochs is reproduced by
//! replaying `epoch` Fisher–Yates passes from the config seed, which
//! keeps the checkpoint small and the resumed batch order bit-identical
//! to the uninterrupted run.
//!
//! Checkpoints ride in the same envelope as selectors
//! ([`crate::serialize`]): versioned, checksummed, written atomically
//! via temp-file-and-rename. The envelope fingerprint binds a
//! checkpoint to the run that wrote it ([`train_fingerprint`]), so
//! resuming against a different dataset size, batch size, seed,
//! optimiser or network structure fails with a typed error instead of
//! silently training nonsense.

use crate::error::NnError;
use crate::network::Cnn;
use crate::optimizer::Optimizer;
use crate::serialize::{fnv1a64, model_fingerprint, read_envelope_path, write_envelope_atomic};
use crate::train::{TrainConfig, TrainReport};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Envelope kind tag for training checkpoints.
pub const KIND_CHECKPOINT: &str = "train-checkpoint";

/// File name used inside a checkpoint directory. A single name is
/// overwritten atomically each time, so the directory always holds
/// exactly one complete checkpoint (plus, after a crash mid-write, at
/// most one stray `.tmp`).
pub const CHECKPOINT_FILE: &str = "checkpoint.json";

/// `<dir>/checkpoint.json` for a checkpoint directory.
pub fn checkpoint_path<P: AsRef<Path>>(dir: P) -> PathBuf {
    dir.as_ref().join(CHECKPOINT_FILE)
}

/// Full training state at an epoch boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainCheckpoint {
    /// Completed epochs (resume starts at this epoch index).
    pub epoch: usize,
    /// Optimisation steps taken so far (drives gradient hooks).
    pub step_counter: u64,
    /// Training-set size the run was started with.
    pub samples_len: usize,
    /// The network, mid-training.
    pub net: Cnn,
    /// Optimiser state: kind, current learning rate (including any
    /// divergence backoff), moment buffers, Adam step counter.
    pub opt: Optimizer,
    /// Loss history / accuracies recorded so far.
    pub report: TrainReport,
    /// Timed steps so far (includes rolled-back steps).
    pub time_steps: usize,
    /// Total step wall-time so far, seconds.
    pub total_s: f64,
    /// Fastest step so far, seconds (0 when no steps were timed —
    /// JSON cannot represent the `+inf` sentinel).
    pub min_s: f64,
    /// Slowest step so far, seconds.
    pub max_s: f64,
}

/// Fingerprint binding a checkpoint to its run. Covers everything that
/// determines the batch sequence and parameter layout: the network
/// structure, dataset size, batch size, shuffle seed, update rule and
/// freeze flag. Deliberately excludes `epochs` (resuming with a higher
/// target extends the run) and `lr` (divergence backoff rewrites it;
/// the live value travels inside the optimiser).
pub fn train_fingerprint(cfg: &TrainConfig, net: &Cnn, samples_len: usize) -> u64 {
    let kind = serde_json::to_string(&cfg.optimizer).unwrap_or_default();
    let desc = format!(
        "model={:#018x}|samples={samples_len}|batch={}|seed={}|freeze={}|opt={kind}",
        model_fingerprint(net),
        cfg.batch_size,
        cfg.seed,
        cfg.freeze_towers,
    );
    fnv1a64(desc.as_bytes())
}

/// Writes a checkpoint atomically to `path`.
pub fn save_checkpoint<P: AsRef<Path>>(
    ck: &TrainCheckpoint,
    fingerprint: u64,
    path: P,
) -> Result<(), NnError> {
    write_envelope_atomic(KIND_CHECKPOINT, fingerprint, ck, path)
}

/// Reads and validates a checkpoint, returning it with its stored
/// fingerprint. The embedded network must pass [`Cnn::validate`] and
/// the report's per-epoch vectors must agree with the epoch count —
/// a corrupted or hand-edited file yields `Err`, never a later panic.
pub fn load_checkpoint<P: AsRef<Path>>(path: P) -> Result<(TrainCheckpoint, u64), NnError> {
    let (ck, fingerprint): (TrainCheckpoint, u64) = read_envelope_path(KIND_CHECKPOINT, path)?;
    ck.net.validate().map_err(NnError::InvalidModel)?;
    if ck.report.epoch_train_acc.len() != ck.epoch
        || ck.report.epoch_samples_per_sec.len() != ck.epoch
    {
        return Err(NnError::InvalidModel(format!(
            "checkpoint claims {} epochs but carries {} accuracies / {} throughput entries",
            ck.epoch,
            ck.report.epoch_train_acc.len(),
            ck.report.epoch_samples_per_sec.len()
        )));
    }
    if !ck.total_s.is_finite() || !ck.min_s.is_finite() || !ck.max_s.is_finite() {
        return Err(NnError::InvalidModel(
            "checkpoint wall-clock accumulators are not finite".into(),
        ));
    }
    if ck.report.loss_history.iter().any(|l| !l.is_finite()) {
        return Err(NnError::InvalidModel(
            "checkpoint loss history contains non-finite entries".into(),
        ));
    }
    Ok((ck, fingerprint))
}
