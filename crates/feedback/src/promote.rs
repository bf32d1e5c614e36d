//! Guarded promotion: hot-reload a candidate, watch it, roll it back.
//!
//! Shadow evaluation ([`crate::evolve()`]) is judged on *held-out journal
//! records* — the best evidence available before promotion, but still
//! historical. The [`PromotionGuard`] covers the gap: it snapshots the
//! incumbent's rolling drift accuracy as the baseline, hot-reloads the
//! candidate, resets the drift window, and from then on compares fresh
//! post-promotion accuracy against the baseline. If the promoted model
//! does *worse* than what it replaced (by more than [`ROLLBACK_MARGIN`],
//! with enough fresh samples), the guard reloads the previous artefact — at most
//! once, so a flapping workload cannot ping-pong generations.

use crate::drift::DriftDetector;
use crate::error::FeedbackError;
use dnnspmv_core::SelectorServer;
use dnnspmv_obs::Counter;
use dnnspmv_sparse::Scalar;
use std::path::{Path, PathBuf};

/// Roll back when post-promotion accuracy falls below
/// `baseline - ROLLBACK_MARGIN`.
pub const ROLLBACK_MARGIN: f64 = 0.1;

/// Guard tuning.
#[derive(Debug, Clone, Copy)]
pub struct PromotionConfig {
    /// Fresh comparisons required before the guard judges at all.
    pub min_samples: usize,
}

impl Default for PromotionConfig {
    fn default() -> Self {
        Self { min_samples: 16 }
    }
}

/// One [`PromotionGuard::check`] verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GuardVerdict {
    /// Not enough post-promotion samples yet.
    Watching,
    /// Post-promotion accuracy is holding up.
    Healthy,
    /// Accuracy fell below the baseline by more than
    /// [`ROLLBACK_MARGIN`]; the previous generation was reloaded.
    RolledBack {
        /// Pre-promotion rolling accuracy.
        baseline: f64,
        /// Post-promotion rolling accuracy that forced the rollback.
        current: f64,
    },
}

/// Watches one promotion (see module docs).
#[derive(Debug)]
pub struct PromotionGuard {
    previous: PathBuf,
    baseline: f64,
    cfg: PromotionConfig,
    rollbacks: Counter,
    rolled_back: bool,
}

impl PromotionGuard {
    /// Promotes `candidate` onto `server`: snapshots the incumbent's
    /// rolling accuracy as the baseline, hot-reloads the candidate
    /// artefact, and resets the drift window so the new model is
    /// judged on fresh evidence. `previous` must be the incumbent's
    /// artefact path — the rollback target. Returns the guard and the
    /// new model generation.
    pub fn promote<S: Scalar>(
        server: &SelectorServer<S>,
        drift: &DriftDetector,
        candidate: &Path,
        previous: &Path,
        cfg: PromotionConfig,
    ) -> Result<(Self, u64), FeedbackError> {
        let baseline = drift.accuracy();
        let generation = server
            .reload_model(candidate)
            .map_err(FeedbackError::Reload)?;
        drift.reset();
        Ok((
            Self {
                previous: previous.to_path_buf(),
                baseline,
                cfg,
                rollbacks: server.registry().counter("feedback_rollback_total", &[]),
                rolled_back: false,
            },
            generation,
        ))
    }

    /// Pre-promotion baseline accuracy.
    pub fn baseline(&self) -> f64 {
        self.baseline
    }

    /// Judges the promotion against fresh drift evidence, rolling back
    /// (once) if the promoted model is doing worse than the baseline
    /// by more than [`ROLLBACK_MARGIN`]. Call this periodically — e.g. from the
    /// same cadence that reads the drift gauges.
    pub fn check<S: Scalar>(
        &mut self,
        server: &SelectorServer<S>,
        drift: &DriftDetector,
    ) -> Result<GuardVerdict, FeedbackError> {
        if self.rolled_back {
            return Ok(GuardVerdict::Healthy);
        }
        if drift.samples() < self.cfg.min_samples {
            return Ok(GuardVerdict::Watching);
        }
        let current = drift.accuracy();
        if current >= self.baseline - ROLLBACK_MARGIN {
            return Ok(GuardVerdict::Healthy);
        }
        server
            .reload_model(&self.previous)
            .map_err(FeedbackError::Reload)?;
        drift.reset();
        self.rollbacks.inc();
        self.rolled_back = true;
        Ok(GuardVerdict::RolledBack {
            baseline: self.baseline,
            current,
        })
    }

    /// Whether this guard has already rolled back.
    pub fn rolled_back(&self) -> bool {
        self.rolled_back
    }
}
