//! Closed-loop scenario for the online-learning pipeline, driven by
//! `tests/feedback_loop.rs`.
//!
//! One run exercises the whole feedback story end to end, against a
//! deterministic environment change (the sampler's [`ModelTimer`] cost
//! vector is rotated mid-run, so the measured-best labels shift under a
//! trained selector exactly once, on cue):
//!
//! 1. **steady** — a trained selector serves; the sampler journals
//!    ground truth and the drift window stays healthy;
//! 2. **drift** — the timer rotates (simulated platform change); the
//!    rolling accuracy collapses and the drift detector trips;
//! 3. **evolve** — the journal's post-change records fine-tune a
//!    candidate; shadow evaluation on the held-out tail must pass it,
//!    and must *reject* a poisoned candidate trained on shifted labels;
//! 4. **promote** — the candidate hot-reloads behind a
//!    [`PromotionGuard`]; accuracy recovers above the trip threshold;
//! 5. **rollback** — the poisoned candidate is force-promoted; the
//!    guard watches fresh drift evidence and rolls back to the good
//!    generation, after which accuracy recovers again.
//!
//! Every stage lands in [`ClosedLoopReport`]; [`ClosedLoopReport::gates_passed`]
//! is the verdict. What the sampling tap costs a served request is a
//! wall-clock question and lives apart, in [`overhead_probe`].

use crate::fixture::Fixture;
use dnnspmv_core::{
    CacheConfig, FormatSelector, SelectorConfig, SelectorServer, SelectorService, ServerConfig,
};
use dnnspmv_feedback::{
    evolve, replay, usable_samples, DriftConfig, DriftDetector, EvolveConfig, FeedbackSampler,
    GuardVerdict, JournalConfig, JournalWriter, ModelTimer, PromotionConfig, PromotionGuard,
    SamplerConfig, ShadowReport,
};
use dnnspmv_nn::{Migration, TrainConfig};
use dnnspmv_sparse::CooMatrix;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Closed-loop scenario parameters.
#[derive(Debug, Clone)]
pub struct ClosedLoopConfig {
    /// Matrices in the synthetic pool (also the training set).
    pub matrices: usize,
    /// Epochs for the incumbent's initial training.
    pub train_epochs: usize,
    /// Epochs for the journal fine-tune.
    pub evolve_epochs: usize,
    /// Sequential passes over the pool per serve phase.
    pub rounds_per_phase: usize,
    /// Sample every Nth served answer.
    pub sample_every: u64,
    /// Drift-detector tuning.
    pub drift: DriftConfig,
    /// Shadow gate margin (candidate must beat incumbent by this).
    pub shadow_margin: f64,
    /// Holdout fraction for shadow scoring.
    pub holdout_frac: f64,
    /// Promotion-guard tuning.
    pub guard: PromotionConfig,
    /// Dataset / training seed.
    pub seed: u64,
}

impl Default for ClosedLoopConfig {
    fn default() -> Self {
        Self {
            matrices: 120,
            train_epochs: 4,
            evolve_epochs: 24,
            rounds_per_phase: 2,
            sample_every: 2,
            drift: DriftConfig {
                window: 96,
                min_samples: 24,
                threshold: 0.7,
            },
            shadow_margin: 0.05,
            holdout_frac: 0.25,
            guard: PromotionConfig {
                margin: 0.1,
                min_samples: 16,
            },
            seed: 41,
        }
    }
}

/// What one closed-loop run observed, stage by stage.
#[derive(Debug, Clone)]
pub struct ClosedLoopReport {
    /// Rolling accuracy at the end of the steady phase.
    pub steady_accuracy: f64,
    /// Rolling accuracy after the environment change.
    pub drifted_accuracy: f64,
    /// The drift detector latched a trip during the drift phase.
    pub drift_tripped: bool,
    /// Records recovered from the journal before evolving.
    pub journal_records: usize,
    /// Corrupt records the replay had to skip (expected 0 here).
    pub journal_corrupt: usize,
    /// Post-change records the candidate was fine-tuned from.
    pub evolve_records: usize,
    /// Shadow evaluation of the honest candidate.
    pub shadow: ShadowReport,
    /// The honest candidate passed the shadow gate.
    pub promoted: bool,
    /// Poisoned candidate's holdout accuracy.
    pub poisoned_accuracy: f64,
    /// The shadow gate rejected the poisoned candidate.
    pub poisoned_rejected: bool,
    /// Rolling accuracy after promoting the honest candidate.
    pub recovered_accuracy: f64,
    /// The trip threshold recovery is judged against.
    pub drift_threshold: f64,
    /// Recovery cleared the drift threshold.
    pub recovered: bool,
    /// The guard rolled the forced bad promotion back.
    pub rollback: bool,
    /// Baseline the guard judged the bad promotion against.
    pub rollback_baseline: f64,
    /// Accuracy that forced the rollback.
    pub rollback_current: f64,
    /// Rolling accuracy after the rollback settled.
    pub post_rollback_accuracy: f64,
    /// `feedback_rollback_total` at the end of the run.
    pub rollback_total: u64,
    /// Sampled / shed counts over the whole run.
    pub sampled_total: u64,
    /// Samples shed by the bounded queue (expected 0 at this load).
    pub shed_total: u64,
}

impl ClosedLoopReport {
    /// All functional gates in one verdict.
    pub fn gates_passed(&self) -> bool {
        self.drift_tripped
            && self.promoted
            && self.poisoned_rejected
            && self.recovered
            && self.rollback
            && self.journal_corrupt == 0
    }
}

/// One sequential pass-pool serve phase (deterministic sample order).
fn serve_phase(server: &SelectorServer<f32>, matrices: &[CooMatrix<f32>], rounds: usize) {
    for _ in 0..rounds {
        for m in matrices {
            server.select(m).expect("closed-loop serve");
        }
    }
}

fn counter(server: &SelectorServer<f32>, name: &str) -> u64 {
    server.metrics_snapshot().counter(name, &[]).unwrap_or(0)
}

/// Builds a cache-enabled server over `model` alone (no tree rung, no
/// confidence gate): every answer is the CNN's, so drift accuracy
/// measures exactly the model under test.
fn build_server(model: &FormatSelector) -> SelectorServer<f32> {
    let service = SelectorService::new(Some(model.clone()), None)
        .expect("trained selector validates")
        .with_confidence_threshold(0.0);
    SelectorServer::new(
        service,
        ServerConfig {
            workers: 2,
            queue_capacity: 512,
            cache: CacheConfig::enabled(2048),
            ..ServerConfig::default()
        },
    )
}

fn attach_sampler(
    server: &SelectorServer<f32>,
    sel_cfg: &SelectorConfig,
    journal_dir: &Path,
    drift: &Arc<DriftDetector>,
    timer: Arc<dyn dnnspmv_feedback::SpmvTimer<f32>>,
    sample_every: u64,
) -> FeedbackSampler<f32> {
    let sampler = FeedbackSampler::new(
        SamplerConfig {
            sample_every,
            queue_capacity: 4096,
            repr: sel_cfg.repr,
            repr_config: sel_cfg.repr_config,
        },
        JournalWriter::open(journal_dir, JournalConfig::default()).expect("open journal"),
        Arc::clone(drift),
        timer,
        server.registry(),
    );
    assert!(server.set_serve_tap(sampler.tap()), "tap attaches once");
    sampler
}

fn fixture(tag: &str, cfg: &ClosedLoopConfig) -> Fixture {
    Fixture::train(tag, cfg.matrices, 48..=128, cfg.train_epochs, cfg.seed)
}

/// What the sampling tap costs a served request: `(untapped, tapped)`
/// sequential p50 in microseconds over `cfg`'s fixture, an identical
/// model served with and without the tap. Best-of-3 per side so one
/// scheduler hiccup cannot decide the ratio; the first (untimed) pass
/// warms the decision caches so both sides measure the steady hot
/// path. Wall-clock, so only meaningful on an optimised build.
pub fn overhead_probe(cfg: &ClosedLoopConfig) -> (f64, f64) {
    let fx = fixture("tap-overhead", cfg);
    let plain = build_server(&fx.incumbent);
    let tapped = build_server(&fx.incumbent);
    let drift = Arc::new(DriftDetector::new(
        DriftConfig::default(),
        tapped.registry(),
    ));
    let _sampler = attach_sampler(
        &tapped,
        &fx.incumbent.config,
        &fx.dir.join("journal"),
        &drift,
        Arc::new(ModelTimer::new(fx.platform.clone())),
        8,
    );
    let side = |server: &SelectorServer<f32>| -> f64 {
        serve_phase(server, &fx.matrices, 1); // warm the cache
        let mut ns: Vec<u128> = fx
            .matrices
            .iter()
            .map(|m| {
                let t0 = Instant::now();
                server.select(m).expect("probe serve");
                t0.elapsed().as_nanos()
            })
            .collect();
        ns.sort_unstable();
        ns[ns.len() / 2] as f64 / 1e3
    };
    let mut plain_p50 = f64::MAX;
    let mut tapped_p50 = f64::MAX;
    for _ in 0..3 {
        plain_p50 = plain_p50.min(side(&plain));
        tapped_p50 = tapped_p50.min(side(&tapped));
    }
    (plain_p50, tapped_p50)
}

/// Runs the full closed loop and returns the report.
pub fn run_closed_loop(cfg: &ClosedLoopConfig) -> ClosedLoopReport {
    // The selector was trained on cost-model labels — exactly what the
    // unrotated ModelTimer will measure, so the steady phase is honest
    // agreement, not luck.
    let fx = fixture("loop", cfg);
    let Fixture {
        incumbent,
        matrices,
        dir,
        incumbent_path,
        ..
    } = &fx;

    let server = build_server(incumbent);
    let drift = Arc::new(DriftDetector::new(cfg.drift, server.registry()));
    let timer = ModelTimer::new(fx.platform.clone());
    let journal_dir = dir.join("journal");
    let sampler = attach_sampler(
        &server,
        &incumbent.config,
        &journal_dir,
        &drift,
        Arc::new(timer.clone()),
        cfg.sample_every,
    );

    // Phase 1: steady agreement.
    serve_phase(&server, matrices, cfg.rounds_per_phase);
    sampler.flush();
    let steady_accuracy = drift.accuracy();
    let steady_appended = counter(&server, "feedback_appended_total");

    // Phase 2: the environment changes under the selector.
    sampler.set_timer(Arc::new(timer.rotated(1)));
    serve_phase(&server, matrices, cfg.rounds_per_phase);
    sampler.flush();
    let drifted_accuracy = drift.accuracy();
    let drift_tripped = drift.tripped();

    // Phase 3: evolve from the journal's post-change records.
    sampler.sync().expect("journal sync");
    let (records, replay_report) = replay(&journal_dir).expect("journal replay");
    let recent: Vec<_> = records
        .iter()
        .filter(|r| r.seq >= steady_appended)
        .cloned()
        .collect();
    let evolve_cfg = EvolveConfig {
        strategy: Migration::ContinuousEvolvement,
        train: TrainConfig {
            epochs: cfg.evolve_epochs,
            ..incumbent.config.train.clone()
        },
        holdout_frac: cfg.holdout_frac,
        min_records: 16,
        margin: cfg.shadow_margin,
    };
    let (candidate, shadow, _train_report) =
        evolve(incumbent, &recent, &evolve_cfg).expect("evolve");
    let promoted = shadow.promote;
    let candidate_path = dir.join("candidate.json");
    candidate
        .save(candidate_path.to_string_lossy().as_ref())
        .expect("save candidate");

    // A poisoned candidate: fine-tuned on labels shifted off the
    // measured truth, scored on the same held-out tail the honest
    // candidate faced. The gate must hold.
    let mut poison_samples = usable_samples(incumbent, &recent);
    let holdout_n = ((poison_samples.len() as f64 * cfg.holdout_frac) as usize)
        .clamp(1, poison_samples.len() - 1);
    let holdout = poison_samples.split_off(poison_samples.len() - holdout_n);
    let k = incumbent.formats.len();
    for s in &mut poison_samples {
        s.label = (s.label + 1) % k;
    }
    let (poisoned, _) = incumbent.migrate(evolve_cfg.strategy, &poison_samples, &evolve_cfg.train);
    let poisoned_accuracy = poisoned.accuracy(&holdout);
    let poisoned_rejected = poisoned_accuracy < incumbent.accuracy(&holdout) + cfg.shadow_margin;
    let poisoned_path = dir.join("poisoned.json");
    poisoned
        .save(poisoned_path.to_string_lossy().as_ref())
        .expect("save poisoned");

    // Phase 4: guarded promotion of the honest candidate; accuracy
    // must recover above the trip threshold on fresh evidence.
    let (mut guard, _) =
        PromotionGuard::promote(&server, &drift, &candidate_path, incumbent_path, cfg.guard)
            .expect("promote candidate");
    serve_phase(&server, matrices, cfg.rounds_per_phase);
    sampler.flush();
    let recovered_accuracy = drift.accuracy();
    let recovered = recovered_accuracy >= cfg.drift.threshold;
    let healthy = guard.check(&server, &drift).expect("guard check");
    assert!(
        matches!(healthy, GuardVerdict::Healthy | GuardVerdict::Watching),
        "a recovered promotion must not roll back"
    );

    // Phase 5: force-promote the poisoned candidate; the guard must
    // roll back to the good generation on fresh drift evidence.
    let (mut bad_guard, _) =
        PromotionGuard::promote(&server, &drift, &poisoned_path, &candidate_path, cfg.guard)
            .expect("promote poisoned");
    serve_phase(&server, matrices, cfg.rounds_per_phase);
    sampler.flush();
    let verdict = bad_guard.check(&server, &drift).expect("bad guard check");
    let (rollback, rollback_baseline, rollback_current) = match verdict {
        GuardVerdict::RolledBack { baseline, current } => (true, baseline, current),
        _ => (false, bad_guard.baseline(), drift.accuracy()),
    };
    // After rollback the good candidate serves again.
    serve_phase(&server, matrices, cfg.rounds_per_phase);
    sampler.flush();
    let post_rollback_accuracy = drift.accuracy();

    let sampled_total = counter(&server, "feedback_sampled_total");
    let shed_total = counter(&server, "feedback_shed_total");
    let rollback_total = counter(&server, "feedback_rollback_total");
    ClosedLoopReport {
        steady_accuracy,
        drifted_accuracy,
        drift_tripped,
        journal_records: replay_report.records,
        journal_corrupt: replay_report.corrupt_records,
        evolve_records: recent.len(),
        shadow,
        promoted,
        poisoned_accuracy,
        poisoned_rejected,
        recovered_accuracy,
        drift_threshold: cfg.drift.threshold,
        recovered,
        rollback,
        rollback_baseline,
        rollback_current,
        post_rollback_accuracy,
        rollback_total,
        sampled_total,
        shed_total,
    }
}
