//! Failpoint-driven fault tests for the feedback lane: a full disk
//! sheds samples (counted, typed), the journal replays exactly the
//! successful appends, and dropped drift comparisons only slow the
//! accumulation of evidence. Compiled only with the `chaos` feature;
//! the registry is process-global, so tests serialise on a mutex.
#![cfg(feature = "chaos")]

use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use dnnspmv_core::{Selection, SelectionSource};
use dnnspmv_feedback::{
    replay, DriftConfig, DriftDetector, FeedbackError, FeedbackRecord, FeedbackSampler,
    JournalConfig, JournalWriter, ModelTimer, SamplerConfig,
};
use dnnspmv_nn::Tensor;
use dnnspmv_obs::Registry;
use dnnspmv_platform::PlatformModel;
use dnnspmv_sparse::{CooMatrix, SparseFormat};

static CHAOS: Mutex<()> = Mutex::new(());

fn armed(seed: u64, schedule: &str) -> MutexGuard<'static, ()> {
    let guard = CHAOS.lock().unwrap_or_else(|e| e.into_inner());
    dnnspmv_chaos::configure_str(seed, schedule).expect("schedule parses");
    guard
}

/// A journal directory of this process, removed when dropped (a failed
/// assertion included), so a run leaves nothing under the temp dir.
struct TmpDir(PathBuf);

impl TmpDir {
    fn new(tag: &str) -> Self {
        let d = std::env::temp_dir().join(format!("dnnspmv-fb-chaos-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        Self(d)
    }
}

impl Deref for TmpDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn record(seq: u64) -> FeedbackRecord {
    FeedbackRecord {
        seq,
        fingerprint: 0xF00D + seq,
        generation: 0,
        chosen: SparseFormat::Csr,
        source: SelectionSource::Cnn,
        measured_best: SparseFormat::Csr,
        timings: vec![(SparseFormat::Csr, 1e-6), (SparseFormat::Coo, 2e-6)],
        channels: vec![Tensor::from_vec(&[2, 2], vec![0.0, 1.0, 0.5, 0.25])],
        nrows: 8,
        ncols: 8,
        nnz: 8,
    }
}

fn tridiagonal(n: usize) -> CooMatrix<f32> {
    let mut t = Vec::new();
    for i in 0..n {
        t.push((i, i, 2.0f32));
        if i + 1 < n {
            t.push((i, i + 1, -1.0));
        }
    }
    CooMatrix::from_triplets(n, n, &t).unwrap()
}

#[test]
fn journal_replays_exactly_the_successful_appends() {
    let guard = armed(41, "feedback.journal.append=err@every(2)");
    let dir = TmpDir::new("append");
    let mut writer = JournalWriter::open(&dir, JournalConfig::default()).unwrap();
    let mut ok = 0usize;
    for seq in 0..10 {
        match writer.append(&record(seq)) {
            Ok(()) => ok += 1,
            Err(FeedbackError::StorageFull(_)) => {}
            Err(other) => panic!("injected ENOSPC must stay typed, got {other:?}"),
        }
    }
    assert_eq!(ok, 5, "every(2) fails every second append");
    drop(writer);
    dnnspmv_chaos::deactivate();
    drop(guard);

    let (records, report) = replay(&dir).unwrap();
    assert_eq!(records.len(), ok, "replay recovers exactly the successes");
    assert_eq!(report.corrupt_records, 0);
    assert_eq!(report.torn_segments, 0);
}

#[test]
fn sampler_sheds_and_counts_when_the_disk_fills() {
    // The append failpoint fires on the sampler's worker thread — the
    // lane must shed the sample, bump the dedicated counter and keep
    // draining rather than treating ENOSPC as a structural failure.
    let guard = armed(43, "feedback.journal.append=err");
    let dir = TmpDir::new("sampler-full");
    let reg = Registry::new();
    let drift = Arc::new(DriftDetector::new(Default::default(), &reg));
    let timer = Arc::new(ModelTimer::new(PlatformModel::intel_cpu()));
    let sampler: FeedbackSampler<f32> = FeedbackSampler::new(
        SamplerConfig {
            sample_every: 1,
            queue_capacity: 64,
            ..Default::default()
        },
        JournalWriter::open(&dir, JournalConfig::default()).unwrap(),
        drift,
        timer,
        &reg,
    );
    let tap = sampler.tap();
    let m = Arc::new(tridiagonal(48));
    let sel = Selection {
        format: SparseFormat::Csr,
        source: SelectionSource::Cnn,
        confidence: Some(0.9),
    };
    for _ in 0..6 {
        tap.observe(&m, &sel, 0);
    }
    sampler.flush();
    let snap = reg.snapshot();
    assert_eq!(snap.counter("feedback_sampled_total", &[]), Some(6));
    assert_eq!(snap.counter("feedback_appended_total", &[]), Some(0));
    assert_eq!(snap.counter("feedback_storage_full_total", &[]), Some(6));
    drop(sampler);
    dnnspmv_chaos::deactivate();
    drop(guard);

    let (records, report) = replay(&dir).unwrap();
    assert!(records.is_empty(), "nothing landed on the full disk");
    assert_eq!(report.corrupt_records, 0, "shedding never corrupts");
}

#[test]
fn dropped_drift_comparisons_only_slow_evidence() {
    let guard = armed(47, "feedback.drift.record=err@every(2)");
    let reg = Registry::new();
    let drift = DriftDetector::new(
        DriftConfig {
            window: 16,
            min_samples: 4,
            threshold: 0.7,
        },
        &reg,
    );
    for _ in 0..8 {
        drift.record(true);
    }
    dnnspmv_chaos::deactivate();
    drop(guard);
    let snap = reg.snapshot();
    assert_eq!(
        snap.gauge("feedback_drift_window_samples", &[]),
        Some(4),
        "every second comparison was dropped, not miscounted"
    );
    assert_eq!(snap.counter("feedback_drift_tripped_total", &[]), Some(0));
}
