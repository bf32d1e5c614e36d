//! Failpoint-driven fault tests for the feedback lane: a full disk
//! sheds samples (counted, typed), the journal replays exactly the
//! successful appends, a failed per-append fsync is reported without
//! losing the record, and dropped drift comparisons only slow the
//! accumulation of evidence. Compiled only with the `chaos` feature;
//! the registry is process-global, so tests serialise on a mutex.
#![cfg(feature = "chaos")]

use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use dnnspmv_core::{Selection, SelectionSource};
use dnnspmv_feedback::journal::SEGMENT_MAGIC;
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
fn half_frame_writes_lose_no_acknowledged_record() {
    // The append site writes half a frame before reporting the full
    // disk. Every append that returned `Ok` must replay, in order, and a
    // reopen must find no torn tail to cut (which would take the
    // records behind the torn frame with it).
    let guard = armed(59, "feedback.journal.append=err@every(3)");
    let dir = TmpDir::new("half-frame");
    let mut writer = JournalWriter::open(&dir, JournalConfig::default()).unwrap();
    let mut acked = Vec::new();
    for seq in 0..12 {
        match writer.append(&record(seq)) {
            Ok(()) => acked.push(seq),
            Err(FeedbackError::StorageFull(_)) => {}
            Err(other) => panic!("a short write must stay typed as a full disk, got {other:?}"),
        }
    }
    assert_eq!(acked.len(), 8, "every(3) fails every third append");
    drop(writer);
    dnnspmv_chaos::deactivate();
    drop(guard);

    let replayed = |dir: &Path| {
        let (records, report) = replay(dir).unwrap();
        assert_eq!(report.corrupt_records, 0, "no frame swallowed another");
        assert_eq!(report.torn_tail_bytes, 0, "no half frame left behind");
        records.iter().map(|r| r.seq).collect::<Vec<_>>()
    };
    assert_eq!(
        replayed(&dir),
        acked,
        "replay reads every acknowledged record, in order"
    );
    let mut writer = JournalWriter::open(&dir, JournalConfig::default()).unwrap();
    assert_eq!(writer.repaired_bytes(), 0);
    writer.append(&record(12)).unwrap();
    drop(writer);
    acked.push(12);
    assert_eq!(replayed(&dir), acked);
}

/// Bytes of a journal's first segment.
fn first_segment_len(dir: &Path) -> u64 {
    std::fs::metadata(dir.join("segment-000000.dnj"))
        .unwrap()
        .len()
}

#[test]
fn failed_fsync_at_append_is_io_and_the_record_still_replays() {
    // Every `record(seq)` below frames to the same length; measure it
    // on a journal no fault touches, with the registry held.
    let guard = CHAOS.lock().unwrap_or_else(|e| e.into_inner());
    let probe = TmpDir::new("fsync-probe");
    let mut writer = JournalWriter::open(&probe, JournalConfig::default()).unwrap();
    writer.append(&record(0)).unwrap();
    drop(writer);
    let magic = SEGMENT_MAGIC.len() as u64;
    let frame = first_segment_len(&probe) - magic;

    // A budget one record fits in and a second overshoots: every
    // segment rotates after its second record.
    dnnspmv_chaos::configure_str(53, "feedback.journal.fsync=errx1").expect("schedule parses");
    let dir = TmpDir::new("fsync-append");
    let cfg = JournalConfig {
        max_segment_bytes: magic + frame + frame / 2,
        sync_each_append: true,
    };
    let mut writer = JournalWriter::open(&dir, cfg).unwrap();
    match writer.append(&record(0)) {
        Err(FeedbackError::Io(_)) => {}
        other => panic!("an injected fsync failure must be a typed Io error, got {other:?}"),
    }
    for seq in 1..4 {
        writer.append(&record(seq)).unwrap();
    }
    drop(writer);
    dnnspmv_chaos::deactivate();
    drop(guard);

    // The frame whose fsync failed was written, and it counts toward
    // the segment budget like any other: segment 0 holds records 0
    // and 1, not three records.
    assert_eq!(first_segment_len(&dir), magic + 2 * frame);
    let (records, report) = replay(&dir).unwrap();
    assert_eq!(
        records.iter().map(|r| r.seq).collect::<Vec<_>>(),
        vec![0, 1, 2, 3],
        "replay reads the record whose fsync failed, in order"
    );
    assert_eq!(report.corrupt_records, 0);
    assert_eq!(report.torn_tail_bytes, 0);
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
