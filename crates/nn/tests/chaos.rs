//! Failpoint-driven storage-fault tests for artefact envelopes and
//! checkpointing. Compiled only with the `chaos` feature; each test
//! arms the process-global registry with a deterministic schedule, so
//! they serialise on a shared mutex.
#![cfg(feature = "chaos")]

use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use dnnspmv_nn::error::NnError;
use dnnspmv_nn::network::Sample;
use dnnspmv_nn::serialize::{model_fingerprint, read_envelope_path, write_envelope_atomic};
use dnnspmv_nn::structures::{build_cnn, CnnConfig, Merging};
use dnnspmv_nn::tensor::Tensor;
use dnnspmv_nn::train::{train_with_hooks, TrainConfig, TrainHooks};
use dnnspmv_nn::{Cnn, GemmThreading};

static CHAOS: Mutex<()> = Mutex::new(());

/// Kind tag the envelope tests write and read under.
const KIND_TEST: &str = "test-network";

/// Locks the registry for one test and arms it with `schedule`.
/// The guard must be held until after `dnnspmv_chaos::deactivate()`.
fn armed(seed: u64, schedule: &str) -> MutexGuard<'static, ()> {
    let guard = CHAOS.lock().unwrap_or_else(|e| e.into_inner());
    dnnspmv_chaos::configure_str(seed, schedule).expect("schedule parses");
    guard
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

fn toy_samples(n: usize) -> Vec<Sample> {
    (0..n)
        .map(|i| {
            let label = i % 2;
            let mut img = vec![0.0f32; 16 * 16];
            let off = if label == 0 { 0 } else { 8 };
            for y in 0..8 {
                for x in 0..8 {
                    img[(y + off) * 16 + (x + off)] = 1.0;
                }
            }
            Sample {
                channels: vec![Tensor::from_vec(&[16, 16], img)],
                label,
            }
        })
        .collect()
}

/// A directory of this process, removed when dropped (a failed
/// assertion included), so a run leaves nothing under the temp dir.
struct TmpDir(PathBuf);

impl TmpDir {
    fn new(tag: &str) -> Self {
        let d = std::env::temp_dir().join(format!("dnnspmv_chaos_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
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

fn save_net(net: &Cnn, path: &Path) -> Result<(), NnError> {
    write_envelope_atomic(KIND_TEST, model_fingerprint(net), net, path)
}

/// Files currently present in `dir` (names only, sorted).
fn listing(dir: &Path) -> Vec<String> {
    let mut v: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    v.sort();
    v
}

#[test]
fn short_write_is_storage_full_and_leaves_no_artefact() {
    let guard = armed(11, "nn.envelope.write=err");
    let dir = TmpDir::new("short_write");
    let path = dir.join("model.json");
    let net = toy_net(3);

    let err = save_net(&net, &path).unwrap_err();
    assert!(
        matches!(err, NnError::StorageFull(_)),
        "ENOSPC mid-write must surface as the typed StorageFull class, got {err:?}"
    );
    // The atomic protocol: the truncated file only ever existed under
    // the temp name, and the failure path removed even that.
    assert!(!path.exists(), "no final artefact after a failed write");
    assert_eq!(listing(&dir), Vec::<String>::new(), "no stray temp file");

    // Disarm and retry: the same path now round-trips.
    dnnspmv_chaos::deactivate();
    drop(guard);
    save_net(&net, &path).unwrap();
    let (loaded, _): (Cnn, u64) = read_envelope_path(KIND_TEST, &path).unwrap();
    assert_eq!(loaded, net);
}

#[test]
fn fsync_and_rename_failures_leave_old_artefact_intact() {
    let dir = TmpDir::new("fsync_rename");
    let path = dir.join("model.json");
    let net = toy_net(5);
    // Establish a good artefact first, then fail each late stage once.
    save_net(&net, &path).unwrap();
    let good = std::fs::read(&path).unwrap();

    for schedule in ["nn.envelope.fsync=errx1", "nn.envelope.rename=errx1"] {
        let guard = armed(17, schedule);
        let err = save_net(&net, &path).unwrap_err();
        assert!(
            matches!(err, NnError::Io(_)),
            "{schedule}: late-stage failures are plain Io, got {err:?}"
        );
        dnnspmv_chaos::deactivate();
        drop(guard);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            good,
            "{schedule}: previous artefact untouched by the failed rewrite"
        );
        assert_eq!(
            listing(&dir),
            vec!["model.json"],
            "{schedule}: temp removed"
        );
    }
}

#[test]
fn checkpoint_write_failure_does_not_abort_training() {
    let guard = armed(23, "nn.train.checkpoint=err");
    let dir = TmpDir::new("ck_fail");
    let failures = dnnspmv_obs::global().counter("train_checkpoint_failures_total", &[]);
    let before = failures.get();

    let mut net = toy_net(7);
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 8,
        lr: 2e-3,
        seed: 9,
        checkpoint_dir: Some(dir.to_string_lossy().into_owned()),
        ..TrainConfig::default()
    };
    let report = train_with_hooks(&mut net, &toy_samples(16), &cfg, TrainHooks::default())
        .expect("a full checkpoint device must not abort training");
    assert_eq!(report.epoch_train_acc.len(), 2, "both epochs completed");
    assert!(
        failures.get() >= before + 2,
        "every failed checkpoint write is counted"
    );
    assert_eq!(
        listing(&dir),
        Vec::<String>::new(),
        "no checkpoint (or temp) lands when every write fails"
    );
    dnnspmv_chaos::deactivate();
    drop(guard);
}

#[test]
fn checkpoint_failure_keeps_last_good_checkpoint() {
    // First epoch checkpoints cleanly; the second write fails. The
    // epoch-1 checkpoint must survive under the final name.
    let guard = armed(29, "nn.train.checkpoint=err@after(1)");
    let dir = TmpDir::new("ck_keep");
    let mut net = toy_net(13);
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 8,
        lr: 2e-3,
        seed: 21,
        checkpoint_dir: Some(dir.to_string_lossy().into_owned()),
        ..TrainConfig::default()
    };
    train_with_hooks(&mut net, &toy_samples(16), &cfg, TrainHooks::default()).unwrap();
    dnnspmv_chaos::deactivate();
    drop(guard);

    let ck_file = dnnspmv_nn::checkpoint_path(&*dir);
    let (ck, _) = dnnspmv_nn::load_checkpoint(&ck_file).expect("last good checkpoint readable");
    assert_eq!(ck.epoch, 1, "epoch-1 checkpoint survived");
}

/// Threaded-GEMM smoke: the `nn.train.step` failpoint still fires and
/// the rollback machinery still owns recovery when every GEMM in the
/// step runs inside a rayon scope (TrainConfig `Fixed(4)`). Pins that
/// the chaos registry, the step guard and the threading policy — all
/// thread-local or process-global state — compose.
#[test]
fn train_step_failpoint_fires_under_threaded_gemm() {
    let guard = armed(37, "nn.train.step=err@after(4)x2");
    let mut net = toy_net(23);
    let cfg = TrainConfig {
        epochs: 4,
        batch_size: 8,
        lr: 2e-3,
        seed: 41,
        gemm_threading: GemmThreading::Fixed(4),
        ..TrainConfig::default()
    };
    let report = train_with_hooks(&mut net, &toy_samples(16), &cfg, TrainHooks::default())
        .expect("an injected divergent step must not abort training");
    assert!(
        report.recovery.divergent_steps >= 1,
        "failpoint never presented as a divergent step: {:?}",
        report.recovery
    );
    assert!(
        report.recovery.rollbacks >= 1,
        "divergence under threading must still trigger rollback: {:?}",
        report.recovery
    );
    assert!(
        report.loss_history.iter().all(|l| l.is_finite()),
        "excised history must read as a clean run"
    );
    dnnspmv_chaos::deactivate();
    drop(guard);
}

#[test]
fn resume_read_failure_is_typed_not_a_panic() {
    // Write a real checkpoint, then inject a read failure on resume.
    let dir = TmpDir::new("resume_fail");
    let mut net = toy_net(19);
    let cfg = TrainConfig {
        epochs: 1,
        batch_size: 8,
        lr: 2e-3,
        seed: 33,
        checkpoint_dir: Some(dir.to_string_lossy().into_owned()),
        ..TrainConfig::default()
    };
    let samples = toy_samples(16);
    train_with_hooks(&mut net, &samples, &cfg, TrainHooks::default()).unwrap();
    let ck_file = dnnspmv_nn::checkpoint_path(&*dir);
    assert!(ck_file.exists());

    let guard = armed(31, "nn.train.resume=err");
    let resume_cfg = TrainConfig {
        resume_from: Some(ck_file.to_string_lossy().into_owned()),
        checkpoint_dir: None,
        ..cfg
    };
    let mut net2 = toy_net(19);
    let err = train_with_hooks(&mut net2, &samples, &resume_cfg, TrainHooks::default())
        .expect_err("injected resume failure must surface");
    assert!(
        matches!(err, NnError::Io(_)),
        "resume read failure is a typed Io error, got {err:?}"
    );
    dnnspmv_chaos::deactivate();
    drop(guard);
}
