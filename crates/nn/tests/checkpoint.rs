//! Crash-safety tests: checkpoint round trips and kill-and-resume
//! equivalence with an uninterrupted run.

use dnnspmv_nn::checkpoint::{
    checkpoint_path, load_checkpoint, save_checkpoint, train_fingerprint, TrainCheckpoint,
    KIND_CHECKPOINT,
};
use dnnspmv_nn::error::NnError;
use dnnspmv_nn::network::Sample;
use dnnspmv_nn::serialize::{fnv1a64, FORMAT_VERSION};
use dnnspmv_nn::structures::{build_cnn, CnnConfig, Merging};
use dnnspmv_nn::tensor::Tensor;
use dnnspmv_nn::train::{train_with_hooks, TrainConfig, TrainHooks};
use dnnspmv_nn::{Cnn, GemmThreading, Optimizer, OptimizerKind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

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

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dnnspmv_ck_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn kill_and_resume_matches_uninterrupted_run() {
    let samples = toy_samples(24, 11);
    let dir = temp_dir("resume");
    let base = TrainConfig {
        epochs: 6,
        batch_size: 8,
        lr: 2e-3,
        seed: 5,
        ..TrainConfig::default()
    };

    // Uninterrupted reference run.
    let mut full_net = toy_net(9);
    let full = train_with_hooks(&mut full_net, &samples, &base, TrainHooks::default()).unwrap();

    // Same run, killed after epoch 2 (checkpoint already on disk)...
    let mut killed_net = toy_net(9);
    let cfg_kill = TrainConfig {
        checkpoint_dir: Some(dir.to_string_lossy().into_owned()),
        ..base.clone()
    };
    let partial = train_with_hooks(
        &mut killed_net,
        &samples,
        &cfg_kill,
        TrainHooks {
            grad_hook: None,
            abort_after_epoch: Some(2),
        },
    )
    .unwrap();
    assert_eq!(partial.epoch_train_acc.len(), 2, "aborted after 2 epochs");

    // ...then resumed in a fresh process image (fresh net, fresh state).
    let mut resumed_net = toy_net(9);
    let cfg_resume = TrainConfig {
        resume_from: Some(checkpoint_path(&dir).to_string_lossy().into_owned()),
        ..base.clone()
    };
    let resumed = train_with_hooks(
        &mut resumed_net,
        &samples,
        &cfg_resume,
        TrainHooks::default(),
    )
    .unwrap();

    assert_eq!(resumed.recovery.resumed_at_epoch, Some(2));
    assert_eq!(resumed.loss_history.len(), full.loss_history.len());
    for (i, (r, f)) in resumed
        .loss_history
        .iter()
        .zip(&full.loss_history)
        .enumerate()
    {
        assert!(
            (r - f).abs() <= 1e-4,
            "step {i}: resumed loss {r} vs uninterrupted {f}"
        );
    }
    assert_eq!(resumed.epoch_train_acc, full.epoch_train_acc);
    // The resumed network is the uninterrupted network, bit for bit:
    // optimiser state and shuffle order both survived the kill.
    assert_eq!(resumed_net, full_net);

    std::fs::remove_dir_all(&dir).ok();
}

/// The PR 3 crash-safety guarantee re-pinned under the threaded GEMM
/// path: at 4 threads the kill-and-resume run still reproduces the
/// uninterrupted run *bit for bit*, and a run resumed at a different
/// thread count matches too — the threading policy partitions rows
/// without changing any element's accumulation order, and it is
/// deliberately excluded from the checkpoint fingerprint.
#[test]
fn kill_and_resume_is_bit_identical_under_threaded_gemm() {
    let samples = toy_samples(24, 11);
    let dir = temp_dir("resume_threaded");
    let base = TrainConfig {
        epochs: 6,
        batch_size: 8,
        lr: 2e-3,
        seed: 5,
        gemm_threading: GemmThreading::Fixed(4),
        ..TrainConfig::default()
    };

    let mut full_net = toy_net(9);
    let full = train_with_hooks(&mut full_net, &samples, &base, TrainHooks::default()).unwrap();

    let mut killed_net = toy_net(9);
    let cfg_kill = TrainConfig {
        checkpoint_dir: Some(dir.to_string_lossy().into_owned()),
        ..base.clone()
    };
    train_with_hooks(
        &mut killed_net,
        &samples,
        &cfg_kill,
        TrainHooks {
            grad_hook: None,
            abort_after_epoch: Some(3),
        },
    )
    .unwrap();

    // Resume at a *different* thread count: still bit-identical.
    let mut resumed_net = toy_net(9);
    let cfg_resume = TrainConfig {
        resume_from: Some(checkpoint_path(&dir).to_string_lossy().into_owned()),
        gemm_threading: GemmThreading::Fixed(2),
        ..base.clone()
    };
    let resumed = train_with_hooks(
        &mut resumed_net,
        &samples,
        &cfg_resume,
        TrainHooks::default(),
    )
    .unwrap();

    assert_eq!(resumed.recovery.resumed_at_epoch, Some(3));
    assert_eq!(resumed.loss_history.len(), full.loss_history.len());
    for (i, (r, f)) in resumed
        .loss_history
        .iter()
        .zip(&full.loss_history)
        .enumerate()
    {
        assert_eq!(
            r.to_bits(),
            f.to_bits(),
            "step {i}: resumed loss {r} != uninterrupted {f} (threaded path)"
        );
    }
    assert_eq!(resumed_net, full_net, "resumed network must match bitwise");

    // And the whole threaded run equals a serial run of the same seed.
    let mut serial_net = toy_net(9);
    let serial_cfg = TrainConfig {
        gemm_threading: GemmThreading::Serial,
        ..base.clone()
    };
    let serial = train_with_hooks(
        &mut serial_net,
        &samples,
        &serial_cfg,
        TrainHooks::default(),
    )
    .unwrap();
    assert_eq!(serial_net, full_net, "thread count changed training bits");
    for (i, (s, f)) in serial
        .loss_history
        .iter()
        .zip(&full.loss_history)
        .enumerate()
    {
        assert_eq!(
            s.to_bits(),
            f.to_bits(),
            "loss step {i} differs serial vs 4t"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_rejects_mismatched_run_configuration() {
    let samples = toy_samples(16, 3);
    let dir = temp_dir("mismatch");
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 8,
        seed: 21,
        checkpoint_dir: Some(dir.to_string_lossy().into_owned()),
        ..TrainConfig::default()
    };
    let mut net = toy_net(1);
    train_with_hooks(&mut net, &samples, &cfg, TrainHooks::default()).unwrap();

    let resume_path = checkpoint_path(&dir).to_string_lossy().into_owned();
    // Different shuffle seed → different batch sequence → refuse.
    let bad = TrainConfig {
        seed: 22,
        checkpoint_dir: None,
        resume_from: Some(resume_path.clone()),
        ..cfg.clone()
    };
    let mut fresh = toy_net(1);
    let err = train_with_hooks(&mut fresh, &samples, &bad, TrainHooks::default()).unwrap_err();
    assert!(matches!(err, NnError::ConfigMismatch(_)), "{err}");

    // Different dataset size → refuse.
    let bad_data = TrainConfig {
        checkpoint_dir: None,
        resume_from: Some(resume_path),
        ..cfg.clone()
    };
    let mut fresh = toy_net(1);
    let err = train_with_hooks(
        &mut fresh,
        &toy_samples(12, 3),
        &bad_data,
        TrainHooks::default(),
    )
    .unwrap_err();
    assert!(matches!(err, NnError::ConfigMismatch(_)), "{err}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_checkpoint_file_is_a_typed_error() {
    let samples = toy_samples(16, 3);
    let dir = temp_dir("corrupt");
    let cfg = TrainConfig {
        epochs: 1,
        batch_size: 8,
        checkpoint_dir: Some(dir.to_string_lossy().into_owned()),
        ..TrainConfig::default()
    };
    let mut net = toy_net(1);
    train_with_hooks(&mut net, &samples, &cfg, TrainHooks::default()).unwrap();

    let path = checkpoint_path(&dir);
    let text = std::fs::read_to_string(&path).unwrap();
    // Truncate the file mid-JSON.
    std::fs::write(&path, &text[..text.len() / 2]).unwrap();
    let err = load_checkpoint(&path).unwrap_err();
    assert!(matches!(err, NnError::Serde(_)), "{err}");

    // Restore and flip payload bytes: checksum must catch it.
    let pos = text.find("loss_history").unwrap();
    let mangled = text.replacen("loss_history", "loss_hist0ry", 1);
    assert_ne!(pos, 0);
    std::fs::write(&path, mangled).unwrap();
    let err = load_checkpoint(&path).unwrap_err();
    assert!(matches!(err, NnError::ChecksumMismatch { .. }), "{err}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_with_retired_recovery_field_still_loads() {
    // Checkpoints written before gradient clipping was retired carry
    // its step counter in the report's recovery stats. Payload fields
    // are looked up by name and unknown keys are ignored, so such a
    // file loads under the same format version and resumes.
    let samples = toy_samples(16, 3);
    let dir = temp_dir("retired_field");
    let cfg = TrainConfig {
        epochs: 1,
        batch_size: 8,
        checkpoint_dir: Some(dir.to_string_lossy().into_owned()),
        ..TrainConfig::default()
    };
    let mut net = toy_net(1);
    train_with_hooks(&mut net, &samples, &cfg, TrainHooks::default()).unwrap();
    let path = checkpoint_path(&dir);
    let (ck, fingerprint) = load_checkpoint(&path).unwrap();

    let payload = serde_json::to_string(&ck).unwrap().replacen(
        r#""recovery":{"#,
        r#""recovery":{"clipped_steps":0,"#,
        1,
    );
    assert!(payload.contains("clipped_steps"));
    let envelope = format!(
        r#"{{"magic":"dnnspmv","format_version":{FORMAT_VERSION},"kind":"{KIND_CHECKPOINT}","fingerprint":{fingerprint},"checksum":{},"payload":{}}}"#,
        fnv1a64(payload.as_bytes()),
        serde_json::to_string(&payload).unwrap(),
    );
    std::fs::write(&path, envelope).unwrap();
    let (back, stored) = load_checkpoint(&path).unwrap();
    assert_eq!(stored, fingerprint);
    assert_eq!(back, ck);

    let resume = TrainConfig {
        epochs: 2,
        checkpoint_dir: None,
        resume_from: Some(path.to_string_lossy().into_owned()),
        ..cfg
    };
    let mut resumed_net = toy_net(1);
    let report =
        train_with_hooks(&mut resumed_net, &samples, &resume, TrainHooks::default()).unwrap();
    assert_eq!(report.recovery.resumed_at_epoch, Some(1));
    assert_eq!(report.epoch_train_acc.len(), 2);

    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Save → load round trip is exact for arbitrary mid-training
    /// states: epoch counters, optimiser moments, loss history and
    /// wall-clock accumulators all survive the envelope bit-for-bit.
    #[test]
    fn checkpoint_round_trip_is_exact(
        epoch in 1usize..5,
        steps in 1usize..40,
        net_seed in 0u64..1000,
        lr_milli in 1u32..50,
    ) {
        let mut net = toy_net(net_seed);
        let opt = Optimizer::new(&mut net, OptimizerKind::adam(), lr_milli as f32 * 1e-3, false);
        let mut rng = StdRng::seed_from_u64(net_seed ^ 0x5eed);
        let report = dnnspmv_nn::TrainReport {
            loss_history: (0..steps).map(|_| rng.random::<f32>()).collect(),
            epoch_train_acc: (0..epoch).map(|_| rng.random::<f64>()).collect(),
            epoch_samples_per_sec: (0..epoch).map(|_| 1.0 + rng.random::<f64>()).collect(),
            step_time: Default::default(),
            recovery: Default::default(),
        };
        let ck = TrainCheckpoint {
            epoch,
            step_counter: steps as u64,
            samples_len: 24,
            net: net.clone(),
            opt,
            report,
            time_steps: steps,
            total_s: 0.25 * steps as f64,
            min_s: 1e-3,
            max_s: 0.5,
        };
        let cfg = TrainConfig { seed: net_seed, ..TrainConfig::default() };
        let fp = train_fingerprint(&cfg, &net, 24);
        let dir = temp_dir("prop");
        let path = dir.join(format!("ck_{net_seed}_{epoch}_{steps}.json"));
        save_checkpoint(&ck, fp, &path).unwrap();
        let (back, stored_fp) = load_checkpoint(&path).unwrap();
        prop_assert_eq!(stored_fp, fp);
        prop_assert_eq!(back, ck);
        std::fs::remove_dir_all(&dir).ok();
    }
}
