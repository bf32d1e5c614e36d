//! Cross-crate integration tests: the full Figure 3 pipeline from
//! matrix generation through labelling, normalisation, training,
//! prediction, and format application.

use dnnspmv::core::{
    make_samples, DtSelector, FormatSelector, SelectionSource, SelectorConfig, SelectorError,
    SelectorService,
};
use dnnspmv::gen::{kfold, Dataset, DatasetSpec};
use dnnspmv::nn::transfer::Migration;
use dnnspmv::nn::{checkpoint_path, train_with_hooks, NnError, TrainConfig, TrainHooks};
use dnnspmv::platform::{label_dataset, label_dataset_noisy, PlatformModel};
use dnnspmv::repr::{ReprConfig, ReprKind};
use dnnspmv::sparse::{AnyMatrix, Scalar, SparseError, SparseFormat, Spmv};

fn small_config() -> SelectorConfig {
    SelectorConfig {
        repr_config: ReprConfig {
            image_size: 32,
            hist_rows: 32,
            hist_bins: 16,
        },
        cnn: dnnspmv::nn::CnnConfig {
            conv_channels: [4, 8, 8],
            hidden: 16,
            seed: 5,
        },
        train: TrainConfig {
            epochs: 8,
            batch_size: 16,
            lr: 2e-3,
            ..TrainConfig::default()
        },
        ..SelectorConfig::default()
    }
}

fn small_dataset(seed: u64) -> Dataset {
    Dataset::generate(&DatasetSpec {
        n_base: 140,
        n_augmented: 40,
        dim_min: 48,
        dim_max: 160,
        seed,
        ..DatasetSpec::default()
    })
}

#[test]
fn end_to_end_cpu_pipeline_beats_chance_out_of_sample() {
    let data = small_dataset(1);
    let intel = PlatformModel::intel_cpu();
    let labels = label_dataset(&data.matrices, &intel);
    let folds = kfold(data.matrices.len(), 4, 2);
    let (train_idx, test_idx) = &folds[0];
    let cfg = small_config();
    let samples = make_samples(&data.matrices, &labels, cfg.repr, &cfg.repr_config);
    let train: Vec<_> = train_idx.iter().map(|&i| samples[i].clone()).collect();
    let test: Vec<_> = test_idx.iter().map(|&i| samples[i].clone()).collect();
    let (sel, report) = FormatSelector::train_on_samples(&train, intel.formats().to_vec(), &cfg);
    assert!(!report.loss_history.is_empty());
    let acc = sel.accuracy(&test);
    // Majority class (CSR) is ~70%; the trained model must at least be
    // far above uniform chance on held-out data.
    assert!(acc > 0.6, "held-out accuracy {acc}");
}

#[test]
fn predictions_always_yield_runnable_spmv() {
    let data = small_dataset(3);
    let intel = PlatformModel::intel_cpu();
    let (sel, _) = FormatSelector::train_on_platform(&data.matrices, &intel, &small_config());
    for m in data.matrices.iter().take(20) {
        let stored = sel.prepare(m);
        let x: Vec<f32> = (0..m.ncols()).map(|i| (i % 5) as f32 - 2.0).collect();
        let got = stored.spmv_alloc(&x);
        let want = m.spmv_alloc(&x);
        for (a, b) in got.iter().zip(&want) {
            assert!(
                a.approx_eq(*b, 1e-3),
                "format {} disagrees with COO: {a} vs {b}",
                stored.format()
            );
        }
    }
}

#[test]
fn gpu_pipeline_covers_six_formats() {
    let data = small_dataset(5);
    let gpu = PlatformModel::nvidia_gpu();
    let labels = label_dataset_noisy(&data.matrices, &gpu, 0.06, 9);
    // The six-class problem trains and predicts within the GPU set.
    let (sel, _) = FormatSelector::train_with_labels(
        &data.matrices,
        &labels,
        gpu.formats().to_vec(),
        &small_config(),
    );
    assert_eq!(sel.formats.len(), 6);
    for m in data.matrices.iter().take(10) {
        assert!(gpu.formats().contains(&sel.predict(m)));
    }
}

#[test]
fn dt_and_cnn_solve_the_same_task() {
    let data = small_dataset(7);
    let intel = PlatformModel::intel_cpu();
    let labels = label_dataset(&data.matrices, &intel);
    let dt = DtSelector::train(&data.matrices, &labels, intel.formats().to_vec());
    let (cnn, _) = FormatSelector::train_with_labels(
        &data.matrices,
        &labels,
        intel.formats().to_vec(),
        &small_config(),
    );
    // Both in-sample accuracies should be well above the majority rate
    // on labels they trained on.
    let dt_acc = dt.accuracy(&data.matrices, &labels);
    assert!(dt_acc > 0.8, "DT in-sample {dt_acc}");
    let samples = make_samples(
        &data.matrices,
        &labels,
        cnn.config.repr,
        &cnn.config.repr_config,
    );
    let cnn_acc = cnn.accuracy(&samples);
    assert!(cnn_acc > 0.6, "CNN in-sample {cnn_acc}");
}

#[test]
fn migration_improves_over_unmigrated_source() {
    let data = small_dataset(11);
    let intel = PlatformModel::intel_cpu();
    let amd = PlatformModel::amd_cpu();
    let cfg = small_config();
    let intel_labels = label_dataset(&data.matrices, &intel);
    let amd_labels = label_dataset(&data.matrices, &amd);
    let samples_src = make_samples(&data.matrices, &intel_labels, cfg.repr, &cfg.repr_config);
    let samples_tgt = make_samples(&data.matrices, &amd_labels, cfg.repr, &cfg.repr_config);
    // Interleaved split: the dataset is ordered base-then-augmented, so
    // a prefix/suffix split would hold out *all* augmented matrices and
    // measure base->augmented distribution shift instead of migration.
    let held_out = |i: &usize| i.is_multiple_of(3);
    let train_src: Vec<_> = (0..samples_src.len())
        .filter(|i| !held_out(i))
        .map(|i| samples_src[i].clone())
        .collect();
    let train_tgt: Vec<_> = (0..samples_tgt.len())
        .filter(|i| !held_out(i))
        .map(|i| samples_tgt[i].clone())
        .collect();
    let test: Vec<_> = (0..samples_tgt.len())
        .filter(held_out)
        .map(|i| samples_tgt[i].clone())
        .collect();
    let (source, _) = FormatSelector::train_on_samples(&train_src, intel.formats().to_vec(), &cfg);
    let before = source.accuracy(&test);
    let mut migrate_cfg = cfg.train.clone();
    migrate_cfg.epochs = 16;
    let (migrated, _) = source.migrate(Migration::ContinuousEvolvement, &train_tgt, &migrate_cfg);
    let after = migrated.accuracy(&test);
    // Small sample sizes make this noisy; migration must not fall off a
    // cliff relative to the unmigrated source, and usually improves.
    assert!(
        after >= before - 0.08,
        "migration regressed: {before} -> {after}"
    );
}

#[test]
fn every_selected_format_is_convertible_or_has_fallback() {
    // Even adversarial matrices (massive anti-diagonal) must flow
    // through prepare() without panicking.
    let n = 9000;
    let t: Vec<_> = (0..n).map(|i| (i, n - 1 - i, 1.0f32)).collect();
    let awkward = dnnspmv::sparse::CooMatrix::from_triplets(n, n, &t).unwrap();
    let data = small_dataset(13);
    let intel = PlatformModel::intel_cpu();
    let (sel, _) = FormatSelector::train_on_platform(&data.matrices, &intel, &small_config());
    let stored = sel.prepare(&awkward);
    // DIA is infeasible here; whatever was chosen must reproduce COO.
    assert_ne!(stored.format(), SparseFormat::Dia);
    let x = vec![1.0f32; n];
    let y = stored.spmv_alloc(&x);
    assert_eq!(y.iter().filter(|&&v| v != 0.0).count(), n);
}

#[test]
fn representations_flow_into_training_for_all_kinds() {
    let data = small_dataset(17);
    let intel = PlatformModel::intel_cpu();
    let labels = label_dataset(&data.matrices, &intel);
    for kind in ReprKind::ALL {
        let mut cfg = small_config();
        cfg.repr = kind;
        cfg.train.epochs = 2;
        let (sel, _) = FormatSelector::train_with_labels(
            &data.matrices,
            &labels,
            intel.formats().to_vec(),
            &cfg,
        );
        // Prediction runs and produces a valid class.
        let p = sel.predict_proba(&data.matrices[0]);
        assert_eq!(p.len(), 4, "{kind:?}");
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }
}

#[test]
fn saved_selector_round_trips_and_corruption_is_a_typed_error() {
    let data = small_dataset(23);
    let intel = PlatformModel::intel_cpu();
    let (sel, _) = FormatSelector::train_on_platform(&data.matrices, &intel, &small_config());
    let path = std::env::temp_dir().join(format!("pipeline_sel_{}.json", std::process::id()));
    let path_s = path.to_string_lossy().into_owned();
    sel.save(&path_s).unwrap();

    // A clean reload predicts identically.
    let loaded = FormatSelector::load(&path_s).unwrap();
    for m in data.matrices.iter().take(6) {
        assert_eq!(loaded.predict(m), sel.predict(m));
    }

    // Truncation surfaces as a deserialisation error, not a panic.
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &text[..text.len() / 2]).unwrap();
    match FormatSelector::load(&path_s) {
        Err(SelectorError::Nn(NnError::Serde(_))) => {}
        other => panic!("truncated file: expected Serde error, got {other:?}"),
    }

    // A single flipped byte in the payload trips the checksum.
    std::fs::write(&path, text.replacen("formats", "f0rmats", 1)).unwrap();
    match FormatSelector::load(&path_s) {
        Err(SelectorError::Nn(NnError::ChecksumMismatch { .. })) => {}
        other => panic!("bit flip: expected ChecksumMismatch, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn manycore_pipeline_selects_the_new_kernels_end_to_end() {
    // The widened universe flows through every stage: the manycore
    // model labels with SELL-C-σ and merge-path CSR, the CNN trains a
    // 6-class head on those labels, and predictions stay inside the
    // manycore candidate set. A predicted format with a kernel runs
    // as predicted; merge-path CSR is a name the model prices, so it
    // refuses to convert and `prepare` walks down to a runnable one.
    let data = small_dataset(29);
    let manycore = PlatformModel::manycore_cpu();
    let labels = label_dataset(&data.matrices, &manycore);
    let label_formats: Vec<SparseFormat> = labels.iter().map(|&i| manycore.formats()[i]).collect();
    for f in [SparseFormat::Sell, SparseFormat::MergeCsr] {
        assert!(
            label_formats.contains(&f),
            "manycore labelling never chose {f} on a mixed dataset"
        );
    }
    let (sel, _) = FormatSelector::train_with_labels(
        &data.matrices,
        &labels,
        manycore.formats().to_vec(),
        &small_config(),
    );
    assert_eq!(sel.formats.len(), SparseFormat::MANYCORE_SET.len());
    let matches_oracle = |m: &dnnspmv::sparse::CooMatrix<f32>, any: &AnyMatrix<f32>| {
        let x: Vec<f32> = (0..m.ncols()).map(|i| (i % 5) as f32 - 2.0).collect();
        let got = any.spmv_alloc(&x);
        let want = m.spmv_alloc(&x);
        for (a, b) in got.iter().zip(&want) {
            assert!(a.approx_eq(*b, 1e-3), "format {}: {a} vs {b}", any.format());
        }
    };
    for m in data.matrices.iter().take(12) {
        let f = sel.predict(m);
        assert!(SparseFormat::MANYCORE_SET.contains(&f));
        let any = match AnyMatrix::convert(m, f) {
            Err(SparseError::NoKernel { format }) => {
                assert_eq!(
                    format,
                    SparseFormat::MergeCsr,
                    "only MCSR lacks a kernel here"
                );
                sel.prepare(m)
            }
            other => other.expect("manycore formats with a kernel always convert"),
        };
        matches_oracle(m, &any);
    }

    // The small head does not rank MCSR first on these matrices, so
    // swap two class names on a copy to force an MCSR prediction
    // through `prepare`.
    let m = &data.matrices[0];
    let mut forced = sel.clone();
    let top = sel.predict_label(m);
    let mcsr = SparseFormat::MergeCsr.label_in(&forced.formats).unwrap();
    forced.formats.swap(top, mcsr);
    assert_eq!(forced.predict(m), SparseFormat::MergeCsr);
    assert_eq!(
        AnyMatrix::convert(m, SparseFormat::MergeCsr),
        Err(SparseError::NoKernel {
            format: SparseFormat::MergeCsr
        })
    );
    matches_oracle(m, &forced.prepare(m));
}

#[test]
fn pre_widening_artefacts_are_rejected_with_a_typed_version_error() {
    // A selector saved before the format universe widened to 9 classes
    // has a 7-way head whose class indices would silently mislabel
    // under the new enum. The envelope's format_version must reject it
    // *as a version error* — not a checksum failure (the checksum only
    // covers the payload, which is untouched here) and not a panic.
    let data = small_dataset(31);
    let intel = PlatformModel::intel_cpu();
    let (sel, _) = FormatSelector::train_on_platform(&data.matrices, &intel, &small_config());
    let path = std::env::temp_dir().join(format!("pipeline_sel_v1_{}.json", std::process::id()));
    let path_s = path.to_string_lossy().into_owned();
    sel.save(&path_s).unwrap();

    let text = std::fs::read_to_string(&path).unwrap();
    assert!(
        text.contains("\"format_version\":2"),
        "current envelopes are v2"
    );
    std::fs::write(
        &path,
        text.replacen("\"format_version\":2", "\"format_version\":1", 1),
    )
    .unwrap();
    match FormatSelector::load(&path_s) {
        Err(SelectorError::Nn(NnError::FormatVersion { found, supported })) => {
            assert_eq!(found, 1);
            assert_eq!(supported, 2);
        }
        other => panic!("v1 artefact: expected FormatVersion error, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn training_resumes_after_a_simulated_crash() {
    let data = small_dataset(29);
    let intel = PlatformModel::intel_cpu();
    let labels = label_dataset(&data.matrices, &intel);
    let cfg = small_config();
    let samples = make_samples(&data.matrices, &labels, cfg.repr, &cfg.repr_config);
    let shape = samples[0].channels[0].shape();
    let build = || {
        dnnspmv::nn::build_cnn(
            cfg.merging,
            samples[0].channels.len(),
            (shape[0], shape[1]),
            intel.formats().len(),
            &cfg.cnn,
        )
    };
    let dir = std::env::temp_dir().join(format!("pipeline_ckpt_{}", std::process::id()));
    let train_cfg = TrainConfig {
        epochs: 4,
        checkpoint_dir: Some(dir.to_string_lossy().into_owned()),
        ..cfg.train.clone()
    };

    // The uninterrupted run is the ground truth.
    let mut full_net = build();
    let full =
        train_with_hooks(&mut full_net, &samples, &train_cfg, TrainHooks::default()).unwrap();

    // "Crash" after epoch 2, then resume from the checkpoint on disk.
    let mut killed = build();
    train_with_hooks(
        &mut killed,
        &samples,
        &train_cfg,
        TrainHooks {
            abort_after_epoch: Some(2),
            ..TrainHooks::default()
        },
    )
    .unwrap();
    let mut resumed_net = build();
    let resumed = train_with_hooks(
        &mut resumed_net,
        &samples,
        &TrainConfig {
            resume_from: Some(checkpoint_path(&dir).to_string_lossy().into_owned()),
            ..train_cfg.clone()
        },
        TrainHooks::default(),
    )
    .unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(resumed.recovery.resumed_at_epoch, Some(2));
    assert_eq!(full.loss_history.len(), resumed.loss_history.len());
    for (a, b) in full.loss_history.iter().zip(&resumed.loss_history) {
        assert!(
            (a - b).abs() <= 1e-4,
            "loss diverged after resume: {a} vs {b}"
        );
    }
    assert_eq!(full_net, resumed_net, "resumed weights differ");
}

#[test]
fn selector_service_degrades_cnn_to_tree_to_default() {
    let data = small_dataset(31);
    let intel = PlatformModel::intel_cpu();
    let labels = label_dataset(&data.matrices, &intel);
    let (cnn, _) = FormatSelector::train_with_labels(
        &data.matrices,
        &labels,
        intel.formats().to_vec(),
        &small_config(),
    );
    let dt = DtSelector::train(&data.matrices, &labels, intel.formats().to_vec());

    // Rung 1: a healthy CNN answers a matrix the tree does not answer
    // first (an impure leaf, or a feature pass dearer than a forward).
    let svc = SelectorService::new(Some(cnn.clone()), Some(dt.clone())).unwrap();
    let cnn_bound = data
        .matrices
        .iter()
        .find(|m| svc.tree_first(*m).is_none())
        .expect("a CNN-bound matrix");
    assert_eq!(svc.select(cnn_bound).source, SelectionSource::Cnn);
    assert_eq!(svc.report().cnn_ok, 1);

    // Rung 2: a CNN with finite but absurd weights passes load-time
    // validation, overflows at inference, and degrades to the tree.
    let mut bad = cnn;
    for layer in &mut bad.net.head.layers {
        if let dnnspmv::nn::Layer::Dense(d) = layer {
            for v in d.weight.data_mut() {
                *v = 1e30;
            }
        }
    }
    let svc = SelectorService::new(Some(bad), Some(dt)).unwrap();
    let sel = svc.select(cnn_bound);
    assert_eq!(sel.source, SelectionSource::Tree);
    assert!(intel.formats().contains(&sel.format));
    let r = svc.report();
    assert_eq!(r.cnn_nonfinite, 1);
    assert_eq!(r.tree_ok, 1);

    // Rung 3: with no predictors at all, the static default holds.
    let svc = SelectorService::new(None, None).unwrap();
    let sel = svc.select(&data.matrices[0]);
    assert_eq!(sel.source, SelectionSource::Default);
    assert_eq!(sel.format, SparseFormat::Csr);
    assert_eq!(svc.report().default_used, 1);
}

#[test]
fn selector_server_serves_the_ladder_with_exact_accounting() {
    use dnnspmv::core::{SelectorServer, ServeError, ServerConfig};
    let data = small_dataset(37);
    let intel = PlatformModel::intel_cpu();
    let labels = label_dataset(&data.matrices, &intel);
    let dt = DtSelector::train(&data.matrices, &labels, intel.formats().to_vec());
    let svc = SelectorService::new(None, Some(dt)).unwrap();
    let server: SelectorServer<f32> = SelectorServer::new(svc, ServerConfig::default());
    for m in data.matrices.iter().take(8) {
        let sel = server.select(m).unwrap();
        assert_eq!(sel.source, SelectionSource::Tree);
        assert!(intel.formats().contains(&sel.format));
    }
    server.shutdown();
    assert!(matches!(
        server.select(&data.matrices[0]),
        Err(ServeError::ShuttingDown)
    ));
    let r = server.report();
    assert_eq!(r.submitted, 9);
    assert_eq!(r.served_tree, 8);
    assert_eq!(r.rejected_shutdown, 1);
    assert_eq!(r.accounted(), r.submitted);
}

#[test]
fn any_matrix_conversion_round_trips_on_generated_data() {
    let data = small_dataset(19);
    for m in data.matrices.iter().take(12) {
        for f in SparseFormat::ALL {
            match AnyMatrix::convert(m, f) {
                Ok(stored) => assert_eq!(stored.to_coo().unwrap(), *m, "format {f}"),
                Err(SparseError::NoKernel { format }) => {
                    // The three names the cost models price have no kernel.
                    assert_eq!(format, f);
                    assert!(matches!(
                        f,
                        SparseFormat::Bsr | SparseFormat::Csr5 | SparseFormat::MergeCsr
                    ));
                }
                Err(_) => {
                    // Only the padded formats may refuse.
                    assert!(matches!(f, SparseFormat::Dia | SparseFormat::Ell));
                }
            }
        }
    }
}
