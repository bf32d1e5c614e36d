//! Criterion benches for the §7.6 overhead story: representation
//! extraction, CNN inference, and DT feature extraction + prediction,
//! each relative to one CSR SpMV iteration (benched alongside), a
//! small matrix's select through the cost-ordered cascade, and the
//! decision-cache key a repeated matrix pays instead of all of them.
//!
//! `dt_features` per unit of `nnz + nrows + ncols` against
//! `cnn_inference` per multiply-accumulate is the ratio behind
//! `TREE_UNIT_MACS` (DESIGN §4.4).

use criterion::{criterion_group, criterion_main, Criterion};
use dnnspmv_core::{
    matrix_fingerprint, samples::make_channels, DtSelector, FormatSelector, SelectorConfig,
    SelectorService,
};
use dnnspmv_gen::{generate, Dataset, DatasetSpec, MatrixClass};
use dnnspmv_nn::TrainConfig;
use dnnspmv_platform::{label_dataset, PlatformModel};
use dnnspmv_repr::{MatrixRepr, ReprConfig, ReprKind};
use dnnspmv_sparse::{CsrMatrix, Spmv};
use dnnspmv_tree::features;
use std::hint::black_box;

fn bench_prediction_overhead(c: &mut Criterion) {
    let matrix = generate(MatrixClass::Random, 1024, 3);
    let repr_config = ReprConfig {
        image_size: 32,
        hist_rows: 32,
        hist_bins: 16,
    };

    // A minimally-trained selector: inference cost only depends on
    // structure.
    let data = Dataset::generate(&DatasetSpec {
        n_base: 40,
        n_augmented: 0,
        dim_min: 48,
        dim_max: 96,
        ..DatasetSpec::default()
    });
    let intel = PlatformModel::intel_cpu();
    let labels = label_dataset(&data.matrices, &intel);
    let cfg = SelectorConfig {
        repr_config,
        train: TrainConfig {
            epochs: 1,
            ..TrainConfig::default()
        },
        ..SelectorConfig::default()
    };
    let (cnn, _) =
        FormatSelector::train_with_labels(&data.matrices, &labels, intel.formats().to_vec(), &cfg);
    let dt = DtSelector::train(&data.matrices, &labels, intel.formats().to_vec());

    let csr = CsrMatrix::from_coo(&matrix);
    let x = vec![1.0f32; matrix.ncols()];
    let mut y = vec![0.0f32; matrix.nrows()];
    let channels = make_channels(&matrix, ReprKind::Histogram, &repr_config);

    let mut group = c.benchmark_group("overhead_1024");
    group.bench_function("csr_spmv_one_iteration", |b| {
        b.iter(|| csr.spmv(black_box(&x), black_box(&mut y)))
    });
    group.bench_function("histogram_extraction", |b| {
        b.iter(|| {
            black_box(MatrixRepr::extract(
                black_box(&matrix),
                ReprKind::Histogram,
                &repr_config,
            ))
        })
    });
    // The same extraction where it is an O(nnz) stream from memory and
    // not a few microseconds of set-up: a regression in the sweep shows
    // here, not on the 1024-row matrix.
    let large = generate(MatrixClass::Stencil, 250_000, 3);
    assert!(large.nnz() >= 1_000_000, "{} nonzeros", large.nnz());
    group.bench_function("histogram_extraction_1m_nnz", |b| {
        b.iter(|| {
            black_box(MatrixRepr::extract(
                black_box(&large),
                ReprKind::Histogram,
                &repr_config,
            ))
        })
    });
    group.bench_function("cnn_inference", |b| {
        b.iter(|| black_box(cnn.net.forward(black_box(&channels))))
    });
    // Batched inference over 32 matrices: per-matrix overhead is this
    // time divided by 32 (compare against `cnn_inference` to see the
    // batching amortisation).
    let batch: Vec<&[dnnspmv_nn::Tensor]> = (0..32).map(|_| channels.as_slice()).collect();
    group.bench_function("cnn_inference_batched_32", |b| {
        b.iter(|| black_box(cnn.net.forward_batch(black_box(&batch))))
    });
    group.bench_function("dt_features", |b| {
        b.iter(|| black_box(features(black_box(&matrix))))
    });
    group.bench_function("dt_end_to_end_predict", |b| {
        b.iter(|| black_box(dt.predict_label(black_box(&matrix))))
    });
    // A training-size matrix the tree answers first from a pure leaf:
    // the whole service select, no CNN forward.
    let service = SelectorService::new(Some(cnn.clone()), Some(dt.clone()))
        .expect("trained predictors validate");
    let small = data
        .matrices
        .iter()
        .find(|m| service.tree_first(*m).is_some())
        .expect("a matrix the tree answers first");
    group.bench_function("service_select_small", |b| {
        b.iter(|| black_box(service.select(black_box(small))))
    });
    group.finish();
}

/// The decision-cache key on a matrix of `service_repeat`'s 60 k
/// nonzeros, warm: what a cache hit costs before its lookup.
fn bench_fingerprint(c: &mut Criterion) {
    let preview = generate(MatrixClass::Random, 4096, 3);
    let matrix = generate(MatrixClass::Random, 60_000 * 4096 / preview.nnz(), 3);
    assert!(
        (50_000..70_000).contains(&matrix.nnz()),
        "{} nonzeros",
        matrix.nnz()
    );
    let mut group = c.benchmark_group("decision_cache");
    group.bench_function("fingerprint_60k", |b| {
        b.iter(|| black_box(matrix_fingerprint(black_box(&matrix))))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_prediction_overhead, bench_fingerprint
}
criterion_main!(benches);
