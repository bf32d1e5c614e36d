//! Criterion benches for whole-network CNN work: single-sample vs
//! batched prediction, and the batched training step. Per-layer kernel
//! throughput (`nn.gemm_gflops.*`, `nn.im2col_us`) and the training
//! step (`nn.train_step_ms`) are timed by the repository benchmark in
//! `perfbench/`. Run with `CRITERION_FULL=1 cargo bench -p
//! dnnspmv-bench --bench nn_kernels` when citing numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dnnspmv_nn::{
    build_cnn, train_step, BatchTrainState, CnnConfig, Merging, Optimizer, OptimizerKind, Sample,
    Tensor,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;

fn rand_tensor(shape: &[usize], rng: &mut StdRng) -> Tensor {
    let vol: usize = shape.iter().product();
    Tensor::from_vec(shape, (0..vol).map(|_| rng.random::<f32>() - 0.5).collect())
}

/// Whole-network inference: N sequential `predict` calls vs one
/// `predict_batch` over the same N samples (the acceptance target is
/// batched <= N singles from N = 8 up).
fn bench_predict_batched(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let net = build_cnn(
        Merging::Late,
        2,
        (32, 32),
        4,
        &CnnConfig {
            conv_channels: [4, 8, 8],
            hidden: 16,
            seed: 7,
        },
    );
    let samples: Vec<Vec<Tensor>> = (0..32)
        .map(|_| (0..2).map(|_| rand_tensor(&[32, 32], &mut rng)).collect())
        .collect();
    let mut group = c.benchmark_group("cnn_predict");
    for &n in &[8usize, 32] {
        group.bench_with_input(BenchmarkId::new("single_x", n), &n, |b, &n| {
            b.iter(|| {
                for s in &samples[..n] {
                    black_box(net.predict(black_box(s)));
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("batched", n), &n, |b, &n| {
            let refs: Vec<&[Tensor]> = samples[..n].iter().map(|s| s.as_slice()).collect();
            b.iter(|| black_box(net.predict_batch(black_box(&refs))))
        });
    }
    group.finish();
}

/// Whole batched training step: one forward/backward per batch, single
/// optimiser update.
fn bench_train_step(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let net0 = build_cnn(
        Merging::Late,
        2,
        (32, 32),
        4,
        &CnnConfig {
            conv_channels: [4, 8, 8],
            hidden: 16,
            seed: 7,
        },
    );
    let samples: Vec<Sample> = (0..32)
        .map(|i| Sample {
            channels: (0..2).map(|_| rand_tensor(&[32, 32], &mut rng)).collect(),
            label: i % 4,
        })
        .collect();
    let mut group = c.benchmark_group("cnn_train_step");
    for &n in &[8usize, 32] {
        let batch: Vec<usize> = (0..n).collect();
        group.bench_with_input(BenchmarkId::new("batched", n), &n, |b, _| {
            let mut net = net0.clone();
            let mut opt = Optimizer::new(&mut net, OptimizerKind::adam(), 1e-3, false);
            let mut state = BatchTrainState::new(&net);
            b.iter(|| black_box(train_step(&mut net, &samples, &batch, &mut opt, &mut state)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_predict_batched, bench_train_step
}
criterion_main!(benches);
