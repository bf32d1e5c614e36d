//! Criterion benches for whole-network CNN work: the batch-of-one
//! forward a server worker runs, single-sample vs batched prediction,
//! and the batched training step. Per-layer kernel throughput
//! (`nn.gemm_gflops.*`, `nn.im2col_us`) and the training step
//! (`nn.train_step_ms`) are timed by the repository benchmark in
//! `perfbench/`. Run with `CRITERION_FULL=1 cargo bench -p
//! dnnspmv-bench --bench nn_kernels` when citing numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dnnspmv_nn::gemm::{sgemm, Trans};
use dnnspmv_nn::{
    build_cnn, train_step, with_gemm_threading, BatchTrainState, CnnConfig, GemmThreading, Merging,
    Optimizer, OptimizerKind, Sample, Tensor,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;

fn rand_tensor(shape: &[usize], rng: &mut StdRng) -> Tensor {
    let vol: usize = shape.iter().product();
    Tensor::from_vec(shape, (0..vol).map(|_| rng.random::<f32>() - 0.5).collect())
}

/// The batch-of-one forward on both models perfbench serves (32x32
/// inputs with conv 8-16-32, 64x32 with conv 16-32-64; two towers, four
/// classes), under `GemmThreading::Serial` as a server worker runs it,
/// and the narrow GEMMs inside it: conv2 and conv3 at batch one, whose C
/// is one output plane (`oh * ow` columns) wide.
fn bench_forward_b1(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let mut group = c.benchmark_group("cnn_forward_b1");
    for (name, (h, w), conv_channels, hidden) in [
        ("32x32", (32, 32), [8, 16, 32], 48),
        ("64x32", (64, 32), [16, 32, 64], 64),
    ] {
        let cfg = CnnConfig {
            conv_channels,
            hidden,
            seed: 7,
        };
        let net = build_cnn(Merging::Late, 2, (h, w), 4, &cfg);
        let sample: Vec<Tensor> = (0..2).map(|_| rand_tensor(&[h, w], &mut rng)).collect();
        group.bench_function(BenchmarkId::new("forward", name), |b| {
            with_gemm_threading(GemmThreading::Serial, || {
                b.iter(|| black_box(net.forward(black_box(&sample))))
            })
        });
    }
    for (name, m, n, k) in [
        ("32x32_conv2", 16, 64, 72),
        ("32x32_conv3", 32, 4, 144),
        ("64x32_conv2", 32, 128, 144),
        ("64x32_conv3", 64, 8, 288),
    ] {
        let a: Vec<f32> = (0..m * k).map(|_| rng.random::<f32>() - 0.5).collect();
        let bm: Vec<f32> = (0..k * n).map(|_| rng.random::<f32>() - 0.5).collect();
        let mut cm = vec![0.0f32; m * n];
        group.bench_function(BenchmarkId::new("sgemm", name), |b| {
            with_gemm_threading(GemmThreading::Serial, || {
                b.iter(|| {
                    sgemm(m, n, k, 1.0, &a, Trans::No, &bm, Trans::No, 1.0, &mut cm);
                    black_box(&mut cm);
                })
            })
        });
    }
    group.finish();
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
    targets = bench_forward_b1, bench_predict_batched, bench_train_step
}
criterion_main!(benches);
