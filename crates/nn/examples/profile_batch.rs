//! Dev profiling harness for the batched inference path: times the
//! single-sample and batched predict paths and their stages so perf
//! work on `forward_batch` has numbers to aim at.
//! Run with `cargo run --release -p dnnspmv-nn --example profile_batch`.

use dnnspmv_nn::network::Sequential;
use dnnspmv_nn::{build_cnn, CnnConfig, Merging, Tensor};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

fn rand_tensor(shape: &[usize], rng: &mut StdRng) -> Tensor {
    let vol: usize = shape.iter().product();
    Tensor::from_vec(shape, (0..vol).map(|_| rng.random::<f32>() - 0.5).collect())
}

fn time<F: FnMut()>(label: &str, reps: usize, mut f: F) -> f64 {
    // Warm up.
    f();
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    let us = t.elapsed().as_secs_f64() * 1e6 / reps as f64;
    println!("{label:44} {us:10.1} us");
    us
}

fn main() {
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
    let n = 32;
    let samples: Vec<Vec<Tensor>> = (0..n)
        .map(|_| (0..2).map(|_| rand_tensor(&[32, 32], &mut rng)).collect())
        .collect();
    let refs: Vec<&[Tensor]> = samples.iter().map(|s| s.as_slice()).collect();
    let reps = 200;

    time(&format!("predict x{n} singles"), reps, || {
        for s in &samples {
            black_box(net.predict(black_box(s)));
        }
    });
    time(&format!("predict_batch {n}"), reps, || {
        black_box(net.predict_batch(black_box(&refs)));
    });

    // Tower-level: one tower over the batch vs per-sample.
    let tower = &net.towers[0];
    let xs: Vec<Tensor> = samples
        .iter()
        .map(|s| s[0].clone().reshape(&[1, 32, 32]))
        .collect();
    time("tower forward x32 batches of one", reps, || {
        for x in &xs {
            black_box(tower.forward_batch_until(vec![black_box(x).clone()], &|| false));
        }
    });
    time("tower forward_batch 32", reps, || {
        black_box(tower.forward_batch_until(black_box(xs.clone()), &|| false));
    });
    let clone_us = time("  (xs.clone() overhead)", reps, || {
        black_box(xs.clone());
    });

    // Per-layer cost while chained: the walk over each prefix of the
    // tower, less the prefix before it (the first row carries the pack,
    // every row its own gather into rows).
    let mut before = clone_us;
    for i in 0..tower.layers.len() {
        let prefix = Sequential::new(tower.layers[..=i].to_vec());
        let us = time(
            &format!("  walk through layer {i} {}", tower.layers[i].describe()),
            reps,
            || {
                black_box(prefix.forward_batch_until(black_box(xs.clone()), &|| false));
            },
        );
        println!("{:44} {:10.1} us", "    (this layer, chained)", us - before);
        before = us;
    }
}
