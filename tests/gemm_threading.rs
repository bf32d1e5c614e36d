//! End-to-end pins for the GEMM threading policy: server workers run
//! GEMM single-threaded (the workers themselves are the server's
//! parallelism), while training threads GEMM at the width its
//! `TrainConfig` asks for. Both tests observe the process-global slots
//! probe, so they serialise on a shared mutex.

use std::sync::{Arc, Mutex};

use dnnspmv::core::{
    FormatSelector, SelectorConfig, SelectorServer, SelectorService, ServerConfig,
};
use dnnspmv::gen::{Dataset, DatasetSpec};
use dnnspmv::nn::network::Sample;
use dnnspmv::nn::structures::{build_cnn, Merging};
use dnnspmv::nn::tensor::Tensor;
use dnnspmv::nn::{
    slots_probe_max, slots_probe_reset, train, CnnConfig, GemmThreading, TrainConfig,
};
use dnnspmv::platform::{label_dataset, PlatformModel};
use dnnspmv::repr::ReprConfig;

/// The slots probe is process-global: one test at a time.
static PROBE: Mutex<()> = Mutex::new(());

/// Server workers always run `GemmThreading::Serial`: a worker's
/// whole select pipeline — representation extraction and every GEMM in
/// the CNN forward — must resolve to exactly one slot, so concurrent
/// workers never contend on the rayon pool.
#[test]
fn server_gemm_stays_serial_by_default() {
    let guard = PROBE.lock().unwrap_or_else(|e| e.into_inner());
    let data = Dataset::generate(&DatasetSpec {
        n_base: 60,
        n_augmented: 0,
        dim_min: 48,
        dim_max: 96,
        seed: 47,
        ..DatasetSpec::default()
    });
    let intel = PlatformModel::intel_cpu();
    let labels = label_dataset(&data.matrices, &intel);
    let cfg = SelectorConfig {
        repr_config: ReprConfig {
            image_size: 32,
            hist_rows: 32,
            hist_bins: 16,
        },
        cnn: CnnConfig {
            conv_channels: [4, 8, 8],
            hidden: 16,
            seed: 5,
        },
        train: TrainConfig {
            epochs: 1,
            batch_size: 16,
            lr: 2e-3,
            ..TrainConfig::default()
        },
        ..SelectorConfig::default()
    };
    let (cnn, _) =
        FormatSelector::train_with_labels(&data.matrices, &labels, intel.formats().to_vec(), &cfg);
    let service = SelectorService::new(Some(cnn), None).unwrap();
    let server = SelectorServer::new(service, ServerConfig::default());

    slots_probe_reset();
    for m in data.matrices.iter().take(4) {
        server
            .submit(Arc::new(m.clone()), None)
            .unwrap()
            .wait()
            .unwrap();
    }
    let max = slots_probe_max();
    assert!(max >= 1, "no parallelisable GEMM ran in the select path");
    assert_eq!(max, 1, "server GEMM used {max} slots; must stay serial");
    drop(guard);
}

/// Training at `Fixed(3)` must actually resolve three slots in its
/// batched GEMMs — the probe records the widest partition any sgemm
/// call chose, and `Fixed` counts partition work even when the rayon
/// pool itself is smaller (workers share spans).
#[test]
fn training_under_fixed_threads_uses_that_many_slots() {
    let guard = PROBE.lock().unwrap_or_else(|e| e.into_inner());
    let samples: Vec<Sample> = (0..16)
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
        .collect();
    let mut net = build_cnn(
        Merging::Late,
        1,
        (16, 16),
        2,
        &CnnConfig {
            conv_channels: [4, 8, 8],
            hidden: 16,
            seed: 3,
        },
    );
    let cfg = TrainConfig {
        epochs: 1,
        batch_size: 8,
        gemm_threading: GemmThreading::Fixed(3),
        ..TrainConfig::default()
    };
    slots_probe_reset();
    train(&mut net, &samples, &cfg);
    assert_eq!(
        slots_probe_max(),
        3,
        "training at Fixed(3) must partition GEMMs into three spans"
    );
    drop(guard);
}
