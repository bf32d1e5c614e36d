//! Property tests for the CNN framework: gradient correctness on random
//! layer configurations, loss invariants, optimiser behaviour.

use dnnspmv_nn::layers::{Conv2d, Dense, Layer, MaxPool2d};
use dnnspmv_nn::loss::{softmax, softmax_cross_entropy};
use dnnspmv_nn::tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn finite_diff_check(layer: &Layer, in_shape: &[usize], seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    use rand_distr::{Distribution, Normal};
    let d = Normal::new(0.0, 1.0).expect("valid");
    let vol: usize = in_shape.iter().product();
    let x = Tensor::from_vec(
        in_shape,
        (0..vol).map(|_| d.sample(&mut rng) as f32).collect(),
    );
    let out = layer.forward(&x);
    let w: Vec<f32> = (0..out.len()).map(|_| d.sample(&mut rng) as f32).collect();
    let gout = Tensor::from_vec(out.shape(), w.clone());
    let loss = |x: &Tensor| -> f64 {
        layer
            .forward(x)
            .data()
            .iter()
            .zip(&w)
            .map(|(&o, &wi)| (o * wi) as f64)
            .sum()
    };
    let (gin, _) = layer.backward(&x, &gout);
    let eps = 1e-3f32;
    let mut bad = 0;
    let mut checked = 0;
    for idx in (0..x.len()).step_by((x.len() / 9).max(1)) {
        let mut xp = x.clone();
        xp.data_mut()[idx] += eps;
        let mut xm = x.clone();
        xm.data_mut()[idx] -= eps;
        let num = (loss(&xp) - loss(&xm)) / (2.0 * eps as f64);
        let ana = gin.data()[idx] as f64;
        checked += 1;
        if (num - ana).abs() > 2e-2 * (1.0 + num.abs().max(ana.abs())) {
            bad += 1;
        }
    }
    // Non-smooth layers (pool) may disagree at kinks on a few points.
    if bad * 5 > checked {
        return Err(format!("{bad}/{checked} gradient checks failed"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn conv_gradients_hold_for_random_configs(
        in_ch in 1usize..3,
        out_ch in 1usize..4,
        stride in 1usize..3,
        hw in 5usize..9,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let layer = Layer::Conv2d(Conv2d::new(in_ch, out_ch, 3, stride, &mut rng));
        finite_diff_check(&layer, &[in_ch, hw, hw], seed).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn dense_gradients_hold_for_random_configs(
        din in 1usize..12,
        dout in 1usize..8,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let layer = Layer::Dense(Dense::new(din, dout, &mut rng));
        finite_diff_check(&layer, &[din], seed).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn pool_gradients_hold(c in 1usize..3, hw in 4usize..9, seed in 0u64..500) {
        let layer = Layer::MaxPool2d(MaxPool2d { size: 2 });
        finite_diff_check(&layer, &[c, hw, hw], seed).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn softmax_is_a_distribution(logits in proptest::collection::vec(-20.0f32..20.0, 1..10)) {
        let p = softmax(&logits);
        let sum: f32 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        // Shift invariance.
        let shifted: Vec<f32> = logits.iter().map(|v| v + 7.5).collect();
        let q = softmax(&shifted);
        for (a, b) in p.iter().zip(&q) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn cross_entropy_is_nonnegative_and_grad_sums_zero(
        logits in proptest::collection::vec(-10.0f32..10.0, 2..8),
        label_pick in 0usize..100,
    ) {
        let label = label_pick % logits.len();
        let t = Tensor::from_vec(&[logits.len()], logits.clone());
        let (loss, grad) = softmax_cross_entropy(&t, label);
        prop_assert!(loss >= 0.0);
        let s: f32 = grad.data().iter().sum();
        prop_assert!(s.abs() < 1e-4);
        // Gradient for the true class is negative (push it up).
        prop_assert!(grad.data()[label] <= 0.0);
    }

    #[test]
    fn layer_out_shapes_match_forward(
        in_ch in 1usize..3,
        out_ch in 1usize..4,
        stride in 1usize..3,
        hw in 5usize..10,
        seed in 0u64..100,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = [
            Layer::Conv2d(Conv2d::new(in_ch, out_ch, 3, stride, &mut rng)),
            Layer::MaxPool2d(MaxPool2d { size: 2 }),
            Layer::Relu,
            Layer::Flatten,
        ];
        for l in &layers {
            let shape = vec![in_ch, hw, hw];
            let out = l.forward(&Tensor::zeros(&shape));
            let expect = l.out_shape(&shape);
            prop_assert_eq!(out.shape(), expect.as_slice());
        }
    }
}
