//! Network structure builders: the paper's late-merging CNN (Figures 7
//! and 10) and the early-merging baseline (Figure 6).
//!
//! Both share the same tower schedule — `CONV(3x3xC1, s1)-ReLU-POOL →
//! CONV(3x3xC2, s2)-ReLU-POOL → CONV(3x3xC3, s2)-ReLU-POOL → Flatten` —
//! and the same two-dense-layer head; they differ only in whether each
//! input channel gets its own tower (late) or all channels enter one
//! tower as a multi-channel image (early). On a 128x128 input the
//! default channel schedule reproduces Figure 10's activation shapes:
//! 64x64x16 → 16x16x32 → 4x4x64 → 1024.

use crate::layers::{Conv2d, Dense, Layer, MaxPool2d};
use crate::network::{Cnn, Sequential};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Merge placement (Section 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Merging {
    /// One tower per channel; features join at the head (Figure 7).
    Late,
    /// One tower over stacked channels (Figure 6).
    Early,
}

/// Structural hyper-parameters of the CNN.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CnnConfig {
    /// Filters of the three tower convolutions (Figure 10: 16, 32, 64).
    pub conv_channels: [usize; 3],
    /// Width of the hidden dense layer in the head.
    pub hidden: usize,
    /// Parameter initialisation seed.
    pub seed: u64,
}

impl Default for CnnConfig {
    fn default() -> Self {
        Self {
            conv_channels: [16, 32, 64],
            hidden: 64,
            seed: 0xC44,
        }
    }
}

/// Builds a tower for `in_ch` input channels over an `h x w` image.
fn tower(in_ch: usize, cfg: &CnnConfig, rng: &mut StdRng) -> Sequential {
    let [c1, c2, c3] = cfg.conv_channels;
    Sequential::new(vec![
        Layer::Conv2d(Conv2d::new(in_ch, c1, 3, 1, rng)),
        Layer::Relu,
        Layer::MaxPool2d(MaxPool2d { size: 2 }),
        Layer::Conv2d(Conv2d::new(c1, c2, 3, 2, rng)),
        Layer::Relu,
        Layer::MaxPool2d(MaxPool2d { size: 2 }),
        Layer::Conv2d(Conv2d::new(c2, c3, 3, 2, rng)),
        Layer::Relu,
        Layer::MaxPool2d(MaxPool2d { size: 2 }),
        Layer::Flatten,
    ])
}

/// Builds a CNN for `channels` input channels of shape `(h, w)` and
/// `classes` output formats, with the requested merge placement.
///
/// # Panics
/// Panics if the channel shape is too small to survive the three
/// stride/pool reductions (roughly `min(h, w) < 16`).
pub fn build_cnn(
    merging: Merging,
    channels: usize,
    channel_shape: (usize, usize),
    classes: usize,
    cfg: &CnnConfig,
) -> Cnn {
    assert!(channels >= 1 && classes >= 2, "need channels and classes");
    let (h, w) = channel_shape;
    assert!(
        h.min(w) >= 16,
        "channel shape {h}x{w} too small for the three-stage tower"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let (towers, feat): (Vec<Sequential>, usize) = match merging {
        Merging::Late => {
            let ts: Vec<Sequential> = (0..channels).map(|_| tower(1, cfg, &mut rng)).collect();
            let f = ts
                .iter()
                .map(|t| t.out_shape(&[1, h, w]).iter().product::<usize>())
                .sum();
            (ts, f)
        }
        Merging::Early => {
            let t = tower(channels, cfg, &mut rng);
            let f = t.out_shape(&[channels, h, w]).iter().product();
            (vec![t], f)
        }
    };
    let head = Sequential::new(vec![
        Layer::Dense(Dense::new(feat, cfg.hidden, &mut rng)),
        Layer::Relu,
        Layer::Dense(Dense::new(cfg.hidden, classes, &mut rng)),
    ]);
    Cnn {
        towers,
        head,
        channel_shape,
        num_channels: channels,
    }
}

/// Pretty-prints the layer schedule with activation shapes, the textual
/// analogue of Figure 10.
pub fn describe_structure(net: &Cnn) -> String {
    let mut out = String::new();
    let (h, w) = net.channel_shape;
    let in_ch = if net.towers.len() == 1 {
        net.num_channels
    } else {
        1
    };
    for (ti, t) in net.towers.iter().enumerate() {
        out.push_str(&format!("tower {ti}: INPUT({h} x {w} x {in_ch})\n"));
        let mut shape = vec![in_ch, h, w];
        for l in &t.layers {
            shape = l.out_shape(&shape);
            let dims = shape
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("x");
            out.push_str(&format!("  {:28} -> {dims}\n", l.describe()));
        }
    }
    out.push_str("merge: concat tower features\n");
    let mut shape = vec![net
        .towers
        .iter()
        .map(|t| {
            t.out_shape(&[
                if net.towers.len() == 1 {
                    net.num_channels
                } else {
                    1
                },
                h,
                w,
            ])
            .iter()
            .product::<usize>()
        })
        .sum::<usize>()];
    for l in &net.head.layers {
        shape = l.out_shape(&shape);
        out.push_str(&format!("  {:28} -> {}\n", l.describe(), shape[0]));
    }
    out.push_str("  Softmax\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn late_merging_has_one_tower_per_channel() {
        let net = build_cnn(Merging::Late, 2, (32, 32), 4, &CnnConfig::default());
        assert_eq!(net.towers.len(), 2);
        assert_eq!(net.num_channels, 2);
    }

    #[test]
    fn early_merging_has_single_tower() {
        let net = build_cnn(Merging::Early, 2, (32, 32), 4, &CnnConfig::default());
        assert_eq!(net.towers.len(), 1);
        // First conv consumes both channels.
        let Layer::Conv2d(c) = &net.towers[0].layers[0] else {
            panic!("first layer should be conv");
        };
        assert_eq!(c.in_ch, 2);
    }

    #[test]
    fn standard_model_macs_match_the_closed_form() {
        // Served standard model: two late-merged 64x32 histogram towers.
        let net = build_cnn(Merging::Late, 2, (64, 32), 4, &CnnConfig::default());
        // conv1 s1 keeps 64x32, pool → 32x16; conv2 s2 → 16x8, pool →
        // 8x4; conv3 s2 → 4x2, pool → 2x1x64 = 128 features per tower.
        let tower = 64 * 32 * 16 * 9 + 16 * 8 * 32 * 16 * 9 + 4 * 2 * 64 * 32 * 9;
        let head = 2 * 128 * 64 + 64 * 4;
        assert_eq!(net.macs(1), (2 * tower + head) as u64);
        assert_eq!(net.macs(1), 2_081_024);
        assert_eq!(net.macs(8), 8 * net.macs(1));
        assert_eq!(net.macs(0), 0);
    }

    #[test]
    fn small_model_macs_match_the_closed_form() {
        // The small served model: 32x32 histograms, conv 8-16-32, 48 hidden.
        let cfg = CnnConfig {
            conv_channels: [8, 16, 32],
            hidden: 48,
            ..CnnConfig::default()
        };
        let net = build_cnn(Merging::Late, 2, (32, 32), 4, &cfg);
        // conv1 → 32x32, pool 16x16; conv2 → 8x8, pool 4x4; conv3 → 2x2,
        // pool → 1x1x32 = 32 features per tower.
        let tower = 32 * 32 * 8 * 9 + 8 * 8 * 16 * 8 * 9 + 2 * 2 * 32 * 16 * 9;
        let head = 2 * 32 * 48 + 48 * 4;
        assert_eq!(net.macs(1), (2 * tower + head) as u64);
        assert_eq!(net.macs(1), 335_040);
        // Early merging: one tower whose first convolution reads both
        // channels, so only conv1 doubles.
        let early = build_cnn(Merging::Early, 2, (32, 32), 4, &cfg);
        assert_eq!(
            early.macs(1),
            (tower + 32 * 32 * 8 * 9 + 32 * 48 + 48 * 4) as u64
        );
    }

    #[test]
    fn figure_10_shapes_on_128x128() {
        let net = build_cnn(Merging::Late, 2, (128, 128), 4, &CnnConfig::default());
        let t = &net.towers[0];
        // After conv1+pool: 16x64x64; conv2+pool: 32x16x16;
        // conv3+pool: 64x4x4; flatten: 1024 (Figure 10's waypoints).
        assert_eq!(t.out_shape(&[1, 128, 128]), vec![1024],);
        let partial = Sequential::new(t.layers[..3].to_vec());
        assert_eq!(partial.out_shape(&[1, 128, 128]), vec![16, 64, 64]);
        let partial = Sequential::new(t.layers[..6].to_vec());
        assert_eq!(partial.out_shape(&[1, 128, 128]), vec![32, 16, 16]);
        let partial = Sequential::new(t.layers[..9].to_vec());
        assert_eq!(partial.out_shape(&[1, 128, 128]), vec![64, 4, 4]);
    }

    #[test]
    fn rectangular_histogram_input_works() {
        // The paper's 128x50 histogram size must flow through.
        let net = build_cnn(Merging::Late, 2, (128, 50), 4, &CnnConfig::default());
        let out = net.towers[0].out_shape(&[1, 128, 50]);
        assert_eq!(out.len(), 1);
        assert!(out[0] > 0);
    }

    #[test]
    fn early_and_late_share_parameter_scale() {
        let late = build_cnn(Merging::Late, 2, (32, 32), 4, &CnnConfig::default());
        let early = build_cnn(Merging::Early, 2, (32, 32), 4, &CnnConfig::default());
        // Late has two towers of single-channel convs; early has one
        // tower with a 2-channel first conv. Counts are close but not
        // equal; both must be nonzero and same order of magnitude.
        let (lp, ep) = (late.num_params(), early.num_params());
        assert!(lp > 0 && ep > 0);
        assert!(lp < ep * 3 && ep < lp * 3, "lp={lp} ep={ep}");
    }

    #[test]
    fn seeded_build_is_deterministic() {
        let a = build_cnn(Merging::Late, 2, (32, 32), 4, &CnnConfig::default());
        let b = build_cnn(Merging::Late, 2, (32, 32), 4, &CnnConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn describe_mentions_all_stages() {
        let net = build_cnn(Merging::Late, 2, (64, 64), 4, &CnnConfig::default());
        let s = describe_structure(&net);
        assert!(s.contains("CONV(3x3x16, stride 1)"));
        assert!(s.contains("merge"));
        assert!(s.contains("Softmax"));
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_input_panics() {
        let _ = build_cnn(Merging::Late, 1, (8, 8), 2, &CnnConfig::default());
    }
}
