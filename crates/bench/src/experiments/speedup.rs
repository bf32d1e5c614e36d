//! `repro fig8` — SpMV speedups from CNN predictions (E4, E5).
//!
//! Figure 8 plots, over the test matrices where the CNN and DT models
//! *disagree*, the speedup of running SpMV in the CNN-chosen format
//! over the DT-chosen format (paper: 1.73x average, 5.2x max, 86% of
//! disagreements improved). Section 7.3 also reports speedups over
//! always-using-CSR (paper CPU: 2.23x average / 14.9x max; GPU: 1.7x /
//! 22.5x). Times come from the same deterministic cost model that
//! produced the labels.

use crate::ExpConfig;
use dnnspmv_core::{make_samples, DtSelector, FormatSelector};
use dnnspmv_gen::{kfold, Dataset};
use dnnspmv_platform::{label_dataset_noisy, PlatformModel, WorkloadProfile};
use dnnspmv_repr::ReprKind;
use dnnspmv_sparse::CooMatrix;
use serde::{Deserialize, Serialize};

/// Distribution summary of one speedup comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpeedupStats {
    /// What is being compared (e.g. "CNN over DT").
    pub name: String,
    /// Number of matrices in the comparison.
    pub count: usize,
    /// Geometric quantities are more honest for ratios, but the paper
    /// reports arithmetic means; we report both.
    pub mean: f64,
    /// Geometric mean.
    pub geomean: f64,
    /// Maximum speedup.
    pub max: f64,
    /// Fraction of matrices with speedup >= 1.
    pub frac_improved: f64,
    /// Histogram over [`SpeedupStats::BUCKETS`] (last bucket is
    /// open-ended).
    pub histogram: Vec<usize>,
}

impl SpeedupStats {
    /// Bucket lower edges matching Figure 8's y-axis labels.
    pub const BUCKETS: [f64; 14] = [
        0.4, 0.8, 1.3, 1.7, 2.1, 2.5, 2.9, 3.3, 3.7, 4.1, 4.5, 4.9, 5.3, 5.7,
    ];

    fn from_ratios(name: &str, ratios: &[f64]) -> Self {
        let count = ratios.len();
        if count == 0 {
            return Self {
                name: name.into(),
                count: 0,
                mean: 0.0,
                geomean: 0.0,
                max: 0.0,
                frac_improved: 0.0,
                histogram: vec![0; Self::BUCKETS.len()],
            };
        }
        let mean = ratios.iter().sum::<f64>() / count as f64;
        let geomean = (ratios.iter().map(|r| r.ln()).sum::<f64>() / count as f64).exp();
        let max = ratios.iter().copied().fold(0.0f64, f64::max);
        let improved = ratios.iter().filter(|&&r| r >= 1.0).count();
        let mut histogram = vec![0usize; Self::BUCKETS.len()];
        for &r in ratios {
            // Find the last bucket whose lower edge is <= r.
            let mut b = 0;
            for (i, &edge) in Self::BUCKETS.iter().enumerate() {
                if r >= edge {
                    b = i;
                }
            }
            histogram[b] += 1;
        }
        Self {
            name: name.into(),
            count,
            mean,
            geomean,
            max,
            frac_improved: improved as f64 / count as f64,
            histogram,
        }
    }
}

/// Figure 8 + Section 7.3 result bundle.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpeedupResult {
    /// CNN-chosen over DT-chosen, disagreeing matrices only (Fig. 8).
    pub cnn_over_dt: SpeedupStats,
    /// CNN-chosen over default CSR, all CPU test matrices (§7.3).
    pub cnn_over_csr_cpu: SpeedupStats,
    /// CNN-chosen over default CSR on the GPU platform (§7.3).
    pub cnn_over_csr_gpu: SpeedupStats,
}

fn estimate_time(platform: &PlatformModel, p: &WorkloadProfile, label: usize) -> f64 {
    platform.estimate(p, platform.formats()[label])
}

/// Trains CNN+Histogram and DT on one fold of each platform, then
/// compares predicted-format SpMV times on the held-out matrices.
pub fn run(cfg: &ExpConfig) -> SpeedupResult {
    let data = Dataset::generate(&cfg.dataset);
    let folds = kfold(data.matrices.len(), cfg.folds.max(2), cfg.seed ^ 0xF01D);
    let (train_idx, test_idx) = &folds[0];

    let mut cpu_ratios_vs_dt = Vec::new();
    let mut cpu_ratios_vs_csr = Vec::new();
    let mut gpu_ratios_vs_csr = Vec::new();

    for platform in [PlatformModel::intel_cpu(), PlatformModel::nvidia_gpu()] {
        let labels = label_dataset_noisy(&data.matrices, &platform, cfg.label_noise, cfg.seed);
        let samples = make_samples(
            &data.matrices,
            &labels,
            ReprKind::Histogram,
            &cfg.repr_config,
        );
        let train: Vec<_> = train_idx.iter().map(|&i| samples[i].clone()).collect();
        let (cnn, _) = FormatSelector::train_on_samples(
            &train,
            platform.formats().to_vec(),
            &cfg.selector_config(ReprKind::Histogram),
        );
        let train_m: Vec<CooMatrix<f32>> = train_idx
            .iter()
            .map(|&i| data.matrices[i].clone())
            .collect();
        let train_l: Vec<usize> = train_idx.iter().map(|&i| labels[i]).collect();
        let dt = DtSelector::train(&train_m, &train_l, platform.formats().to_vec());

        let csr_label = platform
            .formats()
            .iter()
            .position(|f| *f == dnnspmv_sparse::SparseFormat::Csr)
            .expect("every platform set contains CSR");

        for &i in test_idx {
            let m = &data.matrices[i];
            let profile = WorkloadProfile::compute(m);
            let cnn_label = cnn.predict_label(m);
            let t_cnn = estimate_time(&platform, &profile, cnn_label);
            let t_csr = estimate_time(&platform, &profile, csr_label);
            if t_cnn.is_finite() && t_csr.is_finite() {
                if platform.is_gpu {
                    gpu_ratios_vs_csr.push(t_csr / t_cnn);
                } else {
                    cpu_ratios_vs_csr.push(t_csr / t_cnn);
                }
            }
            if !platform.is_gpu {
                let dt_label = dt.predict_label(m);
                if dt_label != cnn_label {
                    let t_dt = estimate_time(&platform, &profile, dt_label);
                    if t_cnn.is_finite() && t_dt.is_finite() {
                        cpu_ratios_vs_dt.push(t_dt / t_cnn);
                    }
                }
            }
        }
    }

    SpeedupResult {
        cnn_over_dt: SpeedupStats::from_ratios(
            "CNN over DT (disagreements, CPU)",
            &cpu_ratios_vs_dt,
        ),
        cnn_over_csr_cpu: SpeedupStats::from_ratios(
            "CNN over default CSR (CPU)",
            &cpu_ratios_vs_csr,
        ),
        cnn_over_csr_gpu: SpeedupStats::from_ratios(
            "CNN over default CSR (GPU)",
            &gpu_ratios_vs_csr,
        ),
    }
}

impl SpeedupResult {
    /// Renders the distribution like Figure 8 plus the §7.3 headlines.
    pub fn render(&self) -> String {
        let mut out = String::from("== Figure 8 / Section 7.3: SpMV speedups ==\n");
        for s in [
            &self.cnn_over_dt,
            &self.cnn_over_csr_cpu,
            &self.cnn_over_csr_gpu,
        ] {
            out.push_str(&format!(
                "{}: n={} mean={:.2}x geomean={:.2}x max={:.1}x improved={:.0}%\n",
                s.name,
                s.count,
                s.mean,
                s.geomean,
                s.max,
                100.0 * s.frac_improved
            ));
        }
        out.push_str("Speedup distribution (CNN over DT, disagreements):\n");
        let total = self.cnn_over_dt.count.max(1);
        for (i, &edge) in SpeedupStats::BUCKETS.iter().enumerate() {
            let c = self.cnn_over_dt.histogram[i];
            let pct = 100.0 * c as f64 / total as f64;
            let bar = "#".repeat((pct / 2.0).round() as usize);
            out.push_str(&format!("  >= {edge:>3.1}x: {pct:>5.1}% {bar}\n"));
        }
        out.push_str(
            "(paper: 1.73x mean, 5.2x max, 86% improved over DT; 2.23x/14.9x over CSR on CPU, 1.7x/22.5x on GPU)\n",
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_assignment_is_sane() {
        let s = SpeedupStats::from_ratios("t", &[0.5, 1.0, 1.5, 2.0, 6.0]);
        assert_eq!(s.count, 5);
        assert_eq!(s.max, 6.0);
        assert!((s.frac_improved - 0.8).abs() < 1e-9);
        // 6.0 lands in the open-ended last bucket.
        assert_eq!(*s.histogram.last().unwrap(), 1);
        assert_eq!(s.histogram.iter().sum::<usize>(), 5);
    }

    #[test]
    fn empty_ratios_do_not_panic() {
        let s = SpeedupStats::from_ratios("t", &[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }
}
