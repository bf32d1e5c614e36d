//! Measured labelling: time the real kernels on the host machine.
//!
//! This is the paper's actual labelling procedure (Section 3, step 1):
//! run SpMV in every candidate format, repeatedly, and pick the
//! fastest. It grounds the analytic model — the Criterion benches use
//! it to confirm that the model's *winners* usually win for real on the
//! host — at the cost of being machine-dependent and slow, which is why
//! the deterministic model drives the main experiments.

use crate::PlatformModel;
use dnnspmv_sparse::{AnyMatrix, CooMatrix, Scalar, SparseFormat, Spmv};
use std::time::Instant;

/// One matrix's measurement: per-format median times plus the winner.
/// Produced by [`MeasuredLabeller::measure`] so the feedback lane can
/// journal the full timing vector, not just the label.
#[derive(Debug, Clone)]
pub struct MeasuredTimings {
    /// Median SpMV seconds per candidate format (`f64::INFINITY` for
    /// formats the matrix cannot convert to).
    pub timings: Vec<(SparseFormat, f64)>,
    /// The measured-fastest format.
    pub best: SparseFormat,
}

/// Times real kernels to label matrices.
#[derive(Debug, Clone)]
pub struct MeasuredLabeller {
    /// Candidate formats.
    pub formats: Vec<SparseFormat>,
    /// Timed repetitions per format (the paper uses 50; the median is
    /// taken).
    pub trials: usize,
    /// Untimed warm-up repetitions per format.
    pub warmup: usize,
}

impl Default for MeasuredLabeller {
    fn default() -> Self {
        Self {
            formats: SparseFormat::CPU_SET.to_vec(),
            trials: 9,
            warmup: 2,
        }
    }
}

impl MeasuredLabeller {
    /// Median SpMV time in seconds for each candidate format
    /// (`f64::INFINITY` for formats the matrix cannot convert to).
    pub fn time_formats<S: Scalar>(&self, matrix: &CooMatrix<S>) -> Vec<(SparseFormat, f64)> {
        let x: Vec<S> = (0..matrix.ncols())
            .map(|i| S::from_f64(1.0 + (i % 7) as f64 * 0.125))
            .collect();
        let mut y = vec![S::ZERO; matrix.nrows()];
        self.formats
            .iter()
            .map(|&f| {
                let Ok(converted) = AnyMatrix::convert(matrix, f) else {
                    return (f, f64::INFINITY);
                };
                for _ in 0..self.warmup {
                    converted.spmv(&x, &mut y);
                }
                let mut times: Vec<f64> = (0..self.trials.max(1))
                    .map(|_| {
                        let t0 = Instant::now();
                        converted.spmv(&x, &mut y);
                        t0.elapsed().as_secs_f64()
                    })
                    .collect();
                times.sort_by(|a, b| a.partial_cmp(b).expect("durations are not NaN"));
                (f, times[times.len() / 2])
            })
            .collect()
    }

    /// Times every candidate and returns the full vector plus winner.
    pub fn measure<S: Scalar>(&self, matrix: &CooMatrix<S>) -> MeasuredTimings {
        let timings = self.time_formats(matrix);
        let best = timings
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("times are not NaN"))
            .expect("format set is non-empty")
            .0;
        MeasuredTimings { timings, best }
    }

    /// The measured-fastest format.
    pub fn best_format<S: Scalar>(&self, matrix: &CooMatrix<S>) -> SparseFormat {
        self.measure(matrix).best
    }

    /// A labeller matching a platform model's candidate set.
    pub fn for_platform(platform: &PlatformModel) -> Self {
        Self {
            formats: platform.formats().to_vec(),
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn times_are_positive_for_feasible_formats() {
        let n = 256;
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.0f32));
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
            }
        }
        let m = CooMatrix::from_triplets(n, n, &t).unwrap();
        let lab = MeasuredLabeller::default();
        let times = lab.time_formats(&m);
        assert_eq!(times.len(), 4);
        for (f, t) in &times {
            assert!(*t > 0.0, "{f} got {t}");
            assert!(t.is_finite(), "{f} infeasible on a tridiagonal matrix?");
        }
    }

    #[test]
    fn infeasible_formats_are_skipped_not_crashed() {
        // Anti-diagonal blows the DIA limit.
        let n = 10_000;
        let t: Vec<_> = (0..n).map(|i| (i, n - 1 - i, 1.0f32)).collect();
        let m = CooMatrix::from_triplets(n, n, &t).unwrap();
        let lab = MeasuredLabeller {
            trials: 1,
            warmup: 0,
            ..Default::default()
        };
        let times = lab.time_formats(&m);
        let dia = times
            .iter()
            .find(|(f, _)| *f == SparseFormat::Dia)
            .expect("DIA in CPU set");
        assert!(dia.1.is_infinite());
        let best = lab.best_format(&m);
        assert_ne!(best, SparseFormat::Dia);
    }

    #[test]
    fn for_platform_copies_the_format_set() {
        let gpu = PlatformModel::nvidia_gpu();
        let lab = MeasuredLabeller::for_platform(&gpu);
        assert_eq!(lab.formats, gpu.formats());
    }

    #[test]
    fn manycore_labeller_times_the_new_kernels() {
        // The widened set flows straight through: SELL-C-σ and
        // merge-path CSR get real (finite, positive) timings like
        // everything else.
        let n = 512;
        let mut t = Vec::new();
        for i in 0..n {
            for k in 0..1 + i % 6 {
                t.push((i, (i + k * 17) % n, 1.0f32 + k as f32));
            }
        }
        let m = CooMatrix::from_triplets(n, n, &t).unwrap();
        let lab = MeasuredLabeller {
            trials: 3,
            warmup: 1,
            ..MeasuredLabeller::for_platform(&PlatformModel::manycore_cpu())
        };
        let times = lab.time_formats(&m);
        assert_eq!(times.len(), SparseFormat::MANYCORE_SET.len());
        for f in [SparseFormat::Sell, SparseFormat::MergeCsr] {
            let (_, t) = times
                .iter()
                .find(|(g, _)| *g == f)
                .expect("widened set carries the new formats");
            assert!(*t > 0.0 && t.is_finite(), "{f}: {t}");
        }
    }
}
