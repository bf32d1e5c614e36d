//! Measured labelling: time the real kernels on the host machine.
//!
//! This is the paper's actual labelling procedure (Section 3, step 1):
//! run SpMV in every candidate format, repeatedly, and pick the
//! fastest. It is machine-dependent and slow, which is why the
//! deterministic model drives the main experiments; the feedback lane's
//! sampler uses it to time served matrices.
//!
//! Only formats with a kernel can be timed. BSR, CSR5 and merge-path CSR
//! are names the cost models price; asking this labeller to time one is a
//! caller bug, so it panics naming the format rather than reporting a
//! time it never measured.

use dnnspmv_sparse::{AnyMatrix, CooMatrix, Scalar, SparseError, SparseFormat, Spmv};
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
    ///
    /// # Panics
    ///
    /// If a candidate has no kernel ([`SparseError::NoKernel`]).
    pub fn time_formats<S: Scalar>(&self, matrix: &CooMatrix<S>) -> Vec<(SparseFormat, f64)> {
        let x: Vec<S> = (0..matrix.ncols())
            .map(|i| S::from_f64(1.0 + (i % 7) as f64 * 0.125))
            .collect();
        let mut y = vec![S::ZERO; matrix.nrows()];
        self.formats
            .iter()
            .map(|&f| {
                let converted = match AnyMatrix::convert(matrix, f) {
                    Ok(converted) => converted,
                    Err(e @ SparseError::NoKernel { .. }) => panic!("cannot time {f}: {e}"),
                    Err(_) => return (f, f64::INFINITY),
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

    fn jittered_rows() -> CooMatrix<f32> {
        let n = 512;
        let mut t = Vec::new();
        for i in 0..n {
            for k in 0..1 + i % 6 {
                t.push((i, (i + k * 17) % n, 1.0f32 + k as f32));
            }
        }
        CooMatrix::from_triplets(n, n, &t).unwrap()
    }

    fn labeller_for(formats: &[SparseFormat]) -> MeasuredLabeller {
        MeasuredLabeller {
            formats: formats.to_vec(),
            trials: 3,
            warmup: 1,
        }
    }

    #[test]
    fn manycore_labeller_times_the_new_kernels() {
        // SELL-C-σ has a kernel, so it gets a real (finite, positive)
        // timing like the CPU formats.
        let times =
            labeller_for(&[SparseFormat::Csr, SparseFormat::Sell]).time_formats(&jittered_rows());
        let (_, t) = times[1];
        assert!(t > 0.0 && t.is_finite(), "SELL: {t}");
    }

    #[test]
    fn timing_a_name_only_format_panics_naming_it() {
        // BSR, CSR5 and merge-path CSR are priced by the cost models
        // only: there is no kernel to time, and a made-up time would be
        // a wrong label. In the GPU set BSR is the first name-only class.
        for (formats, name) in [
            (&SparseFormat::MANYCORE_SET[..], "MCSR"),
            (&SparseFormat::GPU_SET[..], "BSR"),
            (&[SparseFormat::Csr, SparseFormat::Csr5][..], "CSR5"),
        ] {
            let payload = std::panic::catch_unwind(|| {
                labeller_for(formats).time_formats(&jittered_rows());
            })
            .expect_err(name);
            let msg = payload.downcast_ref::<String>().expect("formatted panic");
            assert!(msg.contains(&format!("cannot time {name}:")), "{msg}");
        }
    }
}
