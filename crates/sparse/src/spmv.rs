//! The SpMV kernel trait implemented by every storage format.

use crate::scalar::Scalar;

/// Sparse matrix–vector multiplication: `y = A * x`.
///
/// `x.len()` must equal [`Spmv::ncols`] and `y.len()` must equal
/// [`Spmv::nrows`]; kernels panic otherwise (these are programmer errors,
/// not data errors). `y` is overwritten, not accumulated into.
pub trait Spmv<S: Scalar>: Send + Sync {
    /// Number of rows of the operator.
    fn nrows(&self) -> usize;

    /// Number of columns of the operator.
    fn ncols(&self) -> usize;

    /// The format's one kernel: the one labels are timed on and serving
    /// runs.
    fn spmv(&self, x: &[S], y: &mut [S]);

    /// Entry point for thread-parallel SpMV. No format overrides it: it
    /// runs [`Spmv::spmv`], so callers of either time the same kernel. A
    /// real span driver goes here (ROADMAP item 1).
    fn spmv_par(&self, x: &[S], y: &mut [S]) {
        self.spmv(x, y);
    }

    /// Convenience allocating wrapper around [`Spmv::spmv`].
    fn spmv_alloc(&self, x: &[S]) -> Vec<S> {
        let mut y = vec![S::ZERO; self.nrows()];
        self.spmv(x, &mut y);
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal Spmv impl to exercise the trait defaults.
    struct Identity(usize);

    impl Spmv<f64> for Identity {
        fn nrows(&self) -> usize {
            self.0
        }
        fn ncols(&self) -> usize {
            self.0
        }
        fn spmv(&self, x: &[f64], y: &mut [f64]) {
            y.copy_from_slice(x);
        }
    }

    #[test]
    fn default_par_falls_back_to_sequential() {
        let id = Identity(3);
        let mut y = vec![0.0; 3];
        id.spmv_par(&[1.0, 2.0, 3.0], &mut y);
        assert_eq!(y, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn spmv_alloc_allocates_correct_length() {
        let id = Identity(2);
        assert_eq!(id.spmv_alloc(&[4.0, 5.0]), vec![4.0, 5.0]);
    }
}
