//! The journal's record type: one sampled serve, ground-truthed.

use dnnspmv_core::SelectionSource;
use dnnspmv_nn::Tensor;
use dnnspmv_sparse::SparseFormat;
use serde::{Deserialize, Serialize};

/// One sampled request: what the selector served, what measurement says
/// it should have served, and everything needed to fine-tune on the
/// disagreement later (the extracted representation channels double as
/// the training input, so the trainer never needs the original matrix).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeedbackRecord {
    /// Sampler-assigned sequence number (monotone per process).
    pub seq: u64,
    /// Structural fingerprint of the matrix (the decision-cache key).
    /// Informational only: nothing joins records on it. Records written
    /// before the key read windows of consecutive entries carry keys of
    /// the older strided sample, which differ from today's for the same
    /// matrix.
    pub fingerprint: u64,
    /// Model generation that served the request.
    pub generation: u64,
    /// Format the selector served.
    pub chosen: SparseFormat,
    /// Which rung served it.
    pub source: SelectionSource,
    /// Measured-fastest format over the candidate set.
    pub measured_best: SparseFormat,
    /// Per-format times in seconds (infeasible formats are absent —
    /// JSON cannot carry `inf`).
    pub timings: Vec<(SparseFormat, f64)>,
    /// Extracted representation channels (the CNN input).
    pub channels: Vec<Tensor>,
    /// Matrix shape, for audits and filtering.
    pub nrows: usize,
    /// Matrix shape, for audits and filtering.
    pub ncols: usize,
    /// Stored nonzeros.
    pub nnz: usize,
}

impl FeedbackRecord {
    /// Whether the served format agreed with the measured label.
    pub fn hit(&self) -> bool {
        self.chosen == self.measured_best
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A small, valid record for journal tests.
    pub(crate) fn sample_record(seq: u64) -> FeedbackRecord {
        FeedbackRecord {
            seq,
            fingerprint: 0xdead_beef ^ seq,
            generation: 1,
            chosen: SparseFormat::Csr,
            source: SelectionSource::Cnn,
            measured_best: SparseFormat::Dia,
            timings: vec![(SparseFormat::Csr, 2.5e-6), (SparseFormat::Dia, 1.5e-6)],
            channels: vec![Tensor::from_vec(&[2, 2], vec![0.0, 1.0, 2.0, 3.0])],
            nrows: 64,
            ncols: 64,
            nnz: 128,
        }
    }

    #[test]
    fn hit_compares_chosen_to_measured() {
        let mut r = sample_record(0);
        assert!(!r.hit());
        r.measured_best = SparseFormat::Csr;
        assert!(r.hit());
    }

    #[test]
    fn record_round_trips_through_json() {
        let r = sample_record(3);
        let text = serde_json::to_string(&r).unwrap();
        let back: FeedbackRecord = serde_json::from_str(&text).unwrap();
        assert_eq!(back, r);
    }
}
