//! Fixed-size CNN input representations of sparse matrices.
//!
//! CNNs need constant-size inputs; matrices come in every size. The
//! paper (Section 4) explores three *normalisations* that map an
//! `m x n` matrix onto fixed-size images while keeping the features
//! that drive format selection:
//!
//! * [`binary`] — image-style down-sampling to a `H x W` 0/1 map of
//!   which blocks contain nonzeros. Cheap but lossy: it can turn
//!   irregular near-diagonals into perfect diagonals (Figure 4),
//!   confusing DIA-vs-CSR decisions.
//! * [`density`] — same block grid, but each cell holds the *fraction*
//!   of the block that is nonzero, preserving within-block variation.
//! * [`histogram`] — the paper's best performer: per-row-band (and
//!   per-column-band) histograms of each nonzero's distance to the main
//!   diagonal (Algorithm 1). Distance-based rather than position-based,
//!   so diagonal structure survives normalisation exactly.
//!
//! [`MatrixRepr::extract`] bundles these into the three channel
//! configurations evaluated in Table 2 (`Binary`, `Binary+Density`,
//! `Histogram`), each a list of equally-sized channels that the CNN's
//! towers consume.

pub mod histogram;
pub mod image;
pub mod sample;
mod sweep;

pub use histogram::{col_histogram, row_histogram};
pub use image::Image;
pub use sample::{binary, density};

use dnnspmv_sparse::{CooMatrix, Scalar};
use serde::{Deserialize, Serialize};

/// Cooperative-cancellation callback threaded through the extraction
/// loops. Returns `true` when the caller's deadline has passed; the
/// extraction then stops and reports `None` instead of finishing.
/// Checked once per [`CANCEL_STRIDE`] nonzeros, so the callback may be
/// arbitrarily cheap or read a clock without dominating the loop.
pub type CancelCheck<'a> = &'a dyn Fn() -> bool;

/// Nonzeros processed between two cancellation checks. Large enough to
/// make the check free relative to the loop body, small enough that a
/// pathological matrix cannot wedge a worker for more than a few tens
/// of microseconds past its deadline.
pub const CANCEL_STRIDE: usize = 1 << 16;

/// Which representation feeds the CNN (the rows of Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReprKind {
    /// One channel: the binary down-sampled map.
    Binary,
    /// Two channels: binary map + density map.
    BinaryDensity,
    /// Two channels: row-distance histogram + column-distance histogram.
    Histogram,
}

impl ReprKind {
    /// All kinds, in Table 2 order.
    pub const ALL: [ReprKind; 3] = [
        ReprKind::Binary,
        ReprKind::BinaryDensity,
        ReprKind::Histogram,
    ];

    /// Number of input channels this representation produces.
    pub fn channels(self) -> usize {
        match self {
            ReprKind::Binary => 1,
            ReprKind::BinaryDensity | ReprKind::Histogram => 2,
        }
    }

    /// Display name matching the paper's table headers.
    pub fn name(self) -> &'static str {
        match self {
            ReprKind::Binary => "CNN+Binary",
            ReprKind::BinaryDensity => "CNN+Binary+Density",
            ReprKind::Histogram => "CNN+Histogram",
        }
    }
}

/// Output sizes of the fixed representations.
///
/// The paper uses 128x128 images and 128x50 histograms; the defaults
/// here are smaller so the full experiment suite runs in minutes (the
/// paper's sizes are exercised by the size-sweep ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReprConfig {
    /// Edge of the square binary/density images.
    pub image_size: usize,
    /// Number of row/column bands in the histograms.
    pub hist_rows: usize,
    /// Number of distance bins in the histograms.
    pub hist_bins: usize,
}

impl Default for ReprConfig {
    fn default() -> Self {
        Self {
            image_size: 64,
            hist_rows: 64,
            hist_bins: 32,
        }
    }
}

impl ReprConfig {
    /// The exact sizes reported in the paper (Section 7.2).
    pub fn paper() -> Self {
        Self {
            image_size: 128,
            hist_rows: 128,
            hist_bins: 50,
        }
    }

    /// Channel shape (height, width) for a representation kind.
    pub fn channel_shape(&self, kind: ReprKind) -> (usize, usize) {
        match kind {
            ReprKind::Binary | ReprKind::BinaryDensity => (self.image_size, self.image_size),
            ReprKind::Histogram => (self.hist_rows, self.hist_bins),
        }
    }
}

/// A normalised matrix: one or two fixed-size channels, all values in
/// `[0, 1]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatrixRepr {
    /// Which representation this is.
    pub kind: ReprKind,
    /// The channels, each of the shape given by
    /// [`ReprConfig::channel_shape`].
    pub channels: Vec<Image>,
}

impl MatrixRepr {
    /// Normalises `matrix` into the `kind` representation.
    pub fn extract<S: Scalar>(matrix: &CooMatrix<S>, kind: ReprKind, cfg: &ReprConfig) -> Self {
        Self::extract_with_cancel(matrix, kind, cfg, &|| false).expect("never cancelled")
    }

    /// [`MatrixRepr::extract`] under a cancellation checkpoint: every
    /// kind is one sweep over the nonzeros that checks `cancel` every
    /// [`CANCEL_STRIDE`] nonzeros and returns `None` as soon as it
    /// reports `true` — the hook a serving layer uses to enforce
    /// per-request deadlines on pathological inputs.
    pub fn extract_with_cancel<S: Scalar>(
        matrix: &CooMatrix<S>,
        kind: ReprKind,
        cfg: &ReprConfig,
        cancel: CancelCheck,
    ) -> Option<Self> {
        let (size, bands, bins) = (cfg.image_size, cfg.hist_rows, cfg.hist_bins);
        let channels = match kind {
            ReprKind::Histogram => histogram::histograms(matrix, bands, bins, cancel)?.into(),
            ReprKind::Binary | ReprKind::BinaryDensity => {
                let counts = sample::block_counts(matrix, size, cancel)?;
                let mut channels = vec![sample::binary_of(&counts, size)];
                if kind == ReprKind::BinaryDensity {
                    let shape = (matrix.nrows(), matrix.ncols());
                    channels.push(sample::density_of(&counts, size, shape));
                }
                channels
            }
        };
        Some(Self { kind, channels })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(n: usize) -> CooMatrix<f32> {
        let t: Vec<_> = (0..n).map(|i| (i, i, 1.0f32)).collect();
        CooMatrix::from_triplets(n, n, &t).unwrap()
    }

    #[test]
    fn channel_counts_match_kind() {
        let cfg = ReprConfig {
            image_size: 8,
            hist_rows: 8,
            hist_bins: 4,
        };
        let m = diag(32);
        for kind in ReprKind::ALL {
            let r = MatrixRepr::extract(&m, kind, &cfg);
            assert_eq!(r.channels.len(), kind.channels(), "{kind:?}");
            let (h, w) = cfg.channel_shape(kind);
            for ch in &r.channels {
                assert_eq!((ch.height(), ch.width()), (h, w));
            }
        }
    }

    #[test]
    fn all_values_are_normalised() {
        let m = diag(100);
        let cfg = ReprConfig::default();
        for kind in ReprKind::ALL {
            let r = MatrixRepr::extract(&m, kind, &cfg);
            for ch in &r.channels {
                for &v in ch.data() {
                    assert!((0.0..=1.0).contains(&v), "{kind:?}: value {v}");
                }
            }
        }
    }

    #[test]
    fn names_match_paper_headers() {
        assert_eq!(ReprKind::Histogram.name(), "CNN+Histogram");
        assert_eq!(ReprKind::BinaryDensity.name(), "CNN+Binary+Density");
    }

    #[test]
    fn cancellation_stops_extraction_on_every_kind() {
        use std::cell::Cell;
        let m = diag(64);
        let cfg = ReprConfig {
            image_size: 8,
            hist_rows: 8,
            hist_bins: 4,
        };
        for kind in ReprKind::ALL {
            // Never cancelled: identical to the plain extraction.
            let r = MatrixRepr::extract_with_cancel(&m, kind, &cfg, &|| false).unwrap();
            assert_eq!(r, MatrixRepr::extract(&m, kind, &cfg));
            // Cancelled from the start: aborts at the first checkpoint.
            assert!(MatrixRepr::extract_with_cancel(&m, kind, &cfg, &|| true).is_none());
            // The checkpoint is actually polled, not just consulted once.
            let polls = Cell::new(0u32);
            let cancel_on_second = || {
                polls.set(polls.get() + 1);
                polls.get() > 1
            };
            let _ = MatrixRepr::extract_with_cancel(&m, kind, &cfg, &cancel_on_second);
            assert!(polls.get() >= 1, "{kind:?}");
        }
    }

    #[test]
    fn cells_keep_counting_past_two_to_the_24() {
        // 257 slices of 2^16 nonzeros that all land in cell (0, 0): an
        // `f32 += 1.0` counter stops at 16 777 216.
        let zeros = vec![0u32; 1 << 16];
        let coords = (&zeros[..], &zeros[..]);
        let (mut by_rows, mut by_cols, mut blocks) = ([0u32; 4], [0u32; 4], [0u32; 4]);
        for _ in 0..257 {
            assert!(histogram::add_to_histograms(
                (4, 4),
                coords,
                2,
                &mut by_rows,
                &mut by_cols,
                &|| false
            ));
            assert!(sample::add_to_blocks(
                (4, 4),
                coords,
                2,
                &mut blocks,
                &|| false
            ));
        }
        for counts in [by_rows, by_cols, blocks] {
            assert_eq!(counts, [(1 << 24) + (1 << 16), 0, 0, 0]);
            assert_eq!(sweep::counts_to_f32(&counts)[0], 16_842_752.0);
        }
    }

    #[test]
    fn paper_config_matches_section_7() {
        let p = ReprConfig::paper();
        assert_eq!(p.image_size, 128);
        assert_eq!((p.hist_rows, p.hist_bins), (128, 50));
    }
}
