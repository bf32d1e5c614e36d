//! The three workloads: what each one is made of and why.
//!
//! Everything a workload feeds the program derives from `--seed`
//! through [`crate::util::Rng`]; the program only ever receives
//! generated matrices. Traffic is stratified by structural family and,
//! where one request's cost follows its size, sized to a fixed number
//! of nonzeros, so that two seeds give different matrices of the same
//! weight and a metric's seed-to-seed spread stays below its bound.

use crate::util::{zipf_stream, Fnv, Rng};
use dnnspmv_gen::{generate, DatasetSpec, MatrixClass};
use dnnspmv_sparse::CooMatrix;
use std::sync::Arc;

/// How a workload's matrices are sized.
#[derive(Debug, Clone, Copy)]
pub enum Sizing {
    /// Edge drawn uniformly from `lo..=hi`, nonzeros as they fall.
    Dim { lo: usize, hi: usize },
    /// Edge chosen per matrix so that it holds about `nnz` nonzeros
    /// (within a fifth), and lies in `lo..=hi`.
    Nnz {
        nnz: &'static [usize],
        lo: usize,
        hi: usize,
    },
}

/// How requests walk the matrix set.
#[derive(Debug, Clone, Copy)]
pub enum Order {
    /// Round-robin: every request is a new matrix until the set wraps.
    Cycle,
    /// Seeded Zipf with this exponent: few matrices draw most requests.
    Zipf(f64),
}

#[derive(Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// Structural families of the traffic, two or more matrices each.
    pub classes: &'static [MatrixClass],
    pub per_class: usize,
    pub sizing: Sizing,
    pub order: Order,
    /// Seed of the training corpus and of the training run. The served
    /// model is part of the workload, not of its seeded input: a model
    /// retrained per seed flips its choice for whole structural
    /// families from one seed to the next (uniform-row matrices between
    /// ELL and a 20× slower DIA), which no bound could hold.
    pub model_seed: u64,
    /// Training corpus: size and edge range.
    pub corpus: usize,
    pub corpus_dim: (usize, usize),
    /// 64×64 / 64×32 inputs, conv 16-32-64, hidden 64 when set; else
    /// 32×32, conv 8-16-32, hidden 48.
    pub standard_model: bool,
    pub epochs: usize,
    /// Train on `intel_cpu` labels, then `Migration::TopEvolvement` to
    /// `amd_cpu` labels (towers frozen).
    pub migrated: bool,
    /// `CacheConfig::enabled(n)`; 0 leaves the library default (off).
    pub cache: usize,
    /// Requests per depth-1 and per depth-8 slice.
    pub serve_chunk: usize,
    /// Every `solve_stride`-th request of a depth-1 slice is solved.
    pub solve_stride: usize,
    /// SpMV iterations timed per solve (per-iteration time = total / reps).
    pub spmv_reps: usize,
    /// Batch-32 `train_step` calls per train slice.
    pub train_steps: usize,
    /// Rounds (one slice of every phase) per second asked for by
    /// `--seconds`, sized on the reference host at nominal speed.
    pub rounds_per_second: f64,
}

const ALL: &[MatrixClass] = &MatrixClass::ALL;
/// Past a few thousand rows the distance histogram no longer resolves
/// the few-column jitter that tells a uniform-row matrix (ELL) from a
/// banded one (DIA), and the selector's choice for the family flips
/// between ELL and a 20× slower DIA from one instance to the next: one
/// matrix in fourteen would decide every `tts_*` number. The family
/// stays in `service_small`, where the histogram resolves it.
const LARGE: &[MatrixClass] = &[
    MatrixClass::Banded,
    MatrixClass::Stencil,
    MatrixClass::Block,
    MatrixClass::PowerLaw,
    MatrixClass::Random,
    MatrixClass::Hypersparse,
];
/// And a 60 000-nonzero hypersparse matrix would need a million rows.
const MEDIUM: &[MatrixClass] = &[
    MatrixClass::Banded,
    MatrixClass::Stencil,
    MatrixClass::Block,
    MatrixClass::PowerLaw,
    MatrixClass::Random,
];

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "solver_large",
        why: "12 matrices of 0.5-1.2 M nonzeros, past L2, cache off: repr extraction, sparse conversion and SpMV do the work; nn, server and cache changes should move nothing",
        classes: LARGE,
        per_class: 2,
        // Hypersparse cannot reach these counts inside `hi` rows; it
        // falls back to `hi` rows and stays a few thousand nonzeros.
        sizing: Sizing::Nnz { nnz: &[500_000, 1_200_000], lo: 30_000, hi: 400_000 },
        order: Order::Cycle,
        model_seed: 1,
        corpus: 400,
        corpus_dim: (512, 2048),
        standard_model: true,
        epochs: 8,
        migrated: false,
        cache: 0,
        serve_chunk: 6,
        solve_stride: 1,
        spmv_reps: 3,
        train_steps: 2,
        rounds_per_second: 4.0,
    },
    Spec {
        name: "service_small",
        why: "602 distinct matrices of edge 48-256, cache off: every request is a miss that costs a CNN forward plus queue, batcher and two thread hand-offs; sparse changes should move nothing",
        classes: ALL,
        per_class: 86,
        sizing: Sizing::Dim { lo: 48, hi: 256 },
        order: Order::Cycle,
        model_seed: 1,
        corpus: 400,
        corpus_dim: (48, 256),
        standard_model: false,
        epochs: 18,
        migrated: false,
        cache: 0,
        serve_chunk: 301,
        solve_stride: 1,
        spmv_reps: 16,
        train_steps: 4,
        rounds_per_second: 8.0,
    },
    Spec {
        name: "service_repeat",
        why: "Zipf traffic over 200 matrices of 60 k nonzeros with a 128-entry decision cache and a migrated (head-only trained) model: hits set p50, misses with insert and eviction set p90, SpMV runs from L2",
        classes: MEDIUM,
        per_class: 40,
        sizing: Sizing::Nnz { nnz: &[60_000], lo: 2_000, hi: 20_000 },
        order: Order::Zipf(0.45),
        model_seed: 1,
        corpus: 400,
        corpus_dim: (256, 1024),
        standard_model: false,
        epochs: 12,
        migrated: true,
        cache: 128,
        serve_chunk: 256,
        solve_stride: 8,
        spmv_reps: 8,
        train_steps: 16,
        rounds_per_second: 8.0,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    /// The training corpus (the library's own dataset builder: 70 %
    /// generated, 30 % augmented, its default class mix).
    pub fn corpus_spec(&self) -> DatasetSpec {
        self.dataset_spec(self.model_seed ^ 0x00C0_4915)
    }

    /// A second corpus of the same kind, never trained on, drawn from
    /// the run's seed.
    pub fn heldout_spec(&self, seed: u64) -> DatasetSpec {
        self.dataset_spec(seed ^ 0x04E1_D0A7)
    }

    fn dataset_spec(&self, seed: u64) -> DatasetSpec {
        DatasetSpec {
            n_base: self.corpus * 7 / 10,
            n_augmented: self.corpus - self.corpus * 7 / 10,
            dim_min: self.corpus_dim.0,
            dim_max: self.corpus_dim.1,
            seed,
            ..DatasetSpec::default()
        }
    }
}

/// Length of a Zipf request sequence; slices walk it and wrap.
const ZIPF_LEN: usize = 8192;

pub struct Traffic {
    pub matrices: Vec<Arc<CooMatrix<f32>>>,
    /// Matrix index of every request, in order.
    pub sequence: Vec<u32>,
}

impl Traffic {
    pub fn generate(spec: &Spec, seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x007A_FF1C);
        let n = spec.classes.len() * spec.per_class;
        // Interleave the families, so that a prefix of the set (and the
        // head of a Zipf ranking) holds every family.
        let matrices: Vec<_> = (0..n)
            .map(|i| {
                let class = spec.classes[i % spec.classes.len()];
                let slot = i / spec.classes.len();
                Arc::new(match spec.sizing {
                    Sizing::Dim { lo, hi } => {
                        let dim = rng.range(lo, hi);
                        generate(class, dim, rng.next_u64())
                    }
                    Sizing::Nnz { nnz, lo, hi } => {
                        sized(class, nnz[slot % nnz.len()], lo, hi, &mut rng)
                    }
                })
            })
            .collect();
        let sequence = match spec.order {
            Order::Cycle => (0..n as u32).collect(),
            Order::Zipf(s) => zipf_stream(n, s, ZIPF_LEN, rng.next_u64()),
        };
        Self { matrices, sequence }
    }

    /// FNV-1a64 of every matrix and of the request sequence.
    pub fn hash(&self) -> u64 {
        let mut h = Fnv::new();
        for m in &self.matrices {
            h.matrix(m);
        }
        h.u32s(&self.sequence);
        h.finish()
    }
}

/// Edge at which the generators' density is read off before the real
/// matrix is made.
const PREVIEW_DIM: usize = 4096;
const SIZED_TRIES: usize = 64;

/// A `class` matrix of about `target` nonzeros: the density of a small
/// preview with the same seed gives the edge, and a candidate is taken
/// when it lands within a fifth of the target with its edge inside
/// `lo..=hi`. After [`SIZED_TRIES`] candidates (a family that cannot
/// reach the target inside the bounds) the edge is clamped instead.
fn sized(class: MatrixClass, target: usize, lo: usize, hi: usize, rng: &mut Rng) -> CooMatrix<f32> {
    let mut clamped = None;
    for _ in 0..SIZED_TRIES {
        let seed = rng.next_u64();
        let preview = generate(class, PREVIEW_DIM, seed);
        let per_row = preview.nnz() as f64 / preview.nrows() as f64;
        let dim = (target as f64 / per_row).round() as usize;
        if dim < lo || dim > hi {
            clamped.get_or_insert((dim.clamp(lo, hi), seed));
            continue;
        }
        let m = generate(class, dim, seed);
        if m.nnz().abs_diff(target) * 5 <= target {
            return m;
        }
    }
    let (dim, seed) = clamped.unwrap_or((hi, rng.next_u64()));
    generate(class, dim, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sized_lands_within_a_fifth() {
        let mut rng = Rng::new(11);
        for class in MEDIUM {
            let m = sized(*class, 20_000, 500, 20_000, &mut rng);
            assert!(
                m.nnz().abs_diff(20_000) * 5 <= 20_000,
                "{class:?}: {} nonzeros",
                m.nnz()
            );
        }
        // Out of reach: clamped, not looping for ever.
        let m = sized(MatrixClass::Hypersparse, 20_000, 500, 8_000, &mut rng);
        assert_eq!(m.nrows(), 8_000);
    }

    #[test]
    fn traffic_is_a_function_of_the_seed() {
        let small = Spec {
            per_class: 2,
            sizing: Sizing::Nnz {
                nnz: &[4_000],
                lo: 200,
                hi: 4_000,
            },
            ..*spec("service_repeat").unwrap()
        };
        let a = Traffic::generate(&small, 1);
        assert_eq!(a.hash(), Traffic::generate(&small, 1).hash());
        assert_ne!(a.hash(), Traffic::generate(&small, 2).hash());
        assert_eq!(a.matrices.len(), 10);
        assert_eq!(a.sequence.len(), ZIPF_LEN);
    }
}
