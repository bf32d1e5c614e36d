//! The untraced run: the phases every end-to-end metric comes from.
//!
//! One round is one slice of each phase — serve at depth 1, serve at
//! depth 8, solve, train — and rounds repeat for the whole run, so a
//! clock state that lasts seconds touches every phase alike.

use crate::reference::{ref_build, ref_spmv};
use crate::setup::Model;
use crate::timing::{correct_latency, quantile_sorted, Acc, Timer};
use crate::workloads::{Spec, Traffic};
use dnnspmv_core::{PendingSelection, SelectorServer};
use dnnspmv_nn::{
    train_step, with_gemm_threading, BatchTrainState, Cnn, Optimizer, Sample, TrainConfig,
};
use dnnspmv_sparse::{AnyMatrix, CooMatrix, SparseFormat, Spmv};
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Callers multiplexed on the generator thread in the throughput phase.
pub const DEPTH: usize = 8;
pub const BATCH: usize = 32;

/// Operations attempted and failed: server requests, conversions after
/// fallback, result checks.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Walks a request sequence slice by slice, wrapping.
pub struct Cursor {
    at: usize,
}

impl Cursor {
    pub fn new(at: usize) -> Self {
        Self { at }
    }

    pub fn take(&mut self, sequence: &[u32], n: usize) -> Vec<u32> {
        let out = (0..n)
            .map(|i| sequence[(self.at + i) % sequence.len()])
            .collect();
        self.at = (self.at + n) % sequence.len();
        out
    }
}

/// Serves `chunk` one request at a time; returns each request's
/// submit→answer time in seconds (+∞ for a failed one) with whether it
/// crossed to the worker thread, and records the chosen formats. With
/// the decision cache on, a request answered inside `submit` is told
/// from one that was queued by the server's own hit counter, read
/// outside the timed window.
pub fn serve_depth1(
    server: &SelectorServer<f32>,
    matrices: &[Arc<CooMatrix<f32>>],
    chunk: &[u32],
    cached: bool,
    chosen: &mut [Option<SparseFormat>],
    ops: &mut Ops,
) -> Vec<(f64, bool)> {
    let hits = || {
        if cached {
            server.report().cache.hits
        } else {
            0
        }
    };
    chunk
        .iter()
        .map(|&i| {
            let m = Arc::clone(&matrices[i as usize]);
            let before = hits();
            let t = Instant::now();
            let answer = server.submit(m, None).and_then(PendingSelection::wait);
            let dt = t.elapsed().as_secs_f64();
            let crossed = hits() == before;
            ops.record(answer.is_ok());
            match answer {
                Ok(sel) => {
                    chosen[i as usize] = Some(sel.format);
                    (dt, crossed)
                }
                Err(_) => (f64::INFINITY, crossed),
            }
        })
        .collect()
}

/// Serves `chunk` with [`DEPTH`] requests outstanding: a closed loop of
/// eight callers, each submitting its next request when its last one is
/// answered, multiplexed on this one thread.
pub fn serve_depth8(
    server: &SelectorServer<f32>,
    matrices: &[Arc<CooMatrix<f32>>],
    chunk: &[u32],
    ops: &mut Ops,
) {
    let mut pending: VecDeque<PendingSelection> = VecDeque::with_capacity(DEPTH);
    let settle = |p: PendingSelection, ops: &mut Ops| ops.record(p.wait().is_ok());
    for &i in chunk {
        if pending.len() == DEPTH {
            settle(pending.pop_front().expect("non-empty"), ops);
        }
        match server.submit(Arc::clone(&matrices[i as usize]), None) {
            Ok(p) => pending.push_back(p),
            Err(_) => ops.record(false),
        }
    }
    for p in pending {
        settle(p, ops);
    }
}

/// The parts of a caller's solve, summed over the solved requests.
#[derive(Debug, Default, Clone, Copy)]
pub struct SolveParts {
    /// Depth-1 submit→answer time of the solved requests.
    pub select: Acc,
    /// `AnyMatrix::convert` to the chosen format, CSR on failure.
    pub convert: Acc,
    /// One `spmv_par` iteration in the chosen format.
    pub spmv: Acc,
    /// `ref_build`.
    pub ref_build: Acc,
    /// One `ref_spmv` iteration.
    pub ref_spmv: Acc,
    pub fallbacks: u64,
    pub solves: u64,
}

impl SolveParts {
    /// Σ(ref_build + k·ref_spmv) / Σ(select + convert + k·spmv),
    /// corrected and raw.
    pub fn speedup(&self, k: f64) -> (f64, f64) {
        let of = |pick: fn(&Acc) -> f64| {
            (pick(&self.ref_build) + k * pick(&self.ref_spmv))
                / (pick(&self.select) + pick(&self.convert) + k * pick(&self.spmv))
        };
        (of(|a| a.corrected_s), of(|a| a.raw_s))
    }

    /// Σ(select + convert − ref_build) / Σ ref_spmv: what choosing a
    /// format costs, counted in reference SpMV iterations.
    pub fn overhead_iters(&self) -> (f64, f64) {
        let of = |pick: fn(&Acc) -> f64| {
            (pick(&self.select) + pick(&self.convert) - pick(&self.ref_build))
                / pick(&self.ref_spmv)
        };
        (of(|a| a.corrected_s), of(|a| a.raw_s))
    }
}

/// Scratch vectors for SpMV, sized for the largest matrix; a matrix
/// uses a prefix of each.
pub struct SolveBuffers {
    pub x: Vec<f32>,
    pub y: Vec<f32>,
    y_ref: Vec<f32>,
}

impl SolveBuffers {
    pub fn new<'a>(matrices: impl IntoIterator<Item = &'a CooMatrix<f32>> + Clone) -> Self {
        let cols = matrices
            .clone()
            .into_iter()
            .map(|m| m.ncols())
            .max()
            .unwrap_or(0);
        let rows = matrices.into_iter().map(|m| m.nrows()).max().unwrap_or(0);
        Self {
            x: (0..cols).map(|i| 0.5 + (i % 17) as f32 / 16.0).collect(),
            y: vec![0.0; rows],
            y_ref: vec![0.0; rows],
        }
    }
}

/// Raw seconds of one solve's parts.
pub struct SolveTimes {
    pub convert: f64,
    pub spmv: f64,
    pub ref_build: f64,
    pub ref_spmv: f64,
    pub fell_back: bool,
}

/// Converts `m` to `format` (CSR when that fails), runs `reps`
/// parallel SpMV iterations, does the same with the frozen reference,
/// and checks the two results against each other.
pub fn solve_one(
    m: &CooMatrix<f32>,
    format: SparseFormat,
    reps: usize,
    buf: &mut SolveBuffers,
    ops: &mut Ops,
) -> SolveTimes {
    let x = &buf.x[..m.ncols()];
    let y = &mut buf.y[..m.nrows()];
    let y_ref = &mut buf.y_ref[..m.nrows()];

    let t = Instant::now();
    let (any, fell_back) = match AnyMatrix::convert(m, format) {
        Ok(a) => (Ok(a), false),
        Err(_) => (AnyMatrix::convert(m, SparseFormat::Csr), true),
    };
    let convert = t.elapsed().as_secs_f64();
    ops.record(any.is_ok());
    let Ok(any) = any else {
        return SolveTimes {
            convert,
            spmv: f64::INFINITY,
            ref_build: 0.0,
            ref_spmv: 0.0,
            fell_back,
        };
    };

    let t = Instant::now();
    for _ in 0..reps {
        any.spmv_par(black_box(x), y);
        black_box(&mut *y);
    }
    let spmv = t.elapsed().as_secs_f64() / reps as f64;

    let t = Instant::now();
    let r = ref_build(m.nrows(), m.row_indices(), m.col_indices(), m.values());
    let ref_build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for _ in 0..reps {
        ref_spmv(&r, black_box(x), y_ref);
        black_box(&mut *y_ref);
    }
    let ref_spmv_s = t.elapsed().as_secs_f64() / reps as f64;

    ops.record(results_agree(&r.ptr, y, y_ref));
    SolveTimes {
        convert,
        spmv,
        ref_build: ref_build_s,
        ref_spmv: ref_spmv_s,
        fell_back,
    }
}

/// Two f32 row sums of `n` products of magnitude below 4 may differ by
/// a few ulps per product, whatever the order they were added in.
pub fn results_agree(ptr: &[u32], y: &[f32], y_ref: &[f32]) -> bool {
    y.iter().zip(y_ref).enumerate().all(|(r, (a, b))| {
        let n = (ptr[r + 1] - ptr[r]) as f32;
        (a - b).abs() <= 4.0 * f32::EPSILON * 4.0 * (n + 1.0) * (n + 1.0).sqrt().max(4.0)
    })
}

/// The training phase: `train_step` on a copy of the served model,
/// under the library's default GEMM threading, with the towers frozen
/// when the workload's model was migrated.
pub struct Trainer<'a> {
    net: Cnn,
    opt: Optimizer,
    state: BatchTrainState,
    samples: &'a [Sample],
    at: usize,
}

impl<'a> Trainer<'a> {
    pub fn new(model: &'a Model, spec: &Spec) -> Self {
        let mut net = model.selector.net.clone();
        let cfg = &model.selector.config.train;
        let opt = Optimizer::new(&mut net, cfg.optimizer, cfg.lr, spec.migrated);
        let state = BatchTrainState::new(&net);
        Self {
            net,
            opt,
            state,
            samples: &model.samples,
            at: 0,
        }
    }

    pub fn steps(&mut self, n: usize) {
        with_gemm_threading(TrainConfig::default().gemm_threading, || {
            for _ in 0..n {
                let batch: Vec<usize> = (0..BATCH)
                    .map(|i| (self.at + i) % self.samples.len())
                    .collect();
                self.at = (self.at + BATCH) % self.samples.len();
                let loss = train_step(
                    &mut self.net,
                    self.samples,
                    &batch,
                    &mut self.opt,
                    &mut self.state,
                );
                black_box(loss);
            }
        });
    }
}

/// Everything the untraced phases measured.
pub struct Measured {
    /// Depth-1 latencies in µs, corrected and raw, each ascending.
    pub lat_us: Vec<f64>,
    pub lat_raw_us: Vec<f64>,
    pub depth8: Acc,
    pub depth8_requests: u64,
    pub solve: SolveParts,
    pub train: Acc,
    pub train_samples: u64,
    pub rounds: usize,
    /// Depth-1 requests answered from the cache / sent.
    pub depth1_hits: u64,
    pub depth1_requests: u64,
}

impl Measured {
    /// (corrected, raw) latency quantile in µs.
    pub fn latency(&self, q: f64) -> (f64, f64) {
        (
            quantile_sorted(&self.lat_us, q),
            quantile_sorted(&self.lat_raw_us, q),
        )
    }
}

/// Runs `rounds` rounds (after one untimed warm-up round that fills
/// the decision cache and lets lazy set-up finish), fewer if they take
/// longer than `budget_s`.
#[allow(clippy::too_many_arguments)]
pub fn measure(
    spec: &Spec,
    model: &Model,
    server: &SelectorServer<f32>,
    traffic: &Traffic,
    rounds: usize,
    budget_s: f64,
    timer: &mut Timer,
    ops: &mut Ops,
) -> Measured {
    let mats = &traffic.matrices;
    let seq = &traffic.sequence;
    let mut chosen = vec![None; mats.len()];
    let mut buf = SolveBuffers::new(mats.iter().map(Arc::as_ref));
    let mut trainer = Trainer::new(model, spec);
    let mut d1 = Cursor::new(0);
    let mut d8 = Cursor::new(seq.len() / 2);
    let mut out = Measured {
        lat_us: Vec::new(),
        lat_raw_us: Vec::new(),
        depth8: Acc::default(),
        depth8_requests: 0,
        solve: SolveParts::default(),
        train: Acc::default(),
        train_samples: 0,
        rounds: 0,
        depth1_hits: 0,
        depth1_requests: 0,
    };

    // Warm-up: one pass over the set (or a cache's worth of Zipf).
    let warm = d1.take(seq, mats.len().max(2 * spec.cache));
    let cached = spec.cache > 0;
    serve_depth1(server, mats, &warm, cached, &mut chosen, ops);
    serve_depth8(server, mats, &d8.take(seq, spec.serve_chunk), ops);
    trainer.steps(1);
    timer.refresh();

    let started = Instant::now();
    while out.rounds < rounds && started.elapsed().as_secs_f64() < budget_s {
        out.rounds += 1;
        let chunk = d1.take(seq, spec.serve_chunk);
        let handoff_before = timer.handoff_s();
        let (lat, s) = timer.slice(|| serve_depth1(server, mats, &chunk, cached, &mut chosen, ops));
        let handoff = 0.5 * (handoff_before + timer.handoff_s());
        for (n, &(raw, crossed)) in lat.iter().enumerate() {
            let corrected = correct_latency(raw, crossed, handoff, s.factor);
            out.lat_us.push(corrected * 1e6);
            out.lat_raw_us.push(raw * 1e6);
            out.depth1_hits += u64::from(!crossed);
            // The solved requests' select time is their latency here.
            if n % spec.solve_stride == 0 {
                out.solve.select.add_corrected(raw, corrected);
            }
        }
        out.depth1_requests += chunk.len() as u64;

        let chunk8 = d8.take(seq, spec.serve_chunk);
        let ((), s) = timer.slice(|| serve_depth8(server, mats, &chunk8, ops));
        out.depth8.add(s.raw_s, s.factor);
        out.depth8_requests += chunk8.len() as u64;

        let (times, s) = timer.slice(|| {
            chunk
                .iter()
                .step_by(spec.solve_stride)
                .map(|&i| {
                    let format = chosen[i as usize].unwrap_or(SparseFormat::Csr);
                    solve_one(&mats[i as usize], format, spec.spmv_reps, &mut buf, ops)
                })
                .collect::<Vec<_>>()
        });
        for t in times {
            out.solve.convert.add(t.convert, s.factor);
            out.solve.spmv.add(t.spmv, s.factor);
            out.solve.ref_build.add(t.ref_build, s.factor);
            out.solve.ref_spmv.add(t.ref_spmv, s.factor);
            out.solve.fallbacks += u64::from(t.fell_back);
            out.solve.solves += 1;
        }

        let ((), s) = timer.slice(|| trainer.steps(spec.train_steps));
        out.train.add(s.raw_s, s.factor);
        out.train_samples += (spec.train_steps * BATCH) as u64;
    }
    out.lat_us.sort_by(f64::total_cmp);
    out.lat_raw_us.sort_by(f64::total_cmp);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_wraps() {
        let seq = [0, 1, 2, 3, 4];
        let mut c = Cursor::new(3);
        assert_eq!(c.take(&seq, 4), vec![3, 4, 0, 1]);
        assert_eq!(c.take(&seq, 2), vec![2, 3]);
    }

    #[test]
    fn results_agree_scales_with_row_length() {
        let ptr = [0, 2, 1002];
        assert!(results_agree(&ptr, &[1.0, 500.0], &[1.0, 500.001]));
        assert!(!results_agree(&ptr, &[1.0, 500.0], &[1.001, 500.0]));
        assert!(!results_agree(&ptr, &[1.0, 500.0], &[1.0, 501.0]));
    }

    #[test]
    fn speedup_and_overhead_compose_from_parts() {
        let mut p = SolveParts::default();
        p.select.add(2.0, 1.0);
        p.convert.add(3.0, 1.0);
        p.spmv.add(0.5, 1.0);
        p.ref_build.add(1.0, 1.0);
        p.ref_spmv.add(1.0, 1.0);
        // k = 10: (1 + 10) / (2 + 3 + 5)
        assert!((p.speedup(10.0).0 - 1.1).abs() < 1e-12);
        // (2 + 3 - 1) / 1
        assert!((p.overhead_iters().0 - 4.0).abs() < 1e-12);
    }
}
