//! The frozen reference: what a caller without this library writes.
//!
//! A scalar row-loop CSR built from sorted COO arrays. It is the
//! baseline of every `tts_*` ratio and, run on one fixed matrix, the
//! host-speed probe every wall-clock number is divided by. It also owns
//! the two roofline ceilings (`triad`, `fma`) and the thread hand-off
//! probe ([`Echo`]).
//!
//! NEVER EDIT after the PR that added the benchmark: every later number
//! is expressed in units of this code. A PR that speeds up the
//! library's own `CsrMatrix` must show as a gain against it.

use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Instant;

/// Plain CSR: `ptr[r]..ptr[r + 1]` indexes row `r` in `col` / `val`.
pub struct RefCsr {
    pub nrows: usize,
    pub ptr: Vec<u32>,
    pub col: Vec<u32>,
    pub val: Vec<f32>,
}

/// Builds [`RefCsr`] from row-major sorted COO arrays (the canonical
/// `CooMatrix` order): one counting pass, one prefix sum, two copies.
pub fn ref_build(nrows: usize, rows: &[u32], cols: &[u32], vals: &[f32]) -> RefCsr {
    let mut ptr = vec![0u32; nrows + 1];
    for &r in rows {
        ptr[r as usize + 1] += 1;
    }
    for i in 0..nrows {
        ptr[i + 1] += ptr[i];
    }
    RefCsr {
        nrows,
        ptr,
        col: cols.to_vec(),
        val: vals.to_vec(),
    }
}

/// `y = A x`, one scalar accumulator per row.
#[allow(clippy::needless_range_loop)] // the textbook loop is the point
pub fn ref_spmv(a: &RefCsr, x: &[f32], y: &mut [f32]) {
    for r in 0..a.nrows {
        let mut acc = 0.0f32;
        for k in a.ptr[r] as usize..a.ptr[r + 1] as usize {
            acc += a.val[k] * x[a.col[k] as usize];
        }
        y[r] = acc;
    }
}

/// xorshift64: the probe matrix must never depend on a seed or on any
/// other generator in the repository.
fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

const PROBE_ROWS: usize = 30_000;
const PROBE_ROW_NNZ: usize = 8;
const PROBE_ITERS: usize = 4;
const PROBE_REPS: usize = 3;

/// The host-speed probe: 4 `ref_spmv` iterations over a fixed
/// 30 000-row, 8-per-row random matrix. One reading is the fastest of
/// three repetitions, which rejects an interrupt landing in one of them
/// and reads the matrix warm.
pub struct Probe {
    a: RefCsr,
    x: Vec<f32>,
    y: Vec<f32>,
}

impl Probe {
    pub fn new() -> Self {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let nnz = PROBE_ROWS * PROBE_ROW_NNZ;
        let (mut rows, mut cols, mut vals) = (
            Vec::with_capacity(nnz),
            Vec::with_capacity(nnz),
            Vec::with_capacity(nnz),
        );
        for r in 0..PROBE_ROWS {
            for _ in 0..PROBE_ROW_NNZ {
                rows.push(r as u32);
                cols.push((xorshift(&mut s) % PROBE_ROWS as u64) as u32);
                vals.push((xorshift(&mut s) % 1000) as f32 / 1000.0);
            }
        }
        Self {
            a: ref_build(PROBE_ROWS, &rows, &cols, &vals),
            x: vec![1.0; PROBE_ROWS],
            y: vec![0.0; PROBE_ROWS],
        }
    }

    /// One reading, in microseconds.
    pub fn read_us(&mut self) -> f64 {
        let mut best = f64::MAX;
        for _ in 0..PROBE_REPS {
            let t = Instant::now();
            for _ in 0..PROBE_ITERS {
                ref_spmv(&self.a, &self.x, &mut self.y);
                black_box(&mut self.y);
            }
            best = best.min(t.elapsed().as_secs_f64() * 1e6);
        }
        best
    }
}

type Inbox = (Mutex<VecDeque<Option<mpsc::Sender<()>>>>, Condvar);

/// The hand-off probe: a worker thread that answers at once, reached
/// the way the selector server is reached — a job pushed on a
/// mutex-and-condvar queue, the answer sent back on a channel made for
/// that one request. A round trip costs two thread wake-ups and no
/// work, so its time is what the host charges for a request crossing
/// threads: about 2 us when an idle vCPU wakes fast, about 40 us when
/// it does not, for minutes at a time, whatever the clock does.
pub struct Echo {
    inbox: Arc<Inbox>,
    worker: Option<std::thread::JoinHandle<()>>,
}

const ECHO_TRIPS: usize = 24;

impl Echo {
    pub fn new() -> Self {
        let inbox: Arc<Inbox> = Arc::new((Mutex::new(VecDeque::new()), Condvar::new()));
        let theirs = Arc::clone(&inbox);
        let worker = std::thread::Builder::new()
            .name("perfbench-echo".into())
            .spawn(move || loop {
                let job = {
                    let mut q = theirs
                        .0
                        .lock()
                        .expect("echo worker never panics holding the lock");
                    loop {
                        match q.pop_front() {
                            Some(job) => break job,
                            None => q = theirs.1.wait(q).expect("as above"),
                        }
                    }
                };
                match job {
                    Some(reply) => drop(reply.send(())),
                    None => return,
                }
            })
            .expect("spawn the echo thread");
        Self {
            inbox,
            worker: Some(worker),
        }
    }

    fn push(&self, job: Option<mpsc::Sender<()>>) {
        self.inbox
            .0
            .lock()
            .expect("echo worker never panics holding the lock")
            .push_back(job);
        self.inbox.1.notify_one();
    }

    /// One reading: the median of 24 round trips, in seconds.
    pub fn read_s(&self) -> f64 {
        let mut trips: Vec<f64> = (0..ECHO_TRIPS)
            .map(|_| {
                let t = Instant::now();
                let (tx, rx) = mpsc::channel();
                self.push(Some(tx));
                rx.recv().expect("the echo worker answers every job");
                t.elapsed().as_secs_f64()
            })
            .collect();
        trips.sort_by(f64::total_cmp);
        trips[ECHO_TRIPS / 2]
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        self.push(None);
        if let Some(w) = self.worker.take() {
            // The worker only ever returns; a join error cannot be reported from here.
            let _ = w.join();
        }
    }
}

/// STREAM triad over three 64 MB arrays, best of 3 passes, in GB/s
/// (12 bytes moved per element: two reads, one write).
pub fn triad_gbs() -> f64 {
    const N: usize = 16 << 20;
    let b = vec![1.0f32; N];
    let c = vec![2.0f32; N];
    let mut a = vec![0.0f32; N];
    let mut best = f64::MAX;
    for _ in 0..3 {
        let t = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = *b + 3.0 * *c;
        }
        black_box(&mut a);
        best = best.min(t.elapsed().as_secs_f64());
    }
    (N * 12) as f64 / best / 1e9
}

/// Single-thread fused-multiply-add peak over 64 independent lanes,
/// best of 3, in GFLOP/s (2 flops per lane per step).
pub fn fma_gflops() -> f64 {
    const LANES: usize = 64;
    const STEPS: usize = 1 << 20;
    let mut best = f64::MAX;
    for _ in 0..3 {
        let mut acc = [1.0f32; LANES];
        let m = black_box(1.000_000_1f32);
        let t = Instant::now();
        for _ in 0..STEPS {
            for a in acc.iter_mut() {
                *a = a.mul_add(m, 1e-9);
            }
        }
        black_box(acc);
        best = best.min(t.elapsed().as_secs_f64());
    }
    (LANES * STEPS * 2) as f64 / best / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ref_spmv_matches_a_dense_product() {
        // [[1 0 2], [0 0 0], [0 3 4]]
        let a = ref_build(3, &[0, 0, 2, 2], &[0, 2, 1, 2], &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.ptr, vec![0, 2, 2, 4]);
        let mut y = [9.0f32; 3];
        ref_spmv(&a, &[1.0, 10.0, 100.0], &mut y);
        assert_eq!(y, [201.0, 0.0, 430.0]);
    }

    #[test]
    fn echo_answers_and_stops() {
        let e = Echo::new();
        let rtt = e.read_s();
        assert!(rtt > 0.0 && rtt < 0.1, "{rtt}");
        drop(e); // joins the worker
    }

    #[test]
    fn probe_matrix_is_fixed() {
        let p = Probe::new();
        assert_eq!(p.a.col.len(), PROBE_ROWS * PROBE_ROW_NNZ);
        assert_eq!(&p.a.col[..3], &Probe::new().a.col[..3]);
    }
}
